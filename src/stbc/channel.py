"""Rayleigh block-fading channel sampling and R-matrix structure profiling.

The complex transmission Y = c H S + N is equivalent to the real model

    tilde(vec(Y)) = c H_eq s + tilde(vec(N)),   H_eq = (I_T x realify(H)) G,

with G the design's generator matrix: column i of H_eq is
tilde(vec(H A_i)).  It is built that way, from one complex product of H
with the weights laid side by side (``STBCDesign.weight_rows``) and an
interleave of real and imaginary parts, for one channel or a stack of
them; the Kronecker form above, mostly zero blocks, is never formed.
Whenever two weight matrices
satisfy A_i A_j^H + A_j A_i^H = 0 the corresponding columns of H_eq are
orthogonal for every H, whatever their position, which pins structural
zeros into the R factor of the column-ordered QR.  The zero pattern
below is stated for the builtin layout (layer-major, group-contiguous
weight order), in which each layer's diagonal R block collapses to
I_4 x V with V upper triangular of size n_t/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import STBCDesign
from .errors import DimensionMismatchError, RankDeficientError
from .linalg import gram_schmidt_qr, pairwise_residual
from .rng import CTX_PROFILE, substream

__all__ = [
    "ChannelRealization",
    "RProfile",
    "LayerBlock",
    "sample_channel",
    "sample_channels",
    "equivalent_channel",
    "column_orthogonality_pairs",
    "mandated_zero_mask",
    "r_profile",
]


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One i.i.d. CN(0,1) channel draw."""

    H: np.ndarray

    @property
    def n_r(self) -> int:
        return self.H.shape[0]

    @property
    def n_t(self) -> int:
        return self.H.shape[1]


def sample_channels(
    n_t: int, n_r: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` channels H as one (count, n_r, n_t) array.

    Entries are i.i.d. circularly symmetric with unit variance: real and
    imaginary parts are independent N(0, 1/2).  Each draw takes its real
    part, then its imaginary part, from the stream, so the stack equals
    ``count`` successive :func:`sample_channel` calls bit for bit.
    """
    return _complex_normal(rng.standard_normal((count, 2, n_r, n_t)))


def _complex_normal(parts: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries from standard normals laid out (..., 2, rows,
    cols): the real parts, then the imaginary parts."""
    z = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
    z *= np.sqrt(0.5)
    return z


def sample_channel(n_t: int, n_r: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw one H (see :func:`sample_channels`), read-only."""
    h = sample_channels(n_t, n_r, 1, rng)[0]
    h.setflags(write=False)
    return ChannelRealization(H=h)


def equivalent_channel(H: np.ndarray, design: STBCDesign) -> np.ndarray:
    """Real equivalent channel, shape 2*n_r*T x 2k, for H of shape
    (n_r, n_t) or a stack (..., n_r, n_t).

    Column i is tilde(vec(H A_i)), so tilde(vec(H S(s))) = H_eq s for
    the unnormalized codeword map; energy normalization is applied by
    the caller where needed.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != design.n_t:
        raise DimensionMismatchError(
            f"channel shape {H.shape} does not match n_t={design.n_t}"
        )
    *lead, n_r, n_t = H.shape
    n, T, m = design.n_real_symbols, design.T, len(lead)
    hw = (H.reshape(-1, n_t) @ design.weight_rows).view(float)
    # axes [..., r, i, t, re/im] -> [..., t, r, re/im, i], so that row
    # 2*(t*n_r + r) + re/im of column i is entry (r, t) of H A_i
    parts = hw.reshape(*lead, n_r, n, T, 2).transpose(*range(m), m + 2, m, m + 3, m + 1)
    return parts.reshape(*lead, 2 * n_r * T, n)


def column_orthogonality_pairs(
    design: STBCDesign, tol: float = 1e-12
) -> set[tuple[int, int]]:
    """All 0-based index pairs (i < j) with A_i A_j^H + A_j A_i^H = 0.

    For every such pair the i-th and j-th columns of H_eq are orthogonal
    for every channel realization.
    """
    resid = pairwise_residual(design.weight_stack, design.weight_stack, adjoint=True)
    return set(map(tuple, np.argwhere(np.triu(resid <= tol, 1)).tolist()))


def mandated_zero_mask(design: STBCDesign) -> np.ndarray:
    """Boolean 2k x 2k mask of R entries forced to zero for every channel.

    Everything strictly below the diagonal, plus -- inside each layer's
    diagonal block -- all entries outside the I_4 x (upper triangular)
    pattern.  Off-diagonal layer blocks carry no guaranteed zeros.
    """
    n = design.n_real_symbols
    off = _cross_group_blocks(n // design.layers, design.group_size)
    return np.tril(np.ones((n, n), dtype=bool), k=-1) | np.kron(
        np.eye(design.layers, dtype=bool), off)


def _cross_group_blocks(per_layer: int, gs: int) -> np.ndarray:
    """(per_layer, per_layer) mask of the blocks of one layer's diagonal R
    block that pair two different groups of gs symbols."""
    k = per_layer // gs
    out = np.zeros((per_layer, per_layer), dtype=bool)
    out[: k * gs, : k * gs] = np.kron(~np.eye(k, dtype=bool), np.ones((gs, gs), dtype=bool))
    return out


@dataclass(frozen=True, eq=False)
class LayerBlock:
    """Structure summary of one layer's diagonal R block."""

    layer: int
    kron_identity: bool
    V: np.ndarray
    max_cross_group: float
    max_block_mismatch: float


@dataclass(frozen=True, eq=False)
class RProfile:
    """R factor of the (column-normalized) equivalent channel QR."""

    R: np.ndarray
    zero_mask: np.ndarray
    layer_blocks: tuple[LayerBlock, ...]
    tol: float

    def mask_text(self) -> str:
        """Text grid: '.' for a zero entry, 'x' otherwise."""
        return _mask_text(self.zero_mask)


def _mask_text(mask: np.ndarray) -> str:
    return "\n".join("".join("." if z else "x" for z in row) for row in mask)


def profile_over_channels(
    design: STBCDesign,
    n_r: int,
    n_seeds: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[RProfile]]:
    """R-profiles over ``n_seeds`` random channels.

    Returns (mean |R|, max |R|, always-zero mask, per-seed profiles); an
    entry is in the always-zero mask when it stays below tol for every
    sampled channel realization.  Fewer than k / T receive antennas leave
    every H_eq with fewer rows than columns, so no channel is drawn then.
    """
    rows, cols = 2 * n_r * design.T, design.n_real_symbols
    if rows < cols:
        raise RankDeficientError(
            f"n_r = {n_r} gives a {design.layers}-layer design an H_eq of shape "
            f"({rows}, {cols}), which is rank deficient for every channel"
        )
    profiles = []
    for s in range(n_seeds):
        h = sample_channel(design.n_t, n_r, substream(seed, CTX_PROFILE, 0, s)).H
        profiles.append(r_profile(equivalent_channel(h, design), tol, design))
    mags = np.stack([np.abs(p.R) for p in profiles])
    always_zero = np.all(np.stack([p.zero_mask for p in profiles]), axis=0)
    return mags.mean(axis=0), mags.max(axis=0), always_zero, profiles


def r_profile(
    H_eq: np.ndarray,
    tol: float = 1e-9,
    design: STBCDesign | None = None,
) -> RProfile:
    """QR the column-normalized equivalent channel and map its zeros.

    Zero detection is |R(i,j)| < tol after scaling every column of H_eq
    to unit norm.  When ``design`` is given, each layer's diagonal block
    is additionally classified: it is flagged ``kron_identity`` when the
    four per-group sub-blocks are equal upper-triangular copies (within
    tol), i.e. the block factors as I_4 x V.
    """
    H_eq = np.asarray(H_eq, dtype=float)
    norms = np.linalg.norm(H_eq, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientError("equivalent channel has a zero column")
    _, r = gram_schmidt_qr(H_eq / norms)
    mask = np.abs(r) < tol
    blocks: list[LayerBlock] = []
    if design is not None:
        n = design.n_real_symbols
        if r.shape[0] != n:
            raise DimensionMismatchError(
                f"R is {r.shape[0]}x{r.shape[0]} but the design has {n} symbols"
            )
        gs = design.group_size
        per_layer = n // design.layers
        k = per_layer // gs
        off = _cross_group_blocks(per_layer, gs)
        for layer in range(design.layers):
            lo = layer * per_layer
            block = r[lo : lo + per_layer, lo : lo + per_layer]
            v = block[:gs, :gs]
            cross = float(np.abs(block[off]).max(initial=0.0))
            same = block[: k * gs, : k * gs].reshape(k, gs, k, gs)[range(k), :, range(k)]
            mismatch = float(np.abs(same - v).max())
            upper_ok = bool(np.abs(np.tril(v, k=-1)).max() <= tol) if gs > 1 else True
            blocks.append(
                LayerBlock(
                    layer=layer,
                    kron_identity=bool(cross <= tol and mismatch <= tol and upper_ok),
                    V=v.copy(),
                    max_cross_group=cross,
                    max_block_mismatch=mismatch,
                )
            )
    return RProfile(R=r, zero_mask=mask, layer_blocks=tuple(blocks), tol=tol)
