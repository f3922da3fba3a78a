"""Rayleigh block-fading channel sampling and R-matrix structure profiling.

The complex transmission Y = c H S + N is equivalent to the real model

    tilde(vec(Y)) = c H_eq s + tilde(vec(N)),   H_eq = (I_T x realify(H)) G,

with G the design's generator matrix: column i of H_eq is
tilde(vec(H A_i)).  It is built that way, for one channel or a stack of
them: each column of every H A_i is gathered from the columns of H that
the weight column's nonzero taps select (``STBCDesign.weight_taps``),
scaled by the taps' values, in q passes (q = 1 for the Clifford weights,
which are signed permutations), then real and imaginary parts are
interleaved.  Neither a dense product of H with the weights nor the
Kronecker form above, mostly zero blocks, is ever formed.
Whenever two weight matrices
satisfy A_i A_j^H + A_j A_i^H = 0 the corresponding columns of H_eq are
orthogonal for every H, whatever their position, which pins structural
zeros into the R factor of the column-ordered QR.  The zeros claimed
are read from the design's own groups, in any index order: the pairs of
two different first-layer groups once ``STBCDesign.structure`` certifies
them, and those of every later layer that passes the same condition in
the ``extend_full_rate`` codes.
For the builtin codes each layer's diagonal R block collapses to I_4 x V,
V upper triangular of size n_t/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .designs import STBCDesign, _dispersion_witnesses
from .errors import DimensionMismatchError, RankDeficientError
from .linalg import CERT_TOL, _require_integer, gram_schmidt_qr, pairwise_residual
from .rng import CTX_PROFILE, draw_schedule

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
    the caller where needed.  H A_i is gathered from H by the weights'
    taps, q passes of one complex product per entry and no dense
    product; with taps of +-1 or +-j every entry is exact.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != design.n_t:
        raise DimensionMismatchError(
            f"channel shape {H.shape} does not match n_t={design.n_t}"
        )
    *lead, n_r, n_t = H.shape
    n, T, m = design.n_real_symbols, design.T, len(lead)
    h = H.reshape(-1, n_t)
    rows, values = design.weight_taps
    # hw[:, i*T + t] is column t of H A_i, gathered one tap at a time
    hw = np.take(h, rows[0], axis=-1) * values[0]
    for tap_rows, tap_values in zip(rows[1:], values[1:]):
        hw += np.take(h, tap_rows, axis=-1) * tap_values
    hw = hw.view(float)
    # axes [..., r, i, t, re/im] -> [..., t, r, re/im, i], so that row
    # 2*(t*n_r + r) + re/im of column i is entry (r, t) of H A_i
    parts = hw.reshape(*lead, n_r, n, T, 2).transpose(*range(m), m + 2, m, m + 3, m + 1)
    return parts.reshape(*lead, 2 * n_r * T, n)


def _require_tall(design: STBCDesign, n_r: int) -> None:
    """Raise RankDeficientError when n_r receive antennas leave H_eq with
    fewer rows than columns (2 n_r T < 2k), so that every channel gives
    it rank below 2k; callers check this before drawing any channel."""
    rows, cols = 2 * n_r * design.T, design.n_real_symbols
    if rows < cols:
        raise RankDeficientError(
            f"n_r = {n_r} gives a {design.layers}-layer design an H_eq of shape "
            f"({rows}, {cols}), which is rank deficient for every channel"
        )


def column_orthogonality_pairs(design: STBCDesign) -> set[tuple[int, int]]:
    """All 0-based index pairs (i < j) with A_i A_j^H + A_j A_i^H = 0.

    For every such pair the i-th and j-th columns of H_eq are orthogonal
    for every channel realization.
    """
    resid = pairwise_residual(design.weight_stack, design.weight_stack, adjoint=True)
    return set(map(tuple, np.argwhere(np.triu(resid <= CERT_TOL, 1)).tolist()))


def mandated_zero_mask(design: STBCDesign) -> np.ndarray:
    """Boolean 2k x 2k mask of R entries forced to zero for every channel.

    Everything strictly below the diagonal, plus, once ``design.structure``
    is certified, the entries pairing two different groups of the first
    layer: its columns come first, so each q_i lies in the span of its own
    group's columns.  A later layer's q_i also carries the projections off
    the earlier layers, so its own cross-group condition does not pin its
    zeros alone; they are claimed only for designs built by
    ``extend_full_rate`` (``products`` present) and only when that layer
    meets the condition, as ``verify_group_decodable`` checks it.
    Off-diagonal layer blocks carry no guaranteed zeros.
    """
    n = design.n_real_symbols
    mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
    if design.structure is not None:
        mask |= _cross_group_pairs(n, design.structure[0])
        for layer in range(1, design.layers if design.products is not None else 1):
            groups = design.layer_groups(layer)
            if not _dispersion_witnesses(design.weight_stack, groups):
                mask |= _cross_group_pairs(n, groups)
    return mask


def _cross_group_pairs(n: int, groups) -> np.ndarray:
    """(n, n) mask of the index pairs that lie in two different groups."""
    label = np.full(n, -1)
    for g, members in enumerate(groups):
        label[list(members)] = g
    inside = label >= 0
    return np.outer(inside, inside) & (label[:, None] != label[None, :])


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
    sampled channel realization.  ``tol`` is checked as ``r_profile``
    checks it, before any draw.  The channels are drawn as point 0 of
    ``CTX_PROFILE`` on the sweeps' schedule (``rng.draw_schedule``), in
    blocks of ``rng.BLOCK_TRIALS``: channel s equals ``sample_channel`` on
    ``substream(seed, CTX_PROFILE, 0, s)``.  Fewer than k / T receive
    antennas leave every H_eq with fewer rows than columns, so no channel
    is drawn then.
    """
    _require_integer(n_seeds, "n_seeds", 1)
    _require_integer(n_r, "n_r", 1)
    _require_tol(tol)
    _require_tall(design, n_r)
    profiles = [r_profile(equivalent_channel(h, design), design, tol)
                for _, normals, _ in draw_schedule(seed, CTX_PROFILE, 1, n_seeds,
                                                   2 * n_r * design.n_t, 1, 0)
                for h in _complex_normal(normals.reshape(-1, 2, n_r, design.n_t))]
    mags = np.stack([np.abs(p.R) for p in profiles])
    always_zero = np.all(np.stack([p.zero_mask for p in profiles]), axis=0)
    return mags.mean(axis=0), mags.max(axis=0), always_zero, profiles


def _require_tol(tol) -> None:
    """Refuse a zero tolerance that is not a real number, finite and > 0."""
    if not (isinstance(tol, Real) and np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def r_profile(H_eq: np.ndarray, design: STBCDesign, tol: float = 1e-9) -> RProfile:
    """QR the column-normalized equivalent channel and map its zeros.

    Zero detection is |R(i,j)| < tol (finite and > 0) after scaling every
    column of H_eq to unit norm.  Each layer is read on its declared groups
    (``design.layer_groups``), each group's indices in ascending order:
    V is R on the first group, ``max_cross_group`` the largest |R| above
    the diagonal that pairs two different groups of the layer, and
    ``max_block_mismatch`` the largest deviation of a group's block from
    V (inf when their sizes differ).  The layer is flagged
    ``kron_identity`` when it has four groups and both values are within
    tol, i.e. its block factors as I_4 x V up to the index order.
    """
    _require_tol(tol)
    H_eq = np.asarray(H_eq, dtype=float)
    norms = np.linalg.norm(H_eq, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientError("equivalent channel has a zero column")
    _, r = gram_schmidt_qr(H_eq / norms)
    n = design.n_real_symbols
    if r.shape[0] != n:
        raise DimensionMismatchError(
            f"R is {r.shape[0]}x{r.shape[0]} but the design has {n} symbols"
        )
    blocks = []
    for layer in range(design.layers):
        groups = [sorted(g) for g in design.layer_groups(layer)]
        v = r[np.ix_(groups[0], groups[0])]
        cross = float(np.abs(r[np.triu(_cross_group_pairs(n, groups), 1)]).max(initial=0.0))
        mismatch = max(float(np.abs(r[np.ix_(g, g)] - v).max()) if len(g) == len(v)
                       else np.inf for g in groups)
        kron = len(groups) == 4 and cross <= tol and mismatch <= tol
        blocks.append(LayerBlock(layer, kron, v, cross, mismatch))
    return RProfile(R=r, zero_mask=np.abs(r) < tol, layer_blocks=tuple(blocks), tol=tol)
