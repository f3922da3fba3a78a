"""Coding gain: sign-basis extraction, rotated encoding, minimum determinant.

For the rate-1 construction every first-group weight other than the
identity is a +-1 diagonal matrix whose consecutive odd/even diagonal
entries agree.  Collecting the odd-position diagonals of the first-group
matrices into

    W(i, j) = sqrt(2/n_t) * A_{i+1}(2j+1, 2j+1)

gives an orthogonal (n_t/2) x (n_t/2) matrix, and the codeword
difference determinant for a single-group difference collapses to the
closed form

    det(dS dS^H) = prod_j ( sum_i d_{i,2j-1} ds_i )^4 .

Encoding each group of n_t/2 real symbols as s = (W U) x with U an
orthogonal rotation of nonvanishing product distance therefore makes the
minimum determinant proportional to min |prod_j (U dx)_j|^4 > 0.  The
shipped rotations are certified candidates: their product distance is
checked by brute-force enumeration over a bounded difference set at
build time, never assumed.

:func:`full_symbol_matrix` is the one map from info levels to stored
real symbols; encoding, decoding and the simulator all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product as iter_product

import numpy as np

from .designs import STBCDesign
from .errors import (
    AlphabetError,
    BudgetExceededError,
    DimensionMismatchError,
    StructureError,
    UnsupportedDimError,
)

__all__ = [
    "RotationSpec",
    "Encoder",
    "MinDetResult",
    "extract_W",
    "builtin_rotation",
    "rotation_from_matrix",
    "default_encoder",
    "full_symbol_matrix",
    "encode",
    "decode_info",
    "min_determinant",
    "min_product_distance",
]


@dataclass(frozen=True, eq=False)
class RotationSpec:
    """An orthogonal symbol rotation plus how it was obtained/certified."""

    dim: int
    U: np.ndarray
    source: str
    certified_over: str = ""
    min_product_distance_value: float = float("nan")


@dataclass(frozen=True, eq=False)
class Encoder:
    """Per-group rotated encoding for a 4-group design's first layer.

    ``rotation`` maps one group's info vector (components from
    ``alphabet``) to the stored real symbols; it is the design's sign
    basis W composed with an orthogonal rotation U, so stored symbols
    keep the info vector's norm and the difference determinant reduces
    to U's product distance.
    """

    design: STBCDesign
    rotation: np.ndarray
    alphabet: np.ndarray

    def __post_init__(self):
        r = self.rotation
        eye = np.eye(r.shape[0])
        if np.abs(r.T @ r - eye).max() > 1e-10:
            raise ValueError("encoder rotation is not orthogonal")
        if self.alphabet.ndim != 1 or self.alphabet.size < 2:
            raise ValueError("alphabet must be a 1-D array of >= 2 levels")

    @cached_property
    def _symbol_matrix(self) -> np.ndarray:
        b = np.eye(self.design.n_real_symbols)
        for g in self.design.layer_groups(0):
            if len(g) != len(self.rotation):
                raise StructureError(f"a {len(self.rotation)}-symbol rotation cannot "
                                     f"encode the group {tuple(i + 1 for i in g)}")
            b[np.ix_(g, g)] = self.rotation
        b.setflags(write=False)
        return b


def extract_W(design: STBCDesign, tol: float = 1e-12) -> np.ndarray:
    """Sign basis of the first group's diagonals, scaled by sqrt(2/n_t).

    Row i holds the odd-position diagonal signs of the i-th first-group
    weight; the first row is all +sqrt(2/n_t) (the identity weight).
    Raises StructureError when the first group is not n_t/2 +-1
    diagonal matrices with paired diagonal entries.
    """
    g1 = design.weight_stack[list(design.groups[0])]
    n = design.n_t
    if 2 * len(g1) != n:
        raise StructureError(
            f"first group holds {len(g1)} weights, the sign basis needs {n // 2}"
        )
    d = np.diagonal(g1, axis1=1, axis2=2)
    off = np.abs(g1 - d[:, :, None] * np.eye(n)).max(axis=(1, 2))
    not_signs = (off > tol) | (np.abs(d.imag).max(1) > tol) | (np.abs(np.abs(d) - 1).max(1) > tol)
    unpaired = np.abs(d.real[:, 0::2] - d.real[:, 1::2]).max(1) > tol
    failing = np.flatnonzero(not_signs | unpaired)
    if failing.size:
        pos = failing[0]
        raise StructureError(f"first-group weight {pos + 1} " + (
            "is not a +-1 diagonal matrix" if not_signs[pos] else "lacks paired diagonal entries"))
    w_mat = np.sqrt(2.0 / n) * d.real[:, 0::2]
    if np.any(w_mat[0] <= 0):
        raise StructureError("first group must lead with the identity weight")
    return w_mat


def min_product_distance(U: np.ndarray, diffs: np.ndarray) -> float:
    """min |prod_j (U d)_j| over the given nonzero difference vectors."""
    y = U @ diffs.T
    return float(np.abs(np.prod(y, axis=0)).min())


def _bounded_difference_set(dim: int) -> tuple[np.ndarray, str]:
    """Deterministic certification set for the builtin rotations."""
    if dim <= 8:
        grids = np.array(
            list(iter_product((-2.0, 0.0, 2.0), repeat=dim)), dtype=float
        )
        grids = grids[np.any(grids != 0.0, axis=1)]
        return grids, f"{{-2,0,2}}^{dim} \\ {{0}} ({len(grids)} vectors)"
    # dim 16: all vectors of support <= 2 with entries in {+-2, +-4}:
    # level a at i, then levels (a, b) at i < j, pairs in combinations order
    singles = np.einsum("ik,a->iak", np.eye(dim), np.array([-4.0, -2.0, 2.0, 4.0]))
    i, j = np.triu_indices(dim, 1)
    pairs = singles[i][:, :, None] + singles[j][:, None, :]
    arr = np.concatenate([singles.reshape(-1, dim), pairs.reshape(-1, dim)])
    return arr, f"support<=2 vectors with entries {{+-2,+-4}} ({len(arr)} vectors)"


@cache
def builtin_rotation(dim: int) -> RotationSpec:
    """Shipped orthogonal rotation with certified nonzero product distance.

    dim 1 is trivial; dim 2 is the plane rotation by atan(2)/2; dims 4,
    8 and 16 use the DCT-IV matrix sqrt(2/n) cos(pi (2i+1)(2j+1) / 4n).
    Every matrix is certified at build time by enumerating the bounded
    difference set reported in ``certified_over``.
    """
    if dim == 1:
        u = np.array([[1.0]])
    elif dim == 2:
        theta = 0.5 * np.arctan(2.0)
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]])
    elif dim in (4, 8, 16):
        i = np.arange(dim)
        u = np.sqrt(2.0 / dim) * np.cos(
            np.pi * np.outer(2 * i + 1, 2 * i + 1) / (4.0 * dim)
        )
    else:
        raise UnsupportedDimError(f"no builtin rotation for dimension {dim}")
    if np.abs(u.T @ u - np.eye(dim)).max() > 1e-12:
        raise AssertionError(f"builtin rotation for dim {dim} is not orthogonal")
    if dim == 1:
        dist, certified = 2.0, "{+-2} (2 vectors)"
    else:
        diffs, certified = _bounded_difference_set(dim)
        dist = min_product_distance(u, diffs)
    if not dist > 0.0:
        raise AssertionError(
            f"builtin rotation for dim {dim} failed the product-distance check"
        )
    return RotationSpec(
        dim=dim,
        U=u,
        source="builtin",
        certified_over=certified,
        min_product_distance_value=dist,
    )


def rotation_from_matrix(u: np.ndarray, source: str = "user-file") -> RotationSpec:
    """Wrap a user-supplied orthogonal matrix (orthogonality enforced)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("rotation must be square")
    if np.abs(u.T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("rotation matrix is not orthogonal")
    return RotationSpec(dim=u.shape[0], U=u, source=source)


def default_encoder(
    design: STBCDesign,
    alphabet: np.ndarray,
    rotation: RotationSpec | None = None,
) -> Encoder:
    """Encoder with rotation W @ U; U defaults to the builtin rotation."""
    w = extract_W(design)
    if rotation is None:
        rotation = builtin_rotation(w.shape[0])
    if rotation.dim != w.shape[0]:
        raise ValueError(
            f"rotation dimension {rotation.dim} != group size {w.shape[0]}"
        )
    return Encoder(
        design=design,
        rotation=w @ rotation.U,
        alphabet=np.asarray(alphabet, dtype=float),
    )


def identity_encoder(design: STBCDesign, alphabet: np.ndarray) -> Encoder:
    """Unrotated encoder (stored symbols = info symbols)."""
    gs = design.group_size
    return Encoder(
        design=design,
        rotation=np.eye(gs),
        alphabet=np.asarray(alphabet, dtype=float),
    )


def _check_alphabet(encoder: Encoder, x: np.ndarray) -> None:
    dist = np.abs(x[..., None] - encoder.alphabet).min(axis=-1)
    if dist.max() > 1e-9:
        bad = np.unravel_index(int(np.argmax(dist)), dist.shape)
        raise AlphabetError(
            f"info symbol {x[bad]!r} is not in the declared alphabet"
        )


def full_symbol_matrix(design: STBCDesign, encoder: Encoder) -> np.ndarray:
    """2k x 2k map from info levels to stored symbols (read-only): the
    encoder rotation acts on each of the first layer's declared groups,
    outer layers are raw.  The encoder keeps the matrix of its own design;
    another design (a relabelling, say) gets a fresh one, or StructureError
    when the rotation does not fit one of its groups."""
    if design is not encoder.design:
        encoder = replace(encoder, design=design)
    return encoder._symbol_matrix


def encode(encoder: Encoder, info: np.ndarray) -> np.ndarray:
    """Map the info vector to the stored real symbols, ``full_symbol_matrix
    @ info``.

    ``info`` holds 2k reals indexed like the real symbols (a (4 L, n_t/2)
    array is read row by row, one group per row for group-contiguous
    designs).
    """
    design = encoder.design
    x = _symbol_vector(design, info)
    _check_alphabet(encoder, x)
    return full_symbol_matrix(design, encoder) @ x


def decode_info(encoder: Encoder, s: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`encode` (the rotation is orthogonal)."""
    design = encoder.design
    return full_symbol_matrix(design, encoder).T @ _symbol_vector(design, s)


def _symbol_vector(design: STBCDesign, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != design.n_real_symbols:
        raise DimensionMismatchError(
            f"expected {design.n_real_symbols} real symbols, got {v.size}"
        )
    return v


@dataclass(frozen=True, eq=False)
class MinDetResult:
    """Outcome of the single-group minimum-determinant search."""

    min_det: float
    argmin: np.ndarray
    evaluations: int
    max_disagreement: float


def min_determinant(
    design: STBCDesign,
    encoder: Encoder | None = None,
    diff_levels: np.ndarray | None = None,
    budget: int = 10**7,
) -> MinDetResult:
    """Brute-force min det(dS dS^H) over single-group differences.

    The search is restricted to the first group: the difference
    determinant factors per position into a sum of per-group squares, so
    the minimum over all nonzero differences is attained with a single
    active group, and the four groups are symmetric by construction.

    Every determinant is computed two ways -- literal LU determinant of
    dS dS^H and the diagonal closed form -- and the run aborts if they
    disagree beyond 1e-9 relative.

    ``diff_levels`` is the per-component difference alphabet; it defaults
    to the differences of the encoder alphabet (or {-2, 0, 2} for the
    unrotated integer baseline).
    """
    w_signs = extract_W(design) * np.sqrt(design.n_t / 2.0)  # +-1 entries
    gs = design.group_size
    g1 = design.weight_stack[list(design.groups[0])]
    rot = encoder.rotation if encoder is not None else np.eye(gs)
    if diff_levels is None:
        if encoder is not None:
            levels = encoder.alphabet
            diff_levels = np.unique(np.subtract.outer(levels, levels).round(12))
        else:
            diff_levels = np.array([-2.0, 0.0, 2.0])
    diff_levels = np.asarray(diff_levels, dtype=float)

    n_vec = len(diff_levels) ** gs
    if n_vec - 1 > budget:
        raise BudgetExceededError(
            f"{n_vec - 1} difference vectors exceed the budget of {budget}"
        )

    best = np.inf
    best_arg = None
    worst = 0.0
    evaluations = 0
    shape = (len(diff_levels),) * gs
    for start in range(0, n_vec, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), n_vec))
        dx = diff_levels[np.array(np.unravel_index(idx, shape))]  # (gs, chunk)
        dx = dx[:, np.any(dx != 0.0, axis=0)]  # drop the zero vector
        if dx.shape[1] == 0:
            continue
        ds = rot @ dx  # stored-symbol differences
        # closed form: prod over odd positions j of (sum_i sign_ij ds_i)^4
        closed = np.prod((w_signs.T @ ds) ** 4, axis=0)
        for col in range(ds.shape[1]):
            d_mat = np.tensordot(ds[:, col], g1, axes=1)
            lit = float(np.linalg.det(d_mat @ d_mat.conj().T).real)
            scale = max(1.0, abs(lit), abs(closed[col]))
            gap = abs(lit - closed[col])
            worst = max(worst, gap / scale)
            if gap > 1e-9 * scale:
                raise AssertionError(
                    "literal and closed-form determinants disagree: "
                    f"{lit} vs {closed[col]}"
                )
            if lit < best:
                best = lit
                best_arg = dx[:, col].copy()
        evaluations += ds.shape[1]
    return MinDetResult(
        min_det=best,
        argmin=best_arg,
        evaluations=evaluations,
        max_disagreement=worst,
    )
