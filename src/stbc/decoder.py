"""Exact ML decoding: one structured search and the exhaustive oracle.

Both decoders minimize || Y - sqrt(snr/n_t) H S ||^2 over the information
symbols (S the energy-normalized codeword), i.e. || y - phi x ||^2 in the
real model y = phi x + n.

* ``decode_auto`` is the one structured decoder, for every design whose
  first layer is four certified groups: a rate-1 code is its one-layer
  case.  It enumerates the indices outside the first layer's four
  groups (the outer hypotheses) and, per outer hypothesis, minimizes
  each group in closed form: 4 * M^{n_t/4} hypotheses at rate 1,
  M^{n_t(L-1)} * 4 * M^{n_t/4} (order M^{n_t(L-3/4)}) for L layers.
  More than 1 << 26 hypotheses, or search tables of more than 1 GiB for
  one trial, raise ``BudgetExceededError`` before any table is built.
* ``ml_oracle`` enumerates all M^k candidates (more than 1 << 22 raise
  ``BudgetExceededError``); it is the reference the structured search is
  tested against and keeps its own plain loop, with the same tie rule.

The search works on stacks of trials (``_decode_stack``): the front end
turns (..., n_r, T) received matrices and (..., n_r, n_t) channels, one
SNR each, into stacked y and phi.  When one chunk (``_CHUNK``, 16,384)
holds every outer hypothesis -- every rate-1 code and the small layered
ones -- the stack is scanned whole, every outer hypothesis of every
trial, with one stacked product per step.  Every product is made per
trial with a single trial's shapes, so a stacked trial decodes exactly
as it does alone; ``decode_auto`` is the stack of one, and the simulator
decodes sweeps in blocks sized by ``_block_trials``.

Codes with more outer hypotheses (the 8 x 2 rate-2 4-QAM code and the
4-antenna rate-2 16-QAM code have 65,536) take a bounded search per
trial (``_bounded_outer``; Agrell, Eriksson, Vardy and Zeger, "Closest
point search in lattices", 2002).  A QR of phi with the outer columns
last bounds every outer hypothesis's total from below by its outer rows
alone, since the group rows are non-negative; a breadth-first search
over the outer digits, seeded with the radius of a K-best candidate
scored by the scan itself, keeps every hypothesis whose bound is within
a 1e-9 relative slack of that radius, and only those survivors are
scanned, in chunks.  The pruned hypotheses all have totals above the
minimum, so the decision is the exhaustive search's.

Ties (``_within``): totals within 1e-9 of |least| + ||y||^2 + the
groups' largest image energies are tied, and so are a group's candidates
against its least metric; the decision is the lexicographically smallest
full index vector among the ties (first real symbol most significant).
The oracle applies the same rule to its metrics, with ||y||^2 + the
largest ||phi x||^2 as the scale, so the two decide alike on exact ties.
Rounding differs with a chunk's width and a column's place in it, so it
is never what decides: the decision does not depend on the chunk width,
on the survivors or on the stack.  Every search enumerates digits in one
lexicographic order (``linalg._lex_digits``).  Decoded digits are
scattered back by real-symbol index, so only the declared groups
matter, never whether they are contiguous.

``metric_evaluations`` counts, per decoded trial, the outer hypotheses
scanned times one closed-form scan of every group (sum_g p^|g| per outer
hypothesis, p the PAM levels).  Without pruning that is every outer
hypothesis, and ``complexity_account`` -- the paper's closed form and
the worst case -- equals the counter; with the bounded search it is
the survivors' share of it.  Interior nodes of the bounded search (its
QR bounds and the K-best seed) are not counted, so the account stays
the paper's closed form rather than a count of visited tree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .channel import equivalent_channel
from .coding_gain import Encoder, default_encoder, full_symbol_matrix
from .designs import STBCDesign, codeword
from .errors import BudgetExceededError, DimensionMismatchError
from .linalg import _lex_digits

__all__ = [
    "Constellation",
    "DecodeResult",
    "ComplexityAccount",
    "square_qam",
    "constellation",
    "ml_oracle",
    "decode_auto",
    "complexity_account",
]

_CHUNK = 1 << 14
#: leaves of the K-best pass that seeds the bounded search's radius
_SEEDS = 64
_BUDGET = 1 << 26
_ORACLE_BUDGET = 1 << 22
#: a block of trials is cut so that the largest array of one search step
#: stays within this many bytes (a full outer chunk of one trial on a
#: 32-row code is 4 MiB, so such searches run one trial at a time)
_STEP_BYTES = 1 << 17
#: one trial whose search tables would need more bytes is refused
_TABLE_BYTES = 1 << 30


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square QAM constellation with unit average energy.

    ``pam`` holds the sqrt(M) ascending real component levels; complex
    point index (i, j) -> i * sqrt(M) + j maps component indices to the
    flat ``points`` array.
    """

    label: str
    points: np.ndarray
    pam: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    def __post_init__(self):
        power = float(np.mean(np.abs(self.points) ** 2))
        if abs(power - 1.0) > 1e-12:
            raise ValueError(f"constellation power {power} != 1")


def square_qam(m: int) -> Constellation:
    """Unit-energy square M-QAM, M in {4, 16, 64, 256, ...}."""
    root = isqrt(m)
    if root * root != m or root % 2 or m < 4:
        raise ValueError(f"square QAM needs an even perfect-square size, got {m}")
    delta = np.sqrt(3.0 / (2.0 * (m - 1)))
    pam = delta * (2.0 * np.arange(root) - (root - 1))
    points = (pam[:, None] + 1j * pam[None, :]).reshape(-1)
    return Constellation(label=f"{m}qam", points=points, pam=pam)


def constellation(label: str) -> Constellation:
    """Parse labels like '4qam', '16-QAM'."""
    clean = label.lower().replace("-", "").replace("_", "")
    if not clean.endswith("qam"):
        raise ValueError(f"unsupported constellation {label!r} (square QAM only)")
    return square_qam(int(clean[:-3]))


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decoded info symbols plus bookkeeping.

    level_indices      -- per real symbol, index into the PAM component set
    info               -- the decoded info levels (pre-rotation), length 2k
    metric             -- || Y - sqrt(snr/n_t) H S ||^2 recomputed from scratch
    metric_evaluations -- hypotheses scanned for this trial: at most
                          ``complexity_account`` and equal to it unless the
                          bounded outer search pruned (see the module
                          docstring); every candidate for the oracle
    """

    level_indices: tuple[int, ...]
    info: np.ndarray
    metric: float
    metric_evaluations: int


@dataclass(frozen=True)
class ComplexityAccount:
    """Predicted hypothesis counts per decoded codeword."""

    constellation_size: int
    oracle_evaluations: int
    group_evaluations: int | None
    conditional_evaluations: int | None
    order_exponent: float

    def describe(self) -> str:
        m = self.constellation_size
        parts = [f"oracle: {self.oracle_evaluations} = M^k hypotheses (M={m})"]
        if self.group_evaluations is not None:
            parts.append(f"group: {self.group_evaluations}")
        if self.conditional_evaluations is not None:
            parts.append(f"conditional: {self.conditional_evaluations}")
        parts.append(f"search order M^{self.order_exponent:g}")
        return "; ".join(parts)


def _hypotheses(p: int, groups, n_outer: int) -> int:
    """Scans of the structured search: every outer hypothesis, times one
    closed-form scan of each group."""
    return p**n_outer * sum(p ** len(g) for g in groups)


def complexity_account(
    design: STBCDesign, constellation: Constellation
) -> ComplexityAccount:
    """Exact hypothesis counts for each decoder on this design, from the
    first layer's declared groups (StructureError if one straddles it)."""
    p = len(constellation.pam)
    groups = design.layer_groups(0)
    n_outer = design.n_real_symbols - sum(len(g) for g in groups)
    structured = _hypotheses(p, groups, n_outer)
    return ComplexityAccount(
        constellation_size=constellation.size,
        oracle_evaluations=p**design.n_real_symbols,  # == M ** design.k
        group_evaluations=structured if design.layers == 1 else None,
        conditional_evaluations=None if design.layers == 1 else structured,
        order_exponent=(n_outer + max(len(g) for g in groups)) / 2.0,
    )


def _effective_operator(
    Y: np.ndarray,
    H: np.ndarray,
    design: STBCDesign,
    cons: Constellation,
    snr,
    encoder: Encoder | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y_tilde, phi, b_matrix): the real model y = phi x + n, for one
    trial (Y (n_r, T), H (n_r, n_t), a scalar snr) or a stack of them
    (Y (..., n_r, T), H (..., n_r, n_t), one snr per trial)."""
    Y = np.asarray(Y, dtype=complex)
    H = np.asarray(H, dtype=complex)
    if Y.shape != H.shape[:-1] + (design.T,):
        raise DimensionMismatchError(
            f"received matrix shape {Y.shape} != {H.shape[:-1] + (design.T,)}"
        )
    if encoder is None:
        encoder = default_encoder(design, cons.pam)
    c = np.sqrt(np.asarray(snr, dtype=float) / design.n_t) * design.energy_scale
    b = full_symbol_matrix(design, encoder)
    phi = c[..., None, None] * equivalent_channel(H, design) @ b
    # tilde(vec(Y)) per trial: columns stacked, then re/im interleaved
    y = np.ascontiguousarray(Y.swapaxes(-1, -2)).view(float)
    return y.reshape(*Y.shape[:-2], -1), phi, b


def _final_metric(
    Y: np.ndarray,
    H: np.ndarray,
    design: STBCDesign,
    snr: float,
    b: np.ndarray,
    info: np.ndarray,
) -> float:
    """Metric recomputed from scratch in the complex domain."""
    s = design.energy_scale * codeword(design, b @ info)
    resid = np.asarray(Y, dtype=complex) - np.sqrt(snr / design.n_t) * (
        np.asarray(H, dtype=complex) @ s
    )
    return float(np.linalg.norm(resid) ** 2)


def _result(
    Y, H, design, snr, b, pam, level_indices, evaluations
) -> DecodeResult:
    info = pam[np.asarray(level_indices, dtype=int)]
    return DecodeResult(
        level_indices=tuple(int(v) for v in level_indices),
        info=info,
        metric=_final_metric(Y, H, design, snr, b, info),
        metric_evaluations=int(evaluations),
    )


def ml_oracle(
    Y: np.ndarray,
    H: np.ndarray,
    design: STBCDesign,
    cons: Constellation,
    snr: float,
    encoder: Encoder | None = None,
) -> DecodeResult:
    """Globally exhaustive ML decoding over all M^k candidates (at most
    ``_ORACLE_BUDGET``): the reference the structured search is tested
    against, a plain loop with no groups, QR or tables.  Of the candidates
    whose metric is within ``_within`` of the least, with ||y||^2 plus the
    largest ||phi x||^2 as its scale, it returns the lexicographically
    smallest index vector: the structured search's tie rule."""
    pam = cons.pam
    n = design.n_real_symbols
    total = len(pam) ** n
    if total > _ORACLE_BUDGET:
        raise BudgetExceededError(f"M^k = {total} exceeds the budget of {_ORACLE_BUDGET}")
    y, phi, b = _effective_operator(Y, H, design, cons, snr, encoder)
    metrics = np.empty(total)
    largest = 0.0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        image = phi @ pam[_lex_digits(idx, len(pam), n)]  # (rows, chunk)
        resid = y[:, None] - image
        metrics[start:start + _CHUNK] = np.einsum("ij,ij->j", resid, resid)
        largest = max(largest, np.einsum("ij,ij->j", image, image).max())
    best = np.argmax(metrics <= _within(metrics.min(), y @ y + largest))
    levels = _lex_digits(np.array([best]), len(pam), n)[:, 0]
    return _result(Y, H, design, snr, b, pam, levels, total)


@lru_cache(maxsize=16)
def _group_candidates(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors of one group, as columns in lexicographic order."""
    digits = _lex_digits(np.arange(p**n), p, n)
    digits.setflags(write=False)
    return digits


def _search_sizes(p: int, groups, n_outer: int, rows: int) -> tuple[int, int]:
    """(table bytes, step bytes) of one trial's search: its group tables
    (candidate digits, images, norms, per-step metrics) plus one outer
    chunk's digits and residuals and, when the outer hypotheses span more
    than one chunk, the bounded search's QR, a chunk of full vectors and
    eight words per outer hypothesis for its breadth-first state if
    nothing is pruned; and the largest array one trial holds in a search
    step."""
    outer_total = p**n_outer
    chunk = min(_CHUNK, outer_total)
    widest = max(p ** len(g) for g in groups)
    tables = sum((len(g) + rows + 1 + chunk) * p ** len(g) for g in groups)
    tables += (n_outer + rows) * chunk
    n = n_outer + sum(len(g) for g in groups)
    if outer_total > _CHUNK:
        tables += (2 * rows + n) * n + n * chunk + 8 * outer_total
    return 8 * tables, 8 * max(rows * n, rows * widest, rows * chunk, widest * chunk)


def _block_trials(design: STBCDesign, cons: Constellation, n_r: int) -> int:
    """Trials decoded together: as many as keep the largest array of one
    search step within ``_STEP_BYTES`` (at least one)."""
    groups, outer = design._certified_split
    _, step = _search_sizes(len(cons.pam), groups, len(outer), 2 * n_r * design.T)
    return max(1, _STEP_BYTES // step)


def _within(value, scale):
    """The largest total counted as tied with ``value``, or as a bound not
    pruned against it.  ``scale`` is a trial's ||y||^2 plus each group's
    largest image energy (the oracle's: plus the largest ||phi x||^2);
    rounding in the totals, the metrics, the bounds and the QR stays far
    below 1e-9 of it."""
    return value + 1e-9 * (np.abs(value) + scale)


def _scan(stack, out_x, keep=False):
    """Totals (B, w) of the outer hypotheses ``out_x`` (n_outer, w) on a
    stack (y (B, rows), phi_out (B, rows, n_outer), group tables, scale),
    each group at its closed-form minimum: ||y'||^2 + sum_g
    min(||phi_g x_g||^2 - 2 <y', phi_g x_g>) with y' = y - phi_out x_out;
    with ``keep``, also each group's metrics (B, n_cand, w)."""
    y, phi_out, tables, _ = stack
    yp = y[:, :, None] - phi_out @ out_x
    total = np.einsum("bij,bij->bj", yp, yp)
    kept = []
    for _, _, images_t, qnorm in tables:
        metrics = images_t @ yp  # (B, n_cand, w)
        metrics *= 2.0
        np.subtract(qnorm, metrics, out=metrics)
        total += metrics.min(axis=1)
        kept.append(metrics)
    return (total, kept) if keep else total


def _full_vectors(stack, outer, digits, metrics) -> np.ndarray:
    """Full level vectors (B * w, n) from outer digits (B, n_outer, w) and
    each group's metrics (B, n_cand, w) on a stack: each group at its
    lexicographically smallest candidate tied with its least metric."""
    _, _, tables, scale = stack
    trials, _, width = digits.shape
    full = np.empty((trials, width, len(outer) + sum(len(t[0]) for t in tables)), dtype=int)
    full[:, :, outer] = digits.transpose(0, 2, 1)
    for (cols, cand, _, _), group in zip(tables, metrics):
        tied = group <= _within(group.min(axis=1), scale[:, None])[:, None, :]
        full[:, :, cols] = cand[:, np.argmax(tied, axis=1)].transpose(1, 2, 0)
    return full.reshape(trials * width, -1)


def _lex_smallest(stack, pam, outer, out_idx) -> np.ndarray:
    """The lexicographically smallest full vector (first real symbol most
    significant) over the tied outer hypotheses ``out_idx`` of a stack of
    one trial, scanned a chunk at a time."""
    y, phi_out, tables, _ = stack
    rows = []
    for s in range(0, len(out_idx), _CHUNK):
        digits = _lex_digits(out_idx[s:s + _CHUNK], len(pam), len(outer))[None]
        yp = y[:, :, None] - phi_out @ pam[digits]
        metrics = [qnorm - 2.0 * (images_t @ yp) for _, _, images_t, qnorm in tables]
        full = _full_vectors(stack, outer, digits, metrics)
        rows.append(full[np.lexsort(full.T[::-1])[0]])
    rows = np.array(rows)
    return rows[np.lexsort(rows.T[::-1])[0]]


def _descend(z, r, pam, select) -> np.ndarray:
    """Breadth-first enumeration of the outer digits on the upper
    triangular r, bottom row first: each level extends every kept node by
    each PAM level, adds its row's squared residual to the node's bound
    and keeps the children that ``select`` (child bounds (N, p) ->
    (parents, digits)) returns.  A node is one lexicographic index, the
    first digit fixed most significant, so the nodes stay ascending when
    ``select`` returns positions in row-major order."""
    idx = np.zeros(1, dtype=np.int64)
    bound = np.zeros(1)
    pending = z[None, :]
    for c in range(len(z) - 1, -1, -1):
        child = bound[:, None] + (pending[:, c, None] - r[c, c] * pam) ** 2
        parent, digit = select(child)
        idx = idx[parent] * len(pam) + digit
        bound = child[parent, digit]
        pending = pending[parent, :c] - r[:c, c] * pam[digit][:, None]
    return idx


def _k_best(child):
    """Keep the ``_SEEDS`` least child bounds (a K-best level)."""
    flat = child.ravel()
    if flat.size > _SEEDS:
        flat = np.sort(np.argpartition(flat, _SEEDS - 1)[:_SEEDS])
    else:
        flat = np.arange(flat.size)
    return np.divmod(flat, child.shape[1])


def _bounded_outer(stack, phi, pam, outer):
    """(survivors, tied) of one trial (a stack of one, and its phi (rows,
    n)): the outer hypotheses the bounded search keeps, and those whose
    scanned totals tie the least, as ascending lexicographic indices.

    A QR of phi with the first layer's group columns first and the outer
    columns last, the first outer index at the bottom, gives from its
    outer block R_oo and z_o = (Q^T y)_o the lower bound ||z_o - R_oo
    x_o||^2 of an outer hypothesis's total, and partial sums of it for
    every prefix of its digits.  A K-best pass seeds the radius with the
    least scanned total of its leaves; the breadth-first search then
    keeps every node whose bound is within ``_within`` of that radius, so
    every hypothesis whose total ties the least survives.  Survivors are
    scanned in chunks."""
    y, _, tables, scale = stack
    p, m = len(pam), len(outer)
    inner = [c for cols, *_ in tables for c in cols]
    q, r = np.linalg.qr(phi[:, inner + list(outer[::-1])])
    z = q.T @ y[0]
    k = len(inner)
    z_o, r_oo = np.zeros(m), np.zeros((m, m))
    z_o[: max(len(z) - k, 0)] = z[k:]
    r_oo[: max(len(r) - k, 0)] = r[k:, k:]
    seeds = _descend(z_o, r_oo, pam, _k_best)
    limit = _within(_scan(stack, pam[_lex_digits(seeds, p, m)]).min(), scale[0])
    survivors = _descend(z_o, r_oo, pam, lambda child: np.nonzero(child <= limit))
    totals = np.empty(len(survivors))
    for s in range(0, len(survivors), _CHUNK):
        totals[s:s + _CHUNK] = _scan(stack, pam[_lex_digits(survivors[s:s + _CHUNK], p, m)])[0]
    return survivors, survivors[totals <= _within(np.min(totals, initial=np.inf), scale[0])]


def _partitioned_search(y, phi, pam, outer, groups) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmin of || y - phi pam[levels] ||^2 for every trial of a
    stack y (B, rows), phi (B, rows, n): (levels (B, n), evaluations per
    trial).

    For each outer hypothesis every group is minimized in closed form,
    which is exact because columns of different groups are orthogonal.
    When every outer hypothesis fits in one chunk, all of them are scanned
    for the whole stack at once; otherwise each trial scans only the
    survivors of ``_bounded_outer``, in chunks.  Totals within ``_within``
    of the least are ties, and so are a group's candidate metrics; the
    decision is the lexicographically smallest full index vector among
    the ties.  Rounding differs with a chunk's width and a column's place
    in it, so it never decides: the decision depends neither on the chunk
    width nor on which hypotheses survive, nor on the stack.
    """
    p, m = len(pam), len(outer)
    trials = len(y)
    tables = []
    for g in groups:
        cols = sorted(g)
        digits = _group_candidates(p, len(cols))
        images = phi[:, :, cols] @ pam[digits]  # (B, rows, n_cand)
        qnorm = np.einsum("bij,bij->bj", images, images)
        tables.append((cols, digits, images.transpose(0, 2, 1), qnorm[:, :, None]))
    per_outer = sum(digits.shape[1] for _, digits, _, _ in tables)
    scale = np.einsum("bi,bi->b", y, y)
    for _, _, _, qnorm in tables:
        scale += qnorm[:, :, 0].max(axis=1)
    phi_out = phi[:, :, outer]
    stack = (y, phi_out, tables, scale)

    def alone(t):
        one = slice(t, t + 1)
        return y[one], phi_out[one], [(c, d, i[one], q[one]) for c, d, i, q in tables], scale[one]

    if p**m <= _CHUNK:
        hyps = np.arange(p**m)
        digits = _lex_digits(hyps, p, m)
        totals, metrics = _scan(stack, pam[digits], keep=True)
        tied = totals <= _within(totals.min(axis=1), scale)[:, None]
        first = np.argmax(tied, axis=1)
        best = _full_vectors(stack, outer, digits.T[first][:, :, None],
                             [group[np.arange(trials), :, first, None] for group in metrics])
        for t in np.flatnonzero(np.count_nonzero(tied, axis=1) > 1):
            best[t] = _lex_smallest(alone(t), pam, outer, hyps[tied[t]])
        return best, np.full(trials, p**m * per_outer)
    best = np.zeros((trials, phi.shape[2]), dtype=int)
    evaluations = np.empty(trials, dtype=int)
    for t in range(trials):
        survivors, tied = _bounded_outer(alone(t), phi[t], pam, outer)
        if len(tied):
            best[t] = _lex_smallest(alone(t), pam, outer, tied)
        evaluations[t] = len(survivors) * per_outer
    return best, evaluations


def _decode_stack(Y, H, design, cons, snr, encoder):
    """The structured search, for a stack of trials (see
    ``_effective_operator``): (levels (B, n), evaluations (B,), b).

    Cross-group columns of phi are orthogonal, so for each outer
    hypothesis with residual y', || y' - sum_p phi_p x_p ||^2 = ||y'||^2
    + sum_p (||phi_p x_p||^2 - 2 <y', phi_p x_p>): each group term is
    minimized on its own and the overall minimum is exact ML.  The scan
    count and one trial's table bytes (with the bounded search's state
    when it applies) are checked before any table is built."""
    groups, outer = design._certified_split
    p = len(cons.pam)
    scans = _hypotheses(p, groups, len(outer))
    if scans > _BUDGET:
        raise BudgetExceededError(f"{scans} hypotheses exceed the budget of {_BUDGET}")
    rows = 2 * np.shape(H)[-2] * design.T
    tables, _ = _search_sizes(p, groups, len(outer), rows)
    if tables > _TABLE_BYTES:
        raise BudgetExceededError(
            f"search tables of {tables} bytes exceed the limit of {_TABLE_BYTES}"
        )
    y, phi, b = _effective_operator(Y, H, design, cons, snr, encoder)
    levels, evaluations = _partitioned_search(y, phi, cons.pam, outer, groups)
    return levels, evaluations, b


def decode_auto(
    Y: np.ndarray,
    H: np.ndarray,
    design: STBCDesign,
    cons: Constellation,
    snr: float,
    encoder: Encoder | None = None,
) -> DecodeResult:
    """Exact ML decoding of any design whose first layer is four certified
    groups (group search at rate 1, outer-layer conditioning otherwise):
    one trial as a stack of one."""
    stack = np.asarray(Y, dtype=complex)[None], np.asarray(H, dtype=complex)[None]
    levels, evaluations, b = _decode_stack(*stack, design, cons, snr, encoder)
    return _result(Y, H, design, snr, b, cons.pam, levels[0], evaluations[0])
