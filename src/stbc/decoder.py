"""Exact ML decoding: one structured search and the exhaustive oracle.

Both decoders minimize || Y - sqrt(snr/n_t) H S ||^2 over the information
symbols (S the energy-normalized codeword), i.e. || y - phi x ||^2 in the
real model y = phi x + n.

* ``decode_auto`` is the one structured decoder, for every design whose
  first layer is four certified groups: a rate-1 code is its one-layer
  case.  It enumerates every index outside the first layer's four groups
  and, per outer hypothesis, minimizes each group in closed form:
  4 * M^{n_t/4} hypotheses at rate 1, M^{n_t(L-1)} * 4 * M^{n_t/4}
  (order M^{n_t(L-3/4)}) for L layers.  More than 1 << 26 hypotheses, or
  search tables of more than 1 GiB for one trial, raise
  ``BudgetExceededError`` before any candidate table is built.
* ``ml_oracle`` enumerates all M^k candidates (at most 1 << 22); it is
  the reference the structured search is tested against and keeps its
  own plain loop.

The search works on stacks of trials (``_decode_stack``): the front end
turns (..., n_r, T) received matrices and (..., n_r, n_t) channels, one
SNR each, into stacked y and phi, and the search scans every trial of the
stack in the same outer chunks with one stacked product per step.  Every
product is made per trial with a single trial's shapes, so a stacked
trial decodes exactly as it does alone; ``decode_auto`` is the stack of
one, and the simulator decodes sweeps in blocks sized by
``_block_trials``.

Decoded digits are scattered back by real-symbol index, so only the
declared groups matter, never whether they are contiguous.  Ties go to
the lexicographically smallest full index vector (first real symbol most
significant), which is what the oracle's lexicographic scan returns, so
both decoders agree exactly even on degenerate inputs.

``metric_evaluations`` counts scanned hypotheses, one per per-group
partial metric in a group scan, so the counters are comparable across
decoders.  ``complexity_account`` and the budget check share one count
over the first layer's declared groups, so the account equals the counter
on every certified design, builtin or loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .channel import equivalent_channel
from .coding_gain import Encoder, default_encoder, full_symbol_matrix
from .designs import STBCDesign, codeword
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    TooLargeError,
)

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
    metric_evaluations -- hypotheses scanned (see ``complexity_account``)
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
    """Globally exhaustive ML decoding over all M^k candidates."""
    if design.k > 8:
        raise TooLargeError(f"oracle limited to k <= 8 complex symbols, k={design.k}")
    pam = cons.pam
    n = design.n_real_symbols
    total = len(pam) ** n
    if total > _ORACLE_BUDGET:
        raise TooLargeError(f"M^k = {total} exceeds the budget of {_ORACLE_BUDGET}")
    y, phi, b = _effective_operator(Y, H, design, cons, snr, encoder)

    shape = (len(pam),) * n
    best = np.inf
    best_idx = -1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        x = pam[np.array(np.unravel_index(idx, shape))]  # (n, chunk)
        resid = y[:, None] - phi @ x
        metrics = np.einsum("ij,ij->j", resid, resid)
        j = int(np.argmin(metrics))
        if metrics[j] < best:
            best = float(metrics[j])
            best_idx = int(idx[j])
    levels = np.unravel_index(best_idx, shape)
    return _result(Y, H, design, snr, b, pam, levels, total)


def _lex_digits(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """(n, len(idx)) base-p digits of idx, most significant first."""
    return idx // p ** np.arange(n - 1, -1, -1)[:, None] % p


@lru_cache(maxsize=16)
def _group_candidates(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors of one group, as columns in lexicographic order."""
    digits = _lex_digits(np.arange(p**n), p, n)
    digits.setflags(write=False)
    return digits


def _search_sizes(p: int, groups, n_outer: int, rows: int) -> tuple[int, int]:
    """(table bytes, step bytes) of one trial's search: its group tables
    (candidate digits, images, norms, per-step metrics) plus one outer
    chunk's digits and residuals, and the largest array one trial holds
    in a search step."""
    chunk = min(_CHUNK, p**n_outer)
    widest = max(p ** len(g) for g in groups)
    tables = sum((len(g) + rows + 1 + chunk) * p ** len(g) for g in groups)
    tables += (n_outer + rows) * chunk
    n = n_outer + sum(len(g) for g in groups)
    return 8 * tables, 8 * max(rows * n, rows * widest, rows * chunk, widest * chunk)


def _block_trials(design: STBCDesign, cons: Constellation, n_r: int) -> int:
    """Trials decoded together: as many as keep the largest array of one
    search step within ``_STEP_BYTES`` (at least one)."""
    groups, outer = design._certified_split
    _, step = _search_sizes(len(cons.pam), groups, len(outer), 2 * n_r * design.T)
    return max(1, _STEP_BYTES // step)


def _partitioned_search(y, phi, pam, outer, groups) -> tuple[np.ndarray, int]:
    """Exact argmin of || y - phi pam[levels] ||^2 for every trial of a
    stack y (B, rows), phi (B, rows, n): (levels (B, n), evaluations per
    trial).

    The indices in ``outer`` are enumerated in lexicographic chunks; for
    each outer hypothesis every group is minimized in closed form, which
    is exact because columns of different groups are orthogonal.  Group
    candidates are enumerated over the group's indices in ascending order,
    so the first minimum is the lexicographically smallest.  A trial whose
    chunk minimum is unique and below its best so far takes the winner by
    array indexing; tied totals, within a chunk or with an earlier chunk's
    best, are settled per trial by comparing full index vectors.
    """
    p = len(pam)
    trials, _, n = phi.shape
    tables = []
    for g in groups:
        cols = sorted(g)
        digits = _group_candidates(p, len(cols))
        images = phi[:, :, cols] @ pam[digits]  # (B, rows, n_cand)
        qnorm = np.einsum("bij,bij->bj", images, images)
        tables.append((cols, digits, images.transpose(0, 2, 1), qnorm[:, :, None]))
    phi_out = phi[:, :, outer]
    outer_total = p ** len(outer)
    every = np.arange(trials)
    best_metric = np.full(trials, np.inf)
    best = np.zeros((trials, n), dtype=int)
    evaluations = 0
    for start in range(0, outer_total, _CHUNK):
        out_digits = _lex_digits(
            np.arange(start, min(start + _CHUNK, outer_total)), p, len(outer)
        )
        yp = y[:, :, None] - phi_out @ pam[out_digits]
        total = np.einsum("bij,bij->bj", yp, yp)  # (B, chunk)
        picks = []
        for _, _, images_t, qnorm in tables:
            metrics = images_t @ yp  # (B, n_cand, chunk)
            metrics *= 2.0
            np.subtract(qnorm, metrics, out=metrics)
            least = metrics.min(axis=1)
            # the first minimum is the lexicographically smallest candidate
            # (argmax of a boolean finds it faster than argmin over axis 1)
            picks.append(np.argmax(metrics == least[:, None], axis=1))
            total += least
            evaluations += metrics.shape[1] * metrics.shape[2]
        first = np.argmin(total, axis=1)
        chunk_best = total[every, first]
        tied = np.count_nonzero(total == chunk_best[:, None], axis=1) > 1
        clean = (chunk_best < best_metric) & ~tied
        settle = np.flatnonzero((chunk_best <= best_metric) & ~clean)
        winners = np.empty((trials, n), dtype=int)
        winners[:, outer] = out_digits[:, first].T
        for (cols, digits, _, _), pick in zip(tables, picks):
            winners[:, cols] = digits[:, pick[every, first]].T
        best[clean] = winners[clean]
        best_metric[clean] = chunk_best[clean]
        for t in settle:
            for j in np.flatnonzero(total[t] == chunk_best[t]):
                cand = np.empty(n, dtype=int)
                cand[outer] = out_digits[:, j]
                for (cols, digits, _, _), pick in zip(tables, picks):
                    cand[cols] = digits[:, pick[t, j]]
                if chunk_best[t] < best_metric[t] or cand.tolist() < best[t].tolist():
                    best_metric[t] = chunk_best[t]
                    best[t] = cand
    return best, evaluations


def _decode_stack(Y, H, design, cons, snr, encoder):
    """The structured search, for a stack of trials (see
    ``_effective_operator``): (levels (B, n), evaluations per trial, b).

    Cross-group columns of phi are orthogonal, so for each outer
    hypothesis with residual y', || y' - sum_p phi_p x_p ||^2 = ||y'||^2
    + sum_p (||phi_p x_p||^2 - 2 <y', phi_p x_p>): each group term is
    minimized on its own and the overall minimum is exact ML.  The scan
    count and one trial's table bytes are checked before any table is
    built."""
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
    return _result(Y, H, design, snr, b, cons.pam, levels[0], evaluations)
