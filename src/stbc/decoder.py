"""Exact ML decoding: one structured search and the exhaustive oracle.

Both decoders minimize || Y - sqrt(snr/n_t) H S ||^2 over the information
symbols (S the energy-normalized codeword), i.e. || y - phi x ||^2 in the
real model y = phi x + n.

* ``decode_auto`` is the one structured decoder, for every design with a
  certified split ``STBCDesign.structure`` (others are refused); a rate-1
  code is its one-layer case.  It enumerates the split's outer hypotheses
  and, per outer hypothesis, minimizes each of its four groups in closed
  form: 4 * M^{n_t/4} hypotheses at rate 1,
  M^{n_t(L-1)} * 4 * M^{n_t/4} (order M^{n_t(L-3/4)}) for L layers.
* ``ml_oracle`` enumerates all M^k candidates; it is the reference the
  structured search is tested against and keeps its own plain loop per
  trial (``_oracle_stack``), with the same tie rule.

Both decoders have one shape.  An admission, ``_admit_search`` or
``_admit_oracle``, refuses work over the decoder's limits and returns
(count per codeword, trials per block); a stacked decode,
``_decode_stack`` or ``_oracle_stack``, takes (Y, H, design, cons, snr,
encoder) for a stack of trials and returns (levels, evaluations, b).
Inputs and limits are checked once.  The two public entry points check
their inputs (``_checked``: a non-finite Y or H, a non-finite or negative
snr, a channel that is not (n_r, n_t) and a received matrix that is not
(n_r, T) raise a ``ValueError`` subclass), admit the work, decode a
stack of one and recompute its metric (``_decode_one``).
``_admit_search`` refuses a design without the split, more than 1 << 26
scans and tables of more than 1 GiB for one trial, ``_admit_oracle``
more than 1 << 22 candidates (``BudgetExceededError``).  The simulator
admits a config before its first draw, and its blocks -- drawn by
``rng.draw_block`` from finite normals, at SNRs its ``SimConfig``
checked -- go to the stacked decode unchecked.

The search works on stacks of trials (``_decode_stack``): the front end
turns (..., n_r, T) received matrices and (..., n_r, n_t) channels, one
SNR each, into stacked y and phi.  The first layer's four groups, equal
in size as the encoder's rotation acts on each, lie on one array axis.
When one chunk (``_CHUNK``, 16,384) holds every outer hypothesis --
every rate-1 code and the small layered ones -- the stack is scanned
whole: per trial, the residual y - phi_out x_o and every group
candidate's metric are affine in the outer levels x_o, so their forms,
(rows, n_outer + 1) and (sum_g n_cand, n_outer + 1), times the cached
levels of every outer hypothesis with a row of ones (``_outer_levels``)
give them all; the residual's product is reduced to its squared norm
before the metrics' is made.  Every product is made per trial with a
single trial's shapes, so a stacked trial decodes exactly as it does
alone; ``decode_auto`` is the stack of one, and the simulator decodes
sweeps in blocks sized by ``_admit_search`` from the block's whole
search state.

Codes with more outer hypotheses (the 8 x 2 rate-2 4-QAM code and the
4-antenna rate-2 16-QAM code have 65,536) take a bounded search
(``_bounded_search``; Agrell, Eriksson, Vardy and Zeger, "Closest point
search in lattices", 2002), one pass for the whole stack.  A QR of each
trial's phi with the outer columns last bounds every outer hypothesis's
total from below by its outer rows alone, since the group rows are
non-negative.  A K-best pass over the outer digits, descending every
trial of the stack at once with each node carrying its trial and equal
bounds broken by position, seeds each trial's radius; the radius pass
(``_radius_pass``) then keeps every hypothesis whose bound is within a
1e-9 relative slack of that radius, in two half-steps: one stacked
product bounds every prefix of the high half of the outer digits, and
one product per trial extends the prefixes within its radius by every
completion of the low half.  A trial so keeps the same seeds, radius and
survivors in any stack.  Seeds and survivors are scored from R
(``_qr_form``): a leaf's total is its bound, the inner rows' residual
and each group's closed-form minimum, all affine in the outer levels, so
one small product per leaf replaces a scan of every row of phi.  The
pruned hypotheses all have totals above the minimum, so the decision is
the exhaustive search's.  A block of bounded searches scans, unpruned,
no more hypotheses than one trial may (``_admit_search``), so its worst
case on the two codes above at n_r = 2 is under 55 MiB of search state.

Tiles (``_tile``): no product of the bounded search or of the oracle
takes more than ``_TILE_MACS`` (2^19) multiply-adds, half the size from
which OpenBLAS (0.3.31, 2 CPUs) ran an (80, 17) by (17, w) product on
its thread pool.  The pool gained nothing alone on an idle host; with a
second such process running it took 3.5-16 ms a product at 1.04M
multiply-adds and more, against 23 us at 0.87M.  The leaves are scored,
and the radius pass's prefixes extended, one tile at a time: 384 leaves
of the 8 x 2 code's (80, 17) leaf form, 768 of the 16-QAM code's (72,
9); the oracle scans 2,048 candidates at a time on the 4 x 2 rate-2
code at n_r = 2.  A tile is a multiple of 64 columns and starts a whole
number of tiles after its trial's first leaf (the oracle's first
candidate), so on OpenBLAS a total is the one a single product over
them gives, to the bit, whatever the cap.

Ties (``_within``): totals within 1e-9 of |least| + ||y||^2 + the
groups' largest image energies are tied, and so are a group's candidates
against its least metric; the decision is the lexicographically smallest
full index vector among the ties (first real symbol most significant).
The oracle applies the same rule to its metrics, with ||y||^2 + the
largest ||phi x||^2 as the scale, so the two decide alike on exact ties.
Rounding differs with a chunk's width, a column's place in it and
whether a total comes from phi or from R, so it is never what decides:
the decision does not depend on the chunk width, on the survivors or on
the stack.  Every search enumerates digits in one
lexicographic order (``linalg._lex_digits``).  Decoded digits are
scattered back by real-symbol index, so only the declared groups
matter, never whether they are contiguous.

``metric_evaluations`` counts, per decoded trial, the outer hypotheses
scanned times one closed-form scan of every group (sum_g p^|g| per outer
hypothesis, p the PAM levels).  Without pruning that is every outer
hypothesis, and ``complexity_account`` -- the paper's closed form and
the worst case -- equals the counter; with the bounded search it is
the survivors' share of it.  A design without the split has only the
oracle, and its account is the oracle's M^k.  Interior nodes of the
bounded search (its QR bounds and the K-best seed) are not counted, so
the account stays the paper's closed form, not a count of tree nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .channel import equivalent_channel
from .coding_gain import Encoder, default_encoder, full_symbol_matrix
from .designs import STBCDesign, codeword
from .errors import BudgetExceededError, DimensionMismatchError, NotGroupDecodableError
from .linalg import _lex_digits, _require_finite, _require_snr

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
#: scans one trial may need, and a block of bounded searches at most
_BUDGET = 1 << 26
_ORACLE_BUDGET = 1 << 22
#: a block of single-chunk searches holds at most this many bytes (1.5 MiB)
_BLOCK_BYTES = 3 << 19
#: one trial whose search tables would need more bytes is refused
_TABLE_BYTES = 1 << 30
#: multiply-adds of one product of the bounded search at most (see ``_tile``)
_TILE_MACS = 1 << 19


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
    """Unit-energy square M-QAM, M in {4, 16, 64, 256, ...}, with
    read-only ``points`` and ``pam``."""
    root = isqrt(m)
    if root * root != m or root % 2 or m < 4:
        raise ValueError(f"square QAM needs an even perfect-square size, got {m}")
    delta = np.sqrt(3.0 / (2.0 * (m - 1)))
    pam = delta * (2.0 * np.arange(root) - (root - 1))
    points = (pam[:, None] + 1j * pam[None, :]).reshape(-1)
    for a in (pam, points):
        a.setflags(write=False)
    return Constellation(label=f"{m}qam", points=points, pam=pam)


@lru_cache(maxsize=16)
def constellation(label: str) -> Constellation:
    """Parse labels like '4qam', '16-QAM'; one shared, read-only instance
    per label.  Anything that is not ``<digits>qam`` once case, '-' and
    '_' are dropped is refused, naming the label."""
    clean = label.lower().replace("-", "").replace("_", "") if isinstance(label, str) else ""
    if not re.fullmatch(r"[0-9]+qam", clean):
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
    """Exact hypothesis counts for each decoder on this design, from
    ``design.structure``.  Without it the search is plain, one scan per
    hypothesis: the structured count is the oracle's, of order M^k."""
    p, n = len(constellation.pam), design.n_real_symbols
    structured, order = p**n, n / 2.0
    if design.structure is not None:
        groups, outer = design.structure
        structured = _hypotheses(p, groups, len(outer))
        order = (len(outer) + max(len(g) for g in groups)) / 2.0
    return ComplexityAccount(
        constellation_size=constellation.size,
        oracle_evaluations=p**n,  # == M ** design.k
        group_evaluations=structured if design.layers == 1 else None,
        conditional_evaluations=None if design.layers == 1 else structured,
        order_exponent=order,
    )


def _admit_search(design: STBCDesign, cons: Constellation, n_r: int) -> tuple[int, int]:
    """(scans per codeword, trials per block) of the structured search on
    ``n_r`` receive antennas, refusing a design without the split, more
    than ``_BUDGET`` scans and one trial's tables of more than
    ``_TABLE_BYTES``.

    A block of single-chunk searches holds, in its worst case, at most
    ``_BLOCK_BYTES``: its trials' bytes plus the shared bytes of
    ``_sizes_at`` (22 trials of the 4 x 4 rate-2 4-QAM code at ``n_r =
    2``).  A block of bounded searches holds no more outer hypotheses
    times group scans than one trial may scan (``_BUDGET``): 16 trials of
    the 8 x 2 rate-2 4-QAM code and of the 4-antenna rate-2 16-QAM code.
    Its worst case, nothing pruned, is 16 trials' bytes plus the shared
    bytes: ~55 MiB for the 4-QAM code and ~54 MiB for the 16-QAM code at
    ``n_r = 2`` (a zero channel, which prunes nothing, peaks at 51 and 50
    MiB traced)."""
    if design.structure is None:
        raise NotGroupDecodableError(
            "the first layer is not four groups meeting the cross-group condition")
    groups, outer = design.structure
    p = len(cons.pam)
    scans = _hypotheses(p, groups, len(outer))
    if scans > _BUDGET:
        raise BudgetExceededError(f"{scans} hypotheses exceed the budget of {_BUDGET}")
    trial, shared = _sizes_at(p, groups, len(outer), 2 * n_r * design.T, _CHUNK, _TILE_MACS)
    if trial + shared > _TABLE_BYTES:
        raise BudgetExceededError(
            f"search tables of {trial + shared} bytes exceed the limit of {_TABLE_BYTES}")
    if p ** len(outer) > _CHUNK:
        return scans, max(1, _BUDGET // scans)
    return scans, max(1, (_BLOCK_BYTES - shared) // trial)


def _admit_oracle(design: STBCDesign, cons: Constellation, n_r: int) -> tuple[int, int]:
    """(M^k candidates per codeword, trials per block) of the oracle on
    ``n_r`` receive antennas, refusing more than ``_ORACLE_BUDGET``
    candidates.  A block's front end -- y, phi and phi's build, 2 n_r T
    (3n + 1) words a trial -- holds at most ``_BLOCK_BYTES``; each trial
    then scans alone."""
    n = design.n_real_symbols
    total = len(cons.pam) ** n
    if total > _ORACLE_BUDGET:
        raise BudgetExceededError(f"M^k = {total} exceeds the budget of {_ORACLE_BUDGET}")
    return total, max(1, _BLOCK_BYTES // (8 * 2 * n_r * design.T * (3 * n + 1)))


def _checked(Y, H, design: STBCDesign, snr):
    """(Y, H, snr) of one trial as complex arrays and floats: the public
    decoders' input check.  Non-finite entries, a non-finite or negative
    snr, a channel that is not (n_r, n_t) with n_r >= 1 and a received
    matrix without its rows and T columns are refused."""
    Y = _require_finite(np.asarray(Y, dtype=complex), "received matrix")
    H = _require_finite(np.asarray(H, dtype=complex), "channel")
    if H.shape[1:] != (design.n_t,) or Y.shape != (len(H), design.T) or not len(H):
        raise DimensionMismatchError(
            f"channel {H.shape} and received matrix {Y.shape} are not (n_r, "
            f"{design.n_t}) and (n_r, {design.T}) with n_r >= 1")
    return Y, H, _require_snr(snr)


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
    (Y (..., n_r, T), H (..., n_r, n_t), one snr per trial).  The inputs
    are taken as checked (``_checked``, or the simulator's own draws)."""
    if encoder is None:
        encoder = default_encoder(design, cons.pam)
    c = np.sqrt(snr / design.n_t) * design.energy_scale
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
    resid = Y - np.sqrt(snr / design.n_t) * (H @ s)
    return float(np.linalg.norm(resid) ** 2)


def _decode_one(Y, H, design, cons, snr, encoder, admit, decode) -> DecodeResult:
    """A public decoder's four steps: check the trial (``_checked``),
    ``admit`` the work, ``decode`` it as a stack of one and recompute its
    metric in the complex domain."""
    Y, H, snr = _checked(Y, H, design, snr)
    admit(design, cons, len(H))
    levels, evaluations, b = decode(Y[None], H[None], design, cons, snr, encoder)
    info = cons.pam[levels[0]]
    return DecodeResult(
        level_indices=tuple(int(v) for v in levels[0]),
        info=info,
        metric=_final_metric(Y, H, design, snr, b, info),
        metric_evaluations=int(evaluations[0]),
    )


def _oracle_stack(Y, H, design, cons, snr, encoder):
    """The exhaustive oracle, for a stack of trials (see
    ``_effective_operator``) on a design and constellation that
    ``_admit_oracle`` admitted: (levels (B, n), evaluations (B,), b).

    Each trial is a plain loop with no groups, QR or tables over all M^k
    candidates, one ``_tile`` of them at a time.  Of the candidates whose
    metric is within ``_within`` of the least, with ||y||^2 plus the
    largest ||phi x||^2 as its scale, it takes the lexicographically
    smallest index vector: the structured search's tie rule."""
    pam, n = cons.pam, design.n_real_symbols
    total = len(pam) ** n
    ys, phis, b = _effective_operator(Y, H, design, cons, snr, encoder)
    levels = np.empty((len(ys), n), dtype=int)
    width = _tile(phis.shape[1] * n, _TILE_MACS)
    for t, (y, phi) in enumerate(zip(ys, phis)):
        metrics = np.empty(total)
        largest = 0.0
        for start in range(0, total, width):
            idx = np.arange(start, min(start + width, total))
            image = phi @ pam[_lex_digits(idx, len(pam), n)]  # (rows, width)
            resid = y[:, None] - image
            metrics[start:start + width] = np.einsum("ij,ij->j", resid, resid)
            largest = max(largest, np.einsum("ij,ij->j", image, image).max())
        best = np.argmax(metrics <= _within(metrics.min(), y @ y + largest))
        levels[t] = _lex_digits(np.array([best]), len(pam), n)[:, 0]
    return levels, np.full(len(ys), total), b


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
    against, one trial as a stack of one (``_oracle_stack``)."""
    return _decode_one(Y, H, design, cons, snr, encoder, _admit_oracle, _oracle_stack)


@lru_cache(maxsize=16)
def _group_candidates(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors of one group, as columns in lexicographic order."""
    digits = _lex_digits(np.arange(p**n), p, n)
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=16)
def _outer_levels(pam: tuple, m: int) -> np.ndarray:
    """X = [pam[digits]; 1] (m + 1, p^m), read-only: the levels of every
    outer hypothesis as columns in lexicographic order, over a row of ones
    that takes an affine form's constant."""
    p = len(pam)
    x = np.ones((m + 1, p**m))
    x[:m] = np.asarray(pam)[_group_candidates(p, m)]
    x.setflags(write=False)
    return x


def _group_form(resid_form, images, qnorm):
    """Every group candidate's metric ||phi_g x_g||^2 - 2 <y', phi_g x_g>
    as a form affine in the outer levels, (B, sum_g n_cand, m + 1), from
    the residual's form y' = resid_form [x_o; 1] (B, rows, m + 1), the
    candidates' images (B, rows, sum_g n_cand) and their norms."""
    form = images.transpose(0, 2, 1) @ resid_form
    form *= -2.0
    form[:, :, -1] += qnorm
    return form


@lru_cache(maxsize=64)
def _tie_width(p: int, groups, n_outer: int) -> int:
    """Tied hypotheses a single-chunk search resolves at once: their
    digits, group metrics, full vectors and sort keys take at most an
    eighth of ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (64 * _tie_words(p, groups, n_outer)))


def _tie_words(p: int, groups, n_outer: int) -> int:
    """Words one tied hypothesis holds while ``_least_tied`` resolves it:
    its outer digits, each group's metrics, tie mask and pick, its full
    vector, its trial's scale and the sort keys of ``_lex_least``."""
    per_outer = sum(p ** len(g) for g in groups)
    n = n_outer + sum(len(g) for g in groups)
    return n_outer + per_outer + per_outer // 8 + 2 * n + 4 * len(groups) + 8


def _tile(per_column: int, cap: int) -> int:
    """Columns of one tile of a product that takes ``per_column``
    multiply-adds a column: at most ``cap`` multiply-adds, rounded down
    to a multiple of 64 columns, and at least 64."""
    return max(64, cap // per_column // 64 * 64)


def _leaf_width(p: int, groups, n_outer: int, cap: int) -> int:
    """Leaves the bounded search scores at once: one tile of the leaf
    product, (k + sum_g n_cand, n_outer + 1) by the leaves' [x_o; 1] (k
    the group symbols)."""
    rows = sum(len(g) + p ** len(g) for g in groups)
    return _tile(rows * (n_outer + 1), cap)


def _radius_width(p: int, m: int, cap: int) -> int:
    """High-half prefixes the radius pass extends at once: one tile of
    their product with the p^(m // 2) low-half completions."""
    return _tile(p ** (m // 2) * (m // 2), cap)


@lru_cache(maxsize=64)
def _sizes_at(p: int, groups, n_outer: int, rows: int, chunk: int,
              cap: int) -> tuple[int, int]:
    """(trial bytes, shared bytes) of a search with every outer chunk
    ``chunk`` wide and tiles of at most ``cap`` multiply-adds (the
    decoder's are ``_CHUNK`` and ``_TILE_MACS``): what each trial of a
    stack holds at most, and what the stack holds once whatever its size.

    A single-chunk search holds per trial y, phi and the temporaries of
    its build, the groups' columns, images and norms, the residual's form
    with its build and the group metrics' form, one product at a time
    with every outer hypothesis (the residual's, reduced to its squared
    norm, then the group metrics'), and, when every hypothesis ties (a
    zero channel), its totals with the group minima and their sum or
    with the tie mask and the tied trials and hypotheses, next to the
    rows ``_least_tied`` keeps.  The stack shares the candidate digits,
    the outer hypotheses' digits and levels and one ``_tie_width`` chunk
    of tied hypotheses.  A bounded search holds per trial y, phi, the
    groups' columns, images and norms, the reordered phi and its QR, the
    leaf forms, the K-best descent's steps, its high-half prefixes'
    residuals and bounds and, when nothing is pruned, six words and a
    bit per outer hypothesis: the survivors' indices, trials and bounds,
    their totals with a temporary, the tie mask and the tied
    hypotheses and their trials.  The stack shares the candidate digits,
    one trial's leaf bounds with their mask, rows, completions and an
    index temporary, each one tile of prefixes' extensions
    (``_radius_width``), and one ``_leaf_width`` tile of leaves: their
    digits, levels, products and squares, their full vectors with the
    sort keys of ``_lex_least`` and each group's pick."""
    outer_total = p**n_outer
    k = sum(len(g) for g in groups)
    n = k + n_outer
    m = n_outer
    per_outer = sum(p ** len(g) for g in groups)
    candidates = sum(len(g) * p ** len(g) for g in groups)
    if outer_total <= chunk:
        trial = (rows * (3 * n + 1)  # y, phi and its build
                 + rows * (k + per_outer) + per_outer  # groups
                 + 3 * rows * (m + 1) + per_outer * (m + 1)  # forms
                 + max(rows, per_outer) * outer_total  # their products
                 + (len(groups) + 2) * outer_total + outer_total // 8  # totals, minima, ties
                 + 3 * n + 6)  # the tied rows kept
        shared = (candidates + (2 * m + 1) * outer_total
                  + _tie_width(p, groups, m) * _tie_words(p, groups, m))
        return 8 * trial, 8 * shared
    trial = (rows * (n + 1 + k + per_outer) + per_outer  # y, phi and the groups
             + 2 * rows * n + n * n  # the reordered phi, Q and R
             + rows * per_outer + (rows + 2 * per_outer + 2 * k) * (m + 1)  # leaf forms
             + p * m * (m + 1)  # the descent's steps and diagonal
             + (2 * m + 1) * p ** (m - m // 2)  # the prefixes' residuals and bounds
             + 6 * outer_total + outer_total // 8)  # survivors and their totals
    per_leaf = 4 * m + 1 + 3 * k + per_outer + per_outer // 8 + 2 * n + 7
    block = min(p ** (m - m // 2), _radius_width(p, m, cap)) * p ** (m // 2)
    shared = (candidates + per_leaf * _leaf_width(p, groups, m, cap)
              + 5 * block + block // 8)  # one tile of leaf bounds
    return 8 * trial, 8 * shared


def _within(value, scale):
    """The largest total counted as tied with ``value``, or as a bound not
    pruned against it.  ``scale`` is a trial's ||y||^2 plus each group's
    largest image energy (the oracle's: plus the largest ||phi x||^2);
    rounding in the totals, the metrics, the bounds and the QR stays far
    below 1e-9 of it."""
    return value + 1e-9 * (np.abs(value) + scale)


def _full_vectors(cols, cand, outer, digits, metrics, scale) -> np.ndarray:
    """Full level vectors (L, n) of L leaves from their outer digits (L,
    n_outer), their metrics (L, groups, n_cand) and each leaf's trial's
    scale: each group at its lexicographically smallest candidate tied
    with its least metric."""
    full = np.empty((len(digits), len(outer) + cols.size), dtype=int)
    full[:, outer] = digits
    tied = metrics <= _within(metrics.min(axis=2), scale[:, None])[:, :, None]
    full[:, cols] = cand[:, np.argmax(tied, axis=2)].transpose(1, 2, 0)
    return full


def _least_tied(cols, cand, outer, owners, scale, width, leaves):
    """(B, n): each trial's lexicographically smallest full vector among
    its tied hypotheses, ``width`` of them at a time.  ``owners`` (L,)
    holds their trials, grouped by trial, and ``leaves(part)`` the outer
    digits (w, n_outer) and the metrics (w, groups, n_cand) of the slice
    ``part`` of them."""
    rows, tri = [], []
    for s in range(0, len(owners), width):
        part = slice(s, s + width)
        digits, metrics = leaves(part)
        full = _full_vectors(cols, cand, outer, digits, metrics, scale[owners[part]])
        row, owner = _lex_least(full, owners[part])
        rows.append(row)
        tri.append(owner)
    if len(rows) == 1:  # one chunk held every tied hypothesis
        return rows[0]
    return _lex_least(np.concatenate(rows), np.concatenate(tri))[0]


def _lex_least(full, tri):
    """(rows, trials): the lexicographically smallest row of ``full`` (L,
    n) (first real symbol most significant) of each trial present in the
    trial indices ``tri`` (L,), in ascending trial order."""
    if np.all(tri[1:] > tri[:-1]):  # one row per trial, in order: nothing to sort
        return full, tri
    order = np.lexsort((*full.T[::-1], tri))
    owner = tri[order]
    first = order[np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))]
    return full[first], tri[first]


def _descend(z, r, pam):
    """The K-best pass: a breadth-first enumeration of the outer digits of
    a stack of trials on their upper triangular r (B, m, m), bottom row
    first, that extends every kept node by each PAM level, adds its row's
    squared residual to the node's bound and keeps each trial's
    ``_SEEDS`` least children (``_k_best``): (indices, trials, bounds) of
    the leaves.  A node carries its trial and one lexicographic index, the
    first digit fixed most significant; every operation on a node is
    elementwise, so a node's bound does not depend on the stack.  The
    nodes stay grouped by trial, and ascending within one."""
    trials, m = z.shape
    p = len(pam)
    # steps[b, c, d, i] = r[b, i, c] * pam[d]: what digit d of column c
    # takes from row i's pending residual
    steps = np.ascontiguousarray((r[:, :, :, None] * pam).transpose(0, 2, 3, 1))
    diagonal = np.ascontiguousarray(steps[:, np.arange(m), :, np.arange(m)])  # (m, B, p)
    tri = np.arange(trials)
    idx = np.zeros(trials, dtype=np.int64)
    bound = np.zeros(trials)
    pending = z
    for c in range(m - 1, -1, -1):
        child = diagonal[c][tri]
        np.subtract(pending[:, c, None], child, out=child)
        child *= child
        child += bound[:, None]
        kept = _k_best(child, tri)
        parent, digit = np.divmod(kept, p)
        tri = tri[parent]
        idx = idx[parent] * p + digit
        bound = child.ravel()[kept]
        pending = pending[parent, :c] - steps[:, c, :, :c][tri, digit]
    return idx, tri, bound


def _radius_pass(z, r, p, levels, limit):
    """(indices, trials, bounds) of every outer hypothesis of a stack
    whose bound ||z - r x_o||^2 is within its trial's ``limit``, grouped
    by trial and ascending within one.  ``levels`` (m - half, p^(m -
    half)), half = m // 2, holds the levels of every high-half prefix,
    least significant digit first, as r's columns take them.

    r is upper triangular, so one stacked product gives every prefix's
    residual z - r_high x_high: its bottom rows are the prefix's bound, its
    top rows the a of ||a - b||^2 = ||a||^2 - 2 a^T b + ||b||^2 that each
    low-half completion b = r_low x_low adds.  Per trial, products of at
    most ``_radius_width`` prefixes each extend the prefixes within the
    limit by every completion.  Bounds grow with depth, so these are the
    leaves a search pruning at every level keeps; their rounding differs
    far below the ``_within`` slack."""
    m = z.shape[1]
    half = m // 2
    low = levels[:half, :p**half]
    resid = z[:, :, None] - r[:, :, half:] @ levels  # (B, m, p^(m - half))
    head = np.square(resid[:, half:]).sum(axis=1)
    width = _radius_width(p, m, _TILE_MACS)
    idx, bound, owner = [], [], []
    for t, within in enumerate(limit):
        b = r[t, :half, :half] @ low
        b_norm = np.square(b).sum(axis=0)
        kept = np.flatnonzero(head[t] <= within)
        for s in range(0, len(kept), width):
            pre = kept[s:s + width]
            a = resid[t][:half, pre]
            leaf = a.T @ b
            leaf *= -2.0
            leaf += (head[t, pre] + np.square(a).sum(axis=0))[:, None]
            leaf += b_norm
            row, lo = np.nonzero(leaf <= within)
            bound.append(leaf[row, lo])
            idx.append(pre[row] * p**half + lo)
            owner.append(t)
    tri = np.repeat(owner, [len(i) for i in idx])
    return np.concatenate(idx), tri, np.concatenate(bound)


def _k_best(child, tri):
    """Keep each trial's ``_SEEDS`` least child bounds (a K-best level):
    every bound below the trial's K-th least, then the earliest row-major
    positions equal to it, so a trial keeps the same children in any
    stack.  Every trial of a K-best pass holds the same number of nodes."""
    per = child.reshape(tri[-1] + 1, -1)
    if per.shape[1] <= _SEEDS:
        return np.arange(child.size)
    kth = np.partition(per, _SEEDS - 1, axis=1)[:, _SEEDS - 1, None]
    below = per < kth
    tied = per == kth
    tied &= np.cumsum(tied, axis=1) <= _SEEDS - below.sum(axis=1, keepdims=True)
    return np.flatnonzero(below | tied)


def _qr_form(y, phi, pam, outer, cols, images, qnorm):
    """The stack's search in the QR domain: a QR of each trial's phi with
    the first layer's group columns first and the outer columns last, the
    first outer index at the bottom, so the descent fixes it first.
    Returns the outer block (z_o (B, m), R_oo (B, m, m)) for the bounds,
    the levels of the high half's digits (``_radius_pass``), the leaf
    scorer and its tile width (``_leaf_width``).

    With z = Q^T y split into its inner rows z_i and outer rows z_o, an
    outer hypothesis x_o leaves y' = y - phi_out x_o with ||y'||^2 =
    ||y||^2 - ||z||^2 + ||w||^2 + ||z_o - R_oo x_o||^2, w = z_i - R_io
    x_o.  A leaf's total is therefore its bound plus ||y||^2 - ||z||^2 +
    ||w||^2 plus each group's least metric ||phi_g x_g||^2 - 2 <y',
    phi_g x_g>.  Both w and every group metric are affine in x_o, so one
    product per trial, (k + sum_g n_cand, m + 1) by the leaves' [x_o; 1],
    gives them all (k the inner count), in place of the (rows, n_outer)
    residual and the (n_cand, rows) group products per leaf of a scan in
    the original domain.  The group metrics' coefficients come from the
    group images themselves, not from the inner block R_ii: R_ii is block
    diagonal across groups only while every earlier group has full rank,
    which a degenerate channel breaks."""
    p, m = len(pam), len(outer)
    rev = list(outer[::-1])
    inner = cols.ravel().tolist()
    k = len(inner)
    q, r = np.linalg.qr(phi[:, :, inner + rev])
    z = (q.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]
    r_rows = z.shape[1]  # min(rows, n)
    trials = len(y)
    z_o, r_oo = np.zeros((trials, m)), np.zeros((trials, m, m))
    z_o[:, : max(r_rows - k, 0)] = z[:, k:]
    r_oo[:, : max(r_rows - k, 0)] = r[:, k:, k:]
    # w = [-R_io | z_i] [x_o; 1], padded to k rows when phi has fewer
    w_form = np.zeros((trials, k, m + 1))
    w_form[:, :r_rows, :m] = -r[:, :k, k:]
    w_form[:, :r_rows, m] = z[:, :k]
    metric_form = _group_form(np.concatenate([-phi[:, :, rev], y[:, :, None]], axis=2),
                              images, qnorm)
    form = np.concatenate([w_form, metric_form], axis=1)
    base = np.einsum("bi,bi->b", y, y) - np.einsum("bi,bi->b", z, z)
    # x_o = [levels of idx's low `half` digits; levels of its high ones],
    # each least significant first, looked up in one table of the levels
    # of m - half >= half digits: not m digits per leaf
    half = m // 2
    levels = pam[_lex_digits(np.arange(p ** (m - half)), p, m - half)[::-1]]
    width = _leaf_width(p, cols, m, _TILE_MACS)

    def score(idx, tri, bound, keep=False):
        """Totals (L,) of the leaves ``idx`` of trials ``tri`` (grouped by
        trial) with outer bounds ``bound``; with ``keep``, also their
        digits (L, m) and metrics (L, groups, n_cand).  Each trial's run of
        leaves is scored a tile of ``width`` at a time from its start, so a
        tile's product has the columns one product over the run would:
        OpenBLAS may round the columns past a product's last full kernel
        block (its last n mod 8) differently."""
        total = base[tri]
        total += bound
        metrics = np.empty((len(idx), len(cols), p ** cols.shape[1])) if keep else None
        edges = [0, *(np.flatnonzero(tri[1:] != tri[:-1]) + 1), len(tri)]
        for start, stop in zip(edges, edges[1:]):
            for s in range(start, stop, width):
                e = min(s + width, stop)
                hi, lo = np.divmod(idx[s:e], p**half)
                x = np.ones((m + 1, e - s))
                x[:half] = levels[:half, lo]
                x[half:m] = levels[:, hi]
                out = form[tri[s]] @ x
                # a row-wise sum, so a leaf's rounding does not depend on L
                total[s:e] += np.square(out[:k]).sum(axis=0)
                tile = out[k:].reshape(len(cols), -1, e - s)
                total[s:e] += tile.min(axis=1).sum(axis=0)
                if keep:
                    metrics[s:e] = tile.transpose(2, 0, 1)
        if not keep:
            return total
        return total, _lex_digits(idx, p, m).T, metrics

    return z_o, r_oo, levels, score, width


def _bounded_search(y, phi, pam, outer, cols, cand, images, qnorm, scale):
    """(levels (B, n), survivors (B,)) of a stack: each trial's decision
    and the outer hypotheses its bounded search scored.

    A K-best pass over the outer digits keeps each trial's ``_SEEDS``
    least bounds per level; the least scored total of a trial's seeds,
    widened by ``_within``, is its radius.  The radius pass then keeps
    every hypothesis whose bound is within its trial's radius, so every
    hypothesis whose total ties the least survives, and every survivor
    is scored, a tile at a time.  The tied survivors are scored again
    with their group metrics and each trial
    takes the lexicographically smallest full vector among them; a
    trial's seeds are scored with the shapes it has alone, so its radius,
    survivors and counter do not depend on the stack."""
    trials = len(y)
    z_o, r_oo, levels, score, width = _qr_form(y, phi, pam, outer, cols, images, qnorm)
    seeds, tri, bound = _descend(z_o, r_oo, pam)
    limit = _within(score(seeds, tri, bound).reshape(trials, -1).min(axis=1), scale)
    survivors, tri, bound = _radius_pass(z_o, r_oo, len(pam), levels, limit)
    totals = score(survivors, tri, bound)
    least = np.full(trials, np.inf)
    np.minimum.at(least, tri, totals)
    tied = np.flatnonzero(totals <= _within(least, scale)[tri])

    def leaves(part):
        at = tied[part]
        return score(survivors[at], tri[at], bound[at], keep=True)[1:]

    best = _least_tied(cols, cand, outer, tri[tied], scale, width, leaves)
    return best, np.bincount(tri, minlength=trials)


def _partitioned_search(y, phi, pam, outer, groups) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmin of || y - phi pam[levels] ||^2 for every trial of a
    stack y (B, rows), phi (B, rows, n): (levels (B, n), evaluations per
    trial).

    For each outer hypothesis every group is minimized in closed form,
    which is exact because columns of different groups are orthogonal.
    When every outer hypothesis fits in one chunk, all of them are scanned
    for the whole stack at once; otherwise the stack takes one bounded
    search (``_bounded_search``), which scores leaves from the QR factor
    R.  Totals within ``_within`` of the least are ties, and so are a
    group's candidate metrics; the decision is the lexicographically
    smallest full index vector among the ties.  Rounding differs with a
    chunk's width, a column's place in it and the domain a leaf is
    scored in, so it never decides: the decision depends neither on the
    chunk width nor on which hypotheses survive, nor on the stack.
    """
    p, m = len(pam), len(outer)
    trials, rows = y.shape
    cols = np.sort(groups, axis=1)  # (4, group size): the encoder made them equal
    cand = _group_candidates(p, cols.shape[1])
    per_outer = cols.shape[0] * cand.shape[1]
    # every group's candidate images side by side, and their norms
    images = np.empty((trials, rows, len(cols), cand.shape[1]))
    np.matmul(phi[:, :, cols].transpose(0, 2, 1, 3), pam[cand],
              out=images.transpose(0, 2, 1, 3))
    images = images.reshape(trials, rows, per_outer)
    qnorm = np.einsum("bij,bij->bj", images, images)
    scale = np.einsum("bi,bi->b", y, y)
    scale += qnorm.reshape(trials, len(cols), -1).max(axis=2).sum(axis=1)
    if p**m > _CHUNK:
        best, survivors = _bounded_search(y, phi, pam, outer, cols, cand, images, qnorm, scale)
        return best, survivors * per_outer
    x = _outer_levels(tuple(pam), m)
    resid_form = np.concatenate([-phi[:, :, outer], y[:, :, None]], axis=2)
    resid = resid_form @ x  # (B, rows, p^m), gone before the metrics' product
    totals = np.einsum("bij,bij->bj", resid, resid)
    del resid
    out = (_group_form(resid_form, images, qnorm) @ x).reshape(trials, len(cols), -1, p**m)
    totals += out.min(axis=2).sum(axis=1)
    tri, hyp = np.nonzero(totals <= _within(totals.min(axis=1), scale)[:, None])
    outer_digits = _group_candidates(p, m).T
    best = _least_tied(cols, cand, outer, tri, scale, _tie_width(p, groups, m), lambda part: (
        outer_digits[hyp[part]], out[tri[part], :, :, hyp[part]]))
    return best, np.full(trials, p**m * per_outer)


def _decode_stack(Y, H, design, cons, snr, encoder):
    """The structured search, for a stack of trials (see
    ``_effective_operator``) on a design and constellation that
    ``_admit_search`` admitted: (levels (B, n), evaluations (B,), b).

    Cross-group columns of phi are orthogonal, so for each outer
    hypothesis with residual y', || y' - sum_p phi_p x_p ||^2 = ||y'||^2
    + sum_p (||phi_p x_p||^2 - 2 <y', phi_p x_p>): each group term is
    minimized on its own and the overall minimum is exact ML."""
    groups, outer = design.structure
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
    one trial as a stack of one (``_decode_stack``)."""
    return _decode_one(Y, H, design, cons, snr, encoder, _admit_search, _decode_stack)
