"""Monte-Carlo ergodic capacity of coded and uncoded MIMO channels.

The coded channel's capacity per channel use is

    C = (1/2T) E_H log2 det( I + (snr/n_t) H_eq^T H_eq )

with H_eq built from the energy-normalized generator matrix, against the
plain channel benchmark C = E_H log2 det( I + (snr/n_t) H H^H ).  Trials
run as stacked arrays, ``_BLOCK`` channel draws at a time: one draw call,
one H_eq product and one batched Cholesky factorization per block.  Every
eigenvalue of I + rho A^H A is at least 1, so the factorization is well
conditioned at any snr, and log2 det is twice the log2-sum of its
diagonal.  ``logdet_gram_qr`` (Gram-Schmidt QR of [sqrt(rho) A; I]) and
``logdet_gram_lu`` (slogdet) are the per-matrix reference routes the
tests compare the batched one against.

At high snr the R diagonal itself carries the capacity:

    C ~ n_r log2(snr/n_t) + (1/2T) sum_i E log2 R(i,i)^2

which ties the number of structural zeros in R to the achievable rate --
the more orthogonal the equivalent channel columns, the less energy the
Gram-Schmidt projections remove from each R(i,i).  |R(i,i)| is unique for
a full-rank matrix, so it is taken from batched Householder QR (LAPACK);
modified Gram-Schmidt (``gram_schmidt_qr``) stays the route where the
whole R and its zero pattern are the result (``channel.r_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import equivalent_channel, sample_channels
from .designs import STBCDesign
from .errors import RankDeficientError
from .linalg import DEFAULT_RANK_TOL, gram_schmidt_qr
from .reports import Report
from .rng import as_generator

__all__ = [
    "CapacityEstimate",
    "HighSnrComparison",
    "code_capacity",
    "channel_capacity",
    "low_snr_condition",
    "high_snr_decomposition",
    "random_rotation_baseline",
    "logdet_gram_qr",
    "logdet_gram_lu",
]

MIN_TRIALS = 100
#: channel draws per stacked block: the block's live arrays stay near
#: 0.3 MB for the a=4 rate-1 code at n_r=2 (64 x 32 H_eq), and larger
#: blocks buy little speed for their memory
_BLOCK = 10


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte-Carlo mean in bits per channel use with its standard error."""

    snr_db: float
    mean: float
    std_error: float
    trials: int

    def agrees_with(self, other: "CapacityEstimate", n_sigma: float = 3.0) -> bool:
        spread = n_sigma * float(np.hypot(self.std_error, other.std_error))
        return abs(self.mean - other.mean) <= spread


def logdet_gram_qr(a: np.ndarray, rho: float) -> float:
    """log2 det(I + rho a a^T) via QR of the bordered matrix [sqrt(rho) a; I]."""
    n, k = a.shape
    bordered = np.vstack([np.sqrt(rho) * a, np.eye(k)])
    _, r = gram_schmidt_qr(bordered)
    return float(2.0 * np.sum(np.log2(np.diag(r))))


def logdet_gram_lu(a: np.ndarray, rho: float) -> float:
    """log2 det(I + rho a a^T) via LU (cross-check route)."""
    k = a.shape[1]
    sign, logdet = np.linalg.slogdet(np.eye(k) + rho * (a.T @ a))
    if sign <= 0:
        raise ValueError("Gram determinant is not positive")
    return float(logdet / np.log(2.0))


def _normalized_equivalent_channels(
    design: STBCDesign, n_r: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, 2 n_r T, 2k) energy-normalized H_eq of ``count`` fresh draws."""
    heq = equivalent_channel(sample_channels(design.n_t, n_r, count, rng), design)
    heq *= design.energy_scale
    return heq


def _log2det_eye_plus(gram: np.ndarray, rho: float) -> np.ndarray:
    """log2 det(I + rho gram) for a stack of Hermitian PSD Gram matrices,
    which are overwritten."""
    gram *= rho
    gram += np.eye(gram.shape[-1])
    chol = np.linalg.cholesky(gram)
    return 2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)


def _block_counts(trials: int):
    return (min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK))


def _estimate(snr: float, vals: np.ndarray) -> CapacityEstimate:
    return CapacityEstimate(
        snr_db=float(10.0 * np.log10(snr)) if snr > 0 else -np.inf,
        mean=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / np.sqrt(vals.size)),
        trials=vals.size,
    )


def code_capacity(
    design: STBCDesign,
    n_r: int,
    snr: float,
    trials: int,
    rng,
) -> CapacityEstimate:
    """Ergodic capacity of the channel seen through the code."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    rng = as_generator(rng)
    rho = snr / design.n_t
    vals = []
    for count in _block_counts(trials):
        heq = _normalized_equivalent_channels(design, n_r, count, rng)
        vals.append(_log2det_eye_plus(heq.mT @ heq, rho))
    return _estimate(snr, np.concatenate(vals) / (2.0 * design.T))


def channel_capacity(
    n_t: int,
    n_r: int,
    snr: float,
    trials: int,
    rng,
) -> CapacityEstimate:
    """Ergodic capacity of the raw n_t x n_r Rayleigh channel."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    rng = as_generator(rng)
    rho = snr / n_t
    vals = []
    for count in _block_counts(trials):
        h = sample_channels(n_t, n_r, count, rng)
        vals.append(_log2det_eye_plus(h @ h.conj().mT, rho))
    return _estimate(snr, np.concatenate(vals))


def low_snr_condition(
    design: STBCDesign,
    n_r: int,
    trials: int = 2000,
    snr: float = 1e-2,
    seed: int = 0,
    tol: float = 1e-10,
) -> Report:
    """Check the low-snr capacity-preservation condition.

    The code keeps the channel's low-snr capacity when every normalized
    weight satisfies A_i A_i^H = (1/n_r) I.  The report records each
    weight's proportionality constant plus an empirical check that the
    coded/uncoded capacity ratio is within 5% at snr = -20 dB (paired
    channel draws).
    """
    report = Report(f"low-snr capacity condition (n_r={n_r})")
    ws = design.weight_stack
    grams = design.energy_scale**2 * (ws @ ws.conj().swapaxes(-1, -2))
    c = np.trace(grams, axis1=1, axis2=2).real / design.n_t
    resid = np.abs(grams - c[:, None, None] * np.eye(design.n_t)).max(axis=(1, 2))
    witnesses = [f"weight {i + 1}: A A^H is not proportional to I"
                 for i in np.flatnonzero(resid > tol)]
    constants = c.tolist()
    proportional = not witnesses
    report.add(
        "normalized A_i A_i^H proportional to I",
        proportional,
        witnesses,
        detail=f"constants ~ {constants[0]:.6g}" if proportional else "",
    )
    target = 1.0 / n_r
    conforming = proportional and all(abs(c - target) <= 1e-9 for c in constants)
    report.add(
        f"proportionality constant equals 1/n_r = {target:.6g}",
        conforming,
        [] if conforming else [f"constants: {sorted(set(round(c, 9) for c in constants))}"],
    )
    if conforming:
        code = code_capacity(design, n_r, snr, trials, seed)
        chan = channel_capacity(design.n_t, n_r, snr, trials, seed)
        ratio = code.mean / chan.mean
        report.add(
            "capacity ratio -> 1 at -20 dB (within 5%)",
            abs(ratio - 1.0) <= 0.05,
            [] if abs(ratio - 1.0) <= 0.05 else [f"ratio {ratio:.4f}"],
            detail=f"ratio {ratio:.4f}",
        )
    return report


@dataclass(frozen=True)
class HighSnrComparison:
    """Capacity measured through the R diagonal vs the exact log-det."""

    via_r: CapacityEstimate
    via_exact: CapacityEstimate
    resampled: int


def high_snr_decomposition(
    design: STBCDesign,
    n_r: int,
    snr: float,
    trials: int,
    rng,
) -> HighSnrComparison:
    """Estimate capacity exactly and through the R-matrix diagonal.

    A draw whose H_eq has an R pivot |R(i,i)| <= 1e-10 ||H_eq||_F (the
    rank test of ``gram_schmidt_qr``) is dropped, replaced by a further
    draw from the same stream and counted in ``resampled``; the accepted
    draws are the ones a draw-by-draw loop accepts.  More than
    100 + trials rejections raise RankDeficientError.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    rng = as_generator(rng)
    rho = snr / design.n_t
    two_t = 2.0 * design.T
    via_r = []
    exact = []
    resampled = 0
    accepted = 0
    while accepted < trials:
        count = min(_BLOCK, trials - accepted)
        heq = _normalized_equivalent_channels(design, n_r, count, rng)
        pivots = np.abs(
            np.diagonal(np.linalg.qr(heq, mode="r"), axis1=-2, axis2=-1)
        )
        thresh = DEFAULT_RANK_TOL * np.linalg.norm(heq, axis=(-2, -1))
        full = np.all(pivots > thresh[:, None], axis=-1)
        full &= pivots.shape[-1] == heq.shape[-1]  # a wide H_eq has rank < 2k
        resampled += count - int(full.sum())
        if resampled > 100 + trials:
            raise RankDeficientError(
                f"{resampled} channel draws gave a rank-deficient "
                f"{heq.shape[-2]} x {heq.shape[-1]} equivalent channel"
            )
        if not full.all():
            heq, pivots = heq[full], pivots[full]
        via_r.append(n_r * np.log2(rho) + np.sum(np.log2(pivots**2), axis=-1) / two_t)
        exact.append(_log2det_eye_plus(heq.mT @ heq, rho) / two_t)
        accepted += len(heq)
    return HighSnrComparison(
        via_r=_estimate(snr, np.concatenate(via_r)),
        via_exact=_estimate(snr, np.concatenate(exact)),
        resampled=resampled,
    )


def random_rotation_baseline(design: STBCDesign, seed: int = 0x5EED) -> STBCDesign:
    """Haar-random orthogonal remix of the design's weight matrices.

    The new weights span the same generator-matrix column space with the
    same norms, so the exact ergodic capacity is unchanged -- but the
    structural column orthogonality (and with it the guaranteed R-matrix
    zeros) is destroyed, which is the point of the comparison.
    """
    rng = as_generator(seed)
    n = design.n_real_symbols
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))  # Haar-distributed orthogonal
    stack = design.weight_stack
    mixed = tuple(
        np.ascontiguousarray(np.tensordot(q[:, j], stack, axes=1))
        for j in range(n)
    )
    return STBCDesign(
        n_t=design.n_t,
        T=design.T,
        weights=mixed,
        groups=design.groups,
        layers=design.layers,
        provenance=f"random orthogonal remix (seed={seed}) of: {design.provenance}",
    )
