"""Seeded Monte-Carlo error-rate harness, verification suite, CSV output.

Transmission follows Y = sqrt(snr/n_t) H S + N with E||S||^2 = n_t T
(unit-power information symbols, energy-normalized weights).  Every trial
draws from its own counter-based substream keyed by (master seed, snr
point index, trial index), so a sweep is bit-reproducible regardless of
how trials are scheduled; per-trial draws are ordered channel, noise
(one standard_normal call), information symbols (one integers call).

Draws stay per trial; transmission and decoding are batched.  A sweep
runs its trials point-major in blocks, which may span SNR points, and
each block is transmitted and decoded as stacked arrays (one SNR per
trial).  Every stacked product is made per trial with the shapes a
single trial uses, so a block decodes exactly as its trials would one at
a time: the block size, chosen from bytes by the decoder, never changes
a result.  The exhaustive oracle decodes one trial at a time.

The CSV schema is (snr_db, trials, cer, ser, mean_evals, wall_time_s).
To keep re-runs byte-identical -- the reproducibility contract -- the
wall_time_s column is written as 0.0 unless measured timing is opted in,
in which case byte-identity across runs no longer holds; measured wall
time is always available on the in-memory records.  A block's time is
charged to the point of its first trial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .clifford import (
    all_lambda_products,
    build_generators,
    products_commute,
    subset_square_sign,
    verify_generators,
    verify_traceless,
)
from .coding_gain import Encoder, default_encoder, extract_W, full_symbol_matrix, min_determinant
from .channel import _complex_normal, mandated_zero_mask, profile_over_channels
from .decoder import (
    Constellation,
    _block_trials,
    _decode_stack,
    _final_metric,
    complexity_account,
    constellation,
    decode_auto,
    ml_oracle,
)
from .designs import (
    STBCDesign,
    build_rate1_4group,
    codeword,
    extend_full_rate,
    verify_theorem1,
)
from .errors import IntractableError
from .linalg import matrix_from_text, pairwise_residual
from .reports import Report
from .rng import CTX_ERROR_SWEEP, CTX_PROFILE, substream

__all__ = [
    "SimConfig",
    "SimRecord",
    "draw_trial",
    "run_error_sweep",
    "uncoded_siso_sweep",
    "run_decode_trials",
    "verify_all",
    "emit_csv",
    "parse_records_csv",
    "parse_config_file",
    "parse_snr_spec",
    "parse_layer_scalar",
]

CSV_COLUMNS = ("snr_db", "trials", "cer", "ser", "mean_evals", "wall_time_s")

#: refuse sweeps whose total hypothesis count would exceed this
EVALUATION_BUDGET = int(2e9)

_DECODERS = {"auto", "oracle"}


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Declarative description of one error-rate experiment."""

    design: STBCDesign
    n_r: int
    constellation: str = "4qam"
    snr_db: tuple[float, ...] = (10.0,)
    trials: int = 1000
    seed: int = 0
    decoder: str = "auto"
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db:
            raise ValueError("snr list must be non-empty")
        if self.decoder not in _DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")


@dataclass(frozen=True, slots=True)
class SimRecord:
    """Tallies for one SNR point (slotted: sweeps that keep many records
    hold no per-record dict)."""

    snr_db: float
    trials: int
    codeword_errors: int
    symbol_errors: int
    cer: float
    ser: float
    mean_evals: float
    wall_time_s: float

    def __post_init__(self):
        assert 0.0 <= self.cer <= 1.0 and 0.0 <= self.ser <= 1.0


def _predicted_evals(design: STBCDesign, cons: Constellation, decoder: str) -> int:
    account = complexity_account(design, cons)
    if decoder == "oracle":
        return account.oracle_evaluations
    return account.group_evaluations or account.conditional_evaluations


def _draw(rng: np.random.Generator, n_r: int, n_t: int, T: int, p: int, n: int):
    """One trial's draws: (normals, levels).  One standard_normal call
    gives the channel's real and imaginary parts, then the noise's; one
    integers call gives the n information level indices below p.  The
    values equal the separate calls of the same shapes in that order."""
    normals = rng.standard_normal(2 * n_r * (n_t + T))
    return normals, rng.integers(0, p, size=n)


def _channel_and_noise(normals: np.ndarray, n_r: int, n_t: int, T: int):
    """Split stacked draws (B, 2 n_r (n_t + T)) into H (B, n_r, n_t) and
    the unit-variance noise N (B, n_r, T)."""
    h = _complex_normal(normals[:, : 2 * n_r * n_t].reshape(-1, 2, n_r, n_t))
    return h, _complex_normal(normals[:, 2 * n_r * n_t :].reshape(-1, 2, n_r, T))


def _transmit(design, encoder, n_r, snr, normals, levels, noise_scale):
    """Y = sqrt(snr/n_t) H S + noise_scale N for stacked draws, one snr
    per trial: (Y, H), each (B, n_r, .)."""
    h, noise = _channel_and_noise(normals, n_r, design.n_t, design.T)
    s = (full_symbol_matrix(design, encoder) @ encoder.alphabet[levels][..., None])[..., 0]
    y = np.sqrt(snr / design.n_t)[:, None, None] * (
        h @ (design.energy_scale * codeword(design, s))
    ) + noise_scale * noise
    return y, h


def draw_trial(
    design: STBCDesign,
    encoder: Encoder,
    n_r: int,
    snr: float,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One transmission Y = sqrt(snr/n_t) H S + noise_scale N: (Y, H, levels).

    Draws the channel H, then the noise N, then the information level
    indices (into ``encoder.alphabet``) from ``rng``.
    """
    normals, levels = _draw(rng, n_r, design.n_t, design.T, len(encoder.alphabet),
                            design.n_real_symbols)
    y, h = _transmit(design, encoder, n_r, np.array([snr]), normals[None],
                     levels[None], noise_scale)
    return y[0], h[0], levels


def _decoded_trials(design, cons, encoder, decoder, n_r, snrs, trials, seed,
                    noise_scale=1.0):
    """Every trial of every SNR point, point-major, each drawn from its own
    substream (seed, CTX_ERROR_SWEEP, point, trial) and decoded in blocks
    that may span points: (point, Y, H, decoded levels, evaluations, wrong)
    with wrong[i] true when either real component of complex symbol i was
    decoded wrongly.  The oracle decodes one trial at a time."""
    if decoder not in _DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    block = 1 if decoder == "oracle" else _block_trials(design, cons, n_r)
    schedule = ((point, trial) for point in range(len(snrs)) for trial in range(trials))
    sizes = (n_r, design.n_t, design.T, len(encoder.alphabet), design.n_real_symbols)
    while part := list(islice(schedule, block)):
        normals = np.empty((len(part), 2 * n_r * (design.n_t + design.T)))
        levels = np.empty((len(part), design.n_real_symbols), dtype=int)
        for i, (point, trial) in enumerate(part):
            normals[i], levels[i] = _draw(substream(seed, CTX_ERROR_SWEEP, point, trial),
                                          *sizes)
        snr = np.array([snrs[point] for point, _ in part])
        y, h = _transmit(design, encoder, n_r, snr, normals, levels, noise_scale)
        if decoder == "oracle":
            result = ml_oracle(y[0], h[0], design, cons, snr[0], encoder)
            decoded, evaluations = np.array([result.level_indices]), result.metric_evaluations
        else:
            decoded, evaluations, _ = _decode_stack(y, h, design, cons, snr, encoder)
        wrong = (decoded[:, 0::2] != levels[:, 0::2]) | (decoded[:, 1::2] != levels[:, 1::2])
        for i, (point, _) in enumerate(part):
            yield point, y[i], h[i], decoded[i], evaluations, wrong[i]


def run_error_sweep(cfg: SimConfig) -> list[SimRecord]:
    """Monte-Carlo symbol/codeword error rates over the configured sweep."""
    design = cfg.design
    cons = constellation(cfg.constellation)
    per_codeword = _predicted_evals(design, cons, cfg.decoder)
    total = per_codeword * cfg.trials * len(cfg.snr_db)
    if total > EVALUATION_BUDGET:
        raise IntractableError(
            f"sweep needs ~{total:.3g} hypothesis evaluations "
            f"({per_codeword} per codeword); budget is {EVALUATION_BUDGET:.3g}"
        )
    encoder = default_encoder(design, cons.pam)
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_db]
    n = len(snrs)
    cw_errors, sym_errors, evals, elapsed = [0] * n, [0] * n, [0] * n, [0.0] * n
    t0 = time.perf_counter()
    for point, _, _, _, evaluations, wrong in _decoded_trials(
        design, cons, encoder, cfg.decoder, cfg.n_r, snrs, cfg.trials, cfg.seed,
        cfg.noise_scale,
    ):
        evals[point] += evaluations
        sym_errors[point] += int(wrong.sum())
        cw_errors[point] += int(wrong.any())
        now = time.perf_counter()
        elapsed[point] += now - t0
        t0 = now
    return [
        SimRecord(
            snr_db=float(snr_db),
            trials=cfg.trials,
            codeword_errors=cw_errors[point],
            symbol_errors=sym_errors[point],
            cer=cw_errors[point] / cfg.trials,
            ser=sym_errors[point] / (cfg.trials * design.k),
            mean_evals=evals[point] / cfg.trials,
            wall_time_s=elapsed[point],
        )
        for point, snr_db in enumerate(cfg.snr_db)
    ]


def uncoded_siso_sweep(
    cons_label: str,
    snr_db: tuple[float, ...],
    trials: int,
    seed: int,
    noise_scale: float = 1.0,
) -> list[SimRecord]:
    """Single-antenna uncoded ML baseline on the same fading model.

    Each trial draws from its own substream; the ML decision
    argmin |y - c h x|^2 is made over the stacked trials of a point."""
    cons = constellation(cons_label)
    points = cons.points
    records = []
    for point_i, db in enumerate(snr_db):
        snr = 10.0 ** (db / 10.0)
        c = np.sqrt(snr)
        t0 = time.perf_counter()
        normals = np.empty((trials, 4))
        idx = np.empty(trials, dtype=int)
        for trial in range(trials):
            rng = substream(seed, CTX_ERROR_SWEEP, point_i, trial)
            normals[trial], level = _draw(rng, 1, 1, 1, cons.size, 1)
            idx[trial] = level[0]
        h, noise = _channel_and_noise(normals, 1, 1, 1)
        ch = c * h[:, 0, 0]
        # the received value keeps its per-trial scalar arithmetic: numpy's
        # scalar and array complex products may differ in the last bit
        y = np.array([ch[t] * points[idx[t]] + noise_scale * noise[t, 0, 0]
                      for t in range(trials)])
        guess = np.argmin(np.abs(y[:, None] - ch[:, None] * points) ** 2, axis=1)
        errors = int(np.count_nonzero(guess != idx))
        elapsed = time.perf_counter() - t0
        records.append(
            SimRecord(
                snr_db=float(db),
                trials=trials,
                codeword_errors=errors,
                symbol_errors=errors,
                cer=errors / trials,
                ser=errors / trials,
                mean_evals=float(cons.size),
                wall_time_s=elapsed,
            )
        )
    return records


def run_decode_trials(
    design: STBCDesign,
    n_r: int,
    cons_label: str,
    snr_db: float,
    trials: int,
    seed: int,
    decoder: str = "auto",
) -> list[dict]:
    """Per-trial decode log (metric, symbol errors, evaluations).  The
    metric is recomputed per trial from the decoded levels, as every
    decoder's ``DecodeResult.metric`` is."""
    cons = constellation(cons_label)
    encoder = default_encoder(design, cons.pam)
    snr = 10.0 ** (snr_db / 10.0)
    b = full_symbol_matrix(design, encoder)
    trials_out = _decoded_trials(design, cons, encoder, decoder, n_r, [snr], trials, seed)
    return [
        {
            "trial": trial,
            "metric": _final_metric(y, h, design, snr, b, cons.pam[levels]),
            "symbol_errors": int(wrong.sum()),
            "evaluations": evaluations,
        }
        for trial, (_, y, h, levels, evaluations, wrong) in enumerate(trials_out)
    ]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _csv_text(columns, rows) -> str:
    """CSV text: the header, then one line per row of values written with
    ``repr`` (so floats round-trip exactly), newline-terminated."""
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def emit_csv(records: list[SimRecord], path, timing: bool = False) -> None:
    """Write sweep records as UTF-8 CSV with a stable column order.

    ``timing=False`` (default) zeroes the wall_time_s column so identical
    configurations produce byte-identical files.
    """
    text = _csv_text(CSV_COLUMNS, (
        (rec.snr_db, rec.trials, rec.cer, rec.ser, rec.mean_evals,
         rec.wall_time_s if timing else 0.0)
        for rec in records
    ))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def parse_records_csv(path) -> list[dict]:
    """Parse :func:`emit_csv` output back into one dict per row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        vals = ln.split(",")
        rows.append(
            {
                "snr_db": float(vals[0]),
                "trials": int(vals[1]),
                "cer": float(vals[2]),
                "ser": float(vals[3]),
                "mean_evals": float(vals[4]),
                "wall_time_s": float(vals[5]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# config files: flat key=value, '#' comments; CLI flags override
# ---------------------------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """Parse 'A:B:STEP' (inclusive endpoints) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        a, b, step = (float(tok) for tok in spec.split(":"))
        if step <= 0:
            raise ValueError("snr step must be positive")
        n = int(np.floor((b - a) / step + 1e-9)) + 1
        return tuple(round(a + i * step, 9) for i in range(max(n, 1)))
    return tuple(float(tok) for tok in spec.split(","))


def parse_layer_scalar(spec: str) -> complex:
    """'1', 'pi/4' (meaning e^{j pi/4}) or an explicit 'a+bi' literal
    (``extend_full_rate`` checks its modulus)."""
    spec = spec.strip().lower()
    if spec in ("1", "none", ""):
        return 1.0 + 0j
    if spec == "pi/4":
        return complex(np.exp(1j * np.pi / 4.0))
    return complex(matrix_from_text(spec)[0, 0])


# ---------------------------------------------------------------------------
# whole-artifact verification
# ---------------------------------------------------------------------------


def verify_all(a: int, layers: int = 1, seed: int = 0) -> Report:
    """Run every certification the package offers for one configuration.

    Exhaustive algebra checks run for a <= 3; the decoder/oracle
    equivalence runs wherever the exhaustive oracle is tractable (the
    rate-1 code at this ``a``, plus the two-antenna two-layer code).
    """
    report = Report(f"full verification (a={a}, layers={layers})")
    cliff = build_generators(a)
    report.extend(verify_generators(cliff))

    if a <= 3:
        report.extend(verify_traceless(cliff))
        products = all_lambda_products(cliff)[1:]  # the identity leads
        mats = np.stack([prod.matrix for prod in products])
        scalars = np.array([prod.scalar for prod in products])[:, None, None]
        # member[i, g]: generator g + 1 is a factor of product i
        member = np.array([[g + 1 in prod.indices for g in range(cliff.n_generators)]
                           for prod in products], dtype=int)
        sizes = member.sum(axis=1)
        want = np.array([subset_square_sign(k) for k in sizes])[:, None, None] * np.eye(cliff.n)
        resid = np.abs((mats @ mats) / scalars**2 - want).max(axis=(1, 2))
        bad_sq = [products[i].label() for i in np.flatnonzero(resid > 1e-12)]
        report.add("subset squares match the sign rule", not bad_sq, bad_sq)
        want = np.vectorize(products_commute)(sizes[:, None], sizes, member @ member.T)
        got = pairwise_residual(mats, mats, sign=-1) < 1e-12
        bad_comm = [f"{products[i].label()} vs {products[j].label()}"
                    for i, j in np.argwhere(got != want)]
        report.add(
            "commutation predicate matches literal products",
            not bad_comm,
            bad_comm,
        )
    else:
        report.add("exhaustive algebra checks", True, detail="skipped for a > 3")

    base = build_rate1_4group(a)
    report.extend(verify_theorem1(base))

    w = extract_W(base)
    resid = float(np.abs(w.T @ w - np.eye(w.shape[0])).max())
    report.add("W orthogonality", resid < 1e-12, detail=f"residual {resid:.2e}")

    cons = constellation("4qam")
    encoder = default_encoder(base, cons.pam)
    md = min_determinant(base, encoder)
    report.add(
        "rotated minimum determinant positive (closed form agrees)",
        md.min_det > 0 and md.max_disagreement < 1e-9,
        detail=f"min det {md.min_det:.6g} over {md.evaluations} differences",
    )

    design = extend_full_rate(base, layers)
    _, largest, _, profiles = profile_over_channels(design, layers, 3, 1e-9, seed)
    worst = float(largest[mandated_zero_mask(design)].max())
    kron_ok = all(blk.kron_identity for prof in profiles for blk in prof.layer_blocks)
    report.add(
        "R-matrix structural zeros and I4-block structure",
        worst < 1e-9 and kron_ok,
        detail=f"worst mandated-zero magnitude {worst:.2e}",
    )

    account = complexity_account(design, cons)
    p = len(cons.pam)
    formula = p ** (design.n_real_symbols - 2 * design.n_t) * 4 * p**design.group_size
    report.add(
        "complexity account matches the closed-form count",
        (account.group_evaluations or account.conditional_evaluations) == formula,
        detail=account.describe(),
    )

    # (code, n_r, CTX_PROFILE point, trials, check name)
    silver = extend_full_rate(build_rate1_4group(1), 2)
    checks = [(silver, 2, 2, 25,
               "conditional decoder == exhaustive oracle (two antennas, two layers)")]
    if len(cons.pam) ** base.n_real_symbols <= 1 << 18:
        checks.insert(0, (base, 1, 1, 8, "group decoder == exhaustive oracle"))
    else:
        report.add(
            "group decoder == exhaustive oracle",
            True,
            detail="oracle intractable at this size; covered at smaller a",
        )
    snr = 10.0
    for code, n_r, point, trials, name in checks:
        enc = default_encoder(code, cons.pam)
        mismatches = []
        for t in range(trials):
            y, h, _ = draw_trial(code, enc, n_r, snr, substream(seed, CTX_PROFILE, point, t))
            r1 = decode_auto(y, h, code, cons, snr, enc)
            r2 = ml_oracle(y, h, code, cons, snr, enc)
            if r1.level_indices != r2.level_indices or abs(r1.metric - r2.metric) > 1e-9:
                mismatches.append(f"trial {t}")
            if r1.metric_evaluations != _predicted_evals(code, cons, "auto"):
                mismatches.append(f"trial {t}: counter")
        report.add(name, not mismatches, mismatches)

    rng = substream(seed, CTX_PROFILE, 3, 0)
    b = full_symbol_matrix(design, default_encoder(design, cons.pam))
    levels = np.array([rng.integers(0, p, size=design.n_real_symbols) for _ in range(1000)])
    s = (b @ cons.pam[levels][..., None])[..., 0]
    energies = np.linalg.norm(design.energy_scale * codeword(design, s), axis=(1, 2)) ** 2
    mean_energy = float(np.mean(energies))
    target = design.n_t * design.T
    report.add(
        "codeword energy normalization",
        abs(mean_energy / target - 1.0) < 0.05,
        detail=f"mean ||S||^2 = {mean_energy:.3f}, target {target}",
    )
    return report

