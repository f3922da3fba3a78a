"""Workloads of the stbc benchmark: configurations, calls and correctness gate.

A workload is a fixed list of calls into the library.  One *round* makes
each call once; the runner repeats rounds in a closed loop.  The inputs of
every call come from a shipped pool of ``POOL`` seeds (pool entry ``j``
passes seed ``SEED_BASE + j`` to the library), so every output can be
compared with a golden value in ``golden/<workload>.json``, written by
``make_golden.py``.  The run's ``--seed`` chooses the order in which the
pool entries are used and the inputs of the decoder spot check.

Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stbc import (
    build_rate1_4group,
    capacity,
    codeword,
    complexity_account,
    constellation,
    decode_auto,
    default_encoder,
    emit_csv,
    equivalent_channel,
    extend_full_rate,
    ml_oracle,
    sample_channel,
    sim,
    verify_design,
)
from stbc.capacity import logdet_gram_qr
from stbc.decoder import full_symbol_matrix
from stbc.sim import SimConfig

# Timed calls go through the module attribute (sim.run_error_sweep,
# capacity.code_capacity) so that the tracer's wrappers see them.

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

POOL = 160
SEED_BASE = 20_000
# Capacity means move by about one standard error (>= 1e-4 relative) when
# the channel draws change, and by ~1e-13 when only the log-det arithmetic
# changes.  This tolerance sits between the two.
CAPACITY_REL_TOL = 1e-9
SPOT_TRIALS = 8

SNR_0_20 = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
SNR_3 = (0.0, 10.0, 20.0)


def build_design(a: int, layers: int):
    base = build_rate1_4group(a)
    return base if layers == 1 else extend_full_rate(base, layers)


@dataclass(frozen=True)
class SweepCall:
    """``run_error_sweep`` on one code; a trial is one decoded codeword."""

    name: str
    a: int
    layers: int
    n_r: int
    cons: str
    snr_db: tuple[float, ...]
    trials: int  # per SNR point

    @property
    def trials_per_call(self) -> int:
        return self.trials * len(self.snr_db)

    def prepare(self, design) -> int:
        """Set-up work a user does before a sweep; returns the predicted
        hypothesis evaluations per codeword (``complexity_account``)."""
        cons = constellation(self.cons)
        default_encoder(design, cons.pam)
        account = complexity_account(design, cons)
        if design.layers == 1:
            return account.group_evaluations
        return account.conditional_evaluations

    def warm_up(self, design) -> None:
        sim.run_error_sweep(self._config(design, SEED_BASE, snr_db=self.snr_db[:1], trials=1))

    def run(self, design, j: int):
        return sim.run_error_sweep(self._config(design, SEED_BASE + j))

    def _config(self, design, seed, snr_db=None, trials=None) -> SimConfig:
        return SimConfig(
            design=design,
            n_r=self.n_r,
            constellation=self.cons,
            snr_db=self.snr_db if snr_db is None else snr_db,
            trials=self.trials if trials is None else trials,
            seed=seed,
        )

    def summary(self, records, scratch: Path) -> str:
        """The snr_db, trials, cer and ser columns of ``emit_csv``, rows
        joined by ';'.  mean_evals is left out: it counts search work, not
        results, and is bounded separately."""
        emit_csv(records, scratch)
        rows = scratch.read_text(encoding="utf-8").splitlines()[1:]
        return ";".join(",".join(row.split(",")[:4]) for row in rows)

    def check(self, records, golden: str, predicted: int, scratch: Path) -> str | None:
        got = self.summary(records, scratch)
        if got != golden:
            return f"CSV columns {got!r} != golden {golden!r}"
        for rec in records:
            if not 0 < rec.mean_evals <= predicted:
                return f"mean_evals {rec.mean_evals} outside (0, {predicted}]"
        return None

    def evaluations(self, records) -> float:
        return sum(rec.mean_evals * rec.trials for rec in records)


@dataclass(frozen=True)
class CapacityCall:
    """``code_capacity`` (or ``high_snr_decomposition``) on one code; a
    trial is one channel draw.  Pool entry j runs at SNR snr_db[j % n]."""

    name: str
    a: int
    layers: int
    n_r: int
    snr_db: tuple[float, ...]
    trials: int
    high_snr: bool = False

    @property
    def trials_per_call(self) -> int:
        return self.trials

    def prepare(self, design) -> int:
        return 0

    def warm_up(self, design) -> None:
        h = sample_channel(design.n_t, self.n_r, np.random.default_rng(SEED_BASE)).H
        heq = design.energy_scale * equivalent_channel(h, design)
        logdet_gram_qr(heq, 10.0 ** (self.snr_db[0] / 10.0) / design.n_t)

    def run(self, design, j: int):
        snr = 10.0 ** (self.snr_db[j % len(self.snr_db)] / 10.0)
        if self.high_snr:
            r = capacity.high_snr_decomposition(design, self.n_r, snr, self.trials, SEED_BASE + j)
            return [r.via_r.mean, r.via_r.std_error, r.via_exact.mean,
                    r.via_exact.std_error, r.resampled]
        est = capacity.code_capacity(design, self.n_r, snr, self.trials, SEED_BASE + j)
        return [est.mean, est.std_error]

    def summary(self, result, scratch: Path) -> str:
        return ",".join(repr(float(v)) for v in result)

    def check(self, result, golden: str, predicted: int, scratch: Path) -> str | None:
        want = [float(v) for v in golden.split(",")]
        if len(result) != len(want) or not all(
            math.isclose(g, w, rel_tol=CAPACITY_REL_TOL, abs_tol=1e-12)
            for g, w in zip(result, want)
        ):
            return f"values {self.summary(result, scratch)} != golden {golden}"
        return None

    def evaluations(self, result) -> float:
        return 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    trial_marker: str  # span name that opens a trial in the trace


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-overhead",
            (
                SweepCall("silver", 1, 2, 2, "4qam", SNR_0_20, 25),
                SweepCall("a2-rate1", 2, 1, 1, "4qam", SNR_0_20, 25),
                SweepCall("a3-rate1", 3, 1, 2, "4qam", SNR_0_20, 25),
                SweepCall("a2-two-layer", 2, 2, 2, "4qam", SNR_0_20, 25),
            ),
            "rng.substream",
        ),
        Workload(
            "sweep-search",
            (
                SweepCall("a3-two-layer-4qam", 3, 2, 2, "4qam", SNR_3, 1),
                SweepCall("a2-two-layer-16qam", 2, 2, 2, "16qam", SNR_3, 1),
            ),
            "rng.substream",
        ),
        Workload(
            "capacity",
            (
                CapacityCall("a3-two-layer", 3, 2, 2, SNR_3, 100),
                CapacityCall("a4-rate1", 4, 1, 2, SNR_3, 100),
                CapacityCall("a3-two-layer-high-snr", 3, 2, 2, (30.0,), 100, high_snr=True),
            ),
            "channel.sample_channel",
        ),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the timed phase: one design per call and
    the predicted evaluations per codeword."""

    designs: list
    predicted: list


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def load_golden(workload: Workload) -> dict:
    with open(golden_path(workload), encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["pool"] != POOL or golden["seed_base"] != SEED_BASE:
        raise ValueError(f"{golden_path(workload)} was made for another seed pool")
    return golden["calls"]


def setup(workload: Workload) -> tuple[Prepared, dict]:
    """Build and certify the designs, prepare encoders and complexity
    accounts, and run one warm-up trial per call.  Returns the prepared
    state and the seconds each step took."""
    clock = time.perf_counter
    t0 = clock()
    built: dict = {}
    for call in workload.calls:
        key = (call.a, call.layers)
        if key not in built:
            built[key] = build_design(*key)
    designs = [built[(call.a, call.layers)] for call in workload.calls]
    t1 = clock()
    for key, design in built.items():
        report = verify_design(design)
        if not report.passed:
            raise RuntimeError(f"design a={key[0]} layers={key[1]} fails certification")
    t2 = clock()
    predicted = [call.prepare(design) for call, design in zip(workload.calls, designs)]
    t3 = clock()
    for call, design in zip(workload.calls, designs):
        call.warm_up(design)
    t4 = clock()
    return Prepared(designs, predicted), {
        "designs_build_s": t1 - t0,
        "verify_design_s": t2 - t1,
        "default_encoder_s": t3 - t2,
        "warm_up_s": t4 - t3,
    }


def pool_order(seed: int) -> list[int]:
    """The order in which a run uses the pool entries."""
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


def spot_check(seed: int) -> tuple[int, list[str]]:
    """decode_auto against the exhaustive ml_oracle on trials drawn from
    ``seed``: the two-antenna two-layer (Silver) code and the a=2 rate-1
    code.  Returns (trials checked, failure messages)."""
    rng = np.random.default_rng([seed, 0x5907])
    cons = constellation("4qam")
    failures = []
    checked = 0
    for a, layers, n_r in ((1, 2, 2), (2, 1, 1)):
        design = build_design(a, layers)
        encoder = default_encoder(design, cons.pam)
        b = full_symbol_matrix(design, encoder)
        for t in range(SPOT_TRIALS):
            snr = 10.0 ** (rng.uniform(0.0, 20.0) / 10.0)
            h = np.sqrt(0.5) * (
                rng.standard_normal((n_r, design.n_t))
                + 1j * rng.standard_normal((n_r, design.n_t))
            )
            noise = np.sqrt(0.5) * (
                rng.standard_normal((n_r, design.T))
                + 1j * rng.standard_normal((n_r, design.T))
            )
            levels = rng.integers(0, len(cons.pam), size=design.n_real_symbols)
            s = design.energy_scale * codeword(design, b @ cons.pam[levels])
            y = np.sqrt(snr / design.n_t) * (h @ s) + noise
            fast = decode_auto(y, h, design, cons, snr, encoder)
            exact = ml_oracle(y, h, design, cons, snr, encoder)
            checked += 1
            if fast.level_indices != exact.level_indices or not math.isclose(
                fast.metric, exact.metric, rel_tol=1e-9, abs_tol=1e-9
            ):
                failures.append(
                    f"spot check a={a} layers={layers} trial {t}: decode_auto "
                    f"{fast.level_indices} != ml_oracle {exact.level_indices}"
                )
    return checked, failures
