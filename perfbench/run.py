"""Run one workload of the stbc benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-overhead --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` of that checkout and nowhere else.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
The full record of the run (environment, every round, gate failures) goes
to ``perfbench/out/``.  README.md defines the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy and stbc load

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
TRACED_MODULES = ("stbc.sim", "stbc.decoder", "stbc.channel", "stbc.capacity")
DECODER_ENTRY_POINTS = ("ml_oracle", "group_decode", "conditional_decode", "decode_auto")


def import_stbc():
    """Import stbc from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "stbc" / "__init__.py").is_file():
        raise ImportError(f"no stbc package under {src}")
    sys.path.insert(0, str(src))
    import stbc

    if Path(stbc.__file__).resolve().parent != (src / "stbc").resolve():
        raise ImportError(f"stbc was imported from {stbc.__file__}, not {src}")
    return stbc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up times as JSON and exit (used to sample setup_s)",
    )
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return fn()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def closed_loop(workload, prepared, order, seconds, tracer=None):
    """Make rounds (each call of the workload once) until ``seconds`` pass.

    Each call starts when the previous one returns.  With a tracer, rounds
    alternate untraced and traced, so both see the same host conditions.
    Every pair of rounds moves to the next CPU the process may use: on a
    shared host each CPU's speed wanders on its own for minutes at a time,
    and visiting all of them averages that out.  Returns the rounds as
    (trials, seconds, traced) and the outputs as (call, pool index, result
    or exception).
    """
    rounds, outputs = [], []
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    r = 0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[(r // 2) % len(cpus)]})
            rounds.append(_round(workload, prepared, order[r % len(order)], outputs,
                                 tracer if r % 2 == 1 else None))
            r += 1
            if time.perf_counter() >= deadline and (tracer is None or r >= 2):
                return rounds, outputs
    finally:
        os.sched_setaffinity(0, cpus)


def _round(workload, prepared, j, outputs, tracer):
    """One call per configuration on pool entry j; returns (trials,
    seconds, traced) and appends the outputs."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    trials = 0
    for call, design in zip(workload.calls, prepared.designs):
        try:
            result = call.run(design, j)
        except Exception as exc:  # a failed call is counted; the loop goes on
            traceback.print_exc(file=sys.stderr)
            result = exc
        outputs.append((call, j, result))
        trials += call.trials_per_call
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return trials, elapsed, tracer is not None


def gate(workload, prepared, golden, outputs, scratch):
    """Compare every output with its golden value.  Returns (failed trials,
    messages, decoder evaluations, predicted evaluations)."""
    failed, messages = 0, []
    evals = predicted_evals = 0.0
    predicted_of = dict(zip(workload.calls, prepared.predicted))
    for call, j, result in outputs:
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        else:
            problem = call.check(result, golden[call.name][j], predicted_of[call], scratch)
            evals += call.evaluations(result)
            predicted_evals += predicted_of[call] * call.trials_per_call
        if problem:
            failed += call.trials_per_call
            messages.append(f"{call.name} pool[{j}]: {problem}")
    return failed, messages, evals, predicted_evals


def setup_samples(args, first: dict) -> list[dict]:
    """Set-up times of this process and of SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _rate(rounds, traced):
    return statistics.median(n / dt for n, dt, t in rounds if t == traced)


def layer_metrics(tracer, rounds, setup, evals, predicted_evals):
    """Per-layer metrics from the traced rounds; see README.md."""
    totals = tracer.totals()
    trials = sum(n for n, _, traced in rounds if traced)

    def per_trial(name, which):
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "us": incl * 1e6, "self_us": own * 1e6}[which] / trials

    all_trials = sum(n for n, _, _ in rounds)

    gs_calls, gs_incl, _ = totals.get("linalg.gram_schmidt_qr", (0, 0.0, 0.0))
    decoder_self = sum(per_trial(f"decoder.{f}", "self_us") for f in DECODER_ENTRY_POINTS)
    sim_self = sum(own for name, (_, _, own) in totals.items() if name.startswith("sim."))
    values = {
        "rng.substream.us_per_trial": (per_trial("rng.substream", "us"), "us"),
        "rng.substream.calls_per_trial": (per_trial("rng.substream", "calls"), "count"),
        "channel.sample_channel.us_per_trial": (per_trial("channel.sample_channel", "us"), "us"),
        "channel.equivalent_channel.self_us_per_trial": (
            per_trial("channel.equivalent_channel", "self_us"), "us"),
        "designs.generator_matrix.us_per_trial": (per_trial("designs.generator_matrix", "us"), "us"),
        "designs.generator_matrix.calls_per_trial": (
            per_trial("designs.generator_matrix", "calls"), "count"),
        "designs.codeword.us_per_trial": (per_trial("designs.codeword", "us"), "us"),
        "decoder.full_symbol_matrix.us_per_trial": (
            per_trial("decoder.full_symbol_matrix", "us"), "us"),
        "decoder.full_symbol_matrix.calls_per_trial": (
            per_trial("decoder.full_symbol_matrix", "calls"), "count"),
        "decoder.self_us_per_trial": (decoder_self, "us"),
        "decoder.evals_per_trial": (evals / all_trials, "count"),
        "decoder.evals_vs_predicted": (
            evals / predicted_evals if predicted_evals else 0.0, "ratio"),
        "sim.self_us_per_trial": (sim_self * 1e6 / trials, "us"),
        "capacity.logdet_gram_qr.us_per_trial": (
            per_trial("capacity.logdet_gram_qr", "us"), "us"),
        "linalg.gram_schmidt_qr.us_per_call": (
            gs_incl * 1e6 / gs_calls if gs_calls else 0.0, "us"),
        "linalg.gram_schmidt_qr.calls_per_trial": (gs_calls / trials, "count"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.designs_build_s": (setup["designs_build_s"], "s"),
        "setup.verify_design_s": (setup["verify_design_s"], "s"),
        "setup.default_encoder_s": (setup["default_encoder_s"], "s"),
        "trace.overhead_frac": (_rate(rounds, False) / _rate(rounds, True) - 1.0, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_stbc()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    t_import = time.perf_counter() - T0
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    prepared, setup = workloads.setup(workload)
    setup["import_s"] = t_import
    setup["setup_s"] = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    golden = workloads.load_golden(workload)
    spot_trials, spot_failures = workloads.spot_check(args.seed)
    order = workloads.pool_order(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer([sys.modules[m] for m in TRACED_MODULES], workload.trial_marker)
    rounds, outputs = closed_loop(workload, prepared, order, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failed, messages, evals, predicted_evals = gate(
        workload, prepared, golden, outputs, OUT / f"{stem}-gate.csv")
    failed += len(spot_failures)
    messages += spot_failures
    attempted = sum(n for n, _, _ in rounds) + spot_trials
    samples = setup_samples(args, setup)
    setup_median = {k: statistics.median(s[k] for s in samples) for k in setup}

    if tracer is None:
        metrics = {
            "trials_per_s": {"value": _rate(rounds, False), "unit": "1/s"},
            "setup_s": {"value": setup_median["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, rounds, setup_median, evals, predicted_evals)
        metrics["ops_failed_frac"] = {"value": failed / attempted, "unit": "frac"}
        tracer.write_csv_gz(OUT / f"{stem}-spans.csv.gz")

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "ops_failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "gate_failures": messages,
        "setup_samples": samples,
        "rounds": [{"trials": n, "seconds": dt, "traced": t} for n, dt, t in rounds],
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in messages[:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(f"ops_failed_frac {failed / attempted!r} frac ({failed} of {attempted} trials)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
