"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that
  * every workload, untraced and traced, prints a last line with exactly the
    keys correct/attempted/failed/metrics, and every metric BENCHMARK.json
    names for that mode, with its unit;
  * the correctness gate fails on a deliberately wrong golden value, for a
    sweep (one CER digit changed) and for capacity (a mean moved by 1e-6),
    and passes a last-bit change of a capacity mean;
  * the runner exits non-zero without a result in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, gate, import_stbc

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_emitted(spec) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                        "--trace", str(trace)], ROOT)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-400:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == RESULT_KEYS, f"{workload} trace={trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} passes its gate")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in wanted},
                  f"{workload} trace={trace} emits exactly the metrics of BENCHMARK.json")
            for m in wanted:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                      f"{workload} trace={trace} {m['name']} in {m['unit']}")


def check_gate_rejects_wrong_golden() -> None:
    import_stbc()
    import workloads

    scratch = OUT / "smoke-gate.csv"
    for name, index in (("sweep-overhead", 0), ("capacity", 1)):
        workload = workloads.WORKLOADS[name]
        prepared, _ = workloads.setup(workload)
        golden = workloads.load_golden(workload)
        call, design = workload.calls[index], prepared.designs[index]
        outputs = [(call, 5, call.run(design, 5))]
        failed, _, _, _ = gate(workload, prepared, golden, outputs, scratch)
        check(failed == 0, f"{name}/{call.name}: gate passes the shipped golden value")

        entry = golden[call.name][5]
        if name == "capacity":
            wrong_entry = _scale_first(entry, 1.0 + 1e-6)
        else:
            rows = entry.split(";")
            snr, trials, cer, ser = rows[0].split(",")
            rows[0] = ",".join((snr, trials, repr(abs(float(cer) - 1.0 / int(trials))), ser))
            wrong_entry = ";".join(rows)
        failed, messages, _, _ = gate(workload, prepared, _replace(golden, call.name, 5, wrong_entry),
                                      outputs, scratch)
        check(failed == call.trials_per_call and messages,
              f"{name}/{call.name}: gate fails a wrong golden value")

        if name == "capacity":
            near = _replace(golden, call.name, 5, _scale_first(entry, 1.0 + 1e-13))
            failed, _, _, _ = gate(workload, prepared, near, outputs, scratch)
            check(failed == 0, f"{name}/{call.name}: gate admits a last-bit change")


def _scale_first(entry: str, factor: float) -> str:
    values = entry.split(",")
    values[0] = repr(float(values[0]) * factor)
    return ",".join(values)


def _replace(golden: dict, call: str, j: int, entry: str) -> dict:
    out = {name: list(entries) for name, entries in golden.items()}
    out[call][j] = entry
    return out


def check_bare_directory_fails(spec) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and "correct" not in last[0],
          "exits non-zero without a result when the source tree is missing")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_bare_directory_fails(spec)
    check_gate_rejects_wrong_golden()
    check_metrics_emitted(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
