"""Write the golden outputs of the benchmark's seed pool from the current code.

    python3 perfbench/make_golden.py [workload ...]

The golden files pin the library's statistics for every shipped seed.  Run
this only for a change that is meant to alter those statistics, and say so
in that change; a change that only makes the library faster must pass
against the existing files.
"""

import json
import sys

from run import OUT, import_stbc


def main(names) -> int:
    import_stbc()
    import workloads

    OUT.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        prepared, _ = workloads.setup(workload)
        calls = {}
        for call, design in zip(workload.calls, prepared.designs):
            calls[call.name] = [
                call.summary(call.run(design, j), OUT / "golden-scratch.csv")
                for j in range(workloads.POOL)
            ]
            print(f"{name}: {call.name} done", file=sys.stderr)
        golden = {"pool": workloads.POOL, "seed_base": workloads.SEED_BASE, "calls": calls}
        path = workloads.golden_path(workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=0)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
