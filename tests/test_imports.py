"""Every name the demos and the benchmark import from ``stbc`` resolves,
every demo runs, and the benchmark's correctness gate passes.

Neither is imported by the test suite, so a moved or renamed function
would otherwise break them unseen.  The files are parsed, and every demo
also runs in-process: the algebra demos 01-04, which print the
certification reports, in well under a second together, and the
Monte-Carlo demos 05-06 in about a second.  The benchmark's workloads
are set up and their first pool entry is checked against the golden
values, which also covers every attribute the benchmark reads.
"""

import ast
import importlib
import runpy
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
ALGEBRA_DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
MONTE_CARLO_DEMOS = sorted((ROOT / "demos").glob("0[5-6]_*.py"))


def stbc_imports(path):
    """(module, name or None) for every absolute import of stbc in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "stbc" or node.module.startswith("stbc.")
        ):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "stbc")


def test_scripts_found():
    assert len(SCRIPTS) >= 6 and len(ALGEBRA_DEMOS) == 4 and len(MONTE_CARLO_DEMOS) == 2


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_stbc_imports_resolve(path):
    for module, name in stbc_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


def run_demo(path) -> str:
    printed = StringIO()
    with redirect_stdout(printed):
        runpy.run_path(str(path), run_name="__main__")
    assert printed.getvalue()
    return printed.getvalue()


@pytest.mark.parametrize("path", ALGEBRA_DEMOS, ids=lambda p: p.name)
def test_algebra_demo_runs(path):
    printed = run_demo(path)
    if path.name.startswith("01"):
        assert "PASS" in printed and "FAIL" not in printed


@pytest.mark.parametrize("path", MONTE_CARLO_DEMOS, ids=lambda p: p.name)
def test_monte_carlo_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo 06 writes its CSVs there
    printed = run_demo(path)
    if path.name.startswith("06"):
        assert "re-run is byte-identical: True" in printed
        assert (tmp_path / "stbc_sweep.csv").exists()


def test_benchmark_gate_passes(tmp_path):
    # run from source, so nothing (not even bytecode) is written under perfbench/
    bench = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"), run_name="workloads")
    scratch = tmp_path / "summary.csv"
    for workload in bench["WORKLOADS"].values():
        prepared, _ = bench["setup"](workload)
        golden = bench["load_golden"](workload)
        for call, design, predicted in zip(workload.calls, prepared.designs,
                                           prepared.predicted):
            problem = call.check(call.run(design, 0), golden[call.name][0], predicted, scratch)
            assert problem is None, f"{workload.name} {call.name} pool[0]: {problem}"
    checked, failures = bench["spot_check"](3)
    assert checked == 16 and not failures, failures
