"""Self-test of the benchmark at toy sizes.

    python3 -m pytest diagbench -q

Checks that every metric named in BENCHMARK.json prints with its unit, that
a failed check raises the failure count instead of crashing, that the
traced run applies the same checks as the untraced run, and that a tree
without the diagflow sources gets no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NEVER_PASSES = wl.Tolerances(conservation=-1.0, reconstruction=-1.0, mismatch=-1.0,
                             flow_gap=-1.0)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "diagbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] == table[m["name"]]
        assert isinstance(got["value"], (int, float))
    assert "failed_frac" in table


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_job_applies_the_same_checks(name, tmp_path):
    workload = wl.WORKLOADS[name](3, "toy", tmp_path)
    for tol in (wl.ACCEPTANCE, NEVER_PASSES):
        plain = workload.job(NullTracer, tol)
        traced = workload.job(Tracer(), tol)
        assert (traced.attempted, traced.failed) == (plain.attempted, plain.failed)
        assert traced.digest == plain.digest


@pytest.mark.parametrize("name", ["ensemble", "bias_sweep"])
def test_failed_check_counts_instead_of_crashing(name, tmp_path):
    workload = wl.WORKLOADS[name](3, "toy", tmp_path)
    assert workload.job(NullTracer, wl.ACCEPTANCE).failed == 0
    out = workload.job(NullTracer, NEVER_PASSES)
    assert 0 < out.failed <= out.attempted
    assert len(out.failures) == out.failed


def test_failed_simulate_and_changed_csv_count_as_failures(tmp_path):
    workload = wl.LongTrace(3, "toy", tmp_path)
    workload.argv += ["--tmax", "1000", "--step", "100"]  # diverges: the CLI exits with 1
    out = workload.job(NullTracer, wl.ACCEPTANCE)
    assert (out.attempted, out.failed) == (1, 1)
    assert run.digest_checks(["a", "a", "b", None]) == (2, 1)


def test_tree_without_sources_gets_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "diagbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ensemble", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
