"""Benchmark of diagflow: end-to-end figures per workload, or a traced run.

    python3 diagbench/run.py --workload {ensemble,long_trace,bias_sweep}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/diagflow``; the
package is imported from that source tree, never from an installed copy.

``--trace 0`` starts one fresh process per job, closed-loop, one after the
other, until ``--seconds`` is used (at least three), and reports medians of
``wall_s`` and ``peak_rss_mb`` over them, and of ``setup_s`` over at least
nine fresh set-ups (the jobs' own, topped up by set-up-only processes). ``--trace 1`` runs
the job once untraced and once traced in one fresh process, decomposes it
into per-module figures, and times the two wall-clock-gated acceptance
fixtures untraced in another. Both print a table and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

MIN_REPEATS = 3
# setup_s is a fraction of a second, so more set-ups than jobs are sampled.
MIN_SETUPS = 9
# Every run must end well inside 180 s, set-up and gate fixtures included.
DEADLINE_S = 170.0
CRIT1_GATE_S = 30.0
CRIT9_GATE_S = 60.0


class WorkerError(RuntimeError):
    """A benchmark process crashed, timed out or printed no result."""


def run_worker(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its last output line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def digest_checks(digests: list) -> tuple[int, int]:
    """Compare every CSV hash of one seed with the first one (criterion 11).

    Each comparison is one checked operation; returns (attempted, failed).
    """
    seen = [d for d in digests if d is not None]
    return len(seen[1:]), sum(d != seen[0] for d in seen[1:])


def machine_facts(child: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diagflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": child.get("numpy"),
            "blas": child.get("blas"), "git_commit": commit,
            "src_sha256": src.hexdigest()[:16],
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def untraced(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    """Fresh-process jobs, closed-loop, until ``seconds`` is used."""
    began = time.perf_counter()
    results, durations = [], []
    while True:
        elapsed = time.perf_counter() - began
        start = time.perf_counter()
        results.append(run_worker(["job", "--workload", workload, "--seed", str(seed),
                                   "--size", size], DEADLINE_S - elapsed))
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - began
        next_end = elapsed + statistics.median(durations)
        if next_end > DEADLINE_S or (len(results) >= MIN_REPEATS and next_end > seconds):
            break
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(["setup", "--workload", workload, "--seed", str(seed),
                                  "--size", size],
                                 DEADLINE_S - (time.perf_counter() - began))["setup_s"])
    compared, differ = digest_checks([d for r in results for d in r["digests"]])
    attempted = sum(r["attempted"] for r in results) + compared
    failed = sum(r["failed"] for r in results) + differ
    summary = {
        "repeats": len(results), "elapsed_s": time.perf_counter() - began,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in results for f in r["failures"]],
        "metrics": {"setup_s": statistics.median(setups),
                    "wall_s": statistics.median(r["wall_s"] for r in results),
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)},
        "per_repeat": {"setup_s": setups, **{k: [r[k] for r in results]
                                             for k in ("wall_s", "peak_rss_mb")}},
    }
    return summary, results[0]


def traced(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """One traced process, then the gate fixtures in another."""
    began = time.perf_counter()
    result = run_worker(["trace", "--workload", workload, "--seed", str(seed),
                         "--size", size], DEADLINE_S)
    gate = run_worker(["gates", "--size", size], DEADLINE_S - (time.perf_counter() - began))
    metrics = dict(result["metrics"])
    metrics["gate.crit1_margin_s"] = CRIT1_GATE_S - gate["crit1_s"]
    metrics["gate.crit9_margin_s"] = CRIT9_GATE_S - gate["crit9_s"]
    compared, differ = digest_checks(result["digests"])
    summary = {
        "elapsed_s": time.perf_counter() - began,
        "attempted": result["attempted"] + compared,
        "failed": result["failed"] + differ,
        "failures": result["failures"], "metrics": metrics,
        "untraced_s": result["untraced_s"], "traced_s": result["traced_s"],
        "self_s": result["self_s"], "spans_file": result["spans_file"],
        "gate_fixture_s": gate,
    }
    return summary, result


def print_report(args, summary: dict, units: dict, facts: dict) -> None:
    print(f"diagflow benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print("machine " + json.dumps(facts))
    if args.trace:
        print(f"traced job {summary['traced_s']:.4f} s, untraced {summary['untraced_s']:.4f} s;"
              f" spans in {summary['spans_file']}")
        print("self time per span name (s): " + json.dumps(
            {k: round(v, 6) for k, v in sorted(summary["self_s"].items())}))
    else:
        print(f"{summary['repeats']} fresh processes in {summary['elapsed_s']:.2f} s; "
              "medians below. Per repeat: " + json.dumps(summary["per_repeat"]))
    width = max(len(k) for k in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {summary['metrics'][name]:.6g} {unit}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':<{width}}  {frac:.6g} ratio ({summary['failed']} of "
          f"{summary['attempted']} operations failed)")
    for failure in summary["failures"][:20]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    # Workload and metric names, and units, come from BENCHMARK.json alone.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy shrinks every input; used by the benchmark's self-test")
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not (ROOT / "src" / "diagflow" / "__init__.py").is_file():
        print(f"error: no diagflow source tree at {ROOT / 'src' / 'diagflow'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            summary, child = traced(args.workload, args.seed, args.size)
        else:
            summary, child = untraced(args.workload, args.seed, args.seconds, args.size)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(args, summary, units, machine_facts(child))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": summary["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
