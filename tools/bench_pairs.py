"""Paired parent/change runs of the diagflow benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N
        [--pairs 10] [--traced W ...] [--cpus 0[,1...]]

``DIR`` is a checkout holding ``diagbench/run.py`` and ``src/diagflow``:
for example ``git archive`` of each commit unpacked into its own
directory. For every workload of the change's ``BENCHMARK.json``, pair
``i`` runs ``diagbench/run.py --trace 0 --size full`` once on each side
with seed ``11 + i``; the parent goes first in even pairs and the change in
odd ones. Run length is the benchmark's ``run_seconds`` on both sides.
``--traced W`` adds ``TRACED_RUNS`` ``--trace 1`` runs of workload ``W``
per side, all with seed 11 and the side run first alternating, for the
per-layer figures; each figure is reported with its runs and median, since
one traced run per side has read 2x apart on identical code. ``--cpus``
pins every run of both sides to those CPUs (``os.sched_setaffinity`` in the
started process, inherited by the benchmark's workers), so a change that
uses the second core can be measured without it. The report is written to
``BENCH_<pr>.json`` in the working directory.

Per end-to-end metric the output holds each side's runs, median and
quartiles, the pairs the change won (ties count for neither), the median
change in percent, and whether the gap between medians exceeds the
parent's interquartile range. It also holds the failed operations per side,
the machine facts that ``run.py`` prints, and each side's line counts with
the change's delta: non-blank and code lines per file and in total under
``src/diagflow``, non-blank lines in total under ``tests``. Code lines leave
out docstrings and comment-only lines, so a change that removes code and
one that removes prose read apart. The source-line delta by module comes
from the same checkouts as the timings.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 11
TRACED_RUNS = 3


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
              cpus: set | None) -> dict:
    """One ``diagbench/run.py`` run, on ``cpus`` if given: its result JSON and the
    machine facts it printed."""
    cmd = [sys.executable, "diagbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", "full"]
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return {**json.loads(lines[-1]), "machine": machine}


def source_lines(checkout: Path) -> dict:
    """Non-blank and code lines of the ``.py`` files of ``checkout``: per file and in
    total under ``src/diagflow``, and non-blank lines in total under ``tests``. A code
    line is a non-blank line outside docstrings that is not only a comment."""
    def non_blank(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

    def code(path: Path) -> int:
        text = path.read_text(encoding="utf-8")
        docs = {n for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None
                for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        return sum(1 for n, line in enumerate(text.splitlines(), 1)
                   if line.strip() and not line.strip().startswith("#") and n not in docs)

    paths = sorted((checkout / "src" / "diagflow").rglob("*.py"))
    names = [path.relative_to(checkout / "src" / "diagflow").as_posix() for path in paths]
    files = dict(zip(names, map(non_blank, paths)))
    code_files = dict(zip(names, map(code, paths)))
    return {"total": sum(files.values()), "files": files,
            "code_total": sum(code_files.values()), "code_files": code_files,
            "tests": sum(non_blank(path) for path in (checkout / "tests").rglob("*.py"))}


def line_delta(parent: dict, change: dict) -> dict:
    """``change - parent`` for each count of ``source_lines``; a file on one side only
    counts 0 on the other."""
    def files(key: str) -> dict:
        names = sorted(parent[key].keys() | change[key].keys())
        return {name: change[key].get(name, 0) - parent[key].get(name, 0) for name in names}

    return {"total": change["total"] - parent["total"], "files": files("files"),
            "code_total": change["code_total"] - parent["code_total"],
            "code_files": files("code_files"), "tests": change["tests"] - parent["tests"]}


def quartiles(runs: list[float]) -> dict:
    # one run (--pairs 1) is its own quartiles; statistics.quantiles needs two
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides of one metric over the pairs, in the benchmark's terms."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    worse_pct = sign * (c["median"] - p["median"]) / p["median"] * 100.0
    return {
        "parent": p, "change": c,
        "change_better_in": f"{wins} of {len(parent)} pairs",
        "median_change_pct": round((c["median"] - p["median"]) / p["median"] * 100.0, 2),
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "bound_pct": bound * 100.0,
        "within_bound": worse_pct <= bound * 100.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="append", default=[])
    parser.add_argument("--cpus", type=lambda text: {int(c) for c in text.split(",")},
                        help="comma-separated CPU numbers to pin every run to")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines = {side: source_lines(checkouts[side]) for side in SIDES}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    output = Path(f"BENCH_{args.pr}.json")

    machine: dict = {}
    result: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        seeds = [FIRST_SEED + i for i in range(args.pairs)]
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                began = time.perf_counter()
                out = run_bench(checkouts[side], workload, seed, seconds, 0, args.cpus)
                machine[side] = out["machine"]
                runs[side].append(out)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in out['metrics'].items()})} "
                      f"({time.perf_counter() - began:.0f} s)", file=sys.stderr)
        result[workload] = {
            "pairs": args.pairs, "seeds": seeds,
            "first_side": [SIDES[i % 2] for i in range(args.pairs)],
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            **{m["name"]: compare([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                  [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                  m["better"], m["bound"])
               for m in spec["end_to_end"]},
        }

    traced = {}
    for workload in args.traced:
        runs = {side: [] for side in SIDES}
        for i in range(TRACED_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                out = run_bench(checkouts[side], workload, FIRST_SEED, seconds, 1, args.cpus)
                runs[side].append({"failed": out["failed"], "attempted": out["attempted"],
                                   **{k: v["value"] for k, v in out["metrics"].items()}})
                print(f"{workload} traced run {i + 1}/{TRACED_RUNS} {side}", file=sys.stderr)
        traced[workload] = {
            side: {name: {"median": statistics.median(r[name] for r in rs),
                          "runs": [r[name] for r in rs]}
                   for name in rs[0]}
            for side, rs in runs.items()}

    report = {
        "command": f"python3 diagbench/run.py --workload W --seed N --seconds {seconds:g} "
                   "--trace 0 --size full",
        "protocol": "one seed per pair, the same on both sides; the side run first "
                    "alternates, the parent first in even pairs",
        "machine": machine,
        "cpus": sorted(args.cpus) if args.cpus else "all usable",
        "source_lines": {**lines, "delta": line_delta(lines["parent"], lines["change"])},
        "workloads": result,
    }
    if traced:
        report["traced"] = {"seed": FIRST_SEED, "runs_per_side": TRACED_RUNS,
                            "workloads": traced}
    output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
