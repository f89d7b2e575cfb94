"""One measured process of the diagflow benchmark.

``run.py`` starts a fresh process of this script for every measurement, so
that ``ru_maxrss`` belongs to that measurement alone:

    python3 diagbench/worker.py setup --workload NAME --seed N [--size toy]
    python3 diagbench/worker.py job   --workload NAME --seed N [--size toy]
    python3 diagbench/worker.py trace --workload NAME --seed N [--size toy]
    python3 diagbench/worker.py gates [--size toy]

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".diagbench"


def _outcome_fields(out) -> dict:
    return {"attempted": out.attempted, "failed": out.failed,
            "failures": out.failures[:20]}


def measure(wl, workload, setup_s: float) -> dict:
    """One untraced job; the end-to-end figures of this process."""
    start = time.perf_counter()
    out = workload.job(wl.NullTracer, wl.ACCEPTANCE)
    wall_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": maxrss_kb * 1024 / 1e6,
            "digests": [out.digest], **_outcome_fields(out)}


def trace(wl, workload, name: str, seed: int) -> dict:
    """The job untraced, then traced, then the traced run's extra calls."""
    from tracing import Tracer

    start = time.perf_counter()
    reference = workload.job(wl.NullTracer, wl.ACCEPTANCE)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    start = time.perf_counter()
    out = workload.job(tracer, wl.ACCEPTANCE)
    traced_s = time.perf_counter() - start
    workload.decompose(tracer, out)
    out.merge(reference)

    # tracemalloc peaks, measured again on the traced flow that records the most
    flow_peak_mb = defect_peak_mb = 0.0
    if tracer.flows:
        _, run, loss = max(tracer.flows, key=lambda f: f[0])
        traj, flow_peak_mb = wl.peak_alloc_mb(run, loss)
        _, defect_peak_mb = wl.peak_alloc_mb(wl.conservation_defect, traj)

    flows = tracer.named("flow.integrate", "flow.integrate_redundant")
    integrate_s = sum(s["end"] - s["start"] for s in flows)
    accepted = sum(s["accepted_steps"] for s in flows)
    grad_calls = sum(s["grad_calls"] for s in flows)
    cli_s = tracer.busy("cli.main")
    metrics = {
        "flow.integrate_s": integrate_s,
        "flow.us_per_step": integrate_s / accepted * 1e6,
        "flow.accepted_steps": accepted,
        "flow.rhs_evals_per_step": grad_calls / accepted,
        "flow.peak_alloc_mb": flow_peak_mb,
        "model.grad_calls": grad_calls,
        "model.grad_s": sum(s["grad_s"] for s in flows),
        **wl.micro_timings(workload.shapes()),
        "conservation.defect_s": tracer.busy("conservation.conservation_defect"),
        "conservation.defect_peak_mb": defect_peak_mb,
        "conservation.census_s": tracer.busy("conservation.sign_census"),
        "conservation.reconstruct_s": tracer.busy("conservation.reconstruction_error"),
        "mirror.general_s": tracer.busy("mirror.mirror_residual_general"),
        "mirror.closed_form_s": tracer.busy("mirror.mirror_residual_closed_form"),
        "experiments.min_l1_s": tracer.busy("experiments.min_l1_norm"),
        "experiments.l1_supports": tracer.counters.get("experiments.l1_supports", 0),
        "experiments.kkt_s": tracer.busy("experiments.solve_kkt"),
        "experiments.newton_iters": tracer.counters.get("experiments.newton_iters", 0),
        "experiments.rate_check_s": tracer.busy("experiments.rate_check"),
        "report.csv_s": tracer.busy("flow.write_trajectory_csv"),
        "report.csv_mb": tracer.counters.get("report.csv_bytes", 0) / 1e6,
        "report.diagnostics_s": tracer.busy("report.build_diagnostics",
                                            "report.DiagnosticsReport.write"),
        "paramcheck.manifold_s": tracer.busy("paramcheck.trajectory_on_manifold"),
        "cli.self_s": cli_s - tracer.children_busy("decompose.cli.main") if cli_s else 0.0,
        "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
    }
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"trace-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    return {"metrics": metrics, "untraced_s": untraced_s, "traced_s": traced_s,
            "self_s": tracer.self_times(), "spans_file": str(spans_file.relative_to(ROOT)),
            "digests": [reference.digest, out.digest], **_outcome_fields(out)}


def gates(wl, size: str) -> dict:
    """The two timed acceptance fixtures, untraced (shrunk at toy size)."""
    crit1 = {"full": {}, "toy": {"count": 2, "t_max": 0.05}}[size]
    return {"crit1_s": wl.criterion_1_fixture(**crit1),
            "crit9_s": wl.criterion_9_fixture(wl.BiasSweep.SIZES[size].convergence)}


def blas_facts(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "job", "trace", "gates"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import diagflow
    import workloads as wl

    if Path(diagflow.__file__).resolve().parent != SRC / "diagflow":
        print(f"error: imported diagflow from {diagflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.mode}-", dir=WORK))
    try:
        if args.mode == "gates":
            result = gates(wl, args.size)
        else:
            workload = wl.WORKLOADS[args.workload](args.seed, args.size, workdir)
            workload.warm_up()
            setup_s = time.perf_counter() - start
            if args.mode == "setup":
                result = {"setup_s": setup_s}
            elif args.mode == "job":
                result = measure(wl, workload, setup_s)
            else:
                result = trace(wl, workload, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["numpy"] = np.__version__
    result["blas"] = blas_facts(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
