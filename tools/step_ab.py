"""Interleaved µs/step of two checkouts' flows, in one process, as JSON.

    python3 tools/step_ab.py --parent DIR --change DIR [--rounds 30]

``DIR`` is a checkout holding ``src/diagflow``. Both packages are loaded
into this one process, each under its own module name (``diagflow_parent``
and ``diagflow_change``), so the two sides share the interpreter, numpy,
its BLAS and the machine's state of the moment: separate worker processes
here have read ±20% apart on unchanged code. Each round runs, once per
side and on the same arrays for both, three workloads: ``integrate`` on
``ensemble``'s four flows (the benchmark's recipe at seed 11: L = 2..5, d
drawn as criterion 1 draws it, n = d + 2, uniform init, T = 10, h =
1e-3), ``integrate`` at ``long_trace``'s shape (L = 5, d = 64, n = 48, T =
10, seed 11), and ``integrate_redundant`` on ``run_bias``'s tied instance
(L = 4, n = 3, d = 6, seed 0) at α = 0.1 and 0.03, adaptive from h = 1e-3
until the gap reaches ``FLOW_LIMIT_GAP`` or t = 1e4, with ``max_points``
2000, as ``run_bias`` runs it: Dormand–Prince, then RODAS4. The side that
goes first alternates by round. A flow's time is the process's CPU time
(``time.process_time``) over its accepted steps; a tied flow's steps are
counted once per side, by a run that keeps every row. BLAS is held to one
thread unless the environment says otherwise.

Per workload the JSON gives each side's accepted steps per round and
median µs/step, the median over
rounds of the change's time over the parent's, and the rounds the change
took less time in.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")  # before numpy loads its BLAS

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
SEED = 11
H, T_MAX = 1e-3, 10.0
TIED_LAYERS, TIED_ALPHAS = 4, (0.1, 0.03)


def load(side: str, checkout: Path):
    """``checkout``'s ``src/diagflow`` as the package ``diagflow_<side>``."""
    name = f"diagflow_{side}"
    init = checkout / "src" / "diagflow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its relative imports resolve under this name
    spec.loader.exec_module(module)
    return module


def problems(df) -> dict:
    """Each workload's flows, built by package ``df``: ``(X, y, layers)`` arrays,
    and for ``tied_bias`` ``(X, y, u0)``."""
    shapes, rng = np.random.default_rng(123), np.random.default_rng(SEED)
    ensemble = []
    for i in range(4):
        d = int(shapes.integers(3, 9))
        loss = df.make_problem(d + 2, d, int(rng.integers(2**31)), x_scale=0.5)
        stack0 = df.init_layers(d, 2 + i % 4, df.InitScheme("uniform"),
                                seed=int(rng.integers(2**31)))
        ensemble.append((loss.X, loss.y, stack0.layers))
    loss = df.make_problem(48, 64, SEED)
    stack0 = df.init_layers(64, 5, df.InitScheme("uniform"), seed=SEED + 1)
    # run_bias's own instance: its loss, and its u0 at alpha = 1 to scale
    tied = df.run_bias(df.ExperimentConfig(n=3, dim=6, layers=TIED_LAYERS, seed=0, t_max=1.0),
                       alphas=(1.0,), model="redundant")
    return {"ensemble": ensemble, "long_trace": [(loss.X, loss.y, stack0.layers)],
            "tied_bias": [(tied.loss.X, tied.loss.y, tied.rows[0].entropy.u0 * alpha)
                          for alpha in TIED_ALPHAS]}


def steps(df) -> int:
    """Accepted steps of one fixed-step run, by the driver's own step recurrence."""
    t, h, count = 0.0, H, 0
    while (h := df.flow._next_step(t, h, T_MAX)) is not None:
        t, count = t + h, count + 1
    return count


def tied_control(df, max_points: int = 2000):
    return df.StepController(mode="adaptive", h=H, t_max=1e4, max_points=max_points,
                             stop_gap=df.experiments.FLOW_LIMIT_GAP)


def accepted_steps(df, name: str, flows) -> int:
    """Accepted steps of ``flows`` of workload ``name`` under package ``df``."""
    if name != "tied_bias":
        return steps(df) * len(flows)
    ctrl = tied_control(df, max_points=10**9)  # keeps every row
    return sum(len(df.integrate_redundant(u0, TIED_LAYERS, df.QuadraticLoss(X, y), ctrl)) - 1
               for X, y, u0 in flows)


def time_flows(df, name: str, flows) -> float:
    """CPU seconds of workload ``name``'s flows, inputs built outside the clock."""
    if name == "tied_bias":
        ctrl = tied_control(df)
        runs = [(df.QuadraticLoss(X, y), u0) for X, y, u0 in flows]
        began = time.process_time()
        for loss, u0 in runs:
            df.integrate_redundant(u0, TIED_LAYERS, loss, ctrl)
        return time.process_time() - began
    ctrl = df.StepController(h=H, t_max=T_MAX)
    runs = [(df.LayerStack(layers), df.QuadraticLoss(X, y)) for X, y, layers in flows]
    began = time.process_time()
    for stack0, loss in runs:
        df.integrate(stack0, loss, ctrl)
    return time.process_time() - began


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    packages = {side: load(side, getattr(args, side).resolve()) for side in SIDES}
    workloads = problems(packages["change"])
    counts = {name: {side: accepted_steps(packages[side], name, flows) for side in SIDES}
              for name, flows in workloads.items()}

    us = {name: {side: [] for side in SIDES} for name in workloads}
    for r in range(args.rounds):
        for name, flows in workloads.items():
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                us[name][side].append(time_flows(packages[side], name, flows) * 1e6
                                      / counts[name][side])
        print(f"round {r + 1}/{args.rounds}: " + ", ".join(
            f"{name} {us[name]['parent'][-1]:.1f} -> {us[name]['change'][-1]:.1f} µs/step"
            for name in workloads), file=sys.stderr)

    report = {
        "rounds": args.rounds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "workloads": {
            name: {"accepted_steps": counts[name],
                   "parent_us_per_step": statistics.median(runs["parent"]),
                   "change_us_per_step": statistics.median(runs["change"]),
                   "ratio_median": statistics.median(
                       c / p for p, c in zip(runs["parent"], runs["change"])),
                   "change_faster_in": sum(c < p for p, c in zip(runs["parent"], runs["change"]))}
            for name, runs in us.items()},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
