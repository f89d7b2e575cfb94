"""Byte-for-byte comparison of two checkouts' CLI runs, as JSON.

    python3 tools/cli_bytes.py --parent DIR --change DIR

``DIR`` is a checkout holding ``src/diagflow``. Each run of ``RUNS`` starts
``python -m diagflow.cli ARGS`` in a fresh process, once per side, with
``PYTHONPATH`` set to that side's ``src`` and its working directory a new
temporary directory, so that the files it names (``out.csv`` and
``diag.csv``) have the same relative paths on both sides. The runs are every
subcommand at its defaults, with ``--output`` and ``--diagnostics`` where it
takes them; ``simulate`` at ``long_trace``'s shape (L=5, d=64, n=48); a
``simulate`` that diverges, exits 1 and writes no file; and ``bias`` pinned
to one CPU as well as on every CPU this process may use.

A run matches when stdout, stderr, the exit code and the bytes of each file
it names are the same on both sides; a file that one side leaves out is a
difference. The JSON gives each run's name, arguments and the fields that
differ, and ``identical`` over all runs. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FILES = ("--output", "out.csv", "--diagnostics", "diag.csv")

# (name, arguments, pinned to one CPU)
RUNS = [
    ("simulate", ["simulate", *FILES], False),
    ("crossings", ["crossings", *FILES], False),
    ("convergence", ["convergence", *FILES], False),
    ("bias", ["bias", *FILES], False),
    ("bias, one CPU", ["bias", *FILES], True),
    ("paramcheck", ["paramcheck"], False),
    ("simulate L=5 d=64 n=48", ["simulate", "--layers", "5", "--dim", "64", "--samples", "48",
                                *FILES], False),
    ("simulate, diverging", ["simulate", "--step", "2", "--tmax", "50", "--output", "out.csv"],
     False),
]


def run_cli(checkout: Path, args: list[str], one_cpu: bool) -> dict:
    """One CLI run of ``checkout``: its stdout, stderr, exit code and the bytes of
    each file ``args`` names (None for one it did not write)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cpu = {min(os.sched_getaffinity(0))}
    pin = (lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "diagflow.cli", *args], cwd=tmp, env=env,
                              capture_output=True, preexec_fn=pin)
        files = {name: (Path(tmp) / name).read_bytes() if (Path(tmp) / name).exists() else None
                 for name in args if name.endswith(".csv")}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode, **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = []
    for name, cli_args, one_cpu in RUNS:
        parent, change = (run_cli(checkouts[side], cli_args, one_cpu) for side in SIDES)
        report.append({"run": name, "args": cli_args, "exit": change["exit"],
                       "differs": [key for key in parent if parent[key] != change[key]]})
    identical = not any(entry["differs"] for entry in report)
    print(json.dumps({"identical": identical, "runs": report}, indent=2))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
