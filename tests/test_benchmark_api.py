import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "diagbench" / "workloads.py"


def test_every_name_the_benchmark_imports_from_diagflow_exists():
    # the benchmark's workloads run against each commit's diagflow; a name
    # they import that is gone would fail every benchmark run
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("diagflow", "diagflow.cli", "diagflow.experiments")
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
