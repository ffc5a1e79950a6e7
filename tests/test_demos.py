"""The demos stay runnable: their imports resolve and the quick ones exit 0."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK_DEMOS = (
    "bell_branch_measures.py",
    "chsh_game.py",
    "classicality.py",
    "descriptors_vs_wavefunction.py",
    "wigner_undo.py",
)


def test_demo_imports_resolve():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] != "descriptorsim":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
