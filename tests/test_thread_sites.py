"""Tripwire: `src/roadrisk` starts threads at one site only.

Work on a second thread goes through `autodiff._both`, whose one-thread
executor is the only thread the package keeps. The check counts calls, by
name, of anything that constructs a thread or an executor; a second site
fails it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "roadrisk"

CONSTRUCTORS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "start_new_thread"}


def constructor_calls(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONSTRUCTORS:
                yield f"{name} at line {node.lineno}"


def test_one_site_constructs_a_thread_or_an_executor():
    sites = [
        f"{path.name}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for call in constructor_calls(ast.parse(path.read_text()))
    ]
    assert len(sites) == 1 and sites[0].startswith("autodiff.py: ThreadPoolExecutor"), sites
