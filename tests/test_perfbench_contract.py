"""The benchmark in `perfbench/` reaches into the package by name.

`spans.py` wraps module functions and class methods it names as strings, and
`gen.py` writes run configs with the keys it knows. A rename in the package
would otherwise surface only when the benchmark runs. Both modules are
loaded from their files, unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from roadrisk.config import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(monkeypatch):
    spans = load("spans", monkeypatch)
    missing = [
        f"{modname}.{fname}"
        for modname, names in spans.FUNCTIONS.items()
        for fname in names
        if not callable(getattr(importlib.import_module(f"roadrisk.{modname}"), fname, None))
    ]
    missing += [
        f"{modname}.{cls_name}.{attr}"
        for modname, cls_name, attr, _ in spans.METHODS
        if attr not in vars(getattr(importlib.import_module(f"roadrisk.{modname}"), cls_name))
    ]
    assert missing == []


def test_generated_run_config_loads(monkeypatch, tmp_path):
    gen = load("gen", monkeypatch)
    size = gen.Size(sites=12, grid=5, rows=1500)
    raw = gen.run_config(size, gen._bbox(size.grid), "accidents.csv", str(tmp_path / "out"))
    assert RunConfig.from_dict(raw).graph.cell_size_m == gen.CELL_M
