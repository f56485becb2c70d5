"""The benchmark in `perfbench/` reaches into the package by name.

`spans.py` wraps module functions and class methods it names as strings,
`gen.py` writes run configs with the keys it knows, and `workloads.py` checks
a graph through attributes it names. A rename in the package would otherwise
surface only when the benchmark runs. The modules are loaded from their
files, unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from roadrisk import graph as g, ingest
from roadrisk.config import RunConfig
from roadrisk.diffusion import preset
from roadrisk.features import WeightTables, build_risk_tensor
from roadrisk.model import ModelConfig, RiskForecaster
from roadrisk.training import prepare_training_data

from helpers import FRACTIONS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch, module_name=None):
    module_name = module_name or f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
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


def test_graph_checks_pass_on_the_fixture_graph(monkeypatch, tmp_path, fixture_graph, fixture_tensor):
    # workloads.py imports its siblings by their bare names
    for sibling in ("gen", "spans"):
        load(sibling, monkeypatch, module_name=sibling)
    workloads = load("workloads", monkeypatch)
    built, _ = fixture_graph
    g.save_graph(built, tmp_path / "nodes.csv", tmp_path / "edges.csv")
    loaded = g.load_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    facts, found = {"nodes": built.n_nodes}, {}
    for graph in (built, loaded):
        assert workloads.check_graph(graph, facts) == []
    assert workloads.check_stage("graph", tmp_path, facts, found) == []
    stored = len((tmp_path / "edges.csv").read_text().splitlines()) - 1
    assert loaded.adjacency.nnz == stored and found["edges"] == stored // 2
    # the benchmark passes the normalised adjacency positionally
    prepare_training_data(fixture_tensor, loaded.adjacency_norm, preset("Differentiated_B"), 12, 12,
                          fractions=FRACTIONS)
    RiskForecaster(ModelConfig(d=8, heads=2), loaded.adjacency_norm, seed=0)


def region_forecast_toy(monkeypatch, tmp_path):
    """The benchmark's workloads module, and the context, inputs and facts of
    a toy region-forecast run."""
    for sibling in ("gen", "spans"):
        load(sibling, monkeypatch, module_name=sibling)
    workloads = load("workloads", monkeypatch)
    size = workloads.TOY_SIZES["region-forecast"]
    inputs = tmp_path / "inputs"
    facts = sys.modules["gen"].write_inputs(inputs, 1, size)
    ctx = workloads.Context(
        root=PERFBENCH.parent, work=tmp_path, seed=1, seconds=1.0, trace=False, size=size,
        ledger=workloads.Ledger(tmp_path / "ledger.json", "contract"), spawner=None,
    )
    return workloads, ctx, inputs, facts


def test_region_forecast_set_up_and_job_report_no_problems(monkeypatch, tmp_path):
    # the in-process workload calls the library directly, with its own arguments
    workloads, ctx, inputs, facts = region_forecast_toy(monkeypatch, tmp_path)
    out = workloads.Outcome()
    state = workloads.forecast_setup(inputs, facts, out)
    job = workloads.forecast_job(ctx, state, out)
    assert out.problems == [] and out.failed == 0
    assert job.complete
    assert out.attempted == 1 + len(state.data.test_windows()) + workloads.FORECAST_STEPS


def test_traced_region_forecast_builds_the_cli_paths_tensor(monkeypatch, tmp_path):
    # the spans hooks read the parse result, the region filter it wraps by
    # name, the attention log and the tape; a hook that failed would show
    # as a problem of its operation
    workloads, ctx, inputs, facts = region_forecast_toy(monkeypatch, tmp_path)
    spans = sys.modules["spans"]
    out = workloads.Outcome()
    recorder = spans.Recorder()
    recorder.install()
    try:
        state = workloads.forecast_setup(inputs, facts, out)
        job = workloads.forecast_job(ctx, state, out)
    finally:
        recorder.uninstall()
    assert out.problems == [] and out.failed == 0 and job.complete
    layer = spans.summarize([recorder.spans()])
    assert layer["ingest.rows"] == facts["rows"] and layer["ingest.rejects"] == 0
    assert layer["ingest.filter_region.s"] > 0.0
    assert "model.forward" in recorder.name and layer["training.tape_steps_per_window"] > 0.0

    # the CLI's path: parse, keep the region's rows, assign them to grid cells
    cfg = RunConfig.load(inputs / "run.json")
    table, _ = ingest.parse_accident_csv(inputs / cfg.data_csv, cfg.schema or None)
    kept = table.within(cfg.region)
    grid = g.assign_to_nodes(kept.lon, kept.lat, cfg.graph.cell_size_m, cfg.region.center)
    tensor = build_risk_tensor(WeightTables.default(), kept, grid.assignment,
                               range(grid.member_counts.size), cfg.region.period)
    assert tensor.weeks == state.tensor.weeks
    assert tensor.values.tobytes() == state.tensor.values.tobytes()
