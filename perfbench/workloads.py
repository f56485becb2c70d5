"""The benchmark's three workloads, their output checks and their metrics.

Each workload is one closed loop driven by one process: an operation starts
only when the previous one has finished. CLI stages run one after another as
child processes. The program sees only the files `gen` writes from the seed.

* fixture-pipeline: ~30 sites, ~5k rows, the fixture model config, two main
  epochs and one fine-tune epoch, run as the ten CLI stages from `ingest` to
  `validate-framework`. The analyst's CSV-to-maps path at small N, where
  per-window training overhead and interpreter start-up dominate.
* region-forecast: ~300 nodes, ~42k rows, the same model in-process. The
  job forecasts every test window to six-zone GeoJSON, then runs taped
  training steps on 2-window batches. The N^2 spatial GCN dominates here.
* region-build: ~6.5k nodes, ~137k rows, the six CLI stages that need no
  model. Ingest, graph, features, diffusion and validation at region scale.

An operation is a CLI stage, a forecast window, a training step or one
set-up; it fails on a non-zero exit, an exception or a failed output check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import spans

HERE = Path(__file__).resolve().parent
FULL_STAGES = ["ingest", "graph", "snr", "features", "diffuse", "train", "eval", "predict",
               "map", "validate-framework"]
BUILD_STAGES = ["ingest", "graph", "snr", "features", "diffuse", "validate-framework"]
SETUP_REPEATS = 5    # input generation, at least this often and for SETUP_MIN_S
SETUP_MIN_S = 1.0
PROGRAM_SETUPS = 3   # region-forecast's in-process set-up
FORECAST_STEPS = 2
STEP_WINDOWS = 2
T_IN = T_OUT = gen.MODEL["t_in"]
IMPORT_REPEATS = 3

SIZES = {
    "fixture-pipeline": gen.Size(sites=30, grid=8, rows=5000),
    "region-forecast": gen.Size(sites=300, grid=25, rows=42000),
    "region-build": gen.Size(sites=6500, grid=100, rows=137000),
}
TOY_SIZES = {
    "fixture-pipeline": gen.Size(sites=12, grid=5, rows=1500, epochs_main=1),
    "region-forecast": gen.Size(sites=20, grid=6, rows=2500),
    "region-build": gen.Size(sites=300, grid=25, rows=8000),
}


@dataclass
class Context:
    root: Path      # checkout root; the package is imported from root/src
    work: Path      # this run's scratch directory inside the checkout
    seed: int
    seconds: float
    trace: bool
    size: gen.Size
    ledger: "Ledger"
    spawner: subprocess.Popen  # spawn.py, which starts the CLI stages


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)  # printed with the environment record

    def operation(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


class Ledger:
    """Digests and exact counts from earlier runs of the same sources, seed and size.

    Kept in the checkout between runs; a value that differs from the one an
    earlier run recorded under the same key is a failed check.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def same(self, name: str, value) -> list[str]:
        seen = self.data.setdefault(self.key, {})
        if name in seen and seen[name] != value:
            return [f"{name} is {value!r}; an earlier run recorded {seen[name]!r}"]
        seen[name] = value
        return []

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; the maximum is given
    with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_self_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _train_windows(size: gen.Size) -> int:
    return math.floor(size.weeks * 0.6) - (T_IN + T_OUT) + 1


# -- set-up -----------------------------------------------------------------

def generate_inputs(ctx: Context, out: Outcome) -> tuple[Path, dict, list[float]]:
    """Write the seeded inputs repeatedly; every copy must match."""
    inputs = ctx.work / "inputs"
    times, digests = [], set()
    facts = {}
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        started = time.perf_counter()
        facts = gen.write_inputs(inputs, ctx.seed, ctx.size)
        times.append(time.perf_counter() - started)
        digests.add(file_digest(inputs / "accidents.csv") + file_digest(inputs / "run.json"))
    problems = [] if len(digests) == 1 else ["the same seed wrote different inputs"]
    out.operation("generate inputs", problems + ctx.ledger.same("inputs", digests.pop()))
    return inputs, facts, times


# -- CLI stages ---------------------------------------------------------------

@dataclass
class StageRun:
    wall_s: float
    peak_rss_mb: float
    code: int


def run_stage(ctx: Context, stage: str, cwd: Path, spans_path: Path | None) -> StageRun:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if spans_path is None:
        cmd = [sys.executable, "-m", "roadrisk.cli", stage, "--config", "run.json"]
    else:
        cmd = [sys.executable, str(HERE / "stage.py"), str(spans_path), stage,
               "--config", "run.json"]
    request = {"cmd": cmd, "cwd": str(cwd), "env": env, "log": str(ctx.work / "stages.log")}
    ctx.spawner.stdin.write(json.dumps(request) + "\n")
    ctx.spawner.stdin.flush()
    reply = json.loads(ctx.spawner.stdout.readline())
    return StageRun(reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["code"])


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _count_rows(path: Path) -> int:
    """Data rows, streamed: the benchmark process must stay small, because a
    child's reported peak RSS includes the parent's high-water mark at spawn."""
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def check_stage(stage: str, out_dir: Path, facts: dict, found: dict) -> list[str]:
    """Output checks after one stage; fills `found` with digests and values."""
    from roadrisk import features, graph

    problems = []
    if stage == "ingest":
        rejects = _count_rows(out_dir / "rejects.csv")
        records = _count_rows(out_dir / "records.csv")
        if rejects:
            problems.append(f"{rejects} rejected rows")
        if records != facts["rows"]:
            problems.append(f"{records} records kept, {facts['rows']} generated")
        found["rows"] = records
    elif stage == "graph":
        g = graph.load_graph(out_dir / "nodes.csv", out_dir / "edges.csv")
        problems += check_graph(g, facts)
        found["nodes"], found["edges"] = g.n_nodes, g.adjacency.nnz // 2
    elif stage == "features":
        t = features.load_tensor(out_dir / "risk_tensor.bin", out_dir / "risk_tensor.json")
        if t.values.shape != (facts["weeks"], facts["nodes"], 3):
            problems.append(f"risk tensor shape {t.values.shape}")
    elif stage == "diffuse":
        found["processed.bin"] = file_digest(out_dir / "processed.bin")
    elif stage == "train":
        losses = [float(r["val_loss"]) for r in _csv_rows(out_dir / "history.csv")]
        if not losses or not all(math.isfinite(v) for v in losses):
            problems.append(f"validation losses {losses}")
        else:
            found["val_l1"] = min(losses)
    elif stage == "predict":
        rows = _csv_rows(out_dir / "predictions.csv")
        values = np.array([float(r["value"]) for r in rows])
        if len(rows) != facts["nodes"] * T_OUT or not np.isfinite(values).all():
            problems.append(f"{len(rows)} predictions, finite={bool(np.isfinite(values).all())}")
        found["predictions.csv"] = file_digest(out_dir / "predictions.csv")
    elif stage == "map":
        paths = sorted((out_dir / "maps").glob("*.geojson"))
        problems += check_geojson(paths, T_OUT)
    return problems


def check_graph(g, facts: dict) -> list[str]:
    problems = []
    if g.n_nodes != facts["nodes"]:
        problems.append(f"{g.n_nodes} nodes, inputs were generated for {facts['nodes']}")
    if (abs(g.adjacency - g.adjacency.T) > 0).nnz:
        problems.append("adjacency is not symmetric")
    if (g.degrees <= 0).any():
        problems.append("a node has zero degree")
    return problems


def check_geojson(paths: list[Path], expected: int) -> list[str]:
    from roadrisk import riskmap

    problems = [] if len(paths) == expected else [f"{len(paths)} GeoJSON files"]
    for path in paths:
        bad = riskmap.validate_geojson(riskmap.load_zone_geojson(path))
        if bad:
            problems.append(f"{path.name}: {bad[:3]}")
    return problems


@dataclass
class CliJob:
    stages: dict[str, StageRun] = field(default_factory=dict)
    found: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    self_s: dict[str, float] = field(default_factory=dict)
    complete: bool = False

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.stages.values())


def cli_job(ctx: Context, stages: list[str], cwd: Path, facts: dict, out: Outcome,
            traced: bool = False) -> CliJob:
    """Run the stages in order into a fresh out/; stop at the first failure."""
    out_dir = cwd / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    job = CliJob()
    for i, stage in enumerate(stages):
        spans_path = ctx.work / f"spans-{stage}.json" if traced else None
        run = run_stage(ctx, stage, cwd, spans_path)
        job.stages[stage] = run
        problems = [] if run.code == 0 else [f"exit code {run.code}"]
        if not problems:
            try:
                problems = check_stage(stage, out_dir, facts, job.found)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if spans_path is not None and spans_path.exists():
            recorded = json.loads(spans_path.read_text())
            job.spans.append(recorded)
            job.self_s[stage] = run.wall_s - spans.root_seconds(recorded)
        if not out.operation(f"stage {stage}", problems):
            for later in stages[i + 1:]:
                out.operation(f"stage {later}", ["not run: an earlier stage failed"])
            return job
    job.complete = True
    return job


def _repeat_jobs(ctx: Context, run_job) -> list:
    """Closed loop: start another job while it is expected to end in time."""
    jobs, started = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        job = run_job()
        jobs.append(job)
        took = time.perf_counter() - t0
        if not job.complete or time.perf_counter() - started + took > ctx.seconds:
            return jobs


def _same_across(jobs: list, names: list[str], ctx: Context) -> list[str]:
    """Artifacts that must be byte-identical across jobs and earlier runs."""
    problems = []
    for name in names:
        values = {job.found.get(name) for job in jobs}
        if len(values) != 1:
            problems.append(f"{name} differs between jobs of one run")
        problems += ctx.ledger.same(name, jobs[0].found.get(name))
    return problems


def cli_workload(ctx: Context, stages: list[str], digests: list[str]) -> Outcome:
    out = Outcome()
    inputs, facts, setup_times = generate_inputs(ctx, out)
    untraced = lambda: cli_job(ctx, stages, inputs, facts, out)  # noqa: E731
    jobs = [untraced()] if ctx.trace else _repeat_jobs(ctx, untraced)
    out.details["stage_s"] = [{k: r.wall_s for k, r in job.stages.items()} for job in jobs]
    done = [job for job in jobs if job.complete]
    if done:
        counts = [done[0].found[k] for k in ("rows", "nodes", "edges")]
        out.operation("rerun identity", _same_across(done, digests, ctx)
                      + ctx.ledger.same("rows/nodes/edges", counts))
    if not ctx.trace:
        out.metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(job.wall_s for job in jobs),
            "peak_rss_mb": max(r.peak_rss_mb for job in jobs for r in job.stages.values()),
        }
        return out

    traced = cli_job(ctx, stages, inputs, facts, out, traced=True)
    layer = spans.summarize(traced.spans)
    base = jobs[0]
    if traced.complete and base.complete:
        out.operation("traced rerun identity", [
            f"{k} differs when traced" for k in digests if traced.found[k] != base.found[k]])
    for stage in FULL_STAGES:
        run, traced_run = base.stages.get(stage), traced.stages.get(stage)
        layer[f"cli.{stage}.wall_s"] = traced_run.wall_s if traced_run else 0.0
        layer[f"cli.{stage}.self_s"] = traced.self_s.get(stage, 0.0)
        layer[f"cli.{stage}.peak_rss_mb"] = run.peak_rss_mb if run else 0.0
    train = base.stages.get("train")
    layer.update({
        "cli.import_s": import_seconds(ctx),
        "train_windows_per_s": (
            (ctx.size.epochs_main + ctx.size.epochs_finetune) * _train_windows(ctx.size)
            / train.wall_s if train else 0.0),
        "val_l1": base.found.get("val_l1", 0.0),
        "forecast_ms_p50": 0.0, "forecast_ms_tail": 0.0, "forecast_ms_tail_pct": 0.0,
        "forecast_samples": 0.0,
        "trace_overhead_frac": traced.wall_s / base.wall_s - 1.0,
    })
    out.operation("exact counts", count_checks(ctx, layer))
    out.metrics = layer
    return out


EXACT_COUNTS = ["training.tape_steps_per_window", "model.attention_log_mb",
                "autodiff.matmul_sorted.terms_mb", "config.fingerprint.calls", "graph.nodes",
                "graph.edges", "ingest.rows"]


def count_checks(ctx: Context, layer: dict) -> list[str]:
    return ctx.ledger.same("exact counts", [layer[k] for k in EXACT_COUNTS])


def import_seconds(ctx: Context) -> float:
    """Median wall time of a fresh interpreter running `import roadrisk.cli`."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import roadrisk.cli"], env=env, check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def fixture_pipeline(ctx: Context) -> Outcome:
    return cli_workload(ctx, FULL_STAGES, ["processed.bin", "predictions.csv"])


def region_build(ctx: Context) -> Outcome:
    return cli_workload(ctx, BUILD_STAGES, ["processed.bin"])


# -- in-process forecasting and training -------------------------------------

@dataclass
class ForecastState:
    config: object
    graph: object
    tensor: object
    data: object
    target_scaler: object
    model: object
    initial: dict
    processed: str
    elapsed: float


def forecast_setup(inputs: Path, facts: dict, out: Outcome) -> ForecastState:
    """The program work the timed part needs: graph, tensor, windows, model."""
    from roadrisk import config as rconfig, features, graph, ingest, model, training

    started = time.perf_counter()
    cfg = rconfig.RunConfig.load(inputs / "run.json")
    records, rejects = ingest.parse_accident_csv(inputs / cfg.data_csv, cfg.schema or None)
    kept = ingest.filter_region(records, cfg.region)
    g, assignment = graph.build_graph(
        [r.lon for r in kept], [r.lat for r in kept], cfg.graph, center=cfg.region.center)
    tensor = features.build_risk_tensor(
        features.WeightTables.default(), kept, assignment, g.node_ids, cfg.region.period)
    data, _, target_scaler = training.prepare_training_data(
        tensor, g.adjacency_norm, cfg.diffusion, t_in=cfg.model.t_in, t_out=cfg.model.t_out,
        fractions=cfg.split_fractions)
    net = model.RiskForecaster(cfg.model, g.adjacency_norm, seed=cfg.seed)
    elapsed = time.perf_counter() - started

    problems = [f"{len(rejects)} rejected rows"] if rejects else []
    if len(kept) != facts["rows"]:
        problems.append(f"{len(kept)} records kept, {facts['rows']} generated")
    problems += check_graph(g, facts)
    if tensor.values.shape != (facts["weeks"], facts["nodes"], 3):
        problems.append(f"risk tensor shape {tensor.values.shape}")
    processed = hashlib.sha256(np.ascontiguousarray(data.inputs.values).tobytes()).hexdigest()
    out.operation("set-up", problems)
    return ForecastState(cfg, g, tensor, data, target_scaler, net,
                         model.clone_params(net.params), processed, elapsed)


@dataclass
class ForecastJob:
    window_ms: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    digest: str = ""
    complete: bool = False

    @property
    def wall_s(self) -> float:
        return sum(self.window_ms) / 1e3 + sum(self.step_s)


def forecast_job(ctx: Context, st: ForecastState, out: Outcome) -> ForecastJob:
    """Forecast every test window to zone maps, then take taped training steps.

    Each job starts from the seeded parameters and a fresh optimizer, so
    every job does the same arithmetic.
    """
    from roadrisk import autodiff, riskmap, training

    for name, tensor in st.model.params.items():
        tensor.data[:] = st.initial[name].data
    optimizer = training.Adam(st.model.params, st.config.train)
    maps = ctx.work / "maps"
    shutil.rmtree(maps, ignore_errors=True)
    job, digest, data = ForecastJob(), hashlib.sha256(), st.data
    fingerprint = st.config.fingerprint
    for start in data.test_windows():
        problems = []
        try:
            t0 = time.perf_counter()
            x, _ = data.window(start)
            scaled = st.model.predict(x)
            values = st.target_scaler.inverse_channel(scaled, training.TARGET_CHANNEL)
            weeks = st.tensor.weeks[start + data.t_in: start + data.t_in + data.t_out]
            zone_maps = [riskmap.classify_zones(values[:, t], week, st.graph.node_ids)
                         for t, week in enumerate(weeks)]
            paths = riskmap.export_geojson(zone_maps, st.graph.lons, st.graph.lats,
                                           maps / f"window{start}", fingerprint)
            job.window_ms.append(1e3 * (time.perf_counter() - t0))
            if scaled.shape != (st.graph.n_nodes, data.t_out) or not np.isfinite(scaled).all():
                problems.append(f"forecast shape {scaled.shape} or non-finite values")
            problems += check_geojson(paths, data.t_out)
            digest.update(scaled.tobytes())
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        if not out.operation(f"forecast window {start}", problems):
            return job
    starts = data.train_windows()
    for k in range(FORECAST_STEPS):
        batch = starts[k * STEP_WINDOWS: (k + 1) * STEP_WINDOWS]
        problems = []
        try:
            t0 = time.perf_counter()
            optimizer.zero_grad()
            with autodiff.Tape() as tape:
                loss = training.batch_loss(st.model, data, batch, training=True,
                                           rng=np.random.default_rng((ctx.seed, k)))
                value = loss.item()
                tape.backward(loss)
            optimizer.step(st.config.train.lr_main)
            job.step_s.append(time.perf_counter() - t0)
            if not math.isfinite(value):
                problems.append(f"loss {value}")
            digest.update(repr(value).encode())
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        if not out.operation(f"training step {k}", problems):
            return job
    job.digest = digest.hexdigest()
    job.complete = True
    return job


def region_forecast(ctx: Context) -> Outcome:
    out = Outcome()
    inputs, facts, gen_times = generate_inputs(ctx, out)
    program_times, processed = [], set()
    for _ in range(1 if ctx.trace else PROGRAM_SETUPS):
        st = None  # release the previous set-up before building the next
        st = forecast_setup(inputs, facts, out)
        program_times.append(st.elapsed)
        processed.add(st.processed)
    problems = [] if len(processed) == 1 else ["processed tensor differs between set-ups"]
    out.operation("processed tensor identity", problems + ctx.ledger.same("processed", st.processed))
    setup_s = statistics.median(gen_times) + statistics.median(program_times)

    run = lambda: forecast_job(ctx, st, out)  # noqa: E731
    jobs = [run()] if ctx.trace else _repeat_jobs(ctx, run)
    out.details.update(setup_s=program_times, window_ms=[job.window_ms for job in jobs],
                       step_s=[job.step_s for job in jobs])
    done = [job for job in jobs if job.complete]
    if done:
        problems = [] if len({job.digest for job in done}) == 1 else ["forecasts differ"]
        out.operation("rerun identity", problems + ctx.ledger.same("forecasts", done[0].digest))
    if not ctx.trace:
        out.metrics = {
            "setup_s": setup_s,
            "pipeline_s": statistics.median(job.wall_s for job in jobs),
            "peak_rss_mb": peak_self_mb(),
        }
        return out

    base = jobs[0]
    del st
    recorder = spans.Recorder()
    recorder.install()
    try:
        st = forecast_setup(inputs, facts, out)
        traced = forecast_job(ctx, st, out)
    finally:
        recorder.uninstall()
    if traced.complete and base.complete:
        out.operation("traced rerun identity",
                      [] if traced.digest == base.digest else ["forecasts differ when traced"])
    layer = spans.summarize([recorder.spans()])
    for stage in FULL_STAGES:
        for metric in ("wall_s", "peak_rss_mb", "self_s"):
            layer[f"cli.{stage}.{metric}"] = 0.0
    value, pct = tail(base.window_ms) if base.window_ms else (0.0, 0.0)
    layer.update({
        "cli.import_s": import_seconds(ctx),
        "train_windows_per_s": (STEP_WINDOWS / statistics.median(base.step_s)
                                if base.step_s else 0.0),
        "val_l1": 0.0,
        "forecast_ms_p50": statistics.median(base.window_ms) if base.window_ms else 0.0,
        "forecast_ms_tail": value, "forecast_ms_tail_pct": pct,
        "forecast_samples": float(len(base.window_ms)),
        "trace_overhead_frac": traced.wall_s / base.wall_s - 1.0,
    })
    out.operation("exact counts", count_checks(ctx, layer))
    out.metrics = layer
    return out


WORKLOADS = {
    "fixture-pipeline": fixture_pipeline,
    "region-forecast": region_forecast,
    "region-build": region_build,
}
