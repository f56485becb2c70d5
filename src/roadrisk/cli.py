"""Command-line pipeline driver.

Each subcommand reads its declared input artifacts from the run's output
directory, writes its outputs there, and records a manifest, the run's one
provenance record: the config hash, the sha256 of each file it opened and of
each file it wrote. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import ablation, ingest, metrics, riskmap, validation
from .artifacts import artifact_rows, finite, write_json, write_table
from .autodiff import blas_info
from .config import RunConfig, write_manifest
from .diffusion import PRESETS, MinMaxScaler
from .errors import ConfigError, CorruptArtifactError, DataError, MissingArtifactError, NumericError
from .features import (
    RiskTensor,
    WeightTables,
    build_risk_tensor,
    load_tensor,
    save_tensor,
)
from .graph import SpatialGraph, assign_to_nodes, build_graph, load_graph, save_graph
from .model import RiskForecaster, load_checkpoint, save_checkpoint
from .training import TARGET_CHANNEL, TrainingData, prepare_training_data, train

log = logging.getLogger("roadrisk")

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4

# The artifacts each command writes into the run's output directory; `map`
# also writes one maps/risk_week_<week>.geojson per forecast week.
OUTPUTS = {
    "ingest": ["records.csv", "records.npz", "rejects.csv"],
    "graph": ["nodes.csv", "edges.csv"],
    "snr": ["snr.csv"],
    "features": ["risk_tensor.bin", "risk_tensor.json"],
    "diffuse": ["processed.bin", "processed.json"],
    "train": ["params.npz", "history.csv"],
    "eval": ["report.json", "report.csv", "report_baselines.json"],
    "predict": ["predictions.csv"],
    "map": ["zones.csv"],
    "validate-framework": ["validation.json", "validation.csv"],
    "ablate-features": ["ablation_features.csv", "ablation_features.json"],
    "ablate-diffusion": ["ablation_diffusion.csv", "ablation_diffusion.json"],
}
WRITER = {name: command for command, names in OUTPUTS.items() for name in names}
# The run config's input files that each command opens besides the config itself
CONFIG_FILES = {"ingest": ["data_csv"], "features": ["weight_tables"],
                "validate-framework": ["weight_tables"]}


def _out(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create the run config's `out_dir` {out}: {exc}") from exc
    return out


def _artifact(config: RunConfig, name: str) -> Path:
    """The path of artifact `name`, which an earlier command must have written."""
    path = _out(config) / name
    if not path.exists():
        raise MissingArtifactError(path, WRITER[name])
    return path


def _config_file(config: RunConfig, key: str) -> Path:
    """The input file that the run config's `key` names."""
    path = Path(getattr(config, key))
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "not found"
        raise DataError(f"{path} {problem}; it is the run config's `{key}`")
    return path


def _tables(config: RunConfig) -> WeightTables:
    if not config.weight_tables:
        return WeightTables.default()
    path = _config_file(config, "weight_tables")
    try:
        return WeightTables.load(path)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        # not JSON, a missing table or enum key, or a weight that is not positive
        raise ConfigError(
            f"invalid weight tables in {path}, the run config's `weight_tables`: {exc!r}"
        ) from exc


def _load_records(config: RunConfig) -> ingest.RecordTable:
    return ingest.read_records(_artifact(config, "records.npz"), _artifact(config, "records.csv"))


def _load_graph(config: RunConfig):
    return load_graph(_artifact(config, "nodes.csv"), _artifact(config, "edges.csv"))


def _load_risk_tensor(config: RunConfig) -> tuple[RiskTensor, SpatialGraph]:
    """risk_tensor.bin and the graph whose nodes `features` built it on."""
    raw = load_tensor(_artifact(config, "risk_tensor.bin"), _artifact(config, "risk_tensor.json"))
    graph = _load_graph(config)
    if raw.n_nodes != graph.n_nodes:
        path = _out(config) / "risk_tensor.bin"
        problem = f"its {raw.n_nodes} nodes are not the {graph.n_nodes} of nodes.csv"
        raise CorruptArtifactError(path, None, problem, WRITER[path.name])
    return raw, graph


def _load_training_data(config: RunConfig) -> tuple[TrainingData, MinMaxScaler, SpatialGraph]:
    """The model inputs and targets prepared from risk_tensor.bin as the
    ablation arms prepare theirs, the target scaler, and the graph. No
    command reads processed.bin back: `diffuse` writes it to be inspected."""
    raw, graph = _load_risk_tensor(config)
    data, _, scaler = prepare_training_data(
        raw,
        graph.adjacency_norm,
        config.diffusion,
        t_in=config.model.t_in,
        t_out=config.model.t_out,
        fractions=config.split_fractions,
    )
    return data, scaler, graph


def _forecast(config: RunConfig):
    """Forecast the last test window with the trained model.

    Returns the training data, the graph, the target scaler, the window's
    first week, and the scaled forecast and its truth, each (nodes, t_out).
    """
    data, scaler, graph = _load_training_data(config)
    params = load_checkpoint(_artifact(config, "params.npz"), config.model)
    model = RiskForecaster(config.model, graph.adjacency_norm, params=params)
    start = data.last_test_window()
    x, y = data.window(start)
    return data, graph, scaler, start, model.predict(x), y


def cmd_fixture(config: RunConfig) -> dict:
    from .synthetic import FIXTURE_SEED, write_fixture_csv

    path = Path(config.data_csv)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = write_fixture_csv(path, seed=FIXTURE_SEED)
    log.info("wrote %d synthetic rows to %s", rows, path)
    return {}


def cmd_ingest(config: RunConfig) -> dict:
    out = _out(config)
    table, rejects = ingest.parse_accident_csv(
        _config_file(config, "data_csv"), config.schema or None
    )
    kept = table.within(config.region)
    ingest.write_records(kept, out / "records.csv", out / "records.npz")
    ingest.write_rejects(rejects, out / "rejects.csv")
    log.info(
        "parsed %d rows: %d in region %s, %d rejects",
        len(table) + len(rejects), len(kept), config.region.name, len(rejects),
    )
    return {"outputs": OUTPUTS["ingest"]}


def cmd_graph(config: RunConfig) -> dict:
    out = _out(config)
    records = _load_records(config)
    graph, _ = build_graph(records.lon, records.lat, config.graph, center=config.region.center)
    save_graph(graph, out / "nodes.csv", out / "edges.csv")
    counts = graph.edge_counts()
    log.info(
        "graph: %d nodes, %d undirected edges (%d stored), sigma=%.1f m",
        graph.n_nodes, counts["undirected"], counts["directed"], graph.sigma_m,
    )
    # the bandwidth it resolved, which a loaded graph does not know
    return {"outputs": OUTPUTS["graph"], "sigma_m": graph.sigma_m}


def cmd_snr(config: RunConfig) -> dict:
    out = _out(config)
    records = _load_records(config)
    assignment = np.zeros(len(records), dtype=np.intp)  # network totals: one logical node
    rows = []
    for granularity in ingest.Granularity:
        series = ingest.aggregate_temporal(
            records, assignment, granularity, n_nodes=1, period=config.region.period
        )
        rows.append((granularity.value, ingest.snr(series), len(series.index)))
    write_table(
        out / "snr.csv",
        ["granularity", "snr", "periods"],
        ([name, repr(value), periods] for name, value, periods in rows),
    )
    for name, value, periods in rows:
        print(f"{name:>8}: SNR {value:8.3f} over {periods} periods")
    return {"outputs": OUTPUTS["snr"]}


def cmd_features(config: RunConfig) -> dict:
    out = _out(config)
    records = _load_records(config)
    graph = _load_graph(config)
    # each record's node is recomputed; a nodes.csv of other records or cells is stale
    grid = assign_to_nodes(records.lon, records.lat, config.graph.cell_size_m, config.region.center)
    if not all(map(np.array_equal, grid[:3], (graph.lons, graph.lats, graph.member_counts))):
        problem = ("its nodes are not the grid cells of records.npz under the run config's "
                   "graph.cell_size_m and region")
        raise CorruptArtifactError(out / "nodes.csv", None, problem, "graph")
    tensor = build_risk_tensor(
        _tables(config), records, grid.assignment, range(graph.n_nodes), config.region.period
    )
    save_tensor(tensor, out / "risk_tensor.bin", out / "risk_tensor.json")
    log.info("risk tensor: %d weeks x %d nodes x 3", tensor.n_weeks, tensor.n_nodes)
    return {"outputs": OUTPUTS["features"]}


def cmd_diffuse(config: RunConfig) -> dict:
    out = _out(config)
    data, _, _ = _load_training_data(config)
    save_tensor(data.inputs, out / "processed.bin", out / "processed.json")
    log.info("diffused with %s, scaled on train weeks %s", config.diffusion.name, data.splits.train)
    return {"outputs": OUTPUTS["diffuse"]}


def cmd_train(config: RunConfig) -> dict:
    out = _out(config)
    data, _, graph = _load_training_data(config)
    model = RiskForecaster(config.model, graph.adjacency_norm, seed=config.seed)
    result = train(model, data, config.train)
    save_checkpoint(model.params, out / "params.npz")
    write_table(
        out / "history.csv",
        ["epoch", "phase", "lr", "train_loss", "val_loss", "is_best"],
        (
            [row["epoch"], row["phase"], row["lr"], repr(row["train_loss"]),
             repr(row["val_loss"]), int(row["is_best"])]
            for row in result.history
        ),
    )
    log.info(
        "trained %d epochs; best validation L1 %.6f at epoch %d",
        len(result.history), result.best_val_loss, result.best_epoch,
    )
    # the BLAS that every backward ran on
    return {"outputs": OUTPUTS["train"], "blas": blas_info()}


def cmd_eval(config: RunConfig) -> dict:
    out = _out(config)
    data, _, _, start, forecast, y = _forecast(config)
    report = metrics.horizon_report(
        forecast, y, eps=config.mape_eps, config_fingerprint=config.fingerprint
    )
    report.extra["window_start_week"] = data.inputs.weeks[start]
    report.save_json(out / "report.json")
    report.save_csv(out / "report.csv")
    baselines = {
        "persistence": metrics.baseline_persistence(data, start),
        "historical_mean": metrics.baseline_historical_mean(data),
    }
    side = {
        name: metrics.horizon_report(pred, y, eps=config.mape_eps,
                                     config_fingerprint=config.fingerprint).to_dict()
        for name, pred in baselines.items()
    }
    write_json(out / "report_baselines.json", {"config_hash": config.fingerprint, "baselines": side})
    for bucket, vals in report.buckets.items():
        log.info(
            "%s weeks %s: MAE %.4f RMSE %.4f MAPE %s",
            bucket, vals["weeks"], vals["mae"], vals["rmse"],
            "n/a" if vals["mape"] is None else f"{vals['mape']:.2f}%",
        )
    return {"outputs": OUTPUTS["eval"]}


def cmd_predict(config: RunConfig) -> dict:
    out = _out(config)
    data, graph, scaler, start, scaled, _ = _forecast(config)
    values = scaler.inverse_channel(scaled, TARGET_CHANNEL)
    weeks = data.inputs.weeks
    week_labels = weeks[start + data.t_in : start + data.t_in + data.t_out]
    write_table(
        out / "predictions.csv",
        ["node_id", "week", "value_scaled", "value"],
        (
            [i, week, repr(float(scaled[i, t])), repr(float(values[i, t]))]
            for t, week in enumerate(week_labels)
            for i in range(graph.n_nodes)
        ),
    )
    log.info("predicted %d weeks x %d nodes from window at %s",
             len(week_labels), graph.n_nodes, weeks[start])
    return {"outputs": OUTPUTS["predict"]}


def cmd_map(config: RunConfig) -> dict:
    out = _out(config)
    pred_path = _artifact(config, "predictions.csv")
    graph = _load_graph(config)
    n, t_out = graph.n_nodes, config.model.t_out
    weeks: dict[str, int] = {}  # each week's row in `values`, in order of appearance
    values = np.full((t_out, n), np.nan)  # NaN: no forecast read yet
    columns = ["week", "node_id", "value"]
    with artifact_rows(pred_path, columns, WRITER[pred_path.name]) as (
        (i_week, i_node, i_value), rows
    ):
        for row in rows:
            week, node = row[i_week], int(row[i_node])
            if not 0 <= node < n:
                raise ValueError(f"node_id {node} is outside the {n} nodes of nodes.csv")
            t = weeks.setdefault(week, len(weeks))
            if t == t_out:
                raise ValueError(f"more than {t_out} forecast weeks, the model forecasts {t_out}")
            if not np.isnan(values[t, node]):
                raise ValueError(f"a second forecast for node {node} in week {week}")
            values[t, node] = finite(row[i_value])
        # a ValueError here is reported at the table's last line
        if len(weeks) != t_out:
            raise ValueError(f"{len(weeks)} forecast weeks, the model forecasts {t_out}")
        missing = np.argwhere(np.isnan(values))
        if missing.size:
            t, node = missing[0].tolist()
            raise ValueError(f"no forecast for node {node} in week {list(weeks)[t]}")
    zone_maps = [riskmap.classify_zones(values[t], week) for week, t in sorted(weeks.items())]
    maps_dir = out / "maps"
    paths = riskmap.export_geojson(
        zone_maps, graph.lons, graph.lats, maps_dir, config.fingerprint
    )
    for path in paths:
        problems = riskmap.validate_geojson(riskmap.load_zone_geojson(path))
        if problems:
            raise NumericError(f"invalid GeoJSON written to {path}: {problems}")
    for stale in set(maps_dir.glob("risk_week_*.geojson")) - set(paths):  # an earlier run's weeks
        stale.unlink()
    riskmap.write_zone_csv(zone_maps, out / "zones.csv")
    log.info("wrote %d weekly zone maps to %s", len(paths), maps_dir)
    return {"outputs": [f"maps/{p.name}" for p in paths] + OUTPUTS["map"]}


def cmd_ablate(factor: str, config: RunConfig) -> dict:
    """Train one arm per input-channel subset or per diffusion preset."""
    out = _out(config)
    raw, graph = _load_risk_tensor(config)
    if factor == "features":
        arms = {name: (config.diffusion, mask) for name, mask in ablation.FEATURE_ARMS.items()}
    else:
        arms = {name: (preset, (1, 1, 1)) for name, preset in PRESETS.items()}
    # the arms train and evaluate as `train` and `eval` do
    reports = ablation.run_ablation(
        raw, graph, arms, config.model, config.train,
        mape_eps=config.mape_eps, fractions=config.split_fractions, seed=config.seed,
    )
    ablation.write_comparison_csv(reports, out / f"ablation_{factor}.csv")
    write_json(
        out / f"ablation_{factor}.json",
        {"config_hash": config.fingerprint, "arms": {k: r.to_dict() for k, r in reports.items()}},
    )
    return {"outputs": OUTPUTS[f"ablate-{factor}"]}


def cmd_validate_framework(config: RunConfig) -> dict:
    out = _out(config)
    records = _load_records(config)
    report = validation.framework_validation_report(
        records, config.region, _tables(config), config_fingerprint=config.fingerprint
    )
    report.save_json(out / "validation.json")
    report.save_csv(out / "validation.csv")
    log.info(
        "validated over %d grid cells x %d weeks; ICC %s",
        report.grid_cells, report.weeks,
        {k: None if v is None else round(v, 3) for k, v in report.icc.items()},
    )
    return {"outputs": OUTPUTS["validate-framework"]}


# Each handler returns the entries it adds to its manifest: `outputs`, the
# files it wrote, and any record of its own
COMMANDS = {
    "fixture": (cmd_fixture, "write the seeded synthetic accident CSV"),
    "ingest": (cmd_ingest, "parse the accident CSV and filter to the region"),
    "snr": (cmd_snr, "signal-to-noise ratios at daily/weekly/monthly granularity"),
    "graph": (cmd_graph, "build the spatial graph from record locations"),
    "features": (cmd_features, "build the weekly risk tensor"),
    "diffuse": (cmd_diffuse, "spatially diffuse and scale the risk tensor"),
    "train": (cmd_train, "train the forecaster"),
    "eval": (cmd_eval, "evaluate on the final test window"),
    "ablate-features": (
        functools.partial(cmd_ablate, "features"), "train arms over input-channel subsets"
    ),
    "ablate-diffusion": (
        functools.partial(cmd_ablate, "diffusion"), "train arms over diffusion presets"
    ),
    "validate-framework": (cmd_validate_framework, "risk-channel statistics battery"),
    "predict": (cmd_predict, "write per-node weekly predictions"),
    "map": (cmd_map, "classify predictions into zones and export GeoJSON"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadrisk", description="Road-accident risk forecasting pipeline"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run-config JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    started = time.time()
    try:
        config = RunConfig.load(args.config)
        handler, _ = COMMANDS[args.command]
        entries = handler(config)
        if args.command != "fixture":
            inputs = {"config": args.config}
            for key in CONFIG_FILES.get(args.command, []):
                if getattr(config, key):  # a null `weight_tables` is the packaged tables
                    inputs[key] = getattr(config, key)
            outputs = entries.pop("outputs")
            write_manifest(
                _out(config), args.command, config, inputs, outputs, time.time() - started, entries
            )
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    log.info("%s finished in %.1fs", args.command, time.time() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
