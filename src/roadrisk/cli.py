"""Command-line pipeline driver.

Each subcommand reads its declared input artifacts from the run's output
directory, writes its outputs there, and records a manifest with the config
hash and input digests. Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric failure.
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
from .artifacts import artifact_rows, reading, write_json, write_table
from .config import RunConfig, write_manifest
from .diffusion import MinMaxScaler
from .errors import ConfigError, DataError, MissingArtifactError, NumericError
from .features import (
    RiskTensor,
    WeightTables,
    build_risk_tensor,
    load_tensor,
    save_tensor,
)
from .graph import build_graph, load_graph, save_graph
from .model import RiskForecaster, init_params, load_checkpoint, save_checkpoint
from .training import (
    TARGET_CHANNEL,
    TrainingData,
    prepare_training_data,
    split_temporal,
    train,
)

log = logging.getLogger("roadrisk")

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4

# The artifacts each command writes into the run's output directory; `map`
# also writes one maps/risk_week_<week>.geojson per forecast week.
OUTPUTS = {
    "ingest": ["records.csv", "rejects.csv"],
    "graph": ["nodes.csv", "edges.csv", "assignment.csv"],
    "snr": ["snr.csv"],
    "features": ["risk_tensor.bin", "risk_tensor.json"],
    "diffuse": ["processed.bin", "processed.json"],
    "train": ["params.json", "params.bin", "history.csv"],
    "eval": ["report.json", "report.csv", "report_baselines.json"],
    "predict": ["predictions.csv"],
    "map": ["zones.csv"],
    "validate-framework": ["validation.json", "validation.csv"],
    "ablate-features": ["ablation_features.csv", "ablation_features.json"],
    "ablate-diffusion": ["ablation_diffusion.csv", "ablation_diffusion.json"],
}
WRITER = {name: command for command, names in OUTPUTS.items() for name in names}


def _out(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    if not path.exists():
        raise DataError(f"{path} not found; it is the run config's `{key}`")
    return path


def _tables(config: RunConfig) -> WeightTables:
    if config.weight_tables:
        return WeightTables.load(_config_file(config, "weight_tables"))
    return WeightTables.default()


def _load_records(config: RunConfig) -> list:
    return ingest.read_records(_artifact(config, "records.csv"))


def _load_graph(config: RunConfig):
    return load_graph(_artifact(config, "nodes.csv"), _artifact(config, "edges.csv"), config.graph)


def _load_assignment(config: RunConfig) -> np.ndarray:
    path = _artifact(config, "assignment.csv")
    with artifact_rows(path, ["node_id"], WRITER[path.name]) as ((i_node,), rows):
        return np.array([int(row[i_node]) for row in rows])


def _load_tensor(config: RunConfig, stem: str) -> RiskTensor:
    """The tensor saved as `<stem>.bin` plus its `<stem>.json` sidecar."""
    bin_path, meta_path = _artifact(config, f"{stem}.bin"), _artifact(config, f"{stem}.json")
    return load_tensor(bin_path, meta_path, stage=WRITER[bin_path.name])


def _load_training_data(config: RunConfig) -> tuple[TrainingData, MinMaxScaler]:
    raw = _load_tensor(config, "risk_tensor")
    inputs = _load_tensor(config, "processed")
    with reading(_out(config) / "processed.json", WRITER["processed.json"]):
        target_scaler = MinMaxScaler.from_dict(inputs.meta["target_scaler"])
        fractions = tuple(float(f) for f in inputs.meta["split_fractions"])
        shapes = {target_scaler.minima.shape, target_scaler.maxima.shape}
        if shapes != {(raw.values.shape[2],)} or len(fractions) != 3:
            raise ValueError(f"scaler shapes {sorted(shapes)}, {len(fractions)} split fractions")
    splits = split_temporal(raw.n_weeks, config.model.t_in, config.model.t_out, fractions)
    targets = target_scaler.transform(raw.values)[:, :, TARGET_CHANNEL]
    data = TrainingData(inputs, targets, config.model.t_in, config.model.t_out, splits)
    return data, target_scaler


def _load_model(config: RunConfig, graph) -> RiskForecaster:
    params = load_checkpoint(_artifact(config, "params.json"), _artifact(config, "params.bin"))
    expected = {name: t.shape for name, t in init_params(config.model).items()}
    found = {name: t.shape for name, t in params.items()}
    for name in sorted(expected.keys() | found.keys()):
        if expected.get(name) != found.get(name):
            raise DataError(
                f"checkpoint parameter {name!r} has shape {found.get(name, 'missing')} "
                f"but the model config needs {expected.get(name, 'none')}; "
                "run `train` again"
            )
    return RiskForecaster(config.model, graph.adjacency_norm, params=params)


def _forecast(config: RunConfig):
    """Forecast the last test window with the trained model.

    Returns the training data, the graph, the target scaler, the window's
    first week, and the scaled forecast and its truth, each (nodes, t_out).
    """
    data, target_scaler = _load_training_data(config)
    graph = _load_graph(config)
    model = _load_model(config, graph)
    start = data.last_test_window()
    x, y = data.window(start)
    return data, graph, target_scaler, start, model.predict(x), y


def cmd_fixture(config: RunConfig) -> list[str]:
    from .synthetic import FIXTURE_SEED, write_fixture_csv

    path = Path(config.data_csv)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = write_fixture_csv(path, seed=FIXTURE_SEED)
    log.info("wrote %d synthetic rows to %s", rows, path)
    return []


def cmd_ingest(config: RunConfig) -> list[str]:
    out = _out(config)
    records, rejects = ingest.parse_accident_csv(
        _config_file(config, "data_csv"), config.schema or None
    )
    kept = ingest.filter_region(records, config.region)
    ingest.write_records(kept, out / "records.csv", config.fingerprint)
    ingest.write_rejects(rejects, out / "rejects.csv", config.fingerprint)
    log.info(
        "parsed %d rows: %d in region %s, %d rejects",
        len(records) + len(rejects), len(kept), config.region.name, len(rejects),
    )
    return OUTPUTS["ingest"]


def cmd_graph(config: RunConfig) -> list[str]:
    out = _out(config)
    records = _load_records(config)
    graph, assignment = build_graph(
        [r.lon for r in records],
        [r.lat for r in records],
        config.graph,
        center=config.region.center,
    )
    fingerprint = config.fingerprint
    save_graph(graph, out / "nodes.csv", out / "edges.csv", fingerprint)
    write_table(
        out / "assignment.csv",
        ["accident_id", "node_id"],
        ([record.id, node] for record, node in zip(records, assignment.tolist())),
        fingerprint,
    )
    counts = graph.edge_counts()
    log.info(
        "graph: %d nodes, %d undirected edges (%d stored), sigma=%.1f m",
        graph.n_nodes, counts["undirected"], counts["directed"], graph.params.sigma_m,
    )
    return OUTPUTS["graph"]


def cmd_snr(config: RunConfig) -> list[str]:
    out = _out(config)
    records = _load_records(config)
    assignment = [0] * len(records)  # network totals: one logical node
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
        config.fingerprint,
    )
    for name, value, periods in rows:
        print(f"{name:>8}: SNR {value:8.3f} over {periods} periods")
    return OUTPUTS["snr"]


def cmd_features(config: RunConfig) -> list[str]:
    out = _out(config)
    records = _load_records(config)
    graph = _load_graph(config)
    assignment = _load_assignment(config)
    tensor = build_risk_tensor(
        _tables(config), records, assignment, graph.node_ids, config.region.period
    )
    tensor.meta["config_hash"] = config.fingerprint
    save_tensor(tensor, out / "risk_tensor.bin", out / "risk_tensor.json")
    log.info("risk tensor: %d weeks x %d nodes x 3", tensor.n_weeks, tensor.n_nodes)
    return OUTPUTS["features"]


def cmd_diffuse(config: RunConfig) -> list[str]:
    out = _out(config)
    raw = _load_tensor(config, "risk_tensor")
    graph = _load_graph(config)
    data, input_scaler, target_scaler = prepare_training_data(
        raw,
        graph.adjacency_norm,
        config.diffusion,
        t_in=config.model.t_in,
        t_out=config.model.t_out,
        fractions=config.split_fractions,
    )
    inputs = data.inputs
    inputs.meta.update(
        {
            "config_hash": config.fingerprint,
            "input_scaler": input_scaler.to_dict(),
            "target_scaler": target_scaler.to_dict(),
            "split_fractions": list(config.split_fractions),
        }
    )
    save_tensor(inputs, out / "processed.bin", out / "processed.json")
    log.info("diffused with %s, scaled on train weeks %s", config.diffusion.name, data.splits.train)
    return OUTPUTS["diffuse"]


def cmd_train(config: RunConfig) -> list[str]:
    out = _out(config)
    data, _ = _load_training_data(config)
    graph = _load_graph(config)
    model = RiskForecaster(config.model, graph.adjacency_norm, seed=config.seed)
    result = train(model, data, config.train)
    fingerprint = config.fingerprint
    save_checkpoint(
        model.params, out / "params.json", out / "params.bin",
        extra={"config_hash": fingerprint},
    )
    write_table(
        out / "history.csv",
        ["epoch", "phase", "lr", "train_loss", "val_loss", "is_best"],
        (
            [row["epoch"], row["phase"], row["lr"], repr(row["train_loss"]),
             repr(row["val_loss"]), int(row["is_best"])]
            for row in result.history
        ),
        fingerprint,
    )
    log.info(
        "trained %d epochs; best validation L1 %.6f at epoch %d",
        len(result.history), result.best_val_loss, result.best_epoch,
    )
    return OUTPUTS["train"]


def cmd_eval(config: RunConfig) -> list[str]:
    out = _out(config)
    started = time.time()
    data, _, _, start, forecast, y = _forecast(config)
    report = metrics.horizon_report(
        forecast, y, eps=config.mape_eps,
        config_fingerprint=config.fingerprint, runtime_s=time.time() - started,
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
    return OUTPUTS["eval"]


def cmd_predict(config: RunConfig) -> list[str]:
    out = _out(config)
    data, graph, target_scaler, start, scaled, _ = _forecast(config)
    values = target_scaler.inverse_channel(scaled, TARGET_CHANNEL)
    weeks = data.inputs.weeks
    week_labels = weeks[start + data.t_in : start + data.t_in + data.t_out]
    write_table(
        out / "predictions.csv",
        ["node_id", "week", "value_scaled", "value"],
        (
            [node_id, week, repr(float(scaled[i, t])), repr(float(values[i, t]))]
            for t, week in enumerate(week_labels)
            for i, node_id in enumerate(graph.node_ids)
        ),
        config.fingerprint,
    )
    log.info("predicted %d weeks x %d nodes from window at %s",
             len(week_labels), graph.n_nodes, weeks[start])
    return OUTPUTS["predict"]


def cmd_map(config: RunConfig) -> list[str]:
    out = _out(config)
    pred_path = _artifact(config, "predictions.csv")
    graph = _load_graph(config)
    by_week: dict[str, dict[int, float]] = {}
    columns = ["week", "node_id", "value"]
    with artifact_rows(pred_path, columns, WRITER[pred_path.name]) as (
        (i_week, i_node, i_value), rows
    ):
        for row in rows:
            by_week.setdefault(row[i_week], {})[int(row[i_node])] = float(row[i_value])
        # a ValueError here is reported at the table's last line
        if len(by_week) != config.model.t_out:
            raise ValueError(f"{len(by_week)} forecast weeks, the model forecasts {config.model.t_out}")
        for week, values in by_week.items():
            missing = [node for node in graph.node_ids if node not in values]
            if missing:
                raise ValueError(f"no forecast for node {missing[0]} in week {week}")
    zone_maps = []
    for week in sorted(by_week):
        values = np.array([by_week[week][node] for node in graph.node_ids])
        zone_maps.append(riskmap.classify_zones(values, week, graph.node_ids))
    maps_dir = out / "maps"
    paths = riskmap.export_geojson(
        zone_maps, graph.lons, graph.lats, maps_dir, config.fingerprint
    )
    for path in paths:
        problems = riskmap.validate_geojson(riskmap.load_zone_geojson(path))
        if problems:
            raise NumericError(f"invalid GeoJSON written to {path}: {problems}")
    riskmap.write_zone_csv(zone_maps, out / "zones.csv", config.fingerprint)
    log.info("wrote %d weekly zone maps to %s", len(paths), maps_dir)
    return [f"maps/{p.name}" for p in paths] + OUTPUTS["map"]


def cmd_ablate(factor: str, config: RunConfig) -> list[str]:
    """Train one arm per input-channel subset or per diffusion preset."""
    out = _out(config)
    raw, graph = _load_tensor(config, "risk_tensor"), _load_graph(config)
    if factor == "features":
        reports = ablation.run_feature_ablation(
            raw, graph, config.diffusion, config.model, config.train, mape_eps=config.mape_eps
        )
    else:
        reports = ablation.run_diffusion_ablation(
            raw, graph, config.model, config.train, mape_eps=config.mape_eps
        )
    ablation.write_comparison_csv(reports, out / f"ablation_{factor}.csv")
    write_json(
        out / f"ablation_{factor}.json",
        {"config_hash": config.fingerprint, "arms": {k: r.to_dict() for k, r in reports.items()}},
    )
    return OUTPUTS[f"ablate-{factor}"]


def cmd_validate_framework(config: RunConfig) -> list[str]:
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
    return OUTPUTS["validate-framework"]


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
        outputs = handler(config)
        if args.command != "fixture":
            inputs = {"config": args.config}
            if Path(config.data_csv).exists():
                inputs["data_csv"] = config.data_csv
            write_manifest(
                _out(config), args.command, config, inputs, outputs, time.time() - started
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
