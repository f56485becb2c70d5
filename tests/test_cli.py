import json
import shutil
import struct
from pathlib import Path

import pytest

from roadrisk import cli
from roadrisk import model as md
from roadrisk.riskmap import load_zone_geojson, validate_geojson


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, fixture_csv):
    """Run every subcommand once on the fixture with a small training config."""
    root = tmp_path_factory.mktemp("cli_run")
    out_dir = root / "out"
    config = {
        "data_csv": str(fixture_csv),
        "out_dir": str(out_dir),
        "region": {
            "name": "fixture-grid",
            "bbox": [-0.1578, 51.4874, -0.0978, 51.5274],
            "period": ["2011-01-03", "2013-12-29"],
        },
        "graph": {"cell_size_m": 150.0, "k": 4, "sigma_m": None},
        "diffusion": {"preset": "Differentiated_B"},
        "model": {"d": 8, "heads": 2, "layers": 1, "t_in": 12, "t_out": 12,
                  "conv_kernel": 3, "dropout": 0.0, "spatial_attention": True},
        "train": {"epochs_main": 2, "epochs_finetune": 1, "lr_main": 0.001,
                  "lr_finetune": None, "beta1": 0.9, "beta2": 0.999,
                  "eps": 1e-8, "seed": 0, "batch": 32},
        "seed": 0,
    }
    config_path = root / "run.json"
    config_path.write_text(json.dumps(config))
    for command in ("ingest", "graph", "snr", "features", "diffuse", "train",
                    "eval", "predict", "map", "validate-framework"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    return config_path, out_dir


def test_artifacts_exist(pipeline):
    _, out = pipeline
    for name in (
        "records.csv", "rejects.csv", "nodes.csv", "edges.csv", "assignment.csv",
        "snr.csv", "risk_tensor.bin", "risk_tensor.json", "processed.bin",
        "processed.json", "params.json", "params.bin", "history.csv",
        "report.json", "report.csv", "report_baselines.json",
        "predictions.csv", "zones.csv", "validation.json", "validation.csv",
    ):
        assert (out / name).exists(), name


def test_map_emits_twelve_valid_weekly_files(pipeline):
    _, out = pipeline
    maps = sorted((out / "maps").glob("risk_week_*.geojson"))
    assert len(maps) == 12
    for path in maps:
        assert validate_geojson(load_zone_geojson(path)) == []


def test_manifests_carry_config_hash(pipeline):
    config_path, out = pipeline
    manifests = sorted(out.glob("manifest_*.json"))
    assert len(manifests) >= 10
    hashes = {json.loads(p.read_text())["config_hash"] for p in manifests}
    assert len(hashes) == 1


def test_outputs_embed_config_hash(pipeline):
    _, out = pipeline
    report = json.loads((out / "report.json").read_text())
    manifest_hash = json.loads((out / "manifest_eval.json").read_text())["config_hash"]
    assert report["config_fingerprint"] == manifest_hash
    first_map = sorted((out / "maps").glob("*.geojson"))[0]
    assert load_zone_geojson(first_map)["config_hash"] == manifest_hash
    assert json.loads((out / "params.json").read_text())["config_hash"] == manifest_hash
    for name in ("records.csv", "nodes.csv", "edges.csv", "assignment.csv",
                 "history.csv", "snr.csv", "predictions.csv", "zones.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].split(",")[-1] == "config_hash", name
        assert lines[1].split(",")[-1] == manifest_hash, name


def test_rerun_is_idempotent(pipeline):
    config_path, out = pipeline
    tracked = ["risk_tensor.bin", "processed.bin", "predictions.csv", "zones.csv"]
    before = {name: (out / name).read_bytes() for name in tracked}
    maps_before = {p.name: p.read_bytes() for p in (out / "maps").glob("*.geojson")}
    for command in ("features", "diffuse", "predict", "map"):
        assert cli.main([command, "--config", str(config_path)]) == 0
    for name in tracked:
        assert (out / name).read_bytes() == before[name], name
    for p in (out / "maps").glob("*.geojson"):
        assert p.read_bytes() == maps_before[p.name], p.name


def test_history_records_both_phases(pipeline):
    _, out = pipeline
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,phase")
    phases = {line.split(",")[1] for line in lines[1:]}
    assert phases == {"main", "finetune"}


def test_missing_artifact_exit_code(tmp_path, fixture_csv, caplog):
    config = {
        "data_csv": str(fixture_csv),
        "out_dir": str(tmp_path / "fresh"),
        "region": {
            "name": "fixture-grid",
            "bbox": [-0.1578, 51.4874, -0.0978, 51.5274],
            "period": ["2011-01-03", "2013-12-29"],
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_DATA
    assert "risk_tensor.bin not found; run `features` first" in caplog.text


def test_every_artifact_has_a_writer(pipeline):
    _, out = pipeline
    written = {p.name for p in out.iterdir() if p.is_file() and not p.name.startswith("manifest_")}
    assert written <= set(cli.WRITER)
    for manifest in out.glob("manifest_*.json"):
        for name in json.loads(manifest.read_text())["outputs"]:
            assert (out / name).exists(), (manifest.name, name)


def copy_run(pipeline, tmp_path):
    """A private copy of the pipeline's outputs, with its own run config."""
    config_path, out = pipeline
    config = json.loads(config_path.read_text())
    config["out_dir"] = str(tmp_path / "out")
    shutil.copytree(out, config["out_dir"])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path, Path(config["out_dir"])


def test_truncated_checkpoint_exit_code(pipeline, tmp_path):
    config_path, out = copy_run(pipeline, tmp_path)
    blob = out / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-12])
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA


def test_checkpoint_for_another_width_exit_code(pipeline, tmp_path):
    config_path, out = copy_run(pipeline, tmp_path)
    model_config = json.loads(config_path.read_text())["model"]
    wide = md.ModelConfig(**{**model_config, "d": 16})
    md.save_checkpoint(md.init_params(wide), out / "params.json", out / "params.bin")
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA


def test_truncated_tensor_header_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    tensor = out / "processed.bin"
    tensor.write_bytes(tensor.read_bytes()[:7])
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(tensor) in caplog.text and "run `diffuse` again" in caplog.text


def test_short_tensor_payload_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    tensor = out / "processed.bin"
    tensor.write_bytes(tensor.read_bytes()[:-8])
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(tensor) in caplog.text and "run `diffuse` again" in caplog.text


def test_non_finite_tensor_value_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    tensor = out / "processed.bin"
    blob = bytearray(tensor.read_bytes())
    blob[12:20] = struct.pack("<d", float("nan"))  # the first value after the header
    tensor.write_bytes(bytes(blob))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(tensor) in caplog.text and "run `diffuse` again" in caplog.text


def test_tensor_sidecar_not_json_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    (out / "risk_tensor.json").write_text("{not json")
    assert cli.main(["diffuse", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(out / "risk_tensor.json") in caplog.text and "run `features` again" in caplog.text


def test_checkpoint_manifest_not_json_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    (out / "params.json").write_text("{not json")
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(out / "params.json") in caplog.text and "run `train` again" in caplog.text


@pytest.mark.parametrize(
    "name, command, edit",
    [
        ("params.json", "eval", lambda meta: {}),
        ("params.json", "eval", lambda meta: {"dtype": "<f8"}),
        ("params.json", "eval", lambda meta: {**meta, "dtype": "bogus"}),
        ("params.json", "eval", lambda meta: [meta]),
        ("risk_tensor.json", "diffuse", lambda meta: {}),
        ("risk_tensor.json", "diffuse", lambda meta: {**meta, "weeks": meta["weeks"][:-1]}),
        ("risk_tensor.json", "diffuse",
         lambda meta: {**meta, "node_ids": ["2.5"] + meta["node_ids"][1:]}),
    ],
    ids=["empty manifest", "no parameters", "bogus dtype", "not an object", "empty sidecar",
         "week count", "non-integer node"],
)
def test_malformed_manifest_or_sidecar_exit_code(pipeline, tmp_path, caplog, name, command, edit):
    config_path, out = copy_run(pipeline, tmp_path)
    path = out / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA
    stage = "train" if name == "params.json" else "features"
    assert str(path) in caplog.text and f"run `{stage}` again" in caplog.text


def test_bogus_enum_in_records_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    records = out / "records.csv"
    lines = records.read_text().splitlines()
    cells = lines[5].split(",")
    cells[6] = "bogus"  # road_type
    lines[5] = ",".join(cells)
    records.write_text("\n".join(lines) + "\n")
    assert cli.main(["snr", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{records} line 6:" in caplog.text and "'bogus' is not a valid RoadType" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_truncated_records_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    records = out / "records.csv"
    text = records.read_text()
    records.write_text(text[: text.index("\n", len(text) // 2) + 30])  # 30 bytes into a row
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(records) in caplog.text and "row has fewer cells than its header" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_non_integer_node_in_assignment_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    assignment = out / "assignment.csv"
    lines = assignment.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "2.5"  # node_id
    lines[3] = ",".join(cells)
    assignment.write_text("\n".join(lines) + "\n")
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{assignment} line 4:" in caplog.text and "'2.5'" in caplog.text
    assert "run `graph` again" in caplog.text


@pytest.mark.parametrize(
    "case", ["truncated row", "missing row", "missing week", "non-integer node"]
)
def test_corrupt_predictions_exit_code(pipeline, tmp_path, caplog, case):
    config_path, out = copy_run(pipeline, tmp_path)
    predictions = out / "predictions.csv"
    lines = predictions.read_text().splitlines()
    if case == "truncated row":
        lines[4] = ",".join(lines[4].split(",")[:2])
        where, problem = "line 5:", "row has fewer cells than its header"
    elif case == "missing row":
        node = lines.pop(30).split(",")[0]
        where, problem = f"line {len(lines)}:", f"no forecast for node {node} in week"
    elif case == "missing week":
        del lines[-30:]
        where, problem = f"line {len(lines)}:", "11 forecast weeks, the model forecasts 12"
    else:
        cells = lines[3].split(",")
        cells[0] = "2.5"  # node_id
        lines[3] = ",".join(cells)
        where, problem = "line 4:", "'2.5'"
    predictions.write_text("\n".join(lines) + "\n")
    assert cli.main(["map", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{predictions} {where}" in caplog.text and problem in caplog.text
    assert "run `predict` again" in caplog.text


@pytest.mark.parametrize(
    "key, value",
    [("target_scaler", None), ("split_fractions", None),
     ("target_scaler", {"minima": "low", "maxima": [1.0, 1.0, 1.0]}),
     ("split_fractions", [0.6, 0.4])],
)
def test_processed_sidecar_without_scaler_or_splits_exit_code(
    pipeline, tmp_path, caplog, key, value
):
    config_path, out = copy_run(pipeline, tmp_path)
    sidecar = out / "processed.json"
    meta = json.loads(sidecar.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    sidecar.write_text(json.dumps(meta))
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(sidecar) in caplog.text and "run `diffuse` again" in caplog.text


def test_unknown_config_key_exit_code(pipeline, tmp_path, caplog):
    config_path, _ = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["diffusion"]["alphas"] = [0.1, 0.1, 0.1]
    config_path.write_text(json.dumps(config))
    assert cli.main(["diffuse", "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert "unknown key 'alphas' in config section 'diffusion'" in caplog.text


def test_negative_cell_size_exit_code(pipeline, tmp_path, caplog):
    config_path, _ = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["graph"]["cell_size_m"] = -150.0  # used to build a graph without a word
    config_path.write_text(json.dumps(config))
    assert cli.main(["graph", "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert "graph cell_size_m must be positive" in caplog.text


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"data_csv\": \"x\"}")
    assert cli.main(["ingest", "--config", str(path)]) == cli.EXIT_CONFIG


def test_snr_table_contents(pipeline):
    _, out = pipeline
    lines = (out / "snr.csv").read_text().splitlines()
    assert lines[0] == "granularity,snr,periods,config_hash"
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert set(rows) == {"daily", "weekly", "monthly"}
    assert rows["weekly"] > rows["daily"]


def test_predictions_inverse_transform(pipeline):
    _, out = pipeline
    lines = (out / "predictions.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["node_id", "week", "value_scaled", "value", "config_hash"]
    assert len(lines) == 1 + 12 * 30


def test_ablation_commands(pipeline):
    config_path, out = pipeline
    assert cli.main(["ablate-features", "--config", str(config_path)]) == 0
    lines = (out / "ablation_features.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"SIE", "SE", "SI", "S"}

    assert cli.main(["ablate-diffusion", "--config", str(config_path)]) == 0
    lines = (out / "ablation_diffusion.csv").read_text().splitlines()
    assert len(lines) == 9  # header + the eight named presets
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {
        "No_Diffusion", "Uniform_Weak", "Uniform_Medium", "Uniform_Strong",
        "Differentiated_Current", "Differentiated_A", "Differentiated_B",
        "Over_Diffusion",
    }
    arms = json.loads((out / "ablation_diffusion.json").read_text())["arms"]
    fingerprints = {arm["config_fingerprint"] for arm in arms.values()}
    assert len(fingerprints) == 8  # every arm is a distinct configuration
