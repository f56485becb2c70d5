import json
import math
import os
import re
import shutil
import subprocess
import sys
import zipfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from roadrisk import ablation, cli, ingest
from roadrisk import model as md
from roadrisk.artifacts import file_sha256, write_json
from roadrisk.config import RunConfig
from roadrisk.graph import build_graph
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
    commands = ("ingest", "graph", "snr", "features", "diffuse", "train",
                "eval", "predict", "map", "validate-framework")
    for command in commands:
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    # every file a command leaves is in its cli.OUTPUTS entry
    expected = {name for command in commands for name in cli.OUTPUTS[command]}
    expected |= {f"manifest_{command.replace('-', '_')}.json" for command in commands}
    assert {p.name for p in out_dir.iterdir()} == expected | {"maps"}
    return config_path, out_dir


def test_artifacts_exist(pipeline):
    _, out = pipeline
    for name in (
        "records.csv", "records.npz", "rejects.csv", "nodes.csv", "edges.csv",
        "snr.csv", "risk_tensor.bin", "risk_tensor.json", "processed.bin",
        "processed.json", "params.npz", "history.csv",
        "report.json", "report.csv", "report_baselines.json",
        "predictions.csv", "zones.csv", "validation.json", "validation.csv",
    ):
        assert (out / name).exists(), name


def test_readme_artifact_table_is_cli_outputs():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | artifacts |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, artifacts = re.findall(r"\| (.*?) (?=\|)", line)
        table[command.strip("`")] = re.findall(r"`([^`]+)`", artifacts)
    want = {command: list(names) for command, names in cli.OUTPUTS.items()}
    want["map"].append("maps/risk_week_<week>.geojson")
    assert list(table.items()) == list(want.items())


def test_map_emits_twelve_valid_weekly_files(pipeline):
    _, out = pipeline
    maps = sorted((out / "maps").glob("risk_week_*.geojson"))
    assert len(maps) == 12
    for path in maps:
        assert validate_geojson(load_zone_geojson(path)) == []


def test_map_leaves_only_the_weeks_it_wrote(pipeline, tmp_path):
    # a map of a week this run does not forecast, as an earlier run's period leaves
    config_path, out = copy_run(pipeline, tmp_path)
    stale = out / "maps" / "risk_week_2013-W20.geojson"
    shutil.copyfile(sorted((out / "maps").glob("*.geojson"))[0], stale)
    assert cli.main(["map", "--config", str(config_path)]) == 0
    listed = json.loads((out / "manifest_map.json").read_text())["outputs"]
    maps = {f"maps/{p.name}" for p in (out / "maps").iterdir()}
    assert len(maps) == 12 and maps == set(listed) - {"zones.csv"}


def test_manifests_carry_config_hash(pipeline):
    config_path, out = pipeline
    manifests = sorted(out.glob("manifest_*.json"))
    assert len(manifests) >= 10
    hashes = {json.loads(p.read_text())["config_hash"] for p in manifests}
    assert len(hashes) == 1


def test_train_manifest_records_the_blas(pipeline):
    config_path, out = pipeline
    manifest = json.loads((out / "manifest_train.json").read_text())
    assert set(manifest["blas"]) == {"library", "version", "backward_threads"}
    assert manifest["blas"]["backward_threads"] in (1, None)
    assert all("blas" not in json.loads(p.read_text())
               for p in out.glob("manifest_*.json") if p.name != "manifest_train.json")
    # a rerun writes the same manifest apart from its runtime
    assert cli.main(["train", "--config", str(config_path)]) == 0
    again = json.loads((out / "manifest_train.json").read_text())
    assert {**again, "runtime_s": None} == {**manifest, "runtime_s": None}


OPENED = {"ingest": ["data_csv"], "features": ["weight_tables"],
          "validate-framework": ["weight_tables"]}


def test_manifests_bind_every_output_by_sha256(pipeline, tmp_path):
    # a rerun with weight tables configured: the packaged ones, so every output is the same
    config_path, out = copy_run(pipeline, tmp_path)
    tables = tmp_path / "tables.json"
    tables.write_text(_packaged_tables(lambda raw: None))
    config = json.loads(config_path.read_text())
    config["weight_tables"] = str(tables)
    config_path.write_text(json.dumps(config))
    commands = ("ingest", "graph", "snr", "features", "diffuse", "train",
                "eval", "predict", "map", "validate-framework")
    for command in commands:
        assert cli.main([command, "--config", str(config_path)]) == 0, command
        manifest = json.loads((out / f"manifest_{command.replace('-', '_')}.json").read_text())
        names = list(cli.OUTPUTS[command])
        if command == "map":
            names += [f"maps/{p.name}" for p in (out / "maps").iterdir()]
        assert manifest["outputs"] == {name: file_sha256(out / name) for name in names}, command
        if command not in ("eval", "map", "validate-framework"):  # whose documents carry the hash
            # another config hash, the same weights: the same bytes as the pipeline's
            first = json.loads((pipeline[1] / f"manifest_{command}.json").read_text())
            assert manifest["outputs"] == first["outputs"], command
        # the files the command opened: only `ingest` reads the accident CSV
        opened = {"config": config_path, **{key: config[key] for key in OPENED.get(command, [])}}
        assert manifest["inputs"] == {key: file_sha256(path) for key, path in opened.items()}
    # the manifests hold the run hash; the tables and the checkpoint do not
    for name in ("records.csv", "rejects.csv", "nodes.csv", "edges.csv", "snr.csv",
                 "history.csv", "predictions.csv", "zones.csv"):
        header = (out / name).read_text().splitlines()[0].split(",")
        assert "config_hash" not in header, name
    with np.load(out / "params.npz") as checkpoint:
        parameters = md.init_params(md.ModelConfig(**config["model"]))
        assert sorted(checkpoint.files) == sorted(parameters)


def test_graph_manifest_records_the_bandwidth(pipeline):
    # the fixture config leaves sigma_m null: `graph` resolves it from the data
    config_path, out = pipeline
    config = RunConfig.load(config_path)
    assert config.graph.sigma_m is None
    records = ingest.read_records(out / "records.npz", out / "records.csv")
    built, _ = build_graph(records.lon, records.lat, config.graph, center=config.region.center)
    manifest = json.loads((out / "manifest_graph.json").read_text())
    assert manifest["sigma_m"] == built.sigma_m > 0


def test_outputs_embed_config_hash(pipeline):
    # the documents meant to leave the run directory carry the manifests' hash
    _, out = pipeline
    manifest_hash = json.loads((out / "manifest_eval.json").read_text())["config_hash"]
    for name, key in (("report.json", "config_fingerprint"), ("report_baselines.json", "config_hash"),
                      ("validation.json", "config_fingerprint")):
        assert json.loads((out / name).read_text())[key] == manifest_hash, name
    maps = sorted((out / "maps").glob("*.geojson"))
    assert maps and all(load_zone_geojson(p)["config_hash"] == manifest_hash for p in maps)
    # and so do the report tables, in their `config_fingerprint` field
    for name in ("report.csv", "validation.csv"):
        assert manifest_hash in (out / name).read_text(), name


def test_json_artifacts_keep_the_write_json_layout(pipeline, tmp_path):
    # the maps are formatted by hand in this layout; any drift shows here
    _, out = pipeline
    paths = sorted(out.glob("*.json")) + sorted((out / "maps").glob("*.geojson"))
    assert len(paths) > 12
    for path in paths:
        again = tmp_path / path.name
        with open(path) as fh:
            write_json(again, json.load(fh))
        assert again.read_bytes() == path.read_bytes(), path.name


def test_rerun_is_idempotent(pipeline):
    config_path, out = pipeline
    tracked = ["risk_tensor.bin", "processed.bin", "report.json", "predictions.csv", "zones.csv"]
    before = {name: (out / name).read_bytes() for name in tracked}
    maps_before = {p.name: p.read_bytes() for p in (out / "maps").glob("*.geojson")}
    for command in ("features", "diffuse", "eval", "predict", "map"):
        assert cli.main([command, "--config", str(config_path)]) == 0
    for name in tracked:
        assert (out / name).read_bytes() == before[name], name
    for p in (out / "maps").glob("*.geojson"):
        assert p.read_bytes() == maps_before[p.name], p.name


def test_binary_outputs_are_column_archives(pipeline):
    # one binary format: every binary artifact is a `write_columns` archive
    _, out = pipeline
    binary = sorted(
        name for names in cli.OUTPUTS.values() for name in names
        if Path(name).suffix not in (".csv", ".json")
    )
    assert binary == ["params.npz", "processed.bin", "records.npz", "risk_tensor.bin"]
    for name in binary:
        with zipfile.ZipFile(out / name) as archive:
            members = archive.infolist()
        assert members and all(m.filename.endswith(".npy") for m in members), name
        assert {m.date_time for m in members} == {(1980, 1, 1, 0, 0, 0)}, name


def test_only_artifacts_reads_or_writes_raw_bytes():
    package = Path(cli.__file__).parent
    raw = re.compile(r"^\s*(import|from) struct\b|np\.(frombuffer|fromfile|save)|\.tofile\("
                     r"|open\([^)]*[\"'][wax]b\+?[\"']", re.M)
    used = [path.name for path in sorted(package.glob("*.py"))
            if path.name != "artifacts.py" and raw.search(path.read_text())]
    assert used == []


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


def test_diffuse_and_train_load_no_scipy(pipeline, tmp_path):
    # the graph is numpy edge tables: only the graph stage imports scipy
    config_path, _ = copy_run(pipeline, tmp_path)
    code = (
        "import sys; from roadrisk import cli\n"
        "for stage in ('features', 'diffuse', 'train'):\n"
        f"    assert cli.main([stage, '--config', {str(config_path)!r}]) == 0, stage\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_truncated_checkpoint_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    checkpoint = out / "params.npz"
    checkpoint.write_bytes(checkpoint.read_bytes()[:-12])
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{checkpoint}: ValueError: not an .npz archive" in caplog.text
    assert "run `train` again" in caplog.text


def test_checkpoint_for_another_width_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    model_config = json.loads(config_path.read_text())["model"]
    wide = md.ModelConfig(**{**model_config, "d": 16})
    md.save_checkpoint(md.init_params(wide), out / "params.npz")
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA
    assert (f"{out / 'params.npz'}: ValueError: column 'embed.w' holds float64 of shape (3, 16), "
            "not float64 of shape (3, 8); run `train` again") in caplog.text


def test_non_finite_tensor_value_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    tensor = out / "risk_tensor.bin"
    recolumn(set_item("values", (0, 0, 0), np.nan))(tensor)
    assert cli.main(["train", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(tensor) in caplog.text and "run `features` again" in caplog.text


def test_tensor_sidecar_not_json_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    (out / "risk_tensor.json").write_text("{not json")
    assert cli.main(["diffuse", "--config", str(config_path)]) == cli.EXIT_DATA
    assert str(out / "risk_tensor.json") in caplog.text and "run `features` again" in caplog.text


def test_checkpoint_manifest_not_json_exit_code(pipeline, tmp_path, caplog):
    # each .npy member opens with a header naming its dtype and shape
    config_path, out = copy_run(pipeline, tmp_path)
    checkpoint = out / "params.npz"
    with zipfile.ZipFile(checkpoint) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members["head.b.npy"] = b"{not json"
    with zipfile.ZipFile(checkpoint, "w") as archive:
        for name, blob in members.items():
            archive.writestr(name, blob)
    assert cli.main(["eval", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{checkpoint}: ValueError: member 'head.b' is not a .npy array" in caplog.text
    assert "run `train` again" in caplog.text


def recolumn(edit):
    """Damage that stores a well-formed archive whose members `edit` changed."""
    from roadrisk.artifacts import write_columns

    def damage(path):
        with np.load(path) as archive:
            columns = {key: archive[key] for key in archive.files}
        edit(columns)
        write_columns(path, columns)
    return damage


def set_item(name, index, value):
    def edit(columns):
        columns[name][index] = value
    return edit


def append_bytes(path):
    """Damage that leaves the archive readable with 16 bytes after its end."""
    path.write_bytes(path.read_bytes() + bytes(range(16)))


def prepend_bytes(path):
    """Damage that leaves the archive readable with 16 bytes before its start."""
    path.write_bytes(bytes(range(16)) + path.read_bytes())


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda path: path.write_bytes(b"not a zip archive"),
         "not an .npz archive; it may be truncated"),
        (recolumn(lambda columns: columns.pop("head.b")), "no 'head.b' column"),
        (recolumn(lambda columns: columns.update({"head.c": np.zeros(1)})),
         "undeclared 'head.c' column"),
        (recolumn(lambda columns: columns.update({"head.w": columns["head.w"].astype(np.float32)})),
         "column 'head.w' holds float32 of shape (8, 1), not float64 of shape (8, 1)"),
        (recolumn(set_item("embed.w", (1, 2), np.nan)), "column 'embed.w' holds nan at index [1, 2]"),
        (recolumn(set_item("head.b", 0, -np.inf)), "column 'head.b' holds -inf at row 0"),
        (append_bytes, "bytes after the archive's end record"),
        (prepend_bytes, "bytes before the archive's first member"),
    ],
    ids=["not-zip", "missing-parameter", "extra-parameter", "float32", "nan", "infinite",
         "trailing-bytes", "leading-bytes"],
)
def test_damaged_checkpoint_exit_code(pipeline, tmp_path, caplog, damage, problem):
    config_path, out = copy_run(pipeline, tmp_path)
    checkpoint = out / "params.npz"
    damage(checkpoint)
    for command in ("eval", "predict"):
        caplog.clear()
        assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA, command
        assert f"{checkpoint}: ValueError: {problem}; run `train` again" in caplog.text


TENSOR_READERS = {
    "risk_tensor.bin": ["diffuse", "train", "eval", "predict", "ablate-features", "ablate-diffusion"],
}


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda path: path.write_bytes(path.read_bytes()[:7]),
         "ValueError: not an .npz archive; it may be truncated"),
        (lambda path: path.write_bytes(path.read_bytes()[:-8]),
         "ValueError: not an .npz archive; it may be truncated"),
        (recolumn(lambda columns: columns.pop("weeks")), "ValueError: no 'weeks' column"),
        (recolumn(lambda columns: columns.update(scale=np.ones(3))),
         "ValueError: undeclared 'scale' column"),
        (recolumn(lambda columns: columns.update(values=columns["values"].astype(np.float32))),
         "ValueError: column 'values' holds float32 of shape (156, 30, 3), "
         "not float64 of shape (156, 30, 3)"),
        # the node count is the values' width, and nodes.csv must have as many rows
        (recolumn(lambda columns: columns.update(values=columns["values"][:, :-1])),
         "its 29 nodes are not the 30 of nodes.csv"),
        (recolumn(set_item("values", (5, 2, 1), np.inf)),
         "ValueError: column 'values' holds inf at index [5, 2, 1]"),
    ],
    ids=["truncated-header", "cut-short", "missing-member", "extra-member", "float32",
         "node-count", "infinite"],
)
@pytest.mark.parametrize("name", sorted(TENSOR_READERS))
def test_damaged_tensor_exit_code(pipeline, tmp_path, caplog, name, damage, problem):
    config_path, out = copy_run(pipeline, tmp_path)
    tensor = out / name
    damage(tensor)
    for command in TENSOR_READERS[name]:
        caplog.clear()
        assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA, command
        message = f"{tensor}: {problem}; run `{cli.WRITER[name]}` again"
        assert message in caplog.text, command


def rejson(edit):
    """Damage that stores the JSON value `edit` makes of the file's object."""
    def damage(path):
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def one_array(path):
    """Damage that stores a single unnamed array where named members belong."""
    with np.load(path) as archive:
        values = archive["embed.w"]
    with open(path, "wb") as fh:
        np.save(fh, values)


@pytest.mark.parametrize(
    "name, command, damage",
    [
        ("params.npz", "eval", recolumn(lambda columns: columns.clear())),
        ("params.npz", "eval",
         recolumn(lambda columns: [columns.clear(), columns.update(config_hash=np.array("x"))])),
        # a checkpoint written before the manifests took over the run hash
        ("params.npz", "eval", recolumn(lambda columns: columns.update(config_hash=np.array("x")))),
        ("params.npz", "eval", one_array),
        ("risk_tensor.json", "diffuse", rejson(lambda meta: {})),
        ("risk_tensor.bin", "diffuse",
         recolumn(lambda columns: columns.update(weeks=columns["weeks"][:-1]))),
        # a node id member, as tensors stored before their node axis was positions
        ("risk_tensor.bin", "diffuse",
         recolumn(lambda columns: columns.update(node_ids=np.r_[2.5, np.arange(1.0, 30.0)]))),
    ],
    ids=["empty manifest", "no parameters", "stamped checkpoint", "not an object", "empty sidecar",
         "week count", "non-integer node"],
)
def test_malformed_manifest_or_sidecar_exit_code(pipeline, tmp_path, caplog, name, command, damage):
    config_path, out = copy_run(pipeline, tmp_path)
    path = out / name
    damage(path)
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA
    stage = "train" if name == "params.npz" else "features"
    assert str(path) in caplog.text and f"run `{stage}` again" in caplog.text


def test_overflowing_risk_value_exit_code(pipeline, tmp_path, caplog, fixture_csv):
    # a finite speed limit and casualty count whose safety score overflows
    config_path, out = copy_run(pipeline, tmp_path)
    header, first, *rows = fixture_csv.read_text().splitlines()
    at = {name: i for i, name in enumerate(header.split(","))}
    cells = first.split(",")
    for name, value in (("Speed_limit", "1.7e308"), ("Number_of_Casualties", "9000000000000000000"),
                        ("Accident_Severity", "1"), ("Road_Type", "1")):
        cells[at[name]] = value
    config = json.loads(config_path.read_text())
    config["data_csv"] = str(tmp_path / "overflow.csv")
    Path(config["data_csv"]).write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
    config_path.write_text(json.dumps(config))
    for command in ("ingest", "graph"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_NUMERIC
    assert ("numeric failure: risk tensor holds inf in week 2011-W01 at node 0, "
            "channel traffic_safety") in caplog.text


def test_tensor_on_other_nodes_than_the_graph_exit_code(pipeline, tmp_path, caplog):
    # a coarser graph rebuilt after `features`: 16 nodes where the tensors have 30
    config_path, out = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["graph"]["cell_size_m"] = 450.0
    config_path.write_text(json.dumps(config))
    assert cli.main(["graph", "--config", str(config_path)]) == 0
    for command in TENSOR_READERS["risk_tensor.bin"]:
        caplog.clear()
        assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA, command
        assert (f"{out / 'risk_tensor.bin'}: its 30 nodes are not the 16 of nodes.csv; "
                "run `features` again") in caplog.text, command


MODEL_OUTPUTS = ["params.npz", "history.csv", "report.json", "report.csv",
                 "report_baselines.json", "predictions.csv"]


def parameters(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def test_train_diffuses_with_the_config_it_runs_under(pipeline, tmp_path):
    # a diffusion edit after `diffuse` used to train on the inputs `diffuse` had made
    runs = {}
    for label, commands in (("train-only", ["train"]), ("diffuse-first", ["diffuse", "train"])):
        config_path, out = copy_run(pipeline, tmp_path / label)
        config = json.loads(config_path.read_text())
        config["diffusion"] = {"preset": "No_Diffusion"}
        config_path.write_text(json.dumps(config))
        for command in commands:
            assert cli.main([command, "--config", str(config_path)]) == 0, (label, command)
        runs[label] = out / "params.npz"
    trained = parameters(runs["train-only"])
    assert trained.keys() == parameters(runs["diffuse-first"]).keys()
    for key, values in parameters(runs["diffuse-first"]).items():
        assert trained[key].tobytes() == values.tobytes(), key
    old = parameters(pipeline[1] / "params.npz")
    assert any(old[key].tobytes() != values.tobytes() for key, values in trained.items())


def test_moved_run_retrains_byte_identically(pipeline, tmp_path, fixture_csv):
    # the run's paths are in no output, so a moved run writes the same bytes
    config_path, out = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["data_csv"] = str(tmp_path / "accidents.csv")
    shutil.copyfile(fixture_csv, config["data_csv"])
    config_path.write_text(json.dumps(config))
    for command in ("ingest", "graph", "features", "train"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    for name in ("records.csv", "nodes.csv", "risk_tensor.json", "params.npz", "history.csv"):
        assert (out / name).read_bytes() == (pipeline[1] / name).read_bytes(), name


def test_id_ending_in_nul_exit_code(pipeline, tmp_path, caplog, fixture_csv):
    # refused before `ingest` writes any of its outputs
    config = json.loads(pipeline[0].read_text())
    config["out_dir"] = str(tmp_path / "out")
    config["data_csv"] = str(tmp_path / "accidents.csv")
    header, first, *rows = fixture_csv.read_text().splitlines()
    first = first.replace(",", "\0,", 1)
    Path(config["data_csv"]).write_text("\n".join([header, *rows[:9], first, *rows[9:]]) + "\n")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["ingest", "--config", str(config_path)]) == cli.EXIT_DATA
    assert "line 11: accident id" in caplog.text and "ends in a NUL character" in caplog.text
    assert not [name for name in cli.OUTPUTS["ingest"] if (tmp_path / "out" / name).exists()]


def bad_path_run(pipeline, tmp_path, key, make):
    """A run config whose `key` names what `make(path)` leaves at a fresh path."""
    config = json.loads(pipeline[0].read_text())
    config["out_dir"] = str(tmp_path / "out")
    config[key] = str(tmp_path / "bad")
    make(Path(config[key]))
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_out_dir_that_is_a_file_exit_code(pipeline, tmp_path, caplog):
    config_path = bad_path_run(pipeline, tmp_path, "out_dir", lambda path: path.write_text("x"))
    assert cli.main(["ingest", "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert f"cannot create the run config's `out_dir` {tmp_path / 'bad'}" in caplog.text


def test_data_csv_that_is_a_directory_exit_code(pipeline, tmp_path, caplog):
    config_path = bad_path_run(pipeline, tmp_path, "data_csv", Path.mkdir)
    assert cli.main(["ingest", "--config", str(config_path)]) == cli.EXIT_DATA
    assert (f"{tmp_path / 'bad'} is not a regular file; it is the run config's `data_csv`"
            in caplog.text)


def test_weight_tables_that_are_a_directory_exit_code(pipeline, tmp_path, caplog):
    # the stages that do not open the tables run; the first that does names them
    config_path = bad_path_run(pipeline, tmp_path, "weight_tables", Path.mkdir)
    for command in ("ingest", "graph"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert (f"{tmp_path / 'bad'} is not a regular file; it is the run config's `weight_tables`"
            in caplog.text)


def test_accident_csv_not_utf8_exit_code(pipeline, tmp_path, caplog, fixture_csv):
    header, first, *rows = fixture_csv.read_bytes().split(b"\n")
    first = first.replace(b",", b"\xe9,", 1)  # an id ending in a Latin-1 e-acute
    config_path = bad_path_run(
        pipeline, tmp_path, "data_csv", lambda path: path.write_bytes(b"\n".join([header, first, *rows]))
    )
    assert cli.main(["ingest", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{tmp_path / 'bad'} is not UTF-8 text" in caplog.text


@pytest.mark.parametrize("damage", ["deleted", "garbage"])
def test_model_stages_do_not_read_the_processed_tensor(pipeline, tmp_path, damage):
    config_path, out = copy_run(pipeline, tmp_path)
    for command in ("diffuse", "train", "eval", "predict"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    before = {name: (out / name).read_bytes() for name in MODEL_OUTPUTS}
    for name in ("processed.bin", "processed.json"):
        if damage == "deleted":
            (out / name).unlink()
        else:
            (out / name).write_bytes(b"garbage")
    for command in ("train", "eval", "predict"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    for name in MODEL_OUTPUTS:
        assert (out / name).read_bytes() == before[name], name


def test_bogus_enum_in_records_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    records = out / "records.csv"
    lines = records.read_text().splitlines()
    cells = lines[5].split(",")
    cells[6] = "bogus"  # road_type
    lines[5] = ",".join(cells)
    records.write_text("\n".join(lines) + "\n")
    assert cli.main(["snr", "--config", str(config_path)]) == cli.EXIT_DATA
    # no stage parses records.csv; an edit shows as a changed digest
    assert f"{records}: its sha256 differs" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_truncated_records_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    records = out / "records.csv"
    text = records.read_text()
    records.write_text(text[: text.index("\n", len(text) // 2) + 30])  # 30 bytes into a row
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{records}: its sha256 differs" in caplog.text
    assert "run `ingest` again" in caplog.text


@pytest.mark.parametrize("command", ["graph", "snr", "features", "validate-framework"])
def test_damaged_records_npz_exit_code(pipeline, tmp_path, caplog, command):
    config_path, out = copy_run(pipeline, tmp_path)
    table = out / "records.npz"
    blob = table.read_bytes()
    table.write_bytes(blob[: len(blob) // 2])
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{table}: ValueError: not an .npz archive" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_records_npz_with_trailing_bytes_exit_code(pipeline, tmp_path, caplog):
    config_path, out = copy_run(pipeline, tmp_path)
    table = out / "records.npz"
    append_bytes(table)
    assert cli.main(["graph", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{table}: ValueError: bytes after the archive's end record" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_records_npz_with_leading_bytes_exit_code(pipeline, tmp_path, caplog):
    # numpy's own message for such a file was a hint to load it with pickle
    config_path, out = copy_run(pipeline, tmp_path)
    table = out / "records.npz"
    prepend_bytes(table)
    assert cli.main(["graph", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{table}: ValueError: bytes before the archive's first member" in caplog.text
    assert "run `ingest` again" in caplog.text


def test_record_stages_build_no_record_objects(pipeline, tmp_path, monkeypatch):
    from roadrisk import ingest

    config_path, out = copy_run(pipeline, tmp_path)
    tensor = (out / "risk_tensor.bin").read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a stage built an AccidentRecord")

    monkeypatch.setattr(ingest.AccidentRecord, "__init__", refuse)
    for command in ("ingest", "graph", "snr", "features", "validate-framework"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    assert (out / "risk_tensor.bin").read_bytes() == tensor


@pytest.mark.parametrize(
    "case", ["truncated row", "missing row", "missing week", "non-integer node", "non-finite value",
             "node outside", "repeated row", "extra week"]
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
    elif case == "non-integer node":
        cells = lines[3].split(",")
        cells[0] = "2.5"  # node_id
        lines[3] = ",".join(cells)
        where, problem = "line 4:", "'2.5'"
    elif case == "node outside":
        cells = lines[3].split(",")
        cells[0] = "30"  # node_id; nodes.csv holds 30 nodes
        lines[3] = ",".join(cells)
        where, problem = "line 4:", "node_id 30 is outside the 30 nodes of nodes.csv"
    elif case == "repeated row":
        cells = lines[3].split(",")
        cells[3] = "999.0"  # a second value for the same week and node
        lines.insert(4, ",".join(cells))
        where, problem = "line 5:", f"a second forecast for node {cells[0]} in week {cells[1]}"
    elif case == "extra week":
        cells = lines[-1].split(",")
        cells[1] = "2099-W01"  # week
        lines.append(",".join(cells))
        where = f"line {len(lines)}:"
        problem = "more than 12 forecast weeks, the model forecasts 12"
    else:
        cells = lines[3].split(",")
        cells[3] = "nan"  # value
        lines[3] = ",".join(cells)
        where, problem = "line 4:", "'nan' is not a finite number"
    predictions.write_text("\n".join(lines) + "\n")
    assert cli.main(["map", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{predictions} {where}" in caplog.text and problem in caplog.text
    assert "run `predict` again" in caplog.text


@pytest.mark.parametrize(
    "change",
    ["shuffled rows", "shorter period", "cell size", "duplicated node_id", "out-of-order node_id"],
)
def test_stale_graph_exit_code(pipeline, tmp_path, caplog, fixture_csv, change):
    config_path, out = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    nodes = out / "nodes.csv"
    where, problem = "", ("its nodes are not the grid cells of records.npz under the run "
                          "config's graph.cell_size_m and region")
    if change == "shuffled rows":  # the same cells, their centroids summed in another order
        header, *rows = fixture_csv.read_text().splitlines()
        np.random.default_rng(3).shuffle(rows)
        config["data_csv"] = str(tmp_path / "shuffled.csv")
        Path(config["data_csv"]).write_text("\n".join([header, *rows]) + "\n")
    elif change == "shorter period":
        config["region"]["period"] = ["2011-01-03", "2012-12-30"]
    elif change == "cell size":  # a config edit alone: the old nodes are not this cell size's grid
        config["graph"]["cell_size_m"] = 450.0
    else:  # the ids of data rows 1 and 2 edited; cells and edges as `graph` wrote them
        rows = nodes.read_text().splitlines()
        ids = ("0", "2") if change == "duplicated node_id" else ("2", "1")
        for k, node_id in zip((2, 3), ids):
            rows[k] = node_id + rows[k][rows[k].index(","):]
        nodes.write_text("\n".join(rows) + "\n")
        where, problem = " line 3", f"node_id {ids[0]} is not the row's position 1"
    config_path.write_text(json.dumps(config))
    if change in ("shuffled rows", "shorter period"):
        assert cli.main(["ingest", "--config", str(config_path)]) == 0
    # features without graph: nodes.csv still holds the old grid cells or the edited ids
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{nodes}{where}: {problem}; run `graph` again" in caplog.text


def test_snr_on_a_short_period_exit_code(pipeline, tmp_path, caplog):
    # 18 days in 3 ISO weeks, but 1 month: too short a monthly series for a ratio
    config_path, _ = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["region"]["period"] = ["2011-01-03", "2011-01-20"]
    config_path.write_text(json.dumps(config))
    assert cli.main(["ingest", "--config", str(config_path)]) == 0
    assert cli.main(["snr", "--config", str(config_path)]) == cli.EXIT_DATA
    assert ("data error: the monthly series has 1 period(s); "
            "a signal-to-noise ratio needs at least 2") in caplog.text


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


@pytest.mark.parametrize(
    "command, edit, message",
    [
        # diffuse used to accept four fractions that train then refused as stale
        ("diffuse", lambda c: c.update(split_fractions=[0.5, 0.2, 0.2, 0.1]), "split_fractions"),
        # eval used to write "mape": Infinity, which is not JSON
        ("eval", lambda c: c.update(mape_eps=-1.0), "mape_eps"),
        ("train", lambda c: c["train"].update(beta1=1.5), "Adam betas"),
        # train used to exit 4 when the encoder's convolution met the even kernel
        ("train", lambda c: c["model"].update(conv_kernel=2), "conv kernel 2 must be odd"),
    ],
    ids=["split-fractions", "mape-eps", "beta1", "even-kernel"],
)
def test_out_of_range_config_value_exit_code(pipeline, tmp_path, caplog, command, edit, message):
    config_path, _ = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    edit(config)
    config_path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert message in caplog.text


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("train", "train", "epochs_main", 1.5),
        ("train", "train", "seed", 0.5),
        ("train", "model", "d", 16.0),
        ("graph", "graph", "k", 4.5),
        ("diffuse", "diffusion", "iters", [1, 1.5, 2]),
        ("train", None, "seed", 0.5),
        ("train", "train", "batch", True),
        # `graph` exited 4 on a NaN cell size and wrote every kernel weight as 1.0
        # under an infinite bandwidth
        ("graph", "graph", "cell_size_m", math.nan),
        ("graph", "graph", "sigma_m", math.inf),
    ],
    ids=["epochs-float", "train-seed-float", "width-float", "k-float", "iters-float",
         "seed-float", "batch-bool", "cell-size-nan", "sigma-infinite"],
)
def test_wrongly_typed_config_value_exit_code(pipeline, tmp_path, caplog, command, section,
                                              key, value):
    # these used to end in a TypeError traceback (exit 1), or to run truncated
    # (a seed of 0.5 ran as 0) or as 1-window batches (a batch of true)
    config_path, _ = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    (config if section is None else config.setdefault(section, {}))[key] = value
    config_path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert f"key {key!r} in config section {section or 'top level'!r}" in caplog.text


def _packaged_tables(edit):
    raw = json.loads(resources.files("roadrisk.data").joinpath("weight_tables.json").read_text())
    edit(raw)
    return json.dumps(raw)


@pytest.mark.parametrize("command", ["features", "validate-framework"])
@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        _packaged_tables(lambda raw: raw["light"].update((k, -1.0) for k in raw["light"])),
        _packaged_tables(lambda raw: raw.pop("light")),
        _packaged_tables(lambda raw: raw["light"].pop("daylight")),
        "[]",
        # `json` reads NaN and Infinity; they used to reach the risk tensor (exit 4)
        _packaged_tables(lambda raw: raw["light"].update(daylight=math.nan)),
        _packaged_tables(lambda raw: raw["severity"].update({"3": math.inf})),
    ],
    ids=["not-json", "negative-weight", "missing-table", "missing-enum-key", "not-object",
         "nan-weight", "infinite-weight"],
)
def test_bad_weight_tables_exit_code(pipeline, tmp_path, caplog, command, text):
    config_path, _ = copy_run(pipeline, tmp_path)
    tables = tmp_path / "tables.json"
    tables.write_text(text)
    config = json.loads(config_path.read_text())
    config["weight_tables"] = str(tables)
    config_path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert str(tables) in caplog.text and "`weight_tables`" in caplog.text


def test_manifests_record_the_weight_tables(pipeline, tmp_path, caplog):
    # the same config file, its tables edited in one weight between two `features` runs
    config_path, out = copy_run(pipeline, tmp_path)
    tables = tmp_path / "tables.json"
    config = json.loads(config_path.read_text())
    config["weight_tables"] = str(tables)
    config_path.write_text(json.dumps(config))
    inputs = []
    for weight in (1.0, 1.5):
        tables.write_text(_packaged_tables(lambda raw: raw["light"].update(daylight=weight)))
        assert cli.main(["features", "--config", str(config_path)]) == 0
        inputs.append(json.loads((out / "manifest_features.json").read_text())["inputs"])
    assert inputs[0].keys() == inputs[1].keys() == {"config", "weight_tables"}
    assert inputs[0]["config"] == inputs[1]["config"]
    assert inputs[0]["weight_tables"] != inputs[1]["weight_tables"]
    # a stage that does not open the tables neither needs nor records them
    tables.unlink()
    assert cli.main(["snr", "--config", str(config_path)]) == 0
    assert json.loads((out / "manifest_snr.json").read_text())["inputs"].keys() == {"config"}
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_DATA
    assert f"{tables} not found; it is the run config's `weight_tables`" in caplog.text


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda raw: raw.update(lights={"daylight": 5.0}), "'lights'"),
        (lambda raw: raw["light"].update(daylite=9.0), "'daylite'"),
    ],
    ids=["unknown-table", "unknown-category"],
)
def test_unknown_weight_table_key_exit_code(pipeline, tmp_path, caplog, edit, key):
    # a misspelt table or category used to run silently on the packaged weights
    config_path, _ = copy_run(pipeline, tmp_path)
    tables = tmp_path / "tables.json"
    tables.write_text(_packaged_tables(edit))
    config = json.loads(config_path.read_text())
    config["weight_tables"] = str(tables)
    config_path.write_text(json.dumps(config))
    assert cli.main(["features", "--config", str(config_path)]) == cli.EXIT_CONFIG
    assert key in caplog.text and "`weight_tables`" in caplog.text


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"data_csv\": \"x\"}")
    assert cli.main(["ingest", "--config", str(path)]) == cli.EXIT_CONFIG


def test_config_not_utf8_exit_code(tmp_path, caplog):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"data_csv": "caf\xe9.csv"}')
    assert cli.main(["ingest", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"cannot read run config {path}" in caplog.text


def test_snr_table_contents(pipeline):
    _, out = pipeline
    lines = (out / "snr.csv").read_text().splitlines()
    assert lines[0] == "granularity,snr,periods"
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert set(rows) == {"daily", "weekly", "monthly"}
    assert rows["weekly"] > rows["daily"]


def test_predictions_inverse_transform(pipeline):
    _, out = pipeline
    lines = (out / "predictions.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["node_id", "week", "value_scaled", "value"]
    assert len(lines) == 1 + 12 * 30


def test_ablation_arm_trains_like_train(pipeline, tmp_path, monkeypatch):
    # a split other than the default, and a top-level seed other than train.seed
    config_path, out = copy_run(pipeline, tmp_path)
    config = json.loads(config_path.read_text())
    config["split_fractions"] = [0.5, 0.25, 0.25]
    config["seed"] = 3
    config_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(config_path)]) == 0
    rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
    epoch, _, _, _, val_loss, _ = [row for row in rows if row[5] == "1"][-1]

    monkeypatch.setattr(ablation, "FEATURE_ARMS", {"SIE": (1, 1, 1)})
    assert cli.main(["ablate-features", "--config", str(config_path)]) == 0
    arm = json.loads((out / "ablation_features.json").read_text())["arms"]["SIE"]
    assert (arm["best_epoch"], arm["best_val_loss"]) == (int(epoch), float(val_loss))
    assert arm["arm"]["split_fractions"] == [0.5, 0.25, 0.25] and arm["arm"]["seed"] == 3


@pytest.mark.slow
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
    document = json.loads((out / "ablation_diffusion.json").read_text())
    fingerprints = {arm["config_fingerprint"] for arm in document["arms"].values()}
    assert len(fingerprints) == 8  # every arm is a distinct configuration
    manifest = json.loads((out / "manifest_ablate_diffusion.json").read_text())
    assert document["config_hash"] == manifest["config_hash"]
