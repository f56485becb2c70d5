import datetime as dt
import json
import math
from pathlib import Path

import pytest

from roadrisk.artifacts import write_json
from roadrisk.config import RunConfig, config_hash, file_sha256, write_manifest
from roadrisk.errors import ConfigError
from roadrisk.ingest import RegionSpec


def sample_config_dict(tmp_path):
    return {
        "data_csv": str(tmp_path / "data.csv"),
        "out_dir": str(tmp_path / "out"),
        "region": {
            "name": "test",
            "bbox": [-0.2, 51.4, 0.0, 51.6],
            "period": ["2011-01-03", "2013-12-29"],
        },
        "diffusion": {"preset": "Differentiated_B"},
        "model": {"d": 8, "heads": 2, "layers": 1, "t_in": 4, "t_out": 4,
                  "conv_kernel": 3, "dropout": 0.0, "spatial_attention": True},
        "train": {"epochs_main": 2, "epochs_finetune": 1, "lr_main": 0.001,
                  "lr_finetune": None, "beta1": 0.9, "beta2": 0.999,
                  "eps": 1e-8, "seed": 0, "batch": None},
        "seed": 3,
    }


def test_config_roundtrip(tmp_path):
    raw = sample_config_dict(tmp_path)
    cfg = RunConfig.from_dict(raw)
    assert cfg.region.period[0] == dt.date(2011, 1, 3)
    assert cfg.diffusion.name == "Differentiated_B"
    assert cfg.model.d == 8
    assert cfg.train.epochs_main == 2
    assert cfg.seed == 3
    path = tmp_path / "cfg.json"
    write_json(path, cfg.to_dict())
    again = RunConfig.load(path)
    assert again.to_dict() == cfg.to_dict()
    assert again.fingerprint == cfg.fingerprint


def test_fingerprint_changes_with_content(tmp_path):
    raw = sample_config_dict(tmp_path)
    a = RunConfig.from_dict(raw).fingerprint
    raw["seed"] = 4
    b = RunConfig.from_dict(raw).fingerprint
    assert a != b
    assert len(a) == 12


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_invalid_config_raises(tmp_path):
    raw = sample_config_dict(tmp_path)
    del raw["region"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)
    raw = sample_config_dict(tmp_path)
    raw["region"]["bbox"] = [0.0, 51.6, -0.2, 51.4]  # inverted
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)
    for section, key, value in [
        ("model", "heads", 0), ("train", "batch", 0), ("train", "batch", -3),
        # widths the model cannot build: a zero or negative width divides by
        # its heads, no layer ignores the input, an even kernel has no centre
        ("model", "d", 0), ("model", "d", -16), ("model", "layers", 0), ("model", "layers", -1),
        ("model", "conv_kernel", 2), ("model", "conv_kernel", 4),
        ("graph", "cell_size_m", -150.0), ("graph", "cell_size_m", 0.0), ("graph", "k", 0),
        ("graph", "k", -2), ("graph", "sigma_m", -5.0), ("graph", "sigma_m", 0.0),
        ("train", "lr_finetune", -1.0), ("train", "beta1", 1.5), ("train", "beta1", -0.1),
        ("train", "beta2", 1.0), ("train", "eps", 0.0), ("train", "eps", -1e-8),
        (None, "split_fractions", [0.5, 0.2, 0.2, 0.1]), (None, "split_fractions", [0.6, 0.4]),
        (None, "split_fractions", [1.0, 0.0, 0.0]), (None, "split_fractions", [1.2, -0.1, -0.1]),
        (None, "split_fractions", [0.6, 0.2, 0.3]), (None, "mape_eps", -1.0),
        (None, "mape_eps", math.inf), (None, "mape_eps", math.nan),
        # a float field takes only a finite number; the section checks let these through
        ("graph", "cell_size_m", math.nan), ("graph", "cell_size_m", math.inf),
        ("graph", "cell_size_m", 10**400), ("graph", "sigma_m", math.nan),
        ("graph", "sigma_m", math.inf), ("train", "lr_main", math.nan),
        ("train", "lr_main", math.inf), ("train", "lr_finetune", math.nan),
        ("train", "lr_finetune", math.inf), ("train", "eps", math.inf),
        ("region", "bbox", [-0.2, 51.4, math.inf, 51.6]),
        ("region", "bbox", [-math.inf, 51.4, 0.0, 51.6]),
    ]:
        raw = sample_config_dict(tmp_path)
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "weight_table"),
        (None, "split_fraction"),
        ("region", "nmae"),
        ("schema", "lattitude"),
        ("graph", "kk"),
        ("diffusion", "alphas"),
        ("diffusion", "fuse_each_step"),
        ("model", "width"),
        ("train", "epoch"),
    ],
)
def test_unknown_key_raises(tmp_path, section, key):
    raw = sample_config_dict(tmp_path)
    (raw if section is None else raw.setdefault(section, {}))[key] = 1
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in config section "
                       f"'{section or 'top level'}'"):
        RunConfig.from_dict(raw)


def test_diffusion_preset_then_overrides(tmp_path):
    raw = sample_config_dict(tmp_path)
    raw["diffusion"] = {"preset": "Uniform_Strong", "iters": [1, 2, 3], "beta": 1}
    diffusion = RunConfig.from_dict(raw).diffusion
    assert diffusion.name == "Uniform_Strong"
    assert diffusion.alpha == (0.3, 0.3, 0.3)
    assert diffusion.iters == (1, 2, 3)
    assert diffusion.beta == 1.0 and isinstance(diffusion.beta, float)


def test_fixture_config_fingerprint_is_pinned():
    path = Path(__file__).resolve().parents[1] / "configs" / "fixture.json"
    assert RunConfig.load(path).fingerprint == "8c77542c469c"


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(tmp_path / "nope.json")


def test_region_center():
    region = RegionSpec("x", (-0.2, 51.4, 0.0, 51.6), (dt.date(2011, 1, 1), dt.date(2011, 2, 1)))
    assert region.center == (-0.1, 51.5)


def test_file_sha256(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("hello")
    assert file_sha256(p) == file_sha256(p)
    q = tmp_path / "g.txt"
    q.write_text("hellp")
    assert file_sha256(p) != file_sha256(q)


def test_manifest_written(tmp_path):
    raw = sample_config_dict(tmp_path)
    cfg = RunConfig.from_dict(raw)
    (tmp_path / "out" / "maps").mkdir(parents=True)
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1,2\n")
    (tmp_path / "out" / "records.csv").write_text("id\nA1\n")
    (tmp_path / "out" / "maps" / "m.geojson").write_text("{}\n")
    outputs = ["records.csv", "maps/m.geojson"]
    path = write_manifest(tmp_path / "out", "ingest", cfg, {"data_csv": data}, outputs, 1.23)
    manifest = json.loads(path.read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config_hash"] == cfg.fingerprint
    # each output, the nested ones too, by the sha256 of its bytes
    assert manifest["outputs"] == {name: file_sha256(tmp_path / "out" / name) for name in outputs}
    assert manifest["inputs"] == {"data_csv": file_sha256(data)}
