import numpy as np
import pytest

from roadrisk import ablation
from roadrisk.config import config_hash
from roadrisk.diffusion import PRESETS, preset
from roadrisk.model import ModelConfig
from roadrisk.training import TrainConfig, prepare_training_data

from helpers import FIXTURE_CONFIG, FRACTIONS, MAPE_EPS

TINY_MODEL = ModelConfig(d=8, heads=2, layers=1, t_in=6, t_out=6, conv_kernel=3, dropout=0.0)
TINY_TRAIN = TrainConfig(epochs_main=1, epochs_finetune=0, lr_main=1e-3, seed=0, batch=64)


def run_ablation(tensor, graph, arms):
    """`ablation.run_ablation` with the fixture run's MAPE threshold, split and seed."""
    return ablation.run_ablation(
        tensor, graph, arms, TINY_MODEL, TINY_TRAIN,
        MAPE_EPS, FRACTIONS, FIXTURE_CONFIG.seed,
    )


def audit_arms_differ_only_in(reports, factor: str) -> bool:
    """True when every pair of arm configs is identical outside `factor`."""
    stripped = []
    for report in reports.values():
        arm = dict(report.extra["arm"])
        arm.pop(factor, None)
        stripped.append(config_hash(arm))
    return len(set(stripped)) == 1


def test_s_only_arm_masks_other_channels(fixture_tensor, fixture_graph):
    graph, _ = fixture_graph
    data, _, _ = prepare_training_data(
        fixture_tensor, graph.adjacency_norm, preset("Differentiated_B"),
        t_in=6, t_out=6, fractions=FRACTIONS, channel_mask=(1, 0, 0),
    )
    x, _ = data.window(data.train_windows()[0])
    assert (x[:, :, 1] == 0).all()
    assert (x[:, :, 2] == 0).all()
    assert (x[:, :, 0] != 0).any()


@pytest.fixture(scope="module")
def feature_reports(fixture_tensor, fixture_graph):
    graph, _ = fixture_graph
    diffusion = preset("Differentiated_B")
    arms = {"SIE": (diffusion, (1, 1, 1)), "S": (diffusion, (1, 0, 0))}
    return run_ablation(fixture_tensor, graph, arms)


def test_feature_arms_reported(feature_reports):
    assert set(feature_reports) == {"SIE", "S"}
    for report in feature_reports.values():
        assert {"short", "medium"} <= set(report.buckets)
        assert report.config_fingerprint


def test_feature_arms_differ_only_in_mask(feature_reports):
    assert audit_arms_differ_only_in(feature_reports, "channel_mask")
    fingerprints = {r.config_fingerprint for r in feature_reports.values()}
    assert len(fingerprints) == 2  # full configs do differ


def test_diffusion_ablation_covers_all_presets(fixture_tensor, fixture_graph):
    graph, _ = fixture_graph
    two = {k: (PRESETS[k], (1, 1, 1)) for k in ("No_Diffusion", "Differentiated_B")}
    reports = run_ablation(fixture_tensor, graph, two)
    assert set(reports) == set(two)
    assert audit_arms_differ_only_in(reports, "diffusion")


def test_preset_grid_has_eight_named_rows():
    assert len(PRESETS) == 8


def test_comparison_csv(tmp_path, feature_reports):
    path = tmp_path / "cmp.csv"
    ablation.write_comparison_csv(feature_reports, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("arm,short_mae")
    assert len(lines) == 3
    assert {line.split(",")[0] for line in lines[1:]} == {"SIE", "S"}
