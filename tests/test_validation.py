import numpy as np
import pytest

from roadrisk import validation as va
from roadrisk.errors import InsufficientGroupsError
from roadrisk.features import RiskTensor, WeightTables

from helpers import FIXTURE_REGION


def make_tensor(values):
    values = np.asarray(values, dtype=float)
    w, n, _ = values.shape
    return RiskTensor([f"w{t}" for t in range(w)], values)


def test_duplicated_dimension_correlates_fully():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.1, 1.0, (20, 5))
    values = np.stack([base, base, rng.uniform(0.1, 1.0, (20, 5))], axis=2)
    per_dim, _ = va.cross_dimension_correlation(make_tensor(values))
    # dimensions 0 and 1 are copies: the (0,1) pair contributes |r| = 1
    assert per_dim[0] >= 0.5
    assert per_dim[1] >= 0.5


def test_independent_dimensions_near_zero():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.1, 1.0, (100, 100, 3))
    per_dim, notes = va.cross_dimension_correlation(make_tensor(values))
    assert notes == []
    assert (per_dim < 0.1).all()


def test_degenerate_pair_skipped_with_note():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.1, 1.0, (10, 4, 3))
    values[:, :, 1] = 0.7  # constant channel: both its pairs degenerate
    per_dim, notes = va.cross_dimension_correlation(make_tensor(values))
    assert len(notes) == 2
    assert np.isfinite(per_dim[0])  # (0,2) pair still measured


def test_temporal_stats_constant_series():
    values = np.full((10, 3, 3), 2.0)
    cv, autocorr, notes = va.temporal_stats(make_tensor(values))
    assert (cv == 0.0).all()
    assert np.isnan(autocorr).all()
    assert any("autocorrelation undefined" in n for n in notes)


def test_temporal_stats_alternating_series_lag1():
    w = 400
    values = np.zeros((w, 2, 3))
    values[:, :, 0] = np.where(np.arange(w)[:, None] % 2 == 0, 1.0, 2.0)
    values[:, :, 1] = 1.0
    values[:, :, 2] = np.linspace(1, 2, w)[:, None]
    cv, autocorr, _ = va.temporal_stats(make_tensor(values))
    assert autocorr[0] == pytest.approx(-1.0, abs=1e-2)  # alternation limit
    assert autocorr[2] > 0.99  # smooth trend is highly persistent


def test_temporal_stats_zero_mean_note():
    values = np.zeros((5, 2, 3))
    cv, _, notes = va.temporal_stats(make_tensor(values))
    assert np.isnan(cv).all()
    assert any("CV undefined" in n for n in notes)


def test_icc_identical_cells_over_time_is_one():
    # every cell constant over weeks, values differ across cells
    w, n = 8, 6
    values = np.zeros((w, n, 3))
    for f in range(3):
        values[:, :, f] = np.arange(1, n + 1)[None, :]
    icc, notes = va.icc_grid(make_tensor(values))
    np.testing.assert_allclose(icc, 1.0)
    assert notes == []


def test_icc_iid_near_zero():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((40, 50, 3))
    icc, _ = va.icc_grid(make_tensor(values))
    assert (np.abs(icc) < 0.05).all()


def test_icc_requires_groups():
    with pytest.raises(InsufficientGroupsError):
        va.icc_grid(make_tensor(np.zeros((5, 1, 3))))
    with pytest.raises(InsufficientGroupsError):
        va.icc_grid(make_tensor(np.zeros((1, 5, 3))))


def test_icc_affine_invariance():
    rng = np.random.default_rng(4)
    values = rng.uniform(0, 1, (20, 10, 3))
    base, _ = va.icc_grid(make_tensor(values))
    shifted, _ = va.icc_grid(make_tensor(values * 3.7 + 11.0))
    np.testing.assert_allclose(shifted, base, atol=1e-10)


def test_icc_permutation_invariant_over_cells():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, (20, 10, 3))
    base, _ = va.icc_grid(make_tensor(values))
    perm = rng.permutation(10)
    permuted, _ = va.icc_grid(make_tensor(values[:, perm, :]))
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_hierarchical_r2_linear_target_is_one():
    rng = np.random.default_rng(6)
    w, n = 30, 8
    values = rng.uniform(0.1, 1.0, (w, n, 3))
    counts = np.zeros((w, n))
    counts[1:] = 3.0 * values[:-1, :, 0] + 1.0  # exactly linear in channel 0
    r2, rel, notes = va.hierarchical_r2(make_tensor(values), counts)
    np.testing.assert_allclose(r2, 1.0, atol=1e-10)


def test_hierarchical_r2_env_adds_signal():
    rng = np.random.default_rng(7)
    w, n = 60, 10
    values = rng.uniform(0.1, 1.0, (w, n, 3))
    counts = np.zeros((w, n))
    counts[1:] = values[:-1, :, 0] + 2.0 * values[:-1, :, 2] + rng.normal(0, 0.05, (w - 1, n))
    r2, rel, _ = va.hierarchical_r2(make_tensor(values), counts)
    assert r2[2] > r2[1] + 0.01  # the environment step adds real variance
    assert rel[2] > 0


def test_hierarchical_r2_nondecreasing_always():
    for seed in range(20):
        local = np.random.default_rng(seed)
        values = local.uniform(0, 1, (20, 5, 3))
        counts = local.poisson(2.0, (20, 5)).astype(float)
        r2, _, _ = va.hierarchical_r2(make_tensor(values), counts)
        assert r2[0] <= r2[1] + 1e-10
        assert r2[1] <= r2[2] + 1e-10


def test_hierarchical_r2_rank_deficient_fallback():
    rng = np.random.default_rng(9)
    w, n = 20, 5
    values = rng.uniform(0.1, 1.0, (w, n, 3))
    values[:, :, 1] = values[:, :, 0]  # collinear channels
    counts = rng.poisson(2.0, (w, n)).astype(float)
    r2, _, notes = va.hierarchical_r2(make_tensor(values), counts)
    assert any("ridge fallback" in note for note in notes)
    assert r2[1] >= r2[0] - 1e-8


def test_framework_report_on_fixture(fixture_table):
    report = va.framework_validation_report(fixture_table, FIXTURE_REGION, WeightTables.default())
    assert report.grid_cells >= 2
    assert report.weeks == 156
    for name in ("traffic_safety", "infrastructure", "environmental"):
        assert 0.0 <= report.mean_abs_r[name] <= 1.0
        assert 0.0 <= report.icc[name] <= 1.0
    r2 = report.r2_sequence
    assert r2[0] <= r2[1] + 1e-10 <= r2[2] + 2e-10
    # environment is the designed seasonal driver in the fixture
    assert report.cv_percent["environmental"] > 0


def test_report_files_roundtrip(tmp_path, fixture_table):
    report = va.framework_validation_report(
        fixture_table, FIXTURE_REGION, WeightTables.default(), config_fingerprint="fp"
    )
    report.save_json(tmp_path / "v.json")
    report.save_csv(tmp_path / "v.csv")
    import json

    loaded = json.loads((tmp_path / "v.json").read_text())
    assert loaded["config_fingerprint"] == "fp"
    assert set(loaded["icc"]) == {"traffic_safety", "infrastructure", "environmental"}
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert lines[0] == "metric,traffic_safety,infrastructure,environmental"
    assert len(lines) == 9
    assert lines[-1].startswith("config_fingerprint,fp")
