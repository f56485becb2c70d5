"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The learning smoke test trains two full arms on the synthetic
fixture and is the long pole (a few minutes); everything else is seconds.
"""

import csv
import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from roadrisk import ablation, autodiff as ad, cli, diffusion as df, metrics as mt
from roadrisk import riskmap as rm, training as tr
from roadrisk.autodiff import Tensor
from roadrisk.features import RiskTensor, WeightTables
from roadrisk.ingest import (
    Granularity,
    HumanControl,
    JunctionControl,
    LightCondition,
    PhysicalFacility,
    RecordTable,
    RegionSpec,
    RoadType,
    SurfaceCondition,
    WeatherCondition,
    aggregate_temporal,
    snr,
)
from roadrisk.model import ModelConfig, RiskForecaster

from helpers import FRACTIONS, MAPE_EPS, grad_check, neighbor_table

REAL_DATA_ENV = "ROADRISK_STATS19_CSV"


def announce(name: str, detail: str = ""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""), file=sys.stderr)


def ring_norm(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def random_norm(n, seed):
    rng = np.random.default_rng(seed)
    raw = np.triu(rng.uniform(0.1, 1.0, (n, n)), 1)
    raw = raw + raw.T
    deg = raw.sum(axis=1)
    return raw / np.sqrt(np.outer(deg, deg))


# --- criterion: gradient integrity -----------------------------------------

def test_gradient_integrity_every_op():
    started = time.time()
    rng = np.random.default_rng(0)

    def p(shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    a, b = p((3, 4)), p((3, 4))
    m1, m2 = p((3, 4)), p((4, 3))
    sq = p((3, 3))
    gain, bias = p(4), p(4)
    conv_x, conv_w, conv_b = p((2, 5, 3)), p((3, 3, 2)), p(2)
    mask = np.triu(np.full((3, 3), ad.MASK_VALUE), k=1)
    path = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.7], [0.0, 0.7, 0.0]])
    path_nbrs, path_weights = neighbor_table(path)

    def abs_sum(y):
        return ad.sum_(ad.abs_(y))

    def scaled_sum(y):
        return ad.sum_(ad.mul(y, 1.5))

    # name: (one op call, its tensor inputs, the scalar loss taken of its output)
    checks = {
        "add": (ad.add, (a, b), ad.sum_),
        "sub": (ad.sub, (a, b), ad.sum_),
        "neg": (ad.neg, (a,), ad.sum_),
        "mul": (ad.mul, (a, b), ad.sum_),
        "scale": (lambda x: ad.scale(x, 2.5), (a,), ad.sum_),
        "matmul": (ad.matmul, (m1, m2), ad.sum_),
        "matmul_sorted": (ad.matmul_sorted, (sq, m1), ad.sum_),
        "edge_matmul_sorted": (
            lambda h: ad.edge_matmul_sorted(path_nbrs, path_weights, h), (m1,), abs_sum
        ),
        "edge_attention": (
            lambda q, k, h: ad.edge_attention(q, k, path_nbrs, path_weights, h),
            (m1, b, a),
            abs_sum,
        ),
        "transpose": (lambda x: ad.transpose(x, (1, 0)), (a,), scaled_sum),
        "reshape": (lambda x: ad.reshape(x, (4, 3)), (a,), scaled_sum),
        "concat": (lambda x, y: ad.concat([x, y], axis=1), (a, b), abs_sum),
        "relu": (ad.relu, (a,), ad.sum_),
        "abs": (ad.abs_, (a,), ad.sum_),
        "sum": (
            lambda x: ad.sum_(x, axis=1, keepdims=True), (a,), lambda y: ad.mean_(ad.mul(y, y))
        ),
        "softmax": (ad.softmax_rows, (sq,), lambda y: ad.sum_(ad.mul(y, sq))),
        "softmax_masked": (
            lambda x: ad.softmax_rows(x, mask=mask), (sq,), lambda y: ad.sum_(ad.mul(y, sq))
        ),
        "layer_norm": (ad.layer_norm, (a, gain, bias), abs_sum),
        "conv1d": (
            lambda x, w, c: ad.conv1d(x, w, c, causal=True), (conv_x, conv_w, conv_b),
            lambda y: ad.sum_(ad.relu(y)),
        ),
        "conv1d_same": (
            lambda x, w, c: ad.conv1d(x, w, c, causal=False), (conv_x, conv_w, conv_b), ad.sum_
        ),
        "dropout": (
            lambda x: ad.dropout(x, 0.3, np.random.default_rng(7), training=True), (a,), ad.sum_
        ),
    }
    params = [a, b, m1, m2, sq, gain, bias, conv_x, conv_w, conv_b]
    worst = {}
    for name, (op, inputs, loss) in checks.items():
        err = grad_check(lambda: loss(op(*inputs)), params, max_coords=8, seed=1)
        assert err < 1e-4, f"{name}: {err}"
        worst[name] = err
        # the tape protocol: one step per call when any input is tracked,
        # none otherwise, and the output tracked exactly when an input is
        for tracked in itertools.product((False, True), repeat=len(inputs)):
            fresh = [Tensor(t.data.copy(), requires_grad=r) for t, r in zip(inputs, tracked)]
            with ad.Tape() as tape:
                out = op(*fresh)
                assert out.requires_grad == any(tracked), f"{name} {tracked}"
                assert len(tape) == int(any(tracked)), f"{name} {tracked}"
                with ad.no_grad():
                    op(*fresh)
                assert len(tape) == int(any(tracked)), f"{name} under no_grad"
    assert time.time() - started < 60.0
    announce("gradient integrity: every op < 1e-4", f"worst {max(worst.values()):.2e}")


def test_gradient_integrity_end_to_end():
    started = time.time()
    cfg = ModelConfig(d=4, heads=2, layers=1, t_in=2, t_out=2, conv_kernel=3, dropout=0.0)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=13)
    x = np.random.default_rng(13).uniform(0, 1, (3, 2, 3))
    target = np.random.default_rng(14).uniform(0, 1, (3, 2))

    def loss_fn():
        return ad.mean_(ad.abs_(ad.sub(model.forward(x), target)))

    err = grad_check(loss_fn, list(model.params.values()), max_coords=4, seed=0)
    elapsed = time.time() - started
    assert err < 1e-3
    assert elapsed < 60.0
    announce("gradient integrity: one-layer model < 1e-3", f"{err:.2e} in {elapsed:.1f}s")


# --- criterion: causality ---------------------------------------------------

def test_causality_decoder_and_conv():
    cfg = ModelConfig(d=8, heads=2, layers=1, t_in=4, t_out=6, conv_kernel=3, dropout=0.0)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(4)), seed=3)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (4, 4, 3))
    with ad.no_grad():
        enc = model.encode(x)
        dec_in = model.decoder_start(4).data.copy()
        base = model.head(model.decode(Tensor(dec_in), enc)).data
        for t_star in range(1, 6):
            bumped = dec_in.copy()
            bumped[:, t_star, :] += rng.standard_normal((4, cfg.d))
            out = model.head(model.decode(Tensor(bumped), enc)).data
            assert np.abs(out[:, :t_star] - base[:, :t_star]).max() == 0.0

    w = rng.standard_normal((3, 2, 2))
    series = rng.standard_normal((1, 8, 2))
    base_conv = ad.conv1d(Tensor(series), Tensor(w), causal=True).data
    for t_star in range(1, 8):
        bumped = series.copy()
        bumped[0, t_star] += 5.0
        out = ad.conv1d(Tensor(bumped), Tensor(w), causal=True).data
        assert np.abs(out[0, :t_star] - base_conv[0, :t_star]).max() == 0.0
    announce("causality: decoder self-attention and causal conv exact")


# --- criterion: row-stochastic attention ------------------------------------

def test_attention_rows_stochastic_every_layer():
    cfg = ModelConfig(d=8, heads=2, layers=2, t_in=5, t_out=4, conv_kernel=3, dropout=0.0)
    a_norm = neighbor_table(random_norm(4, seed=5))
    model = RiskForecaster(cfg, a_norm, seed=5, capture_attention=True)
    x = np.random.default_rng(5).uniform(0, 1, (4, 5, 3))
    model.predict(x)
    sites = 0
    for entry in model.attention_log:
        sums = entry["weights"].sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12, entry["site"]
        sites += 1
    # 2 encoder layers x (1 temporal + 3 spatial) + 2 decoder x (2 + 3)
    assert sites == 2 * 4 + 2 * 5
    announce("row-stochastic attention", f"{sites} sites, all rows sum to 1 +- 1e-12")


# --- criterion: node-permutation equivariance --------------------------------

def test_node_permutation_equivariance():
    cfg = ModelConfig(d=8, heads=2, layers=1, t_in=3, t_out=3, conv_kernel=3, dropout=0.0)
    a_norm = random_norm(5, seed=8)
    model = RiskForecaster(cfg, neighbor_table(a_norm), seed=9)
    x = np.random.default_rng(8).uniform(0, 1, (5, 3, 3))
    base = model.predict(x)
    for seed in range(10):
        p = np.random.default_rng(seed).permutation(5)
        permuted = RiskForecaster(cfg, neighbor_table(a_norm[np.ix_(p, p)]), params=model.params)
        got = permuted.predict(x[p])
        assert np.abs(got - base[p]).max() == 0.0
    announce("node-permutation equivariance: bitwise on 5-node fixture")


def knn_norm(n, seed, k=4):
    """Symmetric normalized kNN kernel adjacency over seeded random points."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, (n, 2))
    dist = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    raw = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    near = np.argsort(dist, axis=1)[:, 1 : k + 1]
    raw[rows, near] = np.exp(-10.0 * dist[rows, near])
    raw = np.maximum(raw, raw.T)
    deg = raw.sum(axis=1)
    return raw / np.sqrt(np.outer(deg, deg))


def test_node_permutation_equivariance_300_nodes():
    # at this size BLAS rounds node-pair products by position; the spatial
    # logits must not
    cfg = ModelConfig(d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.0)
    n = 300
    a_norm = knn_norm(n, seed=30)
    model = RiskForecaster(cfg, neighbor_table(a_norm), seed=31)
    x = np.random.default_rng(32).uniform(0, 1, (n, 12, 3))
    base = model.predict(x)
    for seed in range(3):
        p = np.random.default_rng(seed).permutation(n)
        permuted = RiskForecaster(cfg, neighbor_table(a_norm[np.ix_(p, p)]), params=model.params)
        got = permuted.predict(x[p])
        assert np.abs(got - base[p]).max() == 0.0, seed
    announce("node-permutation equivariance: bitwise on a 300-node kNN graph")


# --- criterion: diffusion correctness ----------------------------------------

def test_diffusion_against_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 11))
        w = int(rng.integers(2, 6))
        a = random_norm(n, seed=100 + trial)
        tensor = RiskTensor([f"w{t}" for t in range(w)], rng.uniform(0, 3, (w, n, 3)))
        cfg = df.DiffusionConfig(
            name="trial",
            alpha=tuple(rng.uniform(0, 1, 3)),
            iters=tuple(int(i) for i in rng.integers(0, 4, 3)),
        )
        got = df.apply_diffusion(tensor, neighbor_table(a), cfg).values
        want = np.empty_like(got)
        for f in range(3):
            for t in range(w):
                x0 = tensor.values[t, :, f].copy()
                x = x0.copy()
                for _ in range(cfg.iters[f]):
                    x = (1 - cfg.alpha[f]) * x + cfg.alpha[f] * (a @ x)
                if cfg.iters[f] == 0 or cfg.alpha[f] == 0:
                    want[t, :, f] = x0
                else:
                    want[t, :, f] = cfg.beta * x + (1 - cfg.beta) * x0
        assert np.abs(got - want).max() < 1e-12
    announce("diffusion matches dense oracle < 1e-12 on 20 random fixtures")


def test_diffusion_no_diffusion_identity_and_nonexpansive():
    rng = np.random.default_rng(12)
    tensor = RiskTensor([f"w{t}" for t in range(4)], rng.uniform(0, 5, (4, 6, 3)))
    a_norm = neighbor_table(random_norm(6, seed=0))
    out = df.apply_diffusion(tensor, a_norm, df.preset("No_Diffusion"))
    assert (out.values == tensor.values).all()

    # non-expansiveness in the Euclidean norm: the update is a convex
    # combination with a spectral radius <= 1, so no step can grow ||x||_2
    # (the per-entry max CAN grow: normalized rows may sum above 1)
    for seed in range(100):
        local = np.random.default_rng(seed)
        n = int(local.integers(3, 12))
        a = random_norm(n, seed=seed)
        x = local.standard_normal(n)
        alpha = float(local.uniform(0, 1))
        iters = int(local.integers(1, 4))
        stepped = df.diffuse_feature(x[:, None], neighbor_table(a), alpha, iters)
        assert np.linalg.norm(stepped) <= np.linalg.norm(x) + 1e-12
    announce("No_Diffusion exact identity; non-expansive (L2) on 100 seeded graphs")


# --- criterion: weight-table fidelity ----------------------------------------

def test_weight_table_fidelity():
    t = WeightTables.default()
    assert t.severity == {1: 3.0, 2: 2.0, 3: 1.0}
    assert t.categories["road_type"][RoadType.SINGLE_CARRIAGEWAY] == 1.0
    assert t.categories["road_type"][RoadType.ONE_WAY] == 1.1
    assert t.categories["road_type"][RoadType.DUAL_CARRIAGEWAY] == 1.2
    assert t.categories["road_type"][RoadType.SLIP_ROAD] == 1.3
    assert t.categories["road_type"][RoadType.ROUNDABOUT] == 1.5
    assert t.categories["ped_human_control"][HumanControl.SCHOOL_PATROL] == 0.2
    assert t.categories["ped_human_control"][HumanControl.AUTHORISED_PERSON] == 0.3
    assert t.categories["ped_human_control"][HumanControl.NONE_WITHIN_50M] == 0.4
    assert t.categories["ped_physical_facility"][PhysicalFacility.FOOTBRIDGE_OR_SUBWAY] == 0.1
    assert t.categories["ped_physical_facility"][PhysicalFacility.SIGNAL_JUNCTION_PHASE] == 0.2
    assert t.categories["ped_physical_facility"][PhysicalFacility.NON_JUNCTION_CROSSING] == 0.3
    assert t.categories["ped_physical_facility"][PhysicalFacility.ZEBRA] == 0.35
    assert t.categories["ped_physical_facility"][PhysicalFacility.CENTRAL_REFUGE] == 0.4
    assert t.categories["ped_physical_facility"][PhysicalFacility.NONE_WITHIN_50M] == 0.6
    assert t.categories["light"][LightCondition.DAYLIGHT] == 0.2
    assert t.categories["light"][LightCondition.DARK_LIT] == 0.4
    assert t.categories["light"][LightCondition.DARK_LIGHTING_UNKNOWN] == 0.6
    assert t.categories["light"][LightCondition.DARK_UNLIT] == 0.7
    assert t.categories["light"][LightCondition.DARK_NO_LIGHTING] == 0.8
    assert t.categories["junction_control"][JunctionControl.AUTHORISED_PERSON] == 0.2
    assert t.categories["junction_control"][JunctionControl.AUTO_SIGNAL] == 0.3
    assert t.categories["junction_control"][JunctionControl.STOP_SIGN] == 0.5
    assert t.categories["junction_control"][JunctionControl.GIVE_WAY_OR_UNCONTROLLED] == 0.7
    assert t.categories["surface"][SurfaceCondition.DRY] == 0.2
    assert t.categories["surface"][SurfaceCondition.WET_OR_DAMP] == 0.5
    assert t.categories["surface"][SurfaceCondition.SNOW] == 0.7
    assert t.categories["surface"][SurfaceCondition.FLOOD] == 0.7
    assert t.categories["surface"][SurfaceCondition.FROST_OR_ICE] == 0.8
    assert t.categories["weather"][WeatherCondition.FINE] == 0.2
    assert t.categories["weather"][WeatherCondition.FINE_HIGH_WINDS] == 0.3
    assert t.categories["weather"][WeatherCondition.RAIN] == 0.5
    assert t.categories["weather"][WeatherCondition.FOG_OR_MIST] == 0.6
    assert t.categories["weather"][WeatherCondition.RAIN_HIGH_WINDS] == 0.7
    assert t.categories["weather"][WeatherCondition.SNOW] == 0.7
    assert t.categories["weather"][WeatherCondition.SNOW_HIGH_WINDS] == 0.8
    announce("weight-table fidelity: all 33 published entries exact")


# --- criterion: metric oracles ------------------------------------------------

def test_metric_oracles_thousand_arrays():
    y_hat_h, y_h = np.array([2.0, 2.0]), np.array([1.0, 4.0])
    assert mt.mae(y_hat_h, y_h) == 1.5
    assert abs(mt.rmse(y_hat_h, y_h) - math.sqrt(2.5)) < 1e-15
    assert mt.mape(y_hat_h, y_h, MAPE_EPS) == 75.0

    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(2, 20))
        y_hat = rng.standard_normal(n)
        y = rng.standard_normal(n)
        mae_o = sum(abs(a - b) for a, b in zip(y_hat, y)) / n
        rmse_o = math.sqrt(sum((a - b) ** 2 for a, b in zip(y_hat, y)) / n)
        kept = [(a, b) for a, b in zip(y_hat, y) if abs(b) > 1e-8]
        mape_o = 100.0 * sum(abs(a - b) / abs(b) for a, b in kept) / len(kept)
        assert abs(mt.mae(y_hat, y) - mae_o) < 1e-12
        assert abs(mt.rmse(y_hat, y) - rmse_o) < 1e-12
        assert abs(mt.mape(y_hat, y, MAPE_EPS) - mape_o) < 1e-9 * max(1.0, mape_o)
        assert mt.rmse(y_hat, y) >= mt.mae(y_hat, y) - 1e-15
    announce("metric oracles: 1000 seeded arrays < 1e-12; RMSE >= MAE; hand case exact")


# --- criterion: learning smoke test -------------------------------------------

SMOKE_MODEL = ModelConfig(
    d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1
)
SMOKE_TRAIN = tr.TrainConfig(
    epochs_main=50, epochs_finetune=20, lr_main=3e-3, seed=0, batch=16
)


@pytest.fixture(scope="module")
def smoke_runs(fixture_tensor, fixture_graph):
    graph, _ = fixture_graph
    started = time.time()
    runs = {}
    for label, mask in (("SIE", (1, 1, 1)), ("S", (1, 0, 0))):
        data, _, _ = tr.prepare_training_data(
            fixture_tensor, graph.adjacency_norm, df.preset("Differentiated_B"),
            t_in=12, t_out=12, fractions=FRACTIONS, channel_mask=mask,
        )
        model = RiskForecaster(SMOKE_MODEL, graph.adjacency_norm, seed=SMOKE_TRAIN.seed)
        result = tr.train(model, data, SMOKE_TRAIN)
        start = data.last_test_window()
        x, y = data.window(start)
        runs[label] = {
            "data": data,
            "pred": model.predict(x),
            "y": y,
            "start": start,
            "val": result.best_val_loss,
        }
    runs["runtime"] = time.time() - started
    return runs


@pytest.mark.slow
def test_learning_smoke_beats_persistence(smoke_runs):
    run = smoke_runs["SIE"]
    model_report = mt.horizon_report(run["pred"], run["y"], MAPE_EPS)
    persistence = mt.baseline_persistence(run["data"], run["start"])
    persist_report = mt.horizon_report(persistence, run["y"], MAPE_EPS)
    model_long = model_report.buckets["long"]["mape"]
    persist_long = persist_report.buckets["long"]["mape"]
    gain = (persist_long - model_long) / persist_long
    assert gain >= 0.10, f"relative gain {gain:.3f} below 10%"
    assert smoke_runs["runtime"] < 15 * 60
    announce(
        "learning smoke: beats persistence on long-horizon masked MAPE",
        f"model {model_long:.1f}% vs persistence {persist_long:.1f}% "
        f"(gain {gain * 100:.0f}%), {smoke_runs['runtime']:.0f}s for both arms",
    )


@pytest.mark.slow
def test_learning_smoke_all_features_beat_safety_only(smoke_runs):
    full = mt.horizon_report(smoke_runs["SIE"]["pred"], smoke_runs["SIE"]["y"], MAPE_EPS)
    solo = mt.horizon_report(smoke_runs["S"]["pred"], smoke_runs["S"]["y"], MAPE_EPS)
    full_long = full.buckets["long"]["mape"]
    solo_long = solo.buckets["long"]["mape"]
    assert full_long < solo_long
    announce(
        "learning smoke: all channels beat safety-only on long horizon",
        f"{full_long:.1f}% vs {solo_long:.1f}%",
    )


# --- optional criteria: real accident data ------------------------------------

requires_real_data = pytest.mark.skipif(
    REAL_DATA_ENV not in os.environ,
    reason=f"set {REAL_DATA_ENV} to a real accident CSV to enable",
)


@pytest.fixture(scope="module")
def real_records():
    from roadrisk.ingest import filter_region, parse_accident_csv

    records, _ = parse_accident_csv(os.environ[REAL_DATA_ENV])
    import datetime as dt

    region = RegionSpec(
        name="central-london",
        bbox=(-0.20, 51.46, -0.05, 51.56),
        period=(dt.date(2009, 1, 1), dt.date(2014, 12, 31)),
    )
    return RecordTable.from_records(filter_region(records, region)), region


@requires_real_data
def test_real_data_framework_ordinal(real_records):
    from roadrisk.validation import framework_validation_report

    records, region = real_records
    report = framework_validation_report(records, region, WeightTables.default())
    cv, icc = report.cv_percent, report.icc
    assert cv["environmental"] > cv["infrastructure"] > cv["traffic_safety"]
    assert icc["traffic_safety"] > icc["infrastructure"] > icc["environmental"]
    r2 = report.r2_sequence
    assert r2[0] <= r2[1] <= r2[2]
    assert (r2[2] - r2[1]) > (r2[1] - r2[0])  # environment adds the largest gain
    announce("real-data framework validation: CV and ICC orderings hold")


@requires_real_data
def test_real_data_snr_ordering(real_records):
    records, region = real_records
    assignment = [0] * len(records)
    values = {}
    for granularity in Granularity:
        series = aggregate_temporal(records, assignment, granularity, 1, region.period)
        values[granularity] = snr(series)
    assert values[Granularity.WEEKLY] > values[Granularity.DAILY]
    assert values[Granularity.MONTHLY] > values[Granularity.WEEKLY]
    announce("real-data SNR ordering: monthly > weekly > daily")


# --- criterion: end-to-end deliverable -----------------------------------------

def test_end_to_end_predict_and_map(tmp_path, fixture_csv):
    out_dir = tmp_path / "out"
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
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    started = time.time()
    for command in ("ingest", "graph", "features", "diffuse", "train", "predict", "map"):
        assert cli.main([command, "--config", str(config_path)]) == 0, command
    elapsed = time.time() - started

    maps = sorted((out_dir / "maps").glob("risk_week_*.geojson"))
    assert len(maps) == 12
    for path in maps:
        collection = rm.load_zone_geojson(path)
        assert rm.validate_geojson(collection) == []
        features = collection["features"]
        values = np.array([f["properties"]["value"] for f in features])
        zones = np.array([f["properties"]["zone"] for f in features])
        order = np.argsort(values)
        assert (np.diff(zones[order]) >= 0).all()  # rank-consistent zones
        # parse-back equals a fresh classification of the same values
        again = rm.classify_zones(values, collection["week"])
        assert (again.zones == zones).all()
    assert elapsed < 300

    # one numbering: every output that holds nodes numbers them 0..n-1 in nodes.csv's row order
    def table(name):
        with open(out_dir / name, newline="") as fh:
            return list(csv.DictReader(fh))

    nodes = table("nodes.csv")
    ids = list(range(len(nodes)))
    assert [int(row["node_id"]) for row in nodes] == ids
    coordinates = [[float(row["lon"]), float(row["lat"])] for row in nodes]
    for name in ("predictions.csv", "zones.csv"):
        weeks = {}
        for row in table(name):
            weeks.setdefault(row["week"], []).append(int(row["node_id"]))
        assert len(weeks) == 12 and all(week == ids for week in weeks.values()), name
    for path in maps:
        features = rm.load_zone_geojson(path)["features"]
        assert [f["properties"]["node_id"] for f in features] == ids, path.name
        assert [f["geometry"]["coordinates"] for f in features] == coordinates, path.name
    announce(
        "end-to-end deliverable: 12 valid weekly GeoJSON zone maps",
        f"pipeline {elapsed:.0f}s",
    )
