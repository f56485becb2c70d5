import threading

import numpy as np
import pytest

from roadrisk import autodiff as ad
from roadrisk import metrics as mt
from roadrisk import training as tr
from roadrisk.errors import (
    AllMaskedError,
    ConfigError,
    InsufficientHistoryError,
    NonFiniteLossError,
    ShapeMismatchError,
)
from roadrisk.diffusion import preset
from roadrisk.features import RiskTensor
from roadrisk.model import ModelConfig, RiskForecaster

from helpers import neighbor_table, training_data


def make_tensor(values):
    values = np.asarray(values, dtype=float)
    w, n, _ = values.shape
    return RiskTensor([f"w{t}" for t in range(w)], values)


def ring_norm(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def test_split_100_weeks():
    splits = tr.split_temporal(100, t_in=6, t_out=6)
    assert splits.train == (0, 60)
    assert splits.validation == (60, 80)
    assert splits.test == (80, 100)


def test_split_insufficient_history():
    with pytest.raises(InsufficientHistoryError):
        tr.split_temporal(10, t_in=12, t_out=12)


def test_split_bad_fractions():
    with pytest.raises(ConfigError):
        tr.split_temporal(100, 6, 6, fractions=(0.5, 0.2, 0.2))


def test_windows_never_straddle_boundaries():
    splits = tr.split_temporal(100, t_in=6, t_out=6)
    for span, windows in [
        (splits.train, tr.windows_in(splits.train, 6, 6)),
        (splits.validation, tr.windows_in(splits.validation, 6, 6)),
        (splits.test, tr.windows_in(splits.test, 6, 6)),
    ]:
        assert windows  # every split hosts at least one window
        for s in windows:
            assert span[0] <= s and s + 12 <= span[1]
    # exhaustive: no valid start is missing
    lo, hi = splits.train
    assert tr.windows_in(splits.train, 6, 6) == [s for s in range(lo, hi) if s + 12 <= hi]


def test_training_data_windows_and_mask():
    rng = np.random.default_rng(0)
    tensor = make_tensor(rng.uniform(0, 1, (40, 4, 3)))
    data = training_data(tensor, t_in=4, t_out=4, channel_mask=(1, 0, 1))
    x, y = data.window(data.train_windows()[0])
    assert x.shape == (4, 4, 3)
    assert y.shape == (4, 4)
    assert (x[:, :, 1] == 0).all()
    assert (x[:, :, 0] == tensor.values[0:4, :, 0].T).all()
    assert (y == tensor.values[4:8, :, 0].T).all()


def test_target_channel_cannot_be_masked():
    tensor = make_tensor(np.zeros((40, 3, 3)))
    with pytest.raises(ConfigError):
        training_data(tensor, 4, 4, channel_mask=(0, 1, 1))


def tiny_setup(n=3, weeks=30, t=3, seed=0):
    rng = np.random.default_rng(seed)
    tensor = make_tensor(rng.uniform(0.1, 1, (weeks, n, 3)))
    data = training_data(tensor, t_in=t, t_out=t)
    cfg = ModelConfig(d=4, heads=2, layers=1, t_in=t, t_out=t, conv_kernel=3, dropout=0.0)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(n)), seed=seed)
    return model, data


@pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant"])
def test_prepared_targets_own_one_scaled_channel(constant):
    # the safety channel is scaled alone, not sliced from all three scaled channels
    values = np.random.default_rng(4).gamma(1.0, size=(60, 5, 3))
    if constant:
        values[:, :, tr.TARGET_CHANNEL] = 2.5
    tensor = make_tensor(values)
    data, _, scaler = tr.prepare_training_data(
        tensor, neighbor_table(ring_norm(5)), preset("No_Diffusion"), t_in=6, t_out=6
    )
    targets = data.targets
    assert targets.shape == (60, 5) and targets.flags["C_CONTIGUOUS"] and targets.base is None
    sliced = scaler.transform(values)[:, :, tr.TARGET_CHANNEL]
    assert targets.tobytes() == np.ascontiguousarray(sliced).tobytes()
    assert (targets == 0.0).all() == constant


def test_zero_lr_leaves_params_bitwise_unchanged():
    model, data = tiny_setup()
    before = {k: t.data.copy() for k, t in model.params.items()}
    cfg = tr.TrainConfig(epochs_main=2, epochs_finetune=1, lr_main=0.0, seed=1)
    tr.train(model, data, cfg)
    for name, tensor in model.params.items():
        assert (tensor.data == before[name]).all(), name


def test_training_deterministic_given_seed():
    cfg = tr.TrainConfig(epochs_main=3, epochs_finetune=2, lr_main=1e-3, seed=7, batch=4)
    model1, data = tiny_setup(seed=3)
    r1 = tr.train(model1, data, cfg)
    model2, _ = tiny_setup(seed=3)
    r2 = tr.train(model2, data, cfg)
    assert [h["train_loss"] for h in r1.history] == [h["train_loss"] for h in r2.history]
    assert [h["val_loss"] for h in r1.history] == [h["val_loss"] for h in r2.history]
    for name in model1.params:
        assert (model1.params[name].data == model2.params[name].data).all()


def test_training_loss_decreases_on_overfittable_toy():
    # 2-node toy, constant targets: 50 main epochs must strictly reduce loss
    rng = np.random.default_rng(5)
    values = np.tile(rng.uniform(0.2, 0.8, (1, 2, 3)), (30, 1, 1))
    values += rng.normal(0, 0.01, values.shape)
    data = training_data(make_tensor(np.abs(values)), t_in=3, t_out=3)
    cfg = ModelConfig(d=4, heads=2, layers=1, t_in=3, t_out=3, dropout=0.0)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(2)), seed=6)
    result = tr.train(model, data, tr.TrainConfig(epochs_main=50, epochs_finetune=0, lr_main=1e-2, seed=2))
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_best_checkpoint_is_returned_not_final():
    model, data = tiny_setup(seed=9)
    cfg = tr.TrainConfig(epochs_main=6, epochs_finetune=2, lr_main=5e-2, seed=3)
    result = tr.train(model, data, cfg)
    best_rows = [h for h in result.history if h["is_best"]]
    if best_rows:
        assert result.best_epoch == best_rows[-1]["epoch"]
        assert result.best_val_loss == pytest.approx(min(h["val_loss"] for h in result.history))
    # model params must equal the best checkpoint, not the last epoch's
    val = tr.eval_loss(model, data, data.validation_windows())
    assert val == pytest.approx(result.best_val_loss, abs=1e-12)


def test_non_finite_loss_aborts_with_diagnostics():
    model, data = tiny_setup(seed=11)
    model.params["head.w"].data[:] = np.inf
    cfg = tr.TrainConfig(epochs_main=1, epochs_finetune=0, lr_main=1e-3, seed=0)
    with pytest.raises(NonFiniteLossError) as err:
        with np.errstate(invalid="ignore", over="ignore"):
            tr.train(model, data, cfg)
    # no gradients exist before the first backward pass, so none are reported
    assert str(err.value) == "non-finite loss at epoch 1, batch 0: nan"


def test_adam_moments_survive_finetune_phase():
    model, data = tiny_setup(seed=13)
    opt = tr.Adam(model.params, tr.TrainConfig())
    assert opt.t == 0
    # one taped step to populate moments
    from roadrisk import autodiff as ad
    from roadrisk.autodiff import Tape

    with Tape() as tape:
        loss = tr.batch_loss(model, data, data.train_windows()[:2])
        tape.backward(loss)
    opt.step(1e-3)
    assert opt.t == 1
    assert any(np.abs(m).max() > 0 for m in opt.m.values())


def test_mae_rmse_mape_hand_case():
    y_hat, y = np.array([2.0, 2.0]), np.array([1.0, 4.0])
    assert mt.mae(y_hat, y) == pytest.approx(1.5)
    assert mt.rmse(y_hat, y) == pytest.approx(np.sqrt(2.5))
    assert mt.rmse(y_hat, y) == pytest.approx(1.5811, abs=1e-4)
    assert mt.mape(y_hat, y) == pytest.approx(75.0)


def test_metrics_zero_error():
    y = np.random.default_rng(0).uniform(1, 2, (4, 5))
    assert mt.mae(y, y) == 0.0
    assert mt.rmse(y, y) == 0.0
    assert mt.mape(y, y) == 0.0


def test_metrics_match_brute_force_loops():
    rng = np.random.default_rng(1)
    for trial in range(1000):
        n = int(rng.integers(2, 12))
        y_hat = rng.standard_normal(n)
        y = rng.standard_normal(n)
        mae_oracle = sum(abs(a - b) for a, b in zip(y_hat, y)) / n
        rmse_oracle = (sum((a - b) ** 2 for a, b in zip(y_hat, y)) / n) ** 0.5
        kept = [(a, b) for a, b in zip(y_hat, y) if abs(b) > 1e-8]
        mape_oracle = 100 * sum(abs(a - b) / abs(b) for a, b in kept) / len(kept)
        assert abs(mt.mae(y_hat, y) - mae_oracle) < 1e-12
        assert abs(mt.rmse(y_hat, y) - rmse_oracle) < 1e-12
        assert abs(mt.mape(y_hat, y) - mape_oracle) < 1e-9
        assert mt.rmse(y_hat, y) >= mt.mae(y_hat, y) - 1e-15


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(2)
    y_hat, y = rng.standard_normal(50), rng.uniform(1, 2, 50)
    p = rng.permutation(50)
    assert mt.mae(y_hat[p], y[p]) == pytest.approx(mt.mae(y_hat, y), abs=1e-14)
    assert mt.rmse(y_hat[p], y[p]) == pytest.approx(mt.rmse(y_hat, y), abs=1e-14)
    assert mt.mape(y_hat[p], y[p]) == pytest.approx(mt.mape(y_hat, y), abs=1e-10)


def test_mape_masks_zeros_and_reports_fraction():
    y_hat = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 2.0, 0.0, 1.0])
    assert mt.masked_fraction(y) == 0.5
    assert mt.mape(y_hat, y) == pytest.approx((50.0 + 0.0) / 2)


def test_mape_all_masked_raises():
    with pytest.raises(AllMaskedError):
        mt.mape(np.ones(3), np.zeros(3))


def test_metrics_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mt.mae(np.ones(3), np.ones(4))


def test_horizon_report_constant_mape():
    y = np.full((5, 12), 2.0)
    y_hat = y * 1.03
    report = mt.horizon_report(y_hat, y)
    for bucket in report.buckets.values():
        assert bucket["mape"] == pytest.approx(3.0)
    assert [row["mape"] for row in report.per_week] == pytest.approx([3.0] * 12)


def test_horizon_report_bucket_means():
    # per-week mae = week index + 1 by construction
    n = 4
    y = np.zeros((n, 12))
    y_hat = y + np.arange(1.0, 13.0)
    report = mt.horizon_report(y_hat, y)
    assert report.buckets["short"]["mae"] == pytest.approx(2.5)
    assert report.buckets["medium"]["mae"] == pytest.approx(6.5)
    assert report.buckets["long"]["mae"] == pytest.approx(10.5)
    # exhaustive: every bucket equals the mean of its member weeks
    for name, lo, hi in mt.HORIZON_BUCKETS:
        members = [r["mae"] for r in report.per_week if lo < r["week"] <= hi]
        assert report.buckets[name]["mae"] == pytest.approx(np.mean(members))


def test_horizon_report_short_run_reports_available_buckets():
    y = np.ones((3, 6))
    report = mt.horizon_report(y * 1.1, y)
    assert set(report.buckets) == {"short", "medium"}


def test_rmse_at_least_mae_on_reports():
    rng = np.random.default_rng(3)
    y = rng.uniform(0.5, 2, (6, 12))
    y_hat = y + rng.standard_normal((6, 12)) * 0.3
    report = mt.horizon_report(y_hat, y)
    for bucket in report.buckets.values():
        assert bucket["rmse"] >= bucket["mae"]


def test_report_roundtrip_files(tmp_path):
    rng = np.random.default_rng(4)
    y = rng.uniform(0.5, 2, (6, 12))
    report = mt.horizon_report(y * 1.05, y, config_fingerprint="abc123")
    report.save_json(tmp_path / "report.json")
    report.save_csv(tmp_path / "report.csv")
    import json

    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["config_fingerprint"] == "abc123"
    assert loaded["buckets"]["long"]["mape"] == pytest.approx(5.0)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("scope,week,mae")
    assert len(lines) == 1 + 3 + 12


def test_baselines_constant_series_are_exact():
    values = np.tile(np.array([0.4, 0.7, 0.3])[None, :, None], (40, 1, 3))
    data = training_data(make_tensor(values), t_in=4, t_out=4)
    start = data.last_test_window()
    _, y = data.window(start)
    persist = mt.baseline_persistence(data, start)
    hist = mt.baseline_historical_mean(data)
    assert mt.mae(persist, y) == 0.0
    assert mt.mae(hist, y) == pytest.approx(0.0, abs=1e-12)


def test_persistence_repeats_last_observed_week():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, (40, 3, 3))
    data = training_data(make_tensor(values), t_in=4, t_out=4)
    start = data.test_windows()[0]
    persist = mt.baseline_persistence(data, start)
    last_week = values[start + 3, :, 0]
    assert (persist == last_week[:, None]).all()


def test_historical_mean_matches_brute_force():
    rng = np.random.default_rng(6)
    values = rng.uniform(0, 1, (40, 3, 3))
    data = training_data(make_tensor(values), t_in=4, t_out=4)
    hist = mt.baseline_historical_mean(data)
    lo, hi = data.splits.train
    for node in range(3):
        manual = np.mean([values[w, node, 0] for w in range(lo, hi)])
        assert hist[node, 0] == pytest.approx(manual, abs=1e-12)


def test_attention_log_unchanged_by_backward_and_adam_step():
    # the log holds the softmax outputs themselves, not copies, so nothing
    # after the forward may write into them
    cfg = ModelConfig(d=4, heads=2, layers=1, t_in=3, t_out=2, conv_kernel=3, dropout=0.0)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(4)), seed=3, capture_attention=True)
    x = np.random.default_rng(3).uniform(0, 1, (4, 3, 3))
    before = {name: t.data.copy() for name, t in model.params.items()}
    optimizer = tr.Adam(model.params, tr.TrainConfig(lr_main=0.1))
    with ad.Tape() as tape:
        loss = ad.mean_(ad.abs_(model.forward(x)))
        logged = [entry["weights"].copy() for entry in model.attention_log]
        tape.backward(loss)
    optimizer.step(0.1)
    assert any((t.data != before[name]).any() for name, t in model.params.items())
    assert len(model.attention_log) == len(logged) > 0
    for entry, copy in zip(model.attention_log, logged):
        assert entry["weights"].tobytes() == copy.tobytes(), entry["site"]


def knn_table(n, seed, k=4):
    """Edge table of a symmetric normalised kNN graph over random points."""
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))
    dist = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    raw = np.zeros((n, n))
    near = np.argsort(dist, axis=1)[:, 1 : k + 1]
    raw[np.arange(n)[:, None], near] = 1.0
    raw = np.maximum(raw, raw.T)
    deg = raw.sum(axis=1)
    return neighbor_table(raw / np.sqrt(np.outer(deg, deg)))


@pytest.fixture(scope="module")
def region():
    """A 300-node model and its windows: a region-scale taped batch splits."""
    n = 300
    cfg = ModelConfig(d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1)
    model = RiskForecaster(cfg, knn_table(n, seed=41), seed=42)
    values = np.random.default_rng(43).uniform(0, 1, (130, n, 3))
    return model, training_data(make_tensor(values), 12, 12)


def taped_step(model, data, starts, rng):
    """Loss, every parameter's gradient, the generator's state and the
    number of recorded steps after one taped batch."""
    for tensor in model.params.values():
        tensor.zero_grad()
    with ad.Tape() as tape:
        loss = tr.batch_loss(model, data, starts, training=True, rng=rng)
        tape.backward(loss)
    grads = {name: t.grad for name, t in model.params.items()}
    return loss.data, grads, rng.bit_generator.state, len(tape)


def count_forks(monkeypatch):
    calls, original = [], ad.fork_join

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ad, "fork_join", counting)
    return calls


@pytest.mark.parametrize("windows", [2, 3, 4])
def test_region_batch_halves_match_the_window_loop(monkeypatch, region, windows):
    model, data = region
    starts = data.train_windows()[5 : 5 + windows]
    forks = count_forks(monkeypatch)
    loss, grads, state, steps = taped_step(model, data, starts, np.random.default_rng(44))
    assert len(forks) == 1
    monkeypatch.setattr(tr, "_halves", lambda *args: None)
    want_loss, want_grads, want_state, want_steps = taped_step(
        model, data, starts, np.random.default_rng(44)
    )
    assert len(forks) == 1
    assert loss.tobytes() == want_loss.tobytes()
    assert state == want_state
    # the tape counts the halves' steps: one fork in place of the loop's b - 1 adds
    assert steps == want_steps - (windows - 1) + 1
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        if windows == 2:  # the two windows' terms add in either order alike
            assert grads[name].tobytes() == want.tobytes(), name
        else:  # half 0's windows add up before half 1's
            assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_region_batch_half_inline_matches_the_worker(region):
    model, data = region
    starts = data.train_windows()[:2]
    on_worker = taped_step(model, data, starts, np.random.default_rng(45))
    with ad._busy:  # the worker is taken: both halves run here
        inline = taped_step(model, data, starts, np.random.default_rng(45))
    assert on_worker[0].tobytes() == inline[0].tobytes()
    assert on_worker[2] == inline[2]
    for name, g in inline[1].items():
        assert on_worker[1][name].tobytes() == g.tobytes(), name


def test_region_taped_step_starts_no_thread(monkeypatch, region):
    model, data = region
    starts = data.train_windows()[:2]
    taped_step(model, data, starts, np.random.default_rng(46))  # starts the kept worker
    started, original = [], threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    taped_step(model, data, starts, np.random.default_rng(46))
    assert started == []


@pytest.mark.parametrize(
    "case", ["one window", "untaped", "Philox", "capture"],
)
def test_batches_that_do_not_split_run_the_window_loop(monkeypatch, region, case):
    model, data = region
    starts = data.train_windows()[: 1 if case == "one window" else 2]
    rng = np.random.Generator(np.random.Philox(46)) if case == "Philox" else np.random.default_rng(46)
    if case == "capture":
        model = RiskForecaster(model.config, model.a_norm, model.params, capture_attention=True)
    forks = count_forks(monkeypatch)
    if case == "untaped":
        tr.batch_loss(model, data, starts, training=True, rng=rng)
    else:
        taped_step(model, data, starts, rng)
    assert forks == []


def test_fixture_scale_batch_runs_the_window_loop(monkeypatch):
    cfg = ModelConfig(d=8, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1)
    model = RiskForecaster(cfg, knn_table(30, seed=47), seed=48)
    data = training_data(make_tensor(np.random.default_rng(49).uniform(0, 1, (130, 30, 3))), 12, 12)
    forks = count_forks(monkeypatch)
    taped_step(model, data, data.train_windows()[:16], np.random.default_rng(50))
    assert forks == []


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_dropout_draws_count_a_training_forward(dropout):
    cfg = ModelConfig(d=4, heads=2, layers=2, t_in=3, t_out=2, conv_kernel=3, dropout=dropout)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(5)), seed=51)
    rng = np.random.default_rng(52)
    ahead = np.random.default_rng(52)
    model.forward(np.ones((5, 3, 3)), training=True, rng=rng)
    ahead.bit_generator.advance(model.dropout_draws(training=True))
    assert rng.bit_generator.state == ahead.bit_generator.state
    assert model.dropout_draws(training=False) == 0
