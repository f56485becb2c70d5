import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from roadrisk import autodiff as ad
from roadrisk import model as md
from roadrisk.autodiff import Tape, Tensor
from roadrisk.errors import ConfigError, ShapeMismatchError
from roadrisk.model import ModelConfig, RiskForecaster

from helpers import csr, grad_check, neighbor_table


def ring_norm(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def tiny_config(**overrides):
    base = dict(d=4, heads=2, layers=1, t_in=2, t_out=2, conv_kernel=3, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=5, heads=2)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(t_out=0)


def test_embed_zero_input_zero_bias():
    model = RiskForecaster(tiny_config(), neighbor_table(ring_norm(3)), seed=0)
    out = model.embed(np.zeros((3, 2, 3)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_embed_identity_projection():
    cfg = tiny_config(d=3, heads=3)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=0)
    model.params["embed.w"] = Tensor(np.eye(3), requires_grad=True)
    x = np.random.default_rng(0).standard_normal((3, 2, 3))
    np.testing.assert_array_equal(model.embed(x).data, x)


def test_embed_matches_matmul_oracle():
    model = RiskForecaster(tiny_config(), neighbor_table(ring_norm(3)), seed=1)
    x = np.random.default_rng(1).standard_normal((3, 2, 3))
    got = model.embed(x).data
    w, b = model.params["embed.w"].data, model.params["embed.b"].data
    np.testing.assert_allclose(got, x @ w + b, atol=1e-14)


def test_spatial_gcn_isolated_node_outputs_zero():
    cfg = tiny_config()
    model = RiskForecaster(cfg, neighbor_table(np.zeros((1, 1))), seed=2)
    h = Tensor(np.random.default_rng(2).standard_normal((1, 2, 4)))
    out = model._spatial_gcn(h, "enc0.gcn")
    np.testing.assert_array_equal(out.data, 0.0)


def np_softmax(z, mask=None):
    if mask is not None:
        z = z + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    if mask is not None:
        e = np.where(mask <= ad.MASK_VALUE / 2, 0.0, e)
    return e / e.sum(axis=-1, keepdims=True)


def test_spatial_gcn_two_node_hand_oracle():
    cfg = tiny_config(d=2, heads=1, t_in=1, t_out=1)
    a_norm = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = RiskForecaster(cfg, neighbor_table(a_norm), seed=3)
    h_np = np.array([[[1.0, 2.0]], [[3.0, -1.0]]])  # (2 nodes, 1 week, d=2)
    out = model._spatial_gcn(Tensor(h_np), "enc0.gcn").data

    ht = h_np.transpose(1, 0, 2)[0]  # (2, 2) single week
    acc = np.zeros((2, 2))
    for f in range(3):
        wq = model.params[f"enc0.gcn.p{f}.wq"].data
        wk = model.params[f"enc0.gcn.p{f}.wk"].data
        theta = model.params[f"enc0.gcn.p{f}.theta"].data
        s = np_softmax((ht @ wq) @ (ht @ wk).T / math.sqrt(2))
        msg = (a_norm * s) @ ht
        acc += np.maximum(msg @ theta, 0.0)
    np.testing.assert_allclose(out[:, 0, :], acc / 3, atol=1e-12)


def test_temporal_attention_single_step_is_identity_weight():
    cfg = tiny_config(t_in=1, t_out=1)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=4, capture_attention=True)
    h = Tensor(np.random.default_rng(4).standard_normal((3, 1, 4)))
    model.attention_log = []
    model._self_attention(h, "enc0.attn", causal=True)
    attn = model.attention_log[-1]["weights"]
    np.testing.assert_array_equal(attn, np.ones_like(attn))


def test_attention_rows_sum_to_one_everywhere():
    cfg = tiny_config(t_in=5, t_out=4)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(4)), seed=5, capture_attention=True)
    x = np.random.default_rng(5).uniform(0, 1, (4, 5, 3))
    model.predict(x)
    assert model.attention_log  # encoder + decoder sites
    for entry in model.attention_log:
        sums = entry["weights"].sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12, entry["site"]


def test_forward_output_shape_and_determinism():
    cfg = tiny_config(t_in=4, t_out=3)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(5)), seed=6)
    x = np.random.default_rng(6).uniform(0, 1, (5, 4, 3))
    y1 = model.predict(x)
    y2 = model.predict(x)
    assert y1.shape == (5, 3)
    assert (y1 == y2).all()


def test_forward_rejects_wrong_shapes():
    model = RiskForecaster(tiny_config(), neighbor_table(ring_norm(3)), seed=7)
    with pytest.raises(ShapeMismatchError):
        model.predict(np.zeros((2, 2, 3)))  # node count mismatch
    with pytest.raises(ShapeMismatchError):
        model.predict(np.zeros((3, 5, 3)))  # window mismatch
    with pytest.raises(ShapeMismatchError):
        model.predict(np.zeros((3, 2, 2)))  # channel mismatch


def test_node_permutation_equivariance_bitwise():
    cfg = tiny_config(d=8, heads=2, t_in=3, t_out=3)
    rng = np.random.default_rng(8)
    n = 5
    raw = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
    raw = raw + raw.T
    deg = raw.sum(axis=1)
    a_norm = raw / np.sqrt(np.outer(deg, deg))
    model = RiskForecaster(cfg, neighbor_table(a_norm), seed=9)
    x = rng.uniform(0, 1, (n, 3, 3))
    base = model.predict(x)
    for seed in range(5):
        p = np.random.default_rng(seed).permutation(n)
        permuted_model = RiskForecaster(
            cfg, neighbor_table(a_norm[np.ix_(p, p)]), params=model.params, seed=0
        )
        got = permuted_model.predict(x[p])
        assert (got == base[p]).all(), f"permutation {p} broke equivariance"


def test_decoder_causality_exact():
    cfg = tiny_config(t_in=3, t_out=4)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(4)), seed=10)
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (4, 3, 3))
    with ad.no_grad():
        enc = model.encode(x)
        dec_in = model.decoder_start(4).data.copy()
        base = model.head(model.decode(Tensor(dec_in), enc)).data
        for t_star in range(1, 4):
            bumped = dec_in.copy()
            bumped[:, t_star, :] += rng.standard_normal((4, cfg.d))
            out = model.head(model.decode(Tensor(bumped), enc)).data
            assert (out[:, :t_star] == base[:, :t_star]).all()
            assert not np.allclose(out[:, t_star:], base[:, t_star:])


def test_encoder_residual_identity_with_zero_weights():
    # zero weights in the encoder make both sublayers vanish, so the encoder
    # output equals its input (embedding + position encoding)
    cfg = tiny_config(t_in=3, t_out=2)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=11)
    for name, tensor in model.params.items():
        if name.startswith("enc0") and not name.endswith((".gain", ".bias")):
            tensor.data[:] = 0.0
    x = np.random.default_rng(11).uniform(0, 1, (3, 3, 3))
    with ad.no_grad():
        out = model.encode(x)
        base = ad.add(model.embed(x), model._pe_enc).data
    np.testing.assert_array_equal(out.data, base)


def test_gradient_reaches_inputs_and_all_params():
    cfg = tiny_config(t_in=3, t_out=2)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=12)
    x = Tensor(np.random.default_rng(12).uniform(0, 1, (3, 3, 3)), requires_grad=True)
    with Tape() as tape:
        y = model.forward(x)
        loss = ad.mean_(ad.abs_(y))
        tape.backward(loss)
    assert x.grad is not None and np.abs(x.grad).max() > 0
    reached = sum(
        1 for t in model.params.values() if t.grad is not None and np.abs(t.grad).max() > 0
    )
    assert reached >= len(model.params) - 2  # relu dead zones may null a couple


def test_full_model_gradient_check():
    cfg = tiny_config()
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=13)
    x = np.random.default_rng(13).uniform(0, 1, (3, 2, 3))
    target = np.random.default_rng(14).uniform(0, 1, (3, 2))

    def loss_fn():
        return ad.mean_(ad.abs_(ad.sub(model.forward(x), target)))

    err = grad_check(loss_fn, list(model.params.values()), max_coords=4, seed=0)
    assert err < 1e-3


def np_layernorm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def np_conv1d(x, w, b, causal):
    k = w.shape[0]
    n, t, _ = x.shape
    pad_l = k - 1 if causal else (k - 1) // 2
    out = np.zeros((n, t, w.shape[2]))
    for i in range(n):
        for s in range(t):
            for j in range(k):
                src = s + j - pad_l
                if 0 <= src < t:
                    out[i, s] += x[i, src] @ w[j]
    return out + b


def np_temporal_attention(p, prefix, h, causal, heads):
    n, t, d = h.shape
    dk = d // heads
    stem = np_conv1d(h, p[f"{prefix}.conv.w"].data, p[f"{prefix}.conv.b"].data, causal)
    out = np.zeros_like(h)
    mask = md.causal_mask(t) if causal else None
    qa = stem @ p[f"{prefix}.wq"].data
    ka = stem @ p[f"{prefix}.wk"].data
    va = stem @ p[f"{prefix}.wv"].data
    mixed = np.zeros_like(h)
    for head in range(heads):
        sl = slice(head * dk, (head + 1) * dk)
        q, k, v = qa[:, :, sl], ka[:, :, sl], va[:, :, sl]
        for i in range(n):
            scores = q[i] @ k[i].T / math.sqrt(dk)
            attn = np_softmax(scores, mask)
            mixed[i, :, sl] = attn @ v[i]
    out = mixed @ p[f"{prefix}.wo"].data
    return out


def np_cross_attention(p, prefix, queries, memory, heads):
    n, t_q, d = queries.shape
    dk = d // heads
    qa = queries @ p[f"{prefix}.wq"].data
    ka = memory @ p[f"{prefix}.wk"].data
    va = memory @ p[f"{prefix}.wv"].data
    mixed = np.zeros_like(queries)
    for head in range(heads):
        sl = slice(head * dk, (head + 1) * dk)
        for i in range(n):
            scores = qa[i, :, sl] @ ka[i, :, sl].T / math.sqrt(dk)
            mixed[i, :, sl] = np_softmax(scores) @ va[i, :, sl]
    return mixed @ p[f"{prefix}.wo"].data


def np_spatial_gcn(p, prefix, h, a_norm):
    n, t, d = h.shape
    out = np.zeros_like(h)
    for step in range(t):
        ht = h[:, step, :]
        acc = np.zeros((n, d))
        for f in range(3):
            q = ht @ p[f"{prefix}.p{f}.wq"].data
            k = ht @ p[f"{prefix}.p{f}.wk"].data
            s = np_softmax(q @ k.T / math.sqrt(d))
            msg = (a_norm * s) @ ht
            acc += np.maximum(msg @ p[f"{prefix}.p{f}.theta"].data, 0.0)
        out[:, step, :] = acc / 3
    return out


def np_forward(model, x):
    """Independent step-by-step dense re-implementation of the forward pass."""
    p, cfg = model.params, model.config
    a_norm = csr(model.a_norm).toarray()
    ln = lambda name, z: np_layernorm(z, p[f"{name}.gain"].data, p[f"{name}.bias"].data)
    h = x @ p["embed.w"].data + p["embed.b"].data + md.sinusoidal_encoding(cfg.t_in, cfg.d)
    for layer in range(cfg.layers):
        enc = f"enc{layer}"
        h = h + np_temporal_attention(p, f"{enc}.attn", ln(f"{enc}.ln1", h), False, cfg.heads)
        h = h + np_spatial_gcn(p, f"{enc}.gcn", ln(f"{enc}.ln2", h), a_norm)
    n = x.shape[0]
    dec = (
        np.zeros((n, cfg.t_out, cfg.d))
        + p["start_token"].data
        + md.sinusoidal_encoding(cfg.t_out, cfg.d)
    )
    for layer in range(cfg.layers):
        name = f"dec{layer}"
        dec = dec + np_temporal_attention(p, f"{name}.self", ln(f"{name}.ln1", dec), True, cfg.heads)
        dec = dec + np_cross_attention(p, f"{name}.cross", ln(f"{name}.ln2", dec), h, cfg.heads)
        dec = dec + np_spatial_gcn(p, f"{name}.gcn", ln(f"{name}.ln3", dec), a_norm)
    return (dec @ p["head.w"].data + p["head.b"].data)[:, :, 0]


def test_tiny_forward_matches_independent_oracle():
    cfg = tiny_config()  # n=3 nodes, t=2, d=4
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=15)
    x = np.random.default_rng(15).uniform(0, 1, (3, 2, 3))
    got = model.predict(x)
    want = np_forward(model, x)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_plain_gcn_variant_runs_and_differs():
    rng = np.random.default_rng(16)
    x = rng.uniform(0, 1, (4, 3, 3))
    attn_model = RiskForecaster(
        tiny_config(t_in=3, t_out=2, spatial_attention=True), neighbor_table(ring_norm(4)), seed=17
    )
    plain_model = RiskForecaster(
        tiny_config(t_in=3, t_out=2, spatial_attention=False),
        neighbor_table(ring_norm(4)),
        params=attn_model.params,
    )
    y_attn = attn_model.predict(x)
    y_plain = plain_model.predict(x)
    assert y_attn.shape == y_plain.shape
    assert not np.allclose(y_attn, y_plain)


def test_dropout_changes_training_forward_only():
    cfg = tiny_config(t_in=3, t_out=2, dropout=0.4)
    model = RiskForecaster(cfg, neighbor_table(ring_norm(3)), seed=18)
    x = np.random.default_rng(18).uniform(0, 1, (3, 3, 3))
    eval_out = model.predict(x)
    with ad.no_grad():
        train_out = model.forward(x, training=True, rng=np.random.default_rng(0)).data
        train_out2 = model.forward(x, training=True, rng=np.random.default_rng(0)).data
    assert not np.allclose(eval_out, train_out)
    assert (train_out == train_out2).all()  # same seed, same mask


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = RiskForecaster(tiny_config(), neighbor_table(ring_norm(3)), seed=19)
    path = tmp_path / "params.npz"
    md.save_checkpoint(model.params, path)
    loaded = md.load_checkpoint(path, tiny_config())
    assert list(loaded) == list(model.params)
    for name in model.params:
        assert (loaded[name].data == model.params[name].data).all()
    clone = RiskForecaster(tiny_config(), neighbor_table(ring_norm(3)), params=loaded)
    x = np.random.default_rng(19).uniform(0, 1, (3, 2, 3))
    assert (clone.predict(x) == model.predict(x)).all()


def test_checkpoint_is_byte_identical_across_saves(tmp_path, monkeypatch):
    import time

    params = md.init_params(tiny_config(), seed=19)
    md.save_checkpoint(params, tmp_path / "a.npz")
    monkeypatch.setattr(time, "time", lambda: 2e9)  # a save years later
    md.save_checkpoint(params, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_attention_capture_is_off_by_default():
    model = RiskForecaster(tiny_config(t_in=3, t_out=2), neighbor_table(ring_norm(4)), seed=20)
    x = np.random.default_rng(20).uniform(0, 1, (4, 3, 3))
    model.predict(x)
    with ad.Tape() as tape:
        tape.backward(ad.mean_(model.forward(x, training=True, rng=np.random.default_rng(0))))
    assert model.attention_log == []


def ring_csr(n, reach=2):
    """Normalized ring lattice joining each node to `reach` neighbours per side."""
    rows = np.repeat(np.arange(n), 2 * reach)
    offsets = np.tile(np.r_[-reach:0, 1 : reach + 1], n)
    a = sparse.csr_matrix((np.ones(rows.size), (rows, (rows + offsets) % n)), shape=(n, n))
    inv = sparse.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return (inv @ a @ inv).tocsr()


def test_model_on_csr_graph_allocates_no_node_pair_array():
    n = 6500
    graph = ring_csr(n)
    tracemalloc.start()
    try:
        model = RiskForecaster(tiny_config(d=16, heads=2), neighbor_table(graph), seed=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert model.a_norm.neighbors.shape == (n, 4)


# the package and these tests' helpers, for the scripts run in child processes
CHILD_PATH = os.pathsep.join(
    [str(Path(md.__file__).resolve().parents[1]), str(Path(__file__).parent)]
)

TRAIN_STEP_2000 = """
import resource
import numpy as np
from scipy import sparse
from helpers import neighbor_table
from roadrisk import autodiff as ad
from roadrisk.model import ModelConfig, RiskForecaster

n = 2000
rows = np.repeat(np.arange(n), 4)
cols = (rows + np.tile([-2, -1, 1, 2], n)) % n
inv = sparse.diags(np.full(n, 0.5))  # every degree is 4
graph = (inv @ sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)) @ inv).tocsr()
cfg = ModelConfig(d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1)
model = RiskForecaster(cfg, neighbor_table(graph), seed=0)
rng = np.random.default_rng(0)
x, y = rng.uniform(0, 1, (n, 12, 3)), rng.uniform(0, 1, (n, 12))
with ad.Tape() as tape:
    loss = ad.mean_(ad.abs_(ad.sub(model.forward(x, training=True, rng=rng), y)))
    tape.backward(loss)
assert all(t.grad is not None for t in model.params.values())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.slow
def test_training_step_at_2000_nodes_stays_under_1_gb():
    # in a child process, so that the peak is this step's alone
    done = subprocess.run([sys.executable, "-c", TRAIN_STEP_2000], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": CHILD_PATH})
    peak_kib = int(done.stdout.split()[-1])  # Linux reports ru_maxrss in KiB
    assert peak_kib < 2**20, f"peak RSS {peak_kib / 2**10:.0f} MiB"


def zero_filled_accumulate(self, g):
    """`Tensor.accumulate` as it was before its first buffer became g + 0.0."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


@pytest.mark.parametrize("n", [30, 300])
def test_first_gradient_buffer_matches_zero_fill_bitwise(monkeypatch, n):
    cfg = ModelConfig(d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1)
    model = RiskForecaster(cfg, neighbor_table(ring_csr(n)), seed=n)
    rng = np.random.default_rng(n)
    x, y = rng.uniform(0, 1, (n, 12, 3)), rng.uniform(0, 1, (n, 12))

    def step_grads():
        for t in model.params.values():
            t.zero_grad()
        with ad.Tape() as tape:
            out = model.forward(x, training=True, rng=np.random.default_rng(0))
            tape.backward(ad.mean_(ad.abs_(ad.sub(out, y))))
        return {name: t.grad for name, t in model.params.items()}

    got = step_grads()
    monkeypatch.setattr(Tensor, "accumulate", zero_filled_accumulate)
    want = step_grads()
    for name, g in want.items():
        assert got[name].tobytes() == g.tobytes(), name


FORECAST_300 = """
import hashlib, os, sys
if sys.argv[1:] == ["pinned"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from scipy import sparse
from helpers import neighbor_table, training_data
from roadrisk import autodiff as ad
from roadrisk.features import RiskTensor
from roadrisk.model import ModelConfig, RiskForecaster
from roadrisk.training import batch_loss

n = 300
rng = np.random.default_rng(3)
points = rng.uniform(0, 1, (n, 2))
near = np.argsort(((points[:, None] - points[None]) ** 2).sum(-1), axis=1)[:, 1:5]
a = sparse.csr_matrix((np.ones(4 * n), (np.repeat(np.arange(n), 4), near.ravel())), shape=(n, n))
a = a.maximum(a.T)
inv = sparse.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
cfg = ModelConfig(d=16, heads=2, layers=1, t_in=12, t_out=12, conv_kernel=3, dropout=0.1)
model = RiskForecaster(cfg, neighbor_table(inv @ a @ inv), seed=4)
forecast = model.predict(rng.uniform(0, 1, (n, 12, 3)))
print("forecast", hashlib.sha256(forecast.tobytes()).hexdigest())
values = rng.uniform(0, 1, (120, n, 3))
data = training_data(RiskTensor([str(w) for w in range(120)], values), 12, 12)
with ad.Tape() as tape:
    loss = batch_loss(model, data, [0, 1], training=True, rng=np.random.default_rng(5))
    tape.backward(loss)
print("loss", loss.data.tobytes().hex())
for name, t in model.params.items():
    print(name, hashlib.sha256(t.grad.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_forecast_is_bitwise_independent_of_thread_count():
    # The spatial attention forward splits the weeks over two threads, a
    # taped 300-node batch splits its windows over two, and the BLAS
    # library picks its own thread count. So one 300-node forecast and
    # every parameter gradient of one taped 2-window step run in child
    # processes under one and two BLAS threads, and pinned to one CPU.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = CHILD_PATH
    runs = [({**env, "OPENBLAS_NUM_THREADS": t}, []) for t in ("1", "2")] + [(env, ["pinned"])]
    outputs = [
        subprocess.run([sys.executable, "-c", FORECAST_300, *args], check=True,
                       capture_output=True, text=True, env=run_env, timeout=120).stdout
        for run_env, args in runs
    ]
    lines = outputs[0].splitlines()
    assert len(lines) == 2 + len(md.init_params(ModelConfig(d=16, heads=2, layers=1)))
    for out in outputs[1:]:
        assert [a for a, b in zip(out.splitlines(), lines) if a != b] == []
        assert len(out.splitlines()) == len(lines)
