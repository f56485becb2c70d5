import os
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from roadrisk import autodiff as ad
from roadrisk.autodiff import Tape, Tensor
from roadrisk.errors import ShapeMismatchError

from helpers import grad_check, neighbor_table


def param(data, seed=None):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


def test_matmul_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_case():
    # (2x3)@(3x2) worked out by hand
    a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = Tensor([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    expected = np.array([[58.0, 64.0], [139.0, 154.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, expected)


def test_matmul_gradient_against_finite_differences():
    rng = np.random.default_rng(0)
    a = param(rng.standard_normal((2, 3)))
    b = param(rng.standard_normal((3, 2)))
    err = grad_check(lambda: ad.sum_(ad.matmul(a, b)), [a, b])
    assert err < 1e-9


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3, 5))
    b = rng.standard_normal((4, 5, 2))
    out = ad.matmul(Tensor(a), Tensor(b)).data
    for i in range(4):
        np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=0, atol=0)


def test_matmul_broadcast_weight_gradient():
    # batched input against a shared 2-D weight: gradient sums over the batch
    rng = np.random.default_rng(2)
    x = param(rng.standard_normal((3, 4, 5)))
    w = param(rng.standard_normal((5, 2)))
    err = grad_check(lambda: ad.sum_(ad.matmul(x, w)), [x, w])
    assert err < 1e-7


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_sorted_equals_plain_matmul():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 4))
    got = ad.matmul_sorted(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, a @ b, rtol=1e-13, atol=1e-13)


def test_matmul_sorted_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(4)
    n, d = 7, 3
    m = rng.standard_normal((n, n))
    h = rng.standard_normal((n, d))
    base = ad.matmul_sorted(Tensor(m), Tensor(h)).data
    for seed in range(20):
        p = np.random.default_rng(seed).permutation(n)
        mp = m[np.ix_(p, p)]
        hp = h[p]
        got = ad.matmul_sorted(Tensor(mp), Tensor(hp)).data
        assert (got == base[p]).all()


def test_matmul_sorted_gradient():
    rng = np.random.default_rng(5)
    a = param(rng.standard_normal((3, 3)))
    b = param(rng.standard_normal((3, 2)))
    err = grad_check(lambda: ad.sum_(ad.matmul_sorted(a, b)), [a, b])
    assert err < 1e-7


def knn_norm(n, seed, k=4):
    """Symmetric normalized kNN adjacency over random points in the unit square."""
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


def graph_inputs(n, seed, weeks=3, d=4):
    rng = np.random.default_rng(seed)
    return knn_norm(n, seed), rng.standard_normal((weeks, n, d))


@pytest.mark.parametrize("n", [30, 300])
def test_edge_matmul_sorted_matches_dense_bitwise(n):
    adjacency, h = graph_inputs(n, seed=n)
    neighbors, weights = neighbor_table(adjacency)
    assert neighbors.shape[1] < n  # the gather really skips non-edges
    sparse_table = neighbor_table(sparse.csr_matrix(adjacency))
    assert (sparse_table[0] == neighbors).all() and (sparse_table[1] == weights).all()
    got = ad.edge_matmul_sorted(neighbors, weights, Tensor(h)).data
    dense = np.broadcast_to(adjacency, h.shape[:-1] + (n,)).copy()
    assert got.tobytes() == ad.matmul_sorted(Tensor(dense), Tensor(h)).data.tobytes()


def test_edge_matmul_sorted_gradient_matches_dense_chain():
    adjacency, h_data = graph_inputs(30, seed=7)
    upstream = np.random.default_rng(8).standard_normal(h_data.shape)

    def grad(edge):
        h = param(h_data)
        with Tape() as tape:
            if edge:
                out = ad.edge_matmul_sorted(*neighbor_table(adjacency), h)
            else:
                out = ad.matmul_sorted(Tensor(np.broadcast_to(adjacency, (3, 30, 30)).copy()), h)
            tape.backward(ad.sum_(ad.mul(out, upstream)))
        return h.grad

    assert np.abs(grad(True) - grad(False)).max() <= 1e-12


def test_edge_matmul_sorted_is_permutation_invariant_bitwise():
    n = 40
    adjacency, h = graph_inputs(n, seed=9)
    base = ad.edge_matmul_sorted(*neighbor_table(adjacency), Tensor(h)).data
    for seed in range(10):
        p = np.random.default_rng(seed).permutation(n)
        got = ad.edge_matmul_sorted(
            *neighbor_table(adjacency[np.ix_(p, p)]), Tensor(h[:, p])
        ).data
        assert got.tobytes() == base[:, p].tobytes()


def test_edge_matmul_sorted_isolated_node_and_zero_row():
    # node 0 has no edges and the weights of node 1 are all zero; the
    # features are all negative, so every dense term of those rows is -0.0,
    # and the two sums may disagree in the sign of the zero
    n = 12
    adjacency = knn_norm(n, seed=10)
    adjacency[0, :] = adjacency[:, 0] = 0.0
    h = -np.random.default_rng(12).uniform(0.5, 1.0, (2, n, 3))
    neighbors, weights = neighbor_table(adjacency)
    assert (neighbors[0] == -1).all()
    weights[1] = 0.0
    dense = adjacency.copy()
    dense[1] = 0.0
    got = ad.edge_matmul_sorted(neighbors, weights, Tensor(h)).data
    want = ad.matmul_sorted(Tensor(np.broadcast_to(dense, (2, n, n)).copy()), Tensor(h)).data
    assert np.array_equal(got, want)
    assert (got[:, :2] == 0.0).all()
    assert got[:, 2:].tobytes() == want[:, 2:].tobytes()
    empty = neighbor_table(np.zeros((n, n)))
    assert empty[0].shape == (n, 0)
    lone = ad.edge_matmul_sorted(*empty, Tensor(h)).data
    assert lone.shape == h.shape and (lone == 0.0).all()


def test_edge_matmul_sorted_shape_mismatch():
    neighbors, weights = neighbor_table(knn_norm(5, seed=13))
    with pytest.raises(ShapeMismatchError):
        ad.edge_matmul_sorted(neighbors, weights, Tensor(np.ones((2, 4, 3))))
    with pytest.raises(ShapeMismatchError):
        ad.edge_matmul_sorted(neighbors, weights[:, :-1], Tensor(np.ones((2, 5, 3))))


def attention_chain(q, k, adjacency, h):
    """The dense composition `edge_attention` replaces."""
    logits = ad.matmul(q, ad.transpose(k, (0, 2, 1)))
    s = ad.softmax_rows(ad.scale(logits, 1.0 / np.sqrt(q.shape[-1])))
    return ad.matmul_sorted(ad.mul(s, adjacency), h)


def attention_results(adjacency, arrays, upstream, fused=True, views=False):
    """Output and the gradients of q, k and h for sum(out * upstream)."""
    if views:  # the layout the model passes: node-major arrays seen week-major
        arrays = [np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2) for a in arrays]
    q, k, h = (param(a) for a in arrays)
    with Tape() as tape:
        if fused:
            neighbors, weights = neighbor_table(adjacency)
            out = ad.edge_attention(q, k, neighbors, weights, h)
        else:
            out = attention_chain(q, k, adjacency, h)
        tape.backward(ad.sum_(ad.mul(out, upstream)))
    return out.data, q.grad, k.grad, h.grad


def attention_inputs(n, seed, weeks=3, d=4, d_h=5):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((weeks, n, width)) for width in (d, d, d_h)]
    return arrays, rng.standard_normal((weeks, n, d_h))


@pytest.mark.parametrize("n", [30, 300])
def test_edge_attention_matches_dense_chain(n):
    adjacency = knn_norm(n, seed=20 + n)
    arrays, upstream = attention_inputs(n, seed=n)
    fused = attention_results(adjacency, arrays, upstream)
    dense = attention_results(adjacency, arrays, upstream, fused=False)
    for name, got, want in zip(["out", "dq", "dk", "dh"], fused, dense):
        assert np.abs(got - want).max() <= 1e-12, name
    rows = ad.attention_rows(arrays[0], arrays[1])
    want = ad.softmax_rows(np.einsum("wid,wjd->wij", arrays[0], arrays[1]) / 2.0).data
    assert np.abs(rows - want).max() <= 1e-12
    assert np.abs(rows.sum(axis=-1) - 1.0).max() <= 1e-12


def test_edge_attention_bitwise_across_block_sizes_and_layouts(monkeypatch):
    n, weeks = 61, 3
    adjacency = knn_norm(n, seed=21)
    arrays, upstream = attention_inputs(n, seed=22, weeks=weeks)
    base = attention_results(adjacency, arrays, upstream)  # one block, kept
    rows = ad.attention_rows(arrays[0], arrays[1])
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", 0)  # one block, recomputed
    got = attention_results(adjacency, arrays, upstream)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, base))
    for block_rows in (2, 7, 30):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", weeks * n * block_rows)
        assert len(ad._row_blocks(n, block_rows)) > 1
        got = attention_results(adjacency, arrays, upstream)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, base)), block_rows
        got = attention_results(adjacency, arrays, upstream, views=True)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, base)), block_rows
        assert ad.attention_rows(arrays[0], arrays[1]).tobytes() == rows.tobytes()


def test_edge_attention_bitwise_across_block_sizes_at_the_model_shape(monkeypatch):
    # One block takes the column pass from the row pass's dlogits; several
    # blocks recompute the columns. The one product whose bits depend on the
    # block is BLAS's g h^T, which rounds by the block's row count here, so
    # integer-valued g and h make it exact and the comparison bitwise.
    n, weeks = 300, 12
    adjacency = knn_norm(n, seed=35)
    (q, k, h), upstream = attention_inputs(n, seed=36, weeks=weeks, d=16, d_h=16)
    exact = [q, k, np.round(4 * h)], np.round(4 * upstream)
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", weeks * n * n)  # kept
    base = attention_results(adjacency, *exact)
    real = attention_results(adjacency, [q, k, h], upstream)
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", 0)  # one block, recomputed
    got = attention_results(adjacency, [q, k, h], upstream)
    for name, a, b in zip(["out", "dq", "dk", "dh"], got, real):
        assert a.tobytes() == b.tobytes(), name
    for blocks, block_rows in ((1, n), (2, 150), (3, 100)):
        monkeypatch.setattr(ad, "BLOCK_ELEMENTS", weeks * n * block_rows)
        assert len(ad._row_blocks(n, block_rows)) == blocks
        got = attention_results(adjacency, *exact)
        for name, a, b in zip(["out", "dq", "dk", "dh"], got, base):
            assert a.tobytes() == b.tobytes(), (blocks, name)
        got = attention_results(adjacency, [q, k, h], upstream)
        assert got[0].tobytes() == real[0].tobytes(), blocks
        for name, a, b in zip(["dq", "dk", "dh"], got[1:], real[1:]):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max(), (blocks, name)


def test_edge_attention_backward_holds_two_node_pair_buffers(monkeypatch):
    n, weeks = 300, 12
    node_pairs = weeks * n * n * 8  # bytes of one (weeks, n, n) float64 array
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", 0)  # one block, recomputed
    neighbors, weights = neighbor_table(knn_norm(n, seed=37))
    arrays, upstream = attention_inputs(n, seed=38, weeks=weeks, d=16, d_h=16)
    q, k, h = (param(a) for a in arrays)
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            loss = ad.sum_(ad.mul(ad.edge_attention(q, k, neighbors, weights, h), upstream))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tape keeps edges, not node pairs: the backward's buffers live in its call
    assert held - before < node_pairs / 4
    assert peak - held < 3 * node_pairs, f"{(peak - held) / node_pairs:.2f} node-pair arrays"


def test_edge_attention_is_permutation_invariant_bitwise():
    n = 300
    adjacency = knn_norm(n, seed=23)
    (q, k, h), _ = attention_inputs(n, seed=24, weeks=2, d=16, d_h=16)
    base = ad.edge_attention(q, k, *neighbor_table(adjacency), h).data
    for seed in range(3):
        p = np.random.default_rng(seed).permutation(n)
        got = ad.edge_attention(
            q[:, p], k[:, p], *neighbor_table(adjacency[np.ix_(p, p)]), h[:, p]
        ).data
        assert got.tobytes() == base[:, p].tobytes(), seed


def test_edge_attention_isolated_node():
    n = 12
    adjacency = knn_norm(n, seed=25)
    adjacency[0, :] = adjacency[:, 0] = 0.0
    arrays, upstream = attention_inputs(n, seed=26)
    fused = attention_results(adjacency, arrays, upstream)
    dense = attention_results(adjacency, arrays, upstream, fused=False)
    assert (fused[0][:, 0] == 0.0).all() and (fused[1][:, 0] == 0.0).all()
    for got, want in zip(fused, dense):
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("block_rows", [6, 2])
def test_edge_attention_padded_row_with_node_zero_as_neighbor(monkeypatch, block_rows):
    # row 1 has neighbours 0 and 2 and two padding slots; padding slots
    # alias column 0, so a gradient written slot by slot would drop node 0
    monkeypatch.setattr(ad, "BLOCK_ELEMENTS", 3 * 6 * block_rows)
    edges = [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4)]
    adjacency = np.zeros((6, 6))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 0.25 + 0.1 * (i + j)
    neighbors, _ = neighbor_table(adjacency)
    assert neighbors.shape[1] == 4 and list(neighbors[1]) == [0, 2, -1, -1]
    arrays, upstream = attention_inputs(6, seed=27)
    fused = attention_results(adjacency, arrays, upstream)
    dense = attention_results(adjacency, arrays, upstream, fused=False)
    for name, got, want in zip(["out", "dq", "dk", "dh"], fused, dense):
        assert np.abs(got - want).max() <= 1e-12, name


def test_edge_attention_shape_mismatch():
    neighbors, weights = neighbor_table(knn_norm(5, seed=28))
    ones = Tensor(np.ones((2, 5, 4)))
    with pytest.raises(ShapeMismatchError):
        ad.edge_attention(ones, Tensor(np.ones((2, 5, 3))), neighbors, weights, ones)
    with pytest.raises(ShapeMismatchError):
        ad.edge_attention(ones, ones, neighbors, weights, Tensor(np.ones((2, 4, 4))))
    with pytest.raises(ShapeMismatchError):
        ad.edge_attention(ones, ones, neighbors, weights[:, :-1], ones)


def threads_running_edge_sum(monkeypatch):
    """Record the thread of every `_edge_sum` call the forward makes."""
    seen, original = [], ad._edge_sum

    def recording(*args):
        seen.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(ad, "_edge_sum", recording)
    return seen


@pytest.mark.parametrize("weeks", [5, 1])
def test_edge_attention_week_split_matches_one_thread_bitwise(monkeypatch, weeks):
    n = 300
    adjacency = knn_norm(n, seed=31)
    arrays, upstream = attention_inputs(n, seed=32, weeks=weeks, d=16, d_h=16)
    seen = threads_running_edge_sum(monkeypatch)
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", weeks * n * n)  # kept: one thread
    base = attention_results(adjacency, arrays, upstream)
    assert set(seen) == {threading.get_ident()}
    seen.clear()
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", 0)  # recomputed: weeks split in two
    got = attention_results(adjacency, arrays, upstream)
    assert len(set(seen)) == min(weeks, 2)
    for name, a, b in zip(["out", "dq", "dk", "dh"], got, base):
        assert a.tobytes() == b.tobytes(), name
    seen.clear()
    with ad._busy:  # the worker is taken, as inside a `fork_join` half: both halves run here
        inline = attention_results(adjacency, arrays, upstream)
    assert set(seen) == {threading.get_ident()}
    for name, a, b in zip(["out", "dq", "dk", "dh"], inline, base):
        assert a.tobytes() == b.tobytes(), name


def test_edge_attention_worker_failure_reaches_caller(monkeypatch):
    n, weeks = 40, 4
    neighbors, weights = neighbor_table(knn_norm(n, seed=33))
    (q, k, h), _ = attention_inputs(n, seed=34, weeks=weeks)
    monkeypatch.setattr(ad, "KEEP_ELEMENTS", 0)
    original = ad._edge_sum

    def failing_off_caller(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker half")
        return original(*args)

    monkeypatch.setattr(ad, "_edge_sum", failing_off_caller)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker half"):
        ad.edge_attention(q, k, neighbors, weights, h)
    assert threading.active_count() <= before + 1  # the kept worker
    monkeypatch.setattr(ad, "_edge_sum", original)
    ad.edge_attention(q, k, neighbors, weights, h)
    assert threading.active_count() <= before + 1


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(6)
    a = param(rng.standard_normal((4, 3)))
    b = param(rng.standard_normal((3,)))

    def f():
        return ad.sum_(ad.mul(ad.add(a, b), b))

    assert grad_check(f, [a, b]) < 1e-7


def test_fanout_accumulates():
    x = param([2.0])
    with Tape() as tape:
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
        tape.backward(ad.sum_(y))
    assert x.grad[0] == pytest.approx(5.0)


def test_softmax_uniform_row():
    out = ad.softmax_rows(Tensor(np.zeros((2, 4))))
    np.testing.assert_allclose(out.data, np.full((2, 4), 0.25), atol=1e-15)


def test_softmax_mask_annihilates():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]]), mask=np.array([0.0, ad.MASK_VALUE]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 3)) * 5)
    sums = ad.softmax_rows(x).data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_softmax_all_masked_row_returns_zeros_and_warns():
    mask = np.array([[0.0, 0.0], [ad.MASK_VALUE, ad.MASK_VALUE]])
    with pytest.warns(UserWarning):
        out = ad.softmax_rows(Tensor(np.ones((2, 2))), mask=mask)
    np.testing.assert_array_equal(out.data[1], [0.0, 0.0])
    assert out.data[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_gradient():
    rng = np.random.default_rng(8)
    x = param(rng.standard_normal((3, 4)))
    w = param(rng.standard_normal((4, 1)))

    def f():
        return ad.sum_(ad.matmul(ad.softmax_rows(x), w))

    assert grad_check(f, [x, w]) < 1e-4


def test_softmax_masked_gradient():
    rng = np.random.default_rng(9)
    x = param(rng.standard_normal((3, 3)))
    mask = np.triu(np.full((3, 3), ad.MASK_VALUE), k=1)

    def f():
        return ad.sum_(ad.mul(ad.softmax_rows(x, mask=mask), x))

    assert grad_check(f, [x]) < 1e-4


def test_layer_norm_constant_row_is_zero():
    gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
    out = ad.layer_norm(Tensor(np.full((2, 4), 3.0)), gain, bias)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_row_statistics():
    # population variance: [1,2,3] -> mean 0, var 1 (up to eps)
    gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = ad.layer_norm(Tensor([[1.0, 2.0, 3.0]]), gain, bias, eps=0.0).data
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.var() == pytest.approx(1.0, rel=1e-12)


def test_layer_norm_gradient():
    rng = np.random.default_rng(10)
    x = param(rng.standard_normal((5, 6)))
    gain = param(rng.standard_normal(6))
    bias = param(rng.standard_normal(6))

    def f():
        return ad.sum_(ad.abs_(ad.layer_norm(x, gain, bias)))

    assert grad_check(f, [x, gain, bias]) < 1e-4


def naive_conv1d(x, w, b, causal):
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


def test_conv1d_identity_kernel():
    x = np.random.default_rng(11).standard_normal((2, 5, 3))
    w = np.zeros((3, 3, 3))
    w[1] = np.eye(3)  # center tap only
    out = ad.conv1d(Tensor(x), Tensor(w))
    np.testing.assert_array_equal(out.data, x)


@pytest.mark.parametrize("causal", [False, True])
def test_conv1d_matches_naive_oracle(causal):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 6, 3))
    w = rng.standard_normal((3, 3, 4))
    b = rng.standard_normal(4)
    got = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), causal=causal).data
    np.testing.assert_allclose(got, naive_conv1d(x, w, b, causal), atol=1e-12)


def test_conv1d_causal_ignores_future():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 6, 2))
    w = rng.standard_normal((3, 2, 2))
    base = ad.conv1d(Tensor(x), Tensor(w), causal=True).data
    bumped = x.copy()
    bumped[0, 5] += 10.0
    out = ad.conv1d(Tensor(bumped), Tensor(w), causal=True).data
    assert (out[0, :5] == base[0, :5]).all()


def test_conv1d_gradient():
    rng = np.random.default_rng(14)
    x = param(rng.standard_normal((2, 4, 3)))
    w = param(rng.standard_normal((3, 3, 2)))
    b = param(rng.standard_normal(2))

    def f():
        return ad.sum_(ad.relu(ad.conv1d(x, w, b, causal=True)))

    assert grad_check(f, [x, w, b]) < 1e-4


def test_concat_and_transpose_gradients():
    rng = np.random.default_rng(15)
    a = param(rng.standard_normal((2, 3)))
    b = param(rng.standard_normal((2, 2)))

    def f():
        joined = ad.concat([a, b], axis=1)
        return ad.sum_(ad.mul(ad.transpose(joined, (1, 0)), 2.0))

    assert grad_check(f, [a, b]) < 1e-9


def test_reshape_roundtrip_gradient():
    x = param(np.arange(6.0))

    def f():
        return ad.sum_(ad.mul(ad.reshape(x, (2, 3)), ad.reshape(x, (2, 3))))

    assert grad_check(f, [x]) < 1e-7


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.ones((3, 3)))
    out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert out is x


def test_dropout_training_scales_kept_entries():
    rng = np.random.default_rng(16)
    x = Tensor(np.ones(10_000))
    out = ad.dropout(x, 0.25, rng, training=True).data
    kept = out > 0
    assert abs(kept.mean() - 0.75) < 0.02
    np.testing.assert_allclose(out[kept], 1.0 / 0.75)


def test_linear_function_gradient_is_exact():
    rng = np.random.default_rng(17)
    x = param(rng.standard_normal((3, 3)))
    c = rng.standard_normal((3, 3))
    err = grad_check(lambda: ad.sum_(ad.mul(x, c)), [x])
    assert err < 1e-9


def test_softmax_matmul_chain_gradient():
    rng = np.random.default_rng(18)
    a = param(rng.standard_normal((3, 4)))
    b = param(rng.standard_normal((4, 3)))

    def f():
        return ad.mean_(ad.softmax_rows(ad.matmul(a, b)))

    assert grad_check(f, [a, b]) < 1e-4


def test_backward_deterministic():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((4, 4))

    def run():
        x = param(data.copy())
        w = Tensor(np.linspace(-1, 1, 16).reshape(4, 4), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_(ad.abs_(ad.matmul(ad.softmax_rows(x), w)))
            tape.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert (gx1 == gx2).all() and (gw1 == gw2).all()


def test_backward_requires_scalar_loss():
    x = param(np.ones((2, 2)))
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        with pytest.raises(ShapeMismatchError):
            tape.backward(y)


def test_accumulate_first_buffer():
    x = Tensor(np.zeros((3, 2)).T, requires_grad=True)  # a Fortran-ordered view
    x.accumulate(np.array([[-0.0, 1.0, -2.0], [3.0, -0.0, 0.5]]))
    assert x.grad.tolist() == [[0.0, 1.0, -2.0], [3.0, 0.0, 0.5]]
    assert not np.signbit(x.grad[x.grad == 0.0]).any()  # -0.0 + 0.0 is +0.0
    assert x.grad.flags.f_contiguous  # the data's layout, as zeros_like gave
    x.accumulate(np.ones((2, 3)))
    assert x.grad.tolist() == [[1.0, 2.0, -1.0], [4.0, 1.0, 1.5]]
    with pytest.raises(ShapeMismatchError):
        x.accumulate(np.ones(3))  # would broadcast: a VJP of the wrong shape


def weighted_sum(params, row):
    """fork_join's loss function for the tests: one scalar per row."""
    return ad.sum_(ad.mul(params["w"], row))


def fork_step(w, *parts):
    w.zero_grad()
    with Tape() as tape:
        loss = ad.fork_join(weighted_sum, {"w": w}, parts)
        tape.backward(loss)
    return loss


def test_fork_join_matches_one_tape():
    rng = np.random.default_rng(60)
    w = param(rng.standard_normal(5))
    rows = rng.standard_normal((3, 5))
    for parts in ([rows[:2], rows[2:]], [rows]):  # on two threads, and on one
        loss = fork_step(w, *parts)
        got = w.grad.copy()
        w.zero_grad()
        with Tape() as tape:
            terms = [weighted_sum({"w": w}, row) for row in rows]
            want = ad.scale(ad.add(ad.add(terms[0], terms[1]), terms[2]), 1.0 / 3)
            tape.backward(want)
        assert loss.data.tobytes() == want.data.tobytes()
        assert got.tobytes() == w.grad.tobytes()
        assert loss.grad is None  # an op output: freed once passed on


def failing_off_main(tensor):
    """An identity op whose forward and backward fail off the main thread
    when `tensor` carries the marker value 13.0."""

    def check():
        if tensor.data.flat[0] == 13.0 and threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker half")

    def vjp(g):
        check()
        return g

    return check, ad._op(tensor.data.copy(), (tensor, vjp))


@pytest.mark.parametrize("where", ["forward", "backward"])
def test_fork_join_failure_in_half_one_reaches_caller(where):
    def losses(params, row):
        check, out = failing_off_main(ad.mul(params["w"], row))
        if where == "forward":
            check()
        return ad.sum_(out)

    w = param(np.ones(3))
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker half"):
        with Tape() as tape:
            tape.backward(ad.fork_join(losses, {"w": w}, [[np.ones(3)], [np.full(3, 13.0)]]))
    # the worker survives a failure and takes the next step
    fork_step(w, np.ones((1, 3)), np.ones((1, 3)))
    np.testing.assert_array_equal(w.grad, np.full(3, 1.0))
    assert threading.active_count() <= before + 1


def test_fork_join_keeps_one_worker_thread():
    w = param(np.ones(4))
    fork_step(w, np.ones((1, 4)), np.ones((1, 4)))
    after_one = threading.active_count()
    for _ in range(2):
        fork_step(w, np.ones((1, 4)), np.ones((1, 4)))
    assert threading.active_count() == after_one


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_both_runs_in_a_child_forked_after_a_split():
    # the child inherits an executor whose worker thread it does not have
    ad._both(lambda: None, lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)  # a hang ends the child by SIGALRM
            ran = []
            ad._both(lambda: ran.append(0), lambda: ran.append(1))
            code = 0 if sorted(ran) == [0, 1] else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def blas_count():
    functions = ad._blas_threads()
    return None if functions is None else functions[1]()


@pytest.fixture
def missing_blas_symbol(monkeypatch):
    monkeypatch.setattr(ad, "BLAS_SET_THREADS", "no_such_symbol")
    ad._blas_threads.cache_clear()
    yield
    ad._blas_threads.cache_clear()
    monkeypatch.undo()
    ad._blas_threads.cache_clear()


def backward_seeing_blas():
    """Run a backward whose one step records the BLAS thread count."""
    seen = []
    x = param(np.ones(2))

    def vjp(g):
        seen.append(blas_count())
        return g

    with Tape() as tape:
        tape.backward(ad.sum_(ad._op(x.data * 2.0, (x, vjp))))
    return seen


@pytest.mark.skipif(ad._blas_threads() is None, reason="numpy's BLAS has no thread-count call")
def test_backward_pins_blas_to_one_thread_and_restores_it():
    set_threads, get_threads = ad._blas_threads()
    found = get_threads()
    set_threads(2)
    try:
        assert backward_seeing_blas() == [1]
        assert get_threads() == 2
        with ad.blas_single_thread():  # re-entrant
            assert backward_seeing_blas() == [1]
            assert get_threads() == 1
        assert get_threads() == 2
    finally:
        set_threads(found)
    assert ad.blas_info()["backward_threads"] == 1


def test_missing_blas_symbol_makes_the_pin_a_no_op(missing_blas_symbol):
    assert ad._blas_threads() is None
    assert backward_seeing_blas() == [None]
    assert ad.blas_info()["backward_threads"] is None


def test_backward_frees_op_output_gradients_and_keeps_the_leaves():
    x, w = param(np.arange(6.0).reshape(2, 3)), param(np.ones((3, 2)))
    with Tape() as tape:
        h = ad.matmul(x, w)
        r = ad.relu(h)
        loss = ad.mean_(r)
        tape.backward(loss)
    assert h.grad is None and r.grad is None and loss.grad is None
    assert x.grad is not None and w.grad is not None


def test_fork_join_from_many_threads_keeps_every_gradient():
    # more callers than cores race for the one worker and the BLAS pin's
    # count; a lost update would show as a wrong gradient or a pin left on
    found = blas_count()
    rows = np.random.default_rng(61).standard_normal((4, 6))
    want = rows.mean(axis=0)
    results, errors = [], []

    def caller(seed):
        try:
            w = param(np.random.default_rng(seed).standard_normal(6))
            for _ in range(20):
                fork_step(w, rows[:2], rows[2:])
                results.append(np.abs(w.grad - want).max())
        except BaseException as exc:
            errors.append(exc)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 6 * 20 and max(results) <= 1e-12
    assert blas_count() == found
