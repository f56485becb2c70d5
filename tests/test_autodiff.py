import numpy as np
import pytest

from roadrisk import autodiff as ad
from roadrisk.autodiff import Tape, Tensor
from roadrisk.errors import ShapeMismatchError


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
    err = ad.grad_check(lambda: ad.sum_(ad.matmul(a, b)), [a, b])
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
    err = ad.grad_check(lambda: ad.sum_(ad.matmul(x, w)), [x, w])
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
    err = ad.grad_check(lambda: ad.sum_(ad.matmul_sorted(a, b)), [a, b])
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
    adjacency = knn_norm(n, seed)
    s = ad.softmax_rows(Tensor(rng.standard_normal((weeks, n, n)))).data
    h = rng.standard_normal((weeks, n, d))
    return adjacency, s, h


@pytest.mark.parametrize("n", [30, 300])
def test_edge_matmul_sorted_matches_dense_bitwise(n):
    adjacency, s, h = graph_inputs(n, seed=n)
    neighbors = ad.neighbor_table(adjacency)
    assert neighbors.shape[1] < n  # the gather really skips non-edges
    got = ad.edge_matmul_sorted(Tensor(s), adjacency, neighbors, Tensor(h)).data
    want = ad.matmul_sorted(Tensor(s * adjacency), Tensor(h)).data
    assert got.tobytes() == want.tobytes()
    plain = ad.edge_matmul_sorted(None, adjacency, neighbors, Tensor(h)).data
    dense = np.broadcast_to(adjacency, s.shape).copy()
    assert plain.tobytes() == ad.matmul_sorted(Tensor(dense), Tensor(h)).data.tobytes()


@pytest.mark.parametrize("attention", [True, False])
def test_edge_matmul_sorted_gradients_match_dense_chain_bitwise(attention):
    adjacency, s_data, h_data = graph_inputs(30, seed=7)
    upstream = np.random.default_rng(8).standard_normal(h_data.shape)

    def grads(edge):
        s, h = param(s_data), param(h_data)
        with Tape() as tape:
            if edge:
                out = ad.edge_matmul_sorted(
                    s if attention else None, adjacency, ad.neighbor_table(adjacency), h
                )
            else:
                gate = (
                    ad.mul(s, adjacency[None])
                    if attention
                    else Tensor(np.broadcast_to(adjacency, s_data.shape).copy())
                )
                out = ad.matmul_sorted(gate, h)
            tape.backward(ad.sum_(ad.mul(out, upstream)))
        return s.grad, h.grad

    (s_edge, h_edge), (s_dense, h_dense) = grads(True), grads(False)
    assert h_edge.tobytes() == h_dense.tobytes()
    if attention:
        assert s_edge.tobytes() == s_dense.tobytes()
    else:
        assert s_edge is None and s_dense is None


def test_edge_matmul_sorted_is_permutation_invariant_bitwise():
    n = 40
    adjacency, s, h = graph_inputs(n, seed=9)
    base = ad.edge_matmul_sorted(
        Tensor(s), adjacency, ad.neighbor_table(adjacency), Tensor(h)
    ).data
    for seed in range(10):
        p = np.random.default_rng(seed).permutation(n)
        ap = adjacency[np.ix_(p, p)]
        got = ad.edge_matmul_sorted(
            Tensor(s[:, p][:, :, p]), ap, ad.neighbor_table(ap), Tensor(h[:, p])
        ).data
        assert got.tobytes() == base[:, p].tobytes()


def test_edge_matmul_sorted_isolated_node_and_zero_row():
    # node 0 has no edges and the gate of node 1 is all zero; the features
    # are all negative, so every dense term of those rows is -0.0, and the
    # two sums may disagree in the sign of the zero (the documented exception)
    n = 12
    adjacency = knn_norm(n, seed=10)
    adjacency[0, :] = adjacency[:, 0] = 0.0
    s = ad.softmax_rows(Tensor(np.random.default_rng(11).standard_normal((2, n, n)))).data
    s[:, 1, :] = 0.0
    h = -np.random.default_rng(12).uniform(0.5, 1.0, (2, n, 3))
    neighbors = ad.neighbor_table(adjacency)
    assert (neighbors[0] == -1).all()
    got = ad.edge_matmul_sorted(Tensor(s), adjacency, neighbors, Tensor(h)).data
    want = ad.matmul_sorted(Tensor(s * adjacency), Tensor(h)).data
    assert np.array_equal(got, want)
    assert (got[:, :2] == 0.0).all()
    assert got[:, 2:].tobytes() == want[:, 2:].tobytes()
    empty = np.zeros((n, n))
    lone = ad.edge_matmul_sorted(None, empty, ad.neighbor_table(empty), Tensor(h)).data
    assert lone.shape == h.shape and (lone == 0.0).all()


def test_edge_matmul_sorted_shape_mismatch():
    adjacency = knn_norm(5, seed=13)
    with pytest.raises(ShapeMismatchError):
        ad.edge_matmul_sorted(
            None, adjacency, ad.neighbor_table(adjacency), Tensor(np.ones((2, 4, 3)))
        )
    with pytest.raises(ShapeMismatchError):
        ad.edge_matmul_sorted(
            Tensor(np.ones((2, 5, 4))), adjacency, ad.neighbor_table(adjacency),
            Tensor(np.ones((2, 5, 3))),
        )


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(6)
    a = param(rng.standard_normal((4, 3)))
    b = param(rng.standard_normal((3,)))

    def f():
        return ad.sum_(ad.mul(ad.add(a, b), b))

    assert ad.grad_check(f, [a, b]) < 1e-7


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

    assert ad.grad_check(f, [x, w]) < 1e-4


def test_softmax_masked_gradient():
    rng = np.random.default_rng(9)
    x = param(rng.standard_normal((3, 3)))
    mask = np.triu(np.full((3, 3), ad.MASK_VALUE), k=1)

    def f():
        return ad.sum_(ad.mul(ad.softmax_rows(x, mask=mask), x))

    assert ad.grad_check(f, [x]) < 1e-4


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

    assert ad.grad_check(f, [x, gain, bias]) < 1e-4


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

    assert ad.grad_check(f, [x, w, b]) < 1e-4


def test_concat_and_transpose_gradients():
    rng = np.random.default_rng(15)
    a = param(rng.standard_normal((2, 3)))
    b = param(rng.standard_normal((2, 2)))

    def f():
        joined = ad.concat([a, b], axis=1)
        return ad.sum_(ad.mul(ad.transpose(joined, (1, 0)), 2.0))

    assert ad.grad_check(f, [a, b]) < 1e-9


def test_reshape_roundtrip_gradient():
    x = param(np.arange(6.0))

    def f():
        return ad.sum_(ad.mul(ad.reshape(x, (2, 3)), ad.reshape(x, (2, 3))))

    assert ad.grad_check(f, [x]) < 1e-7


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
    err = ad.grad_check(lambda: ad.sum_(ad.mul(x, c)), [x])
    assert err < 1e-9


def test_softmax_matmul_chain_gradient():
    rng = np.random.default_rng(18)
    a = param(rng.standard_normal((3, 4)))
    b = param(rng.standard_normal((4, 3)))

    def f():
        return ad.mean_(ad.softmax_rows(ad.matmul(a, b)))

    assert ad.grad_check(f, [a, b]) < 1e-4


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


def test_check_finite_mode_raises():
    ad.CHECK_FINITE = True
    try:
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            ad.mul(Tensor([np.inf]), Tensor([0.0]))
    finally:
        ad.CHECK_FINITE = False


def test_backward_requires_scalar_loss():
    x = param(np.ones((2, 2)))
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        with pytest.raises(ShapeMismatchError):
            tape.backward(y)
