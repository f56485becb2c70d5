import numpy as np
import pytest

from helpers import csr, neighbor_table
from roadrisk import diffusion as df
from roadrisk import graph as g
from roadrisk.errors import ConfigError, ShapeMismatchError
from roadrisk.features import RiskTensor


def ring_norm(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def random_norm(n, seed):
    rng = np.random.default_rng(seed)
    a = np.triu(rng.uniform(0.1, 1.0, (n, n)), 1)
    a = a + a.T
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def make_tensor(values):
    values = np.asarray(values, dtype=float)
    w, n, _ = values.shape
    return RiskTensor([f"w{t}" for t in range(w)], values)


def test_alpha_zero_is_identity():
    # a channel at alpha 0 or at 0 iterations leaves apply_diffusion unmoved
    a = neighbor_table(ring_norm(4))
    values = np.random.default_rng(3).uniform(0, 2, (5, 4, 3))
    config = df.DiffusionConfig(name="x", alpha=(0.0, 0.7, 0.3), iters=(5, 0, 1))
    out = df.apply_diffusion(make_tensor(values), a, config).values
    np.testing.assert_array_equal(out[:, :, :2], values[:, :, :2])
    assert not np.array_equal(out[:, :, 2], values[:, :, 2])


def test_two_node_half_step():
    a = neighbor_table(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = df.diffuse_feature(np.array([[1.0], [0.0]]), a, 0.5, 1)
    np.testing.assert_allclose(out, [[0.5], [0.5]])


def test_constant_vector_fixed_point():
    a = neighbor_table(ring_norm(6))
    x = np.full((6, 2), 3.7)
    for alpha, iters in [(0.3, 1), (0.9, 4)]:
        np.testing.assert_allclose(df.diffuse_feature(x, a, alpha, iters), x, atol=1e-12)


def test_diffuse_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        df.diffuse_feature(np.ones((3, 2)), neighbor_table(ring_norm(4)), 0.5, 1)
    with pytest.raises(ShapeMismatchError):
        df.diffuse_feature(np.ones(4), neighbor_table(ring_norm(4)), 0.5, 1)


def test_fuse_endpoints():
    d, o = np.array([1.0, 2.0]), np.array([5.0, 6.0])
    np.testing.assert_array_equal(df.fuse(d, o, 0.0), o)
    np.testing.assert_array_equal(df.fuse(d, o, 1.0), d)
    assert df.fuse(np.array([1.0]), np.array([0.0]), 0.7)[0] == pytest.approx(0.7)


def test_presets_match_published_grid():
    grid = {
        "No_Diffusion": ((0.0, 0.0, 0.0), (0, 0, 0)),
        "Uniform_Weak": ((0.1, 0.1, 0.1), (1, 1, 1)),
        "Uniform_Medium": ((0.2, 0.2, 0.2), (1, 1, 1)),
        "Uniform_Strong": ((0.3, 0.3, 0.3), (2, 2, 2)),
        "Differentiated_Current": ((0.2, 0.2, 0.2), (1, 1, 1)),
        "Differentiated_A": ((0.3, 0.1, 0.25), (2, 1, 2)),
        "Differentiated_B": ((0.25, 0.15, 0.3), (1, 1, 2)),
        "Over_Diffusion": ((0.5, 0.4, 0.4), (3, 3, 3)),
    }
    assert set(df.PRESETS) == set(grid)
    for name, (alpha, iters) in grid.items():
        cfg = df.preset(name)
        assert cfg.alpha == alpha
        assert cfg.iters == iters
        assert cfg.beta == 0.7


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        df.preset("Sideways_Diffusion")


def test_config_validation():
    with pytest.raises(ConfigError):
        df.DiffusionConfig(alpha=(1.5, 0.0, 0.0))
    with pytest.raises(ConfigError):
        df.DiffusionConfig(beta=-0.1)
    with pytest.raises(ConfigError):
        df.DiffusionConfig(iters=(-1, 0, 0))


def test_no_diffusion_preset_is_exact_identity():
    rng = np.random.default_rng(0)
    tensor = make_tensor(rng.uniform(0, 5, (6, 5, 3)))
    out = df.apply_diffusion(tensor, neighbor_table(ring_norm(5)), df.preset("No_Diffusion"))
    assert (out.values == tensor.values).all()


def brute_force_apply(values, a, cfg):
    w, n, _ = values.shape
    out = np.empty_like(values)
    for f in range(3):
        for t in range(w):
            x0 = values[t, :, f].copy()
            x = x0.copy()
            for _ in range(cfg.iters[f]):
                x = (1 - cfg.alpha[f]) * x + cfg.alpha[f] * (a @ x)
            out[t, :, f] = cfg.beta * x + (1 - cfg.beta) * x0
    return out


def test_apply_diffusion_matches_dense_oracle():
    rng = np.random.default_rng(1)
    a = random_norm(4, seed=2)
    tensor = make_tensor(rng.uniform(0, 3, (5, 4, 3)))
    cfg = df.preset("Differentiated_B")
    got = df.apply_diffusion(tensor, neighbor_table(a), cfg)
    np.testing.assert_allclose(got.values, brute_force_apply(tensor.values, a, cfg), atol=1e-12)


def scipy_apply(values, a, cfg):
    """`apply_diffusion` through scipy's CSR product, as it ran before the
    graph became numpy edge tables."""
    out = np.empty_like(values)
    for f in range(3):
        original = values[:, :, f].T
        x = original.copy()
        for _ in range(cfg.iters[f]):
            x = (1.0 - cfg.alpha[f]) * x + cfg.alpha[f] * (a @ x)
        out[:, :, f] = df.fuse(x, original, cfg.beta).T
    return out


def knn_table(n, seed):
    rng = np.random.default_rng(seed)
    lons, lats = -0.1 + rng.uniform(-0.2, 0.2, n), 51.5 + rng.uniform(-0.1, 0.1, n)
    return g.normalize_sym(g.build_adjacency(lons, lats, 4)[0])


def test_apply_diffusion_matches_scipy_bitwise():
    a = knn_table(300, seed=3)
    tensor = make_tensor(np.random.default_rng(3).uniform(0, 3, (20, 300, 3)))
    for name in ("Differentiated_B", "Over_Diffusion"):
        got = df.apply_diffusion(tensor, a, df.preset(name)).values
        assert got.tobytes() == scipy_apply(tensor.values, csr(a), df.preset(name)).tobytes()


@pytest.mark.parametrize("n", [30, 2000, 6500])
def test_product_matches_scipy_bitwise(n):
    a = knn_table(n, seed=n)
    values = np.random.default_rng(n).uniform(-1, 3, (156, n, 3))
    # the (N, W) view of one channel that apply_diffusion passes, a copy, one column
    for x in (values[:, :, 1].T, np.ascontiguousarray(values[:, :, 2].T), values[:1, :, 0].T):
        assert df._product(a, x).tobytes() == (csr(a) @ x).tobytes()
    # one alpha-1 step of a column is the product alone
    x = values[:1, :, 0].T
    assert df.diffuse_feature(x, a, 1.0, 1).tobytes() == (0.0 * x + csr(a) @ x).tobytes()


def test_weeks_independent():
    rng = np.random.default_rng(5)
    a = neighbor_table(random_norm(4, seed=6))
    values = rng.uniform(0, 2, (6, 4, 3))
    cfg = df.preset("Differentiated_A")
    full = df.apply_diffusion(make_tensor(values), a, cfg).values
    # permute weeks, diffuse, un-permute: identical
    perm = np.array([3, 1, 5, 0, 2, 4])
    permuted = df.apply_diffusion(make_tensor(values[perm]), a, cfg).values
    np.testing.assert_array_equal(permuted[np.argsort(perm)], full)


def test_non_expansive_in_euclidean_norm():
    rng = np.random.default_rng(7)
    for seed in range(100):
        n = int(rng.integers(3, 9))
        a = random_norm(n, seed=seed)
        x = np.random.default_rng(seed + 1000).standard_normal((n, 1))
        alpha = float(rng.uniform(0, 1))
        stepped = df.diffuse_feature(x, neighbor_table(a), alpha, 1)
        assert np.linalg.norm(stepped) <= np.linalg.norm(x) + 1e-12


def test_sup_norm_can_expand():
    # symmetric normalization is not row-stochastic: a path graph's middle row
    # sums to sqrt(2), so one step can raise the largest entry
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    deg = a.sum(axis=1)
    a_norm = a / np.sqrt(np.outer(deg, deg))
    assert a_norm[1].sum() > 1.0 + 1e-9
    x = np.array([[1.0], [0.0], [1.0]])
    stepped = df.diffuse_feature(x, neighbor_table(a_norm), 1.0, 1)
    assert np.abs(stepped).max() > np.abs(x).max() + 0.1
    assert np.linalg.norm(stepped) <= np.linalg.norm(x) + 1e-12


def test_deviation_from_constant_nonincreasing():
    rng = np.random.default_rng(8)
    for seed in range(20):
        n = int(rng.integers(3, 11))
        a = random_norm(n, seed=seed)
        x = np.random.default_rng(seed).uniform(0, 5, (n, 1))
        alpha = float(rng.uniform(0.05, 0.95))
        before = np.abs(x - x.mean()).sum()
        stepped = df.diffuse_feature(x, neighbor_table(a), alpha, 1)
        after = np.abs(stepped - x.mean()).sum()
        assert after <= before + 1e-9


def test_per_step_fusion_is_scaled_alpha_without_fusion():
    """Blending after every step is the plain update at alpha * beta, beta 1."""
    rng = np.random.default_rng(9)
    a = neighbor_table(random_norm(5, seed=10))
    tensor = make_tensor(rng.uniform(0, 3, (3, 5, 3)))
    alpha, iters, beta = (0.4, 0.2, 0.6), (3, 1, 2), 0.7
    per_step = np.empty_like(tensor.values)
    for f in range(3):
        current = tensor.values[:, :, f].T
        for _ in range(iters[f]):
            current = df.fuse(df.diffuse_feature(current, a, alpha[f], 1), current, beta)
        per_step[:, :, f] = current.T
    scaled = df.DiffusionConfig(name="x", alpha=tuple(x * beta for x in alpha), iters=iters, beta=1.0)
    np.testing.assert_allclose(df.apply_diffusion(tensor, a, scaled).values, per_step,
                               rtol=0, atol=1e-12)


def test_scale_minmax_basics():
    values = np.zeros((3, 1, 3))
    values[:, 0, 0] = [0.0, 5.0, 10.0]
    values[:, 0, 1] = 4.0  # constant channel
    values[:, 0, 2] = [1.0, 2.0, 3.0]
    tensor = make_tensor(values)
    scaler = df.MinMaxScaler().fit(tensor, week_range=(0, tensor.n_weeks))
    out = scaler.transform(tensor.values)
    np.testing.assert_allclose(out[:, 0, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out[:, 0, 1], 0.0)
    np.testing.assert_allclose(out[:, 0, 2], [0.0, 0.5, 1.0])


def test_scale_roundtrip():
    rng = np.random.default_rng(11)
    tensor = make_tensor(rng.uniform(0, 7, (8, 3, 3)))
    scaler = df.MinMaxScaler().fit(tensor, week_range=(0, tensor.n_weeks))
    scaled = scaler.transform(tensor.values)
    for channel in range(3):
        back = scaler.inverse_channel(scaled[:, :, channel], channel)
        np.testing.assert_allclose(back, tensor.values[:, :, channel], atol=1e-12)


def test_scale_fit_range_restricts_to_training_weeks():
    values = np.zeros((4, 1, 3))
    values[:, 0, 0] = [0.0, 2.0, 4.0, 8.0]
    values[:, 0, 1] = [3.0, 3.0, 3.0, 9.0]  # constant over the fitted weeks only
    tensor = make_tensor(values)
    scaler = df.MinMaxScaler().fit(tensor, week_range=(0, 3))
    assert scaler.maxima[0] == 4.0
    out = scaler.transform(tensor.values)
    assert out[3, 0, 0] == pytest.approx(2.0)  # beyond the fitted range
    assert (out[:, 0, 1] == 0.0).all()  # a channel constant when fitted maps to 0
