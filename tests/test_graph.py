import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from helpers import csr, haversine_m, neighbor_table, scipy_normalize
from roadrisk import graph as g
from roadrisk.errors import (
    CorruptArtifactError,
    DegenerateGeometryError,
    EmptyInputError,
    ZeroDegreeNodeError,
)


def pairwise_haversine_m(lons, lats) -> np.ndarray:
    """Dense symmetric distance matrix (meters): the kNN builder's oracle.

    It runs the builder's own elementwise formula, so each pair's distance is
    bitwise the one the KD-tree path ranks by.
    """
    phi = np.radians(np.asarray(lats, dtype=float))
    lam = np.radians(np.asarray(lons, dtype=float))
    cos_phi = np.cos(phi)
    return g._haversine_rad(
        phi[:, None], lam[:, None], cos_phi[:, None], phi[None, :], lam[None, :], cos_phi[None, :]
    )


def test_haversine_zero_distance():
    assert haversine_m(-0.1, 51.5, -0.1, 51.5) == 0.0


def test_haversine_antipodal_half_circumference():
    assert haversine_m(0.0, 0.0, 180.0, 0.0) == pytest.approx(
        math.pi * g.EARTH_RADIUS_M, rel=1e-12
    )


def test_haversine_london_manchester():
    # independent great-circle computation via the spherical law of cosines
    lon1, lat1 = -0.1278, 51.5074
    lon2, lat2 = -2.2426, 53.4808
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    oracle = g.EARTH_RADIUS_M * math.acos(
        math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    )
    got = haversine_m(lon1, lat1, lon2, lat2)
    assert got == pytest.approx(oracle, rel=1e-3)
    assert got == pytest.approx(262_200, rel=1e-3)


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(0)
    lons = -0.1 + rng.uniform(-0.05, 0.05, 6)
    lats = 51.5 + rng.uniform(-0.05, 0.05, 6)
    mat = pairwise_haversine_m(lons, lats)
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == pytest.approx(
                haversine_m(lons[i], lats[i], lons[j], lats[j]), abs=1e-6
            )


def test_assign_single_point_cluster():
    grid = g.assign_to_nodes([0.5] * 4, [10.0] * 4, 100, (0.5, 10.0))
    assert grid.lons.tolist() == [pytest.approx(0.5)]
    assert grid.lats.tolist() == [pytest.approx(10.0)]
    assert grid.member_counts.tolist() == [4]
    assert (grid.assignment == 0).all()


def test_assign_two_distant_clusters():
    # two clusters 10 cell-widths apart -> two nodes, membership by cluster
    cell = 100.0
    lat = 51.5
    dlon = 10 * cell / (g.EARTH_RADIUS_M * math.cos(math.radians(lat))) * 180 / math.pi
    lons = [0.0, 0.0, dlon, dlon, dlon]
    lats = [lat] * 5
    grid = g.assign_to_nodes(lons, lats, cell, (0.0, lat))
    assignment = grid.assignment
    assert grid.member_counts.size == 2
    assert len(set(assignment[:2])) == 1
    assert len(set(assignment[2:])) == 1
    assert assignment[0] != assignment[2]


def test_assign_conserves_membership():
    rng = np.random.default_rng(1)
    lons = -0.1 + rng.uniform(0, 0.02, 57)
    lats = 51.5 + rng.uniform(0, 0.02, 57)
    grid = g.assign_to_nodes(lons, lats, 150.0, (-0.1, 51.5))
    assert grid.member_counts.sum() == 57
    for node_id, count in enumerate(grid.member_counts):
        assert (grid.assignment == node_id).sum() == count


def test_assign_empty_raises():
    with pytest.raises(EmptyInputError):
        g.assign_to_nodes([], [], 150.0, (-0.1, 51.5))


def grid_points(nx, ny, spacing_m=200.0, lat0=51.5, lon0=-0.1):
    lats, lons = [], []
    for i in range(nx):
        for j in range(ny):
            lats.append(lat0 + (j * spacing_m) / g.EARTH_RADIUS_M * 180 / math.pi)
            lons.append(
                lon0
                + (i * spacing_m)
                / (g.EARTH_RADIUS_M * math.cos(math.radians(lat0)))
                * 180
                / math.pi
            )
    return np.array(lons), np.array(lats)


def test_adjacency_weight_at_sigma():
    # two nodes at distance d with sigma=d -> weight exp(-1/2)
    lons, lats = grid_points(2, 1, spacing_m=300.0)
    d = haversine_m(lons[0], lats[0], lons[1], lats[1])
    table, sigma = g.build_adjacency(lons, lats, k=1, sigma_m=d)
    a = csr(table)
    assert sigma == d
    assert a[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert a[1, 0] == a[0, 1]


def test_adjacency_symmetric_zero_diagonal():
    lons, lats = grid_points(4, 3)
    a = csr(g.build_adjacency(lons, lats, k=3)[0])
    assert (a != a.T).nnz == 0
    assert a.diagonal().sum() == 0.0
    assert a.nnz <= 2 * 3 * lons.size


def test_adjacency_tie_break_by_node_id():
    # 3 collinear equidistant nodes: middle node prefers the lower id
    lons, lats = grid_points(3, 1, spacing_m=250.0)
    d = pairwise_haversine_m(lons, lats)
    assert d[1, 0] == pytest.approx(d[1, 2], rel=1e-9)
    a = csr(g.build_adjacency(lons, lats, k=1, sigma_m=300.0)[0])
    # pre-symmetrization row 1 would hold only (1,0); max-symmetrization
    # restores (1,2) because node 2's nearest neighbor is node 1
    assert a[1, 0] > 0 and a[1, 2] > 0


def test_adjacency_equidistant_complete_graph():
    # equilateral triangle, k=2: all weights equal
    lat = 0.0
    side = 1000.0
    lon_step = side / g.EARTH_RADIUS_M * 180 / math.pi
    lons = np.array([0.0, lon_step, lon_step / 2])
    lats = np.array([0.0, 0.0, 0.0])
    lats[2] = math.degrees(side * math.sqrt(3) / 2 / g.EARTH_RADIUS_M)
    vals = csr(g.build_adjacency(lons, lats, k=2, sigma_m=side)[0]).data
    assert vals.size == 6
    assert np.allclose(vals, vals[0], rtol=1e-6)


def test_adjacency_rejects_coincident_nodes():
    with pytest.raises(DegenerateGeometryError):
        g.build_adjacency(np.array([0.0, 0.0, 1.0]), np.array([5.0, 5.0, 5.0]), k=1)


def test_normalize_two_node_graph():
    a = neighbor_table(np.array([[0.0, 0.37], [0.37, 0.0]]))
    norm = csr(g.normalize_sym(a)).toarray()
    np.testing.assert_allclose(norm, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_ring_constant_eigenvector():
    n = 6
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i + 1) % n] = ring[(i + 1) % n, i] = 0.8
    norm = csr(g.normalize_sym(neighbor_table(ring))).toarray()
    ones = np.ones(n)
    np.testing.assert_allclose(norm @ ones, ones, atol=1e-12)


def test_normalize_spectral_radius_at_most_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        raw = rng.uniform(0.1, 1.0, (5, 5))
        raw = np.triu(raw, 1)
        raw = raw + raw.T
        norm = csr(g.normalize_sym(neighbor_table(raw))).toarray()
        eigs = np.linalg.eigvalsh(norm)
        assert np.abs(eigs).max() <= 1 + 1e-9


def test_normalize_zero_degree_raises():
    a = neighbor_table(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroDegreeNodeError):
        g.normalize_sym(a)


def test_normalize_scale_invariance():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 1.0, (6, 6))
    raw = np.triu(raw, 1)
    raw = raw + raw.T
    base = csr(g.normalize_sym(neighbor_table(raw))).toarray()
    scaled = csr(g.normalize_sym(neighbor_table(raw * 7.3))).toarray()
    np.testing.assert_allclose(scaled, base, atol=1e-14)


def test_sigma_monotonicity():
    lons, lats = grid_points(3, 3)
    d1 = csr(g.build_adjacency(lons, lats, k=3, sigma_m=100.0)[0]).toarray()
    d2 = csr(g.build_adjacency(lons, lats, k=3, sigma_m=400.0)[0]).toarray()
    stored = d1 > 0
    assert (d2[stored] >= d1[stored]).all()


CENTER = (-0.105, 51.505)  # the middle of the random point sets below


def test_build_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    lons = -0.12 + rng.uniform(0, 0.03, 120)
    lats = 51.49 + rng.uniform(0, 0.03, 120)
    graph, assignment = g.build_graph(lons, lats, g.GraphParams(cell_size_m=300, k=3), CENTER)
    assert assignment.size == 120
    assert graph.member_counts.sum() == 120
    assert (graph.degrees > 0).all()

    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    g.save_graph(graph, nodes_path, edges_path)
    loaded = g.load_graph(nodes_path, edges_path)
    assert loaded.n_nodes == graph.n_nodes
    assert (loaded.lons == graph.lons).all()
    assert (loaded.lats == graph.lats).all()
    assert (loaded.adjacency != graph.adjacency).nnz == 0
    for got, want in zip(loaded.adjacency_norm, graph.adjacency_norm):
        assert got.tobytes() == want.tobytes()


def test_loaded_graph_is_the_grid_without_a_bandwidth(tmp_path):
    # `features` recomputes the grid nodes and requires nodes.csv to hold
    # them bitwise; the files do not record sigma, so a loaded graph claims none
    rng = np.random.default_rng(5)
    lons = -0.12 + rng.uniform(0, 0.03, 400)
    lats = 51.49 + rng.uniform(0, 0.03, 400)
    graph, assignment = g.build_graph(lons, lats, g.GraphParams(cell_size_m=300, k=3), CENTER)
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    g.save_graph(graph, nodes_path, edges_path)
    loaded = g.load_graph(nodes_path, edges_path)
    grid = g.assign_to_nodes(lons, lats, 300, CENTER)
    for column in ("lons", "lats", "member_counts"):
        assert getattr(loaded, column).tobytes() == getattr(grid, column).tobytes(), column
    np.testing.assert_array_equal(grid.assignment, assignment)
    assert graph.sigma_m > 0
    assert loaded.sigma_m is None


def dictreader_load_graph(nodes_path, edges_path):
    """The `csv.DictReader` loader `load_graph` replaced, kept as its oracle."""
    import csv

    with open(nodes_path, newline="") as fh:
        nodes = [(int(r["node_id"]), float(r["lon"]), float(r["lat"]), int(r["member_count"]))
                 for r in csv.DictReader(fh)]
    with open(edges_path, newline="") as fh:
        edges = [(int(r["i"]), int(r["j"]), float(r["weight"])) for r in csv.DictReader(fh)]
    n = len(nodes)
    i, j, w = (list(c) for c in zip(*edges))
    a = sparse.coo_matrix((w, (i, j)), shape=(n, n)).tocsr()
    return (
        [node[0] for node in nodes],
        np.array([node[1] for node in nodes]),
        np.array([node[2] for node in nodes]),
        a,
        scipy_normalize(a),
    )


def test_load_graph_matches_dictreader_loader(tmp_path):
    rng = np.random.default_rng(8)
    lons = -0.1 + rng.uniform(-0.05, 0.05, 3000)
    lats = 51.5 + rng.uniform(-0.03, 0.03, 3000)
    graph, _ = g.build_graph(lons, lats, g.GraphParams(cell_size_m=150, k=4), (-0.1, 51.5))
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    g.save_graph(graph, nodes_path, edges_path)

    loaded = g.load_graph(nodes_path, edges_path)
    ids, node_lons, node_lats, a, a_norm = dictreader_load_graph(nodes_path, edges_path)
    assert loaded.n_nodes > 100
    assert ids == list(range(loaded.n_nodes))  # a node's id is its row position
    assert loaded.lons.tobytes() == node_lons.tobytes()
    assert loaded.lats.tobytes() == node_lats.tobytes()
    # the normalised adjacency is derived on load, bitwise what build_graph computed
    for got, want in (
        (loaded.adjacency, a), (csr(loaded.adjacency_norm), a_norm),
        (csr(loaded.adjacency_norm), csr(graph.adjacency_norm)),
    ):
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize(
    "which, old, new, problem",
    [
        ("nodes", ",1\n", ",one\n", "'one'"),
        ("nodes", "\n1,-0.097", "\n0,-0.097", "line 3: node_id 0 is not the row's position 1"),
        ("nodes", "\n1,-0.09711068124991816,51.5,1\n2,", "\n2,-0.09711068124991816,51.5,1\n1,",
         "line 3: node_id 2 is not the row's position 1"),
        ("edges", "\n0,", "\n0\n0,", "fewer cells"),
        ("edges", "\n0,", "\n9,", "outside the 3"),
        ("nodes", "\n0,-0.1,", "\n0,inf,", "line 2: 'inf' is not a finite number"),
        ("nodes", ",51.5,1\n2,", ",nan,1\n2,", "line 3: 'nan' is not a finite number"),
        ("edges", "\n0,2,0.13533528334200767\n", "\n0,2,nan\n",
         "line 3: 'nan' is not a finite number"),
        ("edges", "\n1,0,0.606530659712636\n", "\n1,0,0.0\n",
         "line 4: edge weight '0.0' is not above 0"),
        ("edges", "\n2,1,0.6065306597126334\n", "\n2,1,-0.6065306597126334\n",
         "line 7: edge weight '-0.6065306597126334' is not above 0"),
        ("edges", "\n2,0,0.13533528334200767\n2,1,0.6065306597126334\n", "\n",
         "node 2 has zero degree"),
        ("edges", "\n0,2,0.13533528334200767\n",
         "\n0,2,0.13533528334200767\n0,2,0.13533528334200767\n", "edge (0, 2) is listed twice"),
        ("edges", "\n2,0,0.13533528334200767\n", "\n",
         "edge (0, 2) has no mirror of equal weight"),
        ("edges", "\n2,0,0.13533528334200767\n", "\n2,0,0.1353352833420077\n",
         "edge (0, 2) has no mirror of equal weight"),
    ],
    ids=["node-count", "duplicate-node-id", "unordered-node-id", "short-edge", "edge-endpoint",
         "infinite-lon", "nan-lat", "nan-weight", "zero-weight", "negative-weight",
         "zero-degree-node", "duplicate-edge", "one-way-edge", "unequal-mirror"],
)
def test_load_graph_fails_closed(tmp_path, which, old, new, problem):
    lons, lats = grid_points(3, 1)
    graph, _ = g.build_graph(lons, lats, g.GraphParams(cell_size_m=100, k=2), (-0.1, 51.5))
    paths = {"nodes": tmp_path / "nodes.csv", "edges": tmp_path / "edges.csv"}
    g.save_graph(graph, paths["nodes"], paths["edges"])
    text = paths[which].read_text().replace("\r\n", "\n")
    assert old in text
    paths[which].write_text(text.replace(old, new, 1))
    with pytest.raises(CorruptArtifactError) as info:
        g.load_graph(paths["nodes"], paths["edges"])
    assert problem in str(info.value) and str(paths[which]) in str(info.value)
    assert str(info.value).endswith("run `graph` again")


def test_edge_counts_reported_both_ways():
    lons, lats = grid_points(3, 2)
    graph, _ = g.build_graph(lons, lats, g.GraphParams(cell_size_m=100, k=2), (-0.1, 51.5))
    counts = graph.edge_counts()
    assert counts["directed"] == 2 * counts["undirected"]


# -- the KD-tree builder against the dense O(n^2) builder -------------------


def dense_adjacency(lons, lats, k, sigma_m=None):
    """Reference builder: dense haversine matrix, stable argsort per row."""
    n = lons.size
    d = pairwise_haversine_m(lons, lats)
    d_search = d.copy()
    np.fill_diagonal(d_search, np.inf)
    neighbors = np.argsort(d_search, axis=1, kind="stable")[:, :k]
    knn_d = np.take_along_axis(d, neighbors, axis=1)
    if sigma_m is None:
        sigma_m = float(np.median(knn_d))
    return scipy_kernel(neighbors, np.exp(-(knn_d**2) / (2.0 * sigma_m**2))), sigma_m


def scipy_kernel(neighbors, weights):
    """The (n, k) kNN kernel weights assembled through scipy, as
    `build_adjacency` assembled them before the graph became numpy edge
    tables: the symmetric max, no diagonal, no zero entries."""
    n, k = neighbors.shape
    rows = np.repeat(np.arange(n), k)
    a = sparse.coo_matrix((weights.ravel(), (rows, neighbors.ravel())), shape=(n, n)).tocsr()
    a = a.maximum(a.T)
    a.setdiag(0.0)
    a.eliminate_zeros()
    return a


def assert_same_csr(got, want):
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_adjacency(lons, lats, k):
    table, sigma = g.build_adjacency(lons, lats, k)
    want, want_sigma = dense_adjacency(lons, lats, k)
    assert sigma == want_sigma
    assert_same_csr(csr(table), want)


@pytest.mark.parametrize("n", [30, 2000, 6500])
def test_edge_tables_match_scipy_bitwise(n, monkeypatch):
    # the symmetric max, the dropped underflows, the degrees and the
    # normalised weights, each against the scipy path the tables replaced
    rng = np.random.default_rng(n)
    lons = -0.1 + rng.uniform(-0.2, 0.2, n)
    lats = 51.5 + rng.uniform(-0.1, 0.1, n)
    neighbors, knn_d = g._knn(lons, lats, 4)
    sigma = float(np.median(knn_d))
    # haversine is symmetric, so only distances jittered per direction make
    # the two weights of a pair differ and the max choose between them
    jittered = knn_d * rng.uniform(0.9, 1.1, knn_d.shape)
    for distances in (knn_d, jittered):
        monkeypatch.setattr(g, "_knn", lambda *args, d=distances: (neighbors, d))
        for bandwidth in (sigma, sigma / 30):
            table, _ = g.build_adjacency(lons, lats, 4, bandwidth)
            weights = np.exp(-(distances**2) / (2.0 * bandwidth**2))
            want = scipy_kernel(neighbors, weights)
            assert_same_csr(csr(table), want)
            degrees = g._row_sums(table)
            assert degrees.tobytes() == np.asarray(want.sum(axis=1)).ravel().tobytes()
        assert (weights == 0.0).any() and (weights > 0.0).any()  # some underflowed at sigma / 30
    monkeypatch.undo()
    table, _ = g.build_adjacency(lons, lats, 4, sigma)
    assert table.neighbors.shape[1] >= 8  # rows numpy sums in 8 interleaved parts
    assert_same_csr(csr(g.normalize_sym(table)), scipy_normalize(csr(table)))


def boundary_ties(lons, lats, k):
    """Rows whose k-th and (k+1)-th nearest distances are bitwise equal."""
    d = pairwise_haversine_m(lons, lats)
    np.fill_diagonal(d, np.inf)
    d.sort(axis=1)
    return int((d[:, k - 1] == d[:, k]).sum())


def dyadic_lattice(nx, ny, step=2.0**-10):
    # exact binary coordinates at the origin: mirrored neighbours sit at
    # bitwise-equal distances
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return i.ravel() * step, j.ravel() * step


@pytest.mark.parametrize("n", [30, 300, 2000])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_knn_matches_dense_on_random_clouds(n, k):
    rng = np.random.default_rng(n + k)
    lons = -0.1 + rng.uniform(-0.2, 0.2, n)
    lats = 51.5 + rng.uniform(-0.1, 0.1, n)
    assert_same_adjacency(lons, lats, k)


@pytest.mark.parametrize("shape", [(12, 12), (7, 23)])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_knn_matches_dense_on_lattices_with_exact_ties(shape, k):
    lons, lats = dyadic_lattice(*shape)
    assert boundary_ties(lons, lats, k) > 0
    assert_same_adjacency(lons, lats, k)
    # the same lattice shape near London: near-ties within rounding
    assert_same_adjacency(*grid_points(*shape), k)


def test_knn_complete_graph_when_n_is_k_plus_one():
    rng = np.random.default_rng(5)
    lons = rng.uniform(-0.1, 0.1, 5)
    lats = 51.5 + rng.uniform(-0.1, 0.1, 5)
    assert_same_adjacency(lons, lats, 4)
    assert csr(g.build_adjacency(lons, lats, k=4)[0]).nnz == 5 * 4


@pytest.mark.parametrize("copies", [2, 40])
def test_knn_rejects_coincident_nodes_in_a_cloud(copies):
    # more copies than the first query width still raise
    rng = np.random.default_rng(6)
    lons = rng.uniform(-0.1, 0.1, 300)
    lats = 51.5 + rng.uniform(-0.1, 0.1, 300)
    lons[100 : 100 + copies] = lons[7]
    lats[100 : 100 + copies] = lats[7]
    with pytest.raises(DegenerateGeometryError):
        g.build_adjacency(lons, lats, k=2)


def dict_loop_assign(lons, lats, cell_size_m, center):
    """Reference: bucket point ids per cell in a dict, nodes in sorted-cell order."""
    lons, lats = np.asarray(lons, dtype=float), np.asarray(lats, dtype=float)
    x, y = g._local_xy_m(lons, lats, center[0], center[1])
    cx = np.floor(x / cell_size_m).astype(np.int64)
    cy = np.floor(y / cell_size_m).astype(np.int64)
    cells = {}
    for i, key in enumerate(zip(cx.tolist(), cy.tolist())):
        cells.setdefault(key, []).append(i)
    nodes, assignment = [], np.empty(lons.size, dtype=np.int64)
    for node_id, key in enumerate(sorted(cells)):
        members = cells[key]
        nodes.append(
            (node_id, float(lons[members].mean()), float(lats[members].mean()), len(members))
        )
        assignment[members] = node_id
    return nodes, assignment


def grid_nodes(grid):
    """`assign_to_nodes`'s node columns as `dict_loop_assign`'s tuples."""
    return list(zip(range(grid.lons.size), grid.lons.tolist(), grid.lats.tolist(),
                    grid.member_counts.tolist()))


def test_assign_matches_dict_loop_bitwise():
    rng = np.random.default_rng(7)
    lons = -0.1 + rng.uniform(-0.03, 0.03, 3000)
    lats = 51.5 + rng.uniform(-0.03, 0.03, 3000)
    # one crowded cell, interleaved with the rest of the input: more than 8
    # members exercises numpy's blocked pairwise summation
    lons[::97] = -0.1 + rng.uniform(0, 1e-4, lons[::97].size)
    lats[::97] = 51.5 + rng.uniform(0, 1e-4, lats[::97].size)
    center = (-0.1, 51.5)  # cells on both sides of the anchor: negative keys
    got = g.assign_to_nodes(lons, lats, 150.0, center)
    want_nodes, want = dict_loop_assign(lons, lats, 150.0, center)
    assert max(node[3] for node in want_nodes) > 8
    assert grid_nodes(got) == want_nodes  # float == float: bitwise for non-NaN
    np.testing.assert_array_equal(got.assignment, want)


def test_assign_centroids_grouped_by_count_match_dict_loop_bitwise():
    # cells of many member counts, several cells per count, their members
    # interleaved in the input: counts past 8 and 128 cross numpy's unrolled
    # and blocked pairwise summation
    rng = np.random.default_rng(8)
    counts = [1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 300, 1500] * 3
    cell = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(cell)
    # cell i is every other grid column, i.e. 300i to 300i + 150 m east of
    # the anchor; members keep 10 m clear of its edges
    center = (-0.1, 51.5)
    x = cell * 300.0 + rng.uniform(10.0, 140.0, cell.size)
    y = rng.uniform(10.0, 140.0, cell.size)
    lons = center[0] + np.degrees(x / (g.EARTH_RADIUS_M * math.cos(math.radians(center[1]))))
    lats = center[1] + np.degrees(y / g.EARTH_RADIUS_M)
    got = g.assign_to_nodes(lons, lats, 150.0, center)
    want_nodes, want = dict_loop_assign(lons, lats, 150.0, center)
    assert sorted(node[3] for node in want_nodes) == sorted(counts)
    assert grid_nodes(got) == want_nodes  # float == float: bitwise for non-NaN
    np.testing.assert_array_equal(got.assignment, want)


def unique_rows_assignment(lons, lats, cell_size_m, center):
    """The `np.unique(..., axis=0)` over (cx, cy) rows that the int64 cell
    key replaced, kept as its oracle: (assignment, member counts)."""
    x, y = g._local_xy_m(lons, lats, *center)
    cx = np.floor(x / cell_size_m).astype(np.int64)
    cy = np.floor(y / cell_size_m).astype(np.int64)
    _, assignment, counts = np.unique(
        np.column_stack((cx, cy)), axis=0, return_inverse=True, return_counts=True
    )
    return assignment.ravel(), counts


@pytest.mark.parametrize(
    "n, low, high, cell_size_m",
    [(4000, -0.015, 0.015, 150.0), (200, 1e-6, 1e-5, 150.0), (1, 0.0, 0.0, 150.0),
     (300, -0.015, 0.015, 1e-9)],
    ids=["negative-cells", "one-cell", "one-point", "key-overflow"],
)
def test_assign_cell_key_matches_unique_rows(n, low, high, cell_size_m):
    rng = np.random.default_rng(n)
    center = (-0.1, 51.5)
    lons = center[0] + rng.uniform(low, high, n)
    lats = center[1] + rng.uniform(low, high, n)
    grid = g.assign_to_nodes(lons, lats, cell_size_m, center)
    want, counts = unique_rows_assignment(lons, lats, cell_size_m, center)
    np.testing.assert_array_equal(grid.assignment, want)
    assert grid.member_counts.tolist() == counts.tolist()
    if low < 0:  # points on both sides of the anchor: negative cells
        x, y = g._local_xy_m(lons, lats, *center)
        assert (x < 0).any() and (y < 0).any()
    else:
        assert grid.member_counts.size == 1


def test_merge_coincident_keeps_first_occurrence_order():
    lons = np.array([1.0, 2.0, 1.0, 3.0, 2.0, -0.0, 0.0])
    lats = np.array([5.0, 6.0, 5.0, 7.0, 6.0, 1.0, 1.0])
    keep, counts, remap = g._merge_coincident(lons, lats, np.arange(1, 8))
    assert keep.tolist() == [0, 1, 3, 5]
    assert counts.tolist() == [4, 7, 4, 13]
    assert remap.tolist() == [0, 1, 0, 2, 1, 3, 3]


def test_build_graph_fifty_thousand_nodes_memory():
    rng = np.random.default_rng(8)
    side = 50_000 ** 0.5
    # one point per 150 m cell on a jittered square grid
    ix, iy = np.divmod(np.arange(50_000), int(side) + 1)
    x = (ix + rng.uniform(0.2, 0.8, ix.size)) * 150.0
    y = (iy + rng.uniform(0.2, 0.8, iy.size)) * 150.0
    lats = 51.0 + np.degrees(y / g.EARTH_RADIUS_M)
    lons = -1.0 + np.degrees(x / (g.EARTH_RADIUS_M * math.cos(math.radians(51.0))))
    tracemalloc.start()
    try:
        graph, _ = g.build_graph(lons, lats, g.GraphParams(cell_size_m=150.0, k=4),
                                 center=(-1.0, 51.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_nodes == 50_000
    assert (graph.degrees > 0).all()
    assert peak < 300 * 2**20


def test_cli_import_does_not_load_the_kd_tree():
    # scipy costs ~0.25 s to import; only the graph stage may pay it, for cKDTree
    src = str(Path(g.__file__).resolve().parents[1])
    code = ("import roadrisk.cli, sys; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
