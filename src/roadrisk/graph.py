"""Spatial graph construction from accident point clouds.

Accident locations are grouped on a square grid (local equirectangular
projection around the region centroid); each occupied cell becomes a node at
the mean position of its members. Nodes are linked to their k nearest
neighbors with Gaussian kernel weights over haversine distance, symmetrized,
and normalized as D^-1/2 A D^-1/2 for stable iterative smoothing. The graph
is held as padded numpy edge tables; scipy is imported only for the kd-tree
that finds the neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import artifact_rows, finite, write_table
from .errors import (
    ConfigError, CorruptArtifactError, DegenerateGeometryError, EmptyInputError, ZeroDegreeNodeError
)

EARTH_RADIUS_M = 6_371_000.0


def _haversine_rad(phi1, lam1, cos1, phi2, lam2, cos2) -> np.ndarray:
    """Elementwise haversine (meters) from radians and precomputed cos(phi).

    The one formula behind the kNN candidates and the dense distance matrix
    the tests check them against, so a pair's distance is bitwise the same
    whichever path computed it.
    """
    a = np.sin((phi1 - phi2) / 2.0) ** 2 + cos1 * cos2 * np.sin((lam1 - lam2) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


@dataclass
class GraphParams:
    cell_size_m: float = 150.0
    k: int = 4
    sigma_m: float | None = None  # None: median of retained kNN distances

    def __post_init__(self):
        if self.cell_size_m <= 0:
            raise ConfigError(f"graph cell_size_m must be positive, not {self.cell_size_m}")
        if self.k < 1:
            raise ConfigError(f"graph k must be >= 1, not {self.k}")
        if self.sigma_m is not None and self.sigma_m <= 0:
            raise ConfigError(f"graph sigma_m must be positive or null, not {self.sigma_m}")


class EdgeTable(NamedTuple):
    """A square matrix by its nonzero entries, padded per row: `neighbors`
    (n, max_degree) holds each row's columns in ascending order, padded with
    -1, and `weights` the values there, padded with 0.0."""

    neighbors: np.ndarray
    weights: np.ndarray

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, values) of the stored entries, by row, then column."""
        stored = self.neighbors >= 0
        return np.nonzero(stored)[0], self.neighbors[stored], self.weights[stored]


def _edge_table(key: np.ndarray, weights: np.ndarray, n: int) -> EdgeTable:
    """The table of the entries at rows, columns `divmod(key, n)`, given by ascending key."""
    rows, cols = np.divmod(key, n)
    counts = np.bincount(rows, minlength=n)
    slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    neighbors = np.full((n, counts.max(initial=0)), -1, dtype=np.intp)
    table = np.zeros(neighbors.shape)
    neighbors[rows, slots] = cols
    table[rows, slots] = weights
    return EdgeTable(neighbors, table)


def _row_sums(a: EdgeTable) -> np.ndarray:
    """Each row's sum over its edges alone, by `np.add.reduceat` as scipy's
    CSR row sum takes it: numpy sums a row of 8 or more in 8 interleaved
    parts, so padding zeros would change the rounding."""
    rows, _, weights = a.entries()
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    total = np.zeros(a.neighbors.shape[0])
    total[rows[starts]] = np.add.reduceat(weights, starts)
    return total


@dataclass
class SpatialGraph:
    """Node k is entry k of `lons`, `lats` and `member_counts` and row k of
    the edge tables; its id in every artifact is k."""

    lons: np.ndarray
    lats: np.ndarray
    member_counts: np.ndarray
    edges: EdgeTable           # kernel weights; symmetric, no self loops
    adjacency_norm: EdgeTable  # D^-1/2 A D^-1/2 over the same edges
    sigma_m: float | None = None  # build_graph's bandwidth; the saved files do not hold it

    @property
    def n_nodes(self) -> int:
        return self.lons.size

    @property
    def node_ids(self) -> list[int]:
        """`list(range(n_nodes))`, built on each access. No stage reads it:
        the benchmark's in-process set-up passes it to `build_risk_tensor`."""
        return list(range(self.n_nodes))

    @property
    def degrees(self) -> np.ndarray:
        return _row_sums(self.edges)

    @property
    def adjacency(self):
        """The kernel weights as a scipy CSR matrix, built on each access.
        No stage reads it, so scipy is imported only here."""
        from scipy import sparse

        rows, cols, weights = self.edges.entries()
        return sparse.csr_matrix((weights, (rows, cols)), shape=(self.n_nodes, self.n_nodes))

    def edge_counts(self) -> dict:
        """Stored (directed) entries and undirected pair count."""
        directed = int((self.edges.neighbors >= 0).sum())
        return {"directed": directed, "undirected": directed // 2}


def _local_xy_m(lons, lats, lon0: float, lat0: float) -> tuple[np.ndarray, np.ndarray]:
    # equirectangular projection about (lon0, lat0); adequate at city scale
    x = np.radians(np.asarray(lons, dtype=float) - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = np.radians(np.asarray(lats, dtype=float) - lat0) * EARTH_RADIUS_M
    return x, y


class GridNodes(NamedTuple):
    """The nodes of a point set's occupied grid cells, as columns, and each
    point's node position."""

    lons: np.ndarray
    lats: np.ndarray
    member_counts: np.ndarray
    assignment: np.ndarray


def assign_to_nodes(
    lons: Sequence[float],
    lats: Sequence[float],
    cell_size_m: float,
    center: tuple[float, float],
) -> GridNodes:
    """Group points into grid cells; each occupied cell becomes a node at
    the mean position of its members.

    The grid is anchored at `center` (lon, lat), the study-region centroid,
    so cell boundaries don't move with the data. Nodes are numbered in
    (cell_x, cell_y) order, so the result is deterministic for a given input
    set, and nodes at exactly equal positions are merged (`_merge_coincident`).
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    if lons.size == 0:
        raise EmptyInputError("no points to assign")
    x, y = _local_xy_m(lons, lats, float(center[0]), float(center[1]))
    cx = np.floor(x / cell_size_m).astype(np.int64)
    cy = np.floor(y / cell_size_m).astype(np.int64)
    # Nodes are the unique cells in lexicographic (cx, cy) order. One int64
    # key per cell sorts in that order, and a 1-D unique over it is far
    # cheaper than unique rows, which stay for a grid too wide for the key.
    width = int(cy.max() - cy.min()) + 1
    if (int(cx.max() - cx.min()) + 1) * width < 2**63:
        cells, axis = (cx - cx.min()) * width + (cy - cy.min()), None
    else:
        cells, axis = np.column_stack((cx, cy)), 0
    _, assignment, counts = np.unique(cells, axis=axis, return_inverse=True, return_counts=True)
    assignment = assignment.ravel()
    # A stable sort keeps each cell's members in input order. Cells with the
    # same member count are gathered into the C-ordered rows of one (cells,
    # count) array, whose row-wise .mean() sums each row in input order,
    # pairwise, as .mean() over the cell's 1-D slice does. (Not
    # np.add.reduceat: it sums sequentially and changes the last bits.)
    order = np.argsort(assignment, kind="stable")
    node_lons, node_lats = lons[order], lats[order]
    starts = np.cumsum(counts) - counts
    centroid_lons, centroid_lats = np.empty(counts.size), np.empty(counts.size)
    for c in np.unique(counts):
        group = np.flatnonzero(counts == c)
        members = starts[group, None] + np.arange(c)
        centroid_lons[group] = node_lons[members].mean(axis=1)
        centroid_lats[group] = node_lats[members].mean(axis=1)
    keep, counts, remap = _merge_coincident(centroid_lons, centroid_lats, counts)
    return GridNodes(centroid_lons[keep], centroid_lats[keep], counts, remap[assignment])


def _merge_coincident(lons: np.ndarray, lats: np.ndarray, counts: np.ndarray):
    """Merge nodes with exactly equal coordinates (keeps kernel weights < 1 off-diagonal).

    Returns (keep, merged_counts, remap): the first node of each coordinate
    group in first-occurrence order, the group's summed member counts, and
    each node's group index.
    """
    _, first, group = np.unique(
        np.column_stack((lons, lats)), axis=0, return_index=True, return_inverse=True
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    remap = rank[group.ravel()]
    merged_counts = np.zeros(first.size, dtype=np.int64)
    np.add.at(merged_counts, remap, counts)
    return np.sort(first), merged_counts, remap


def _knn(lons: np.ndarray, lats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each node's k nearest other nodes by haversine, ties by ascending id.

    Returns (neighbors, distances), both (n, k). Candidates come from a
    KD-tree over unit-sphere points (chord length is monotone in great-circle
    distance); their exact haversine then decides, so the result equals a
    stable argsort of the dense distance matrix. Raises
    DegenerateGeometryError if two nodes coincide.
    """
    from scipy.spatial import cKDTree  # deferred: costs ~0.25 s to import

    n = lons.size
    phi = np.radians(np.asarray(lats, dtype=float))
    lam = np.radians(np.asarray(lons, dtype=float))
    cos_phi = np.cos(phi)
    points = np.column_stack((cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)))
    tree = cKDTree(points)
    neighbors = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    rows = np.arange(n)
    width = min(n, 2 * (k + 1))
    while rows.size:
        _, cand = tree.query(points[rows], k=width)
        r = rows[:, None]
        d = _haversine_rad(phi[r], lam[r], cos_phi[r], phi[cand], lam[cand], cos_phi[cand])
        is_self = cand == r
        if (d[~is_self] == 0.0).any():
            raise DegenerateGeometryError("coincident nodes present; merge them first")
        d[is_self] = np.inf
        ranked = np.lexsort((cand, d), axis=-1)
        cand = np.take_along_axis(cand, ranked, axis=1)
        d = np.take_along_axis(d, ranked, axis=1)
        kth = d[:, k - 1]
        # A point outside the candidate set is at least as far by computed
        # chord as every candidate. Chord and haversine differ from exact
        # arithmetic by absolute rounding of the unit-sphere coordinates and
        # radians (~1e-8 m) plus a few ulps of relative error; the margin
        # exceeds both by orders of magnitude. A row whose farthest non-self
        # candidate clears its k-th distance by the margin therefore holds
        # its true k nearest; any other row is queried again, wider.
        farthest = np.where(np.isinf(d), -np.inf, d).max(axis=1)
        done = (farthest - kth > 1e-9 * kth + 1e-6) | (width == n)
        neighbors[rows[done]] = cand[done, :k]
        distances[rows[done]] = d[done, :k]
        rows = rows[~done]
        width = min(n, 2 * width)
    return neighbors, distances


def build_adjacency(
    lons: np.ndarray,
    lats: np.ndarray,
    k: int,
    sigma_m: float | None = None,
) -> tuple[EdgeTable, float]:
    """Gaussian-kernel kNN adjacency, symmetrized with elementwise max.

    Entry (i, j) is exp(-d_ij^2 / (2 sigma^2)) when j is among i's k nearest
    neighbors (self excluded; distance ties broken by ascending node id). A
    weight that underflows to 0.0 is no edge. Returns (A, sigma) where sigma
    is the bandwidth actually used.
    """
    n = lons.size
    if not (n > k >= 1):
        raise DegenerateGeometryError(f"need n > k >= 1, got n={n}, k={k}")
    neighbors, knn_d = _knn(lons, lats, k)
    if sigma_m is None:
        sigma_m = float(np.median(knn_d))
    if sigma_m <= 0:
        raise DegenerateGeometryError("sigma must be positive")
    weights = np.tile(np.exp(-(knn_d**2) / (2.0 * sigma_m**2)).ravel(), 2)
    rows, cols = np.repeat(np.arange(n), k), neighbors.ravel()
    # each pair in both directions, by pair, then weight: a pair's last entry
    # holds its larger weight, and one that underflowed to 0.0 is no edge
    key = np.concatenate((rows * n + cols, cols * n + rows))
    order = np.lexsort((weights, key))
    key, weights = key[order], weights[order]
    keep = np.append(key[1:] != key[:-1], True) & (weights > 0.0)
    return _edge_table(key[keep], weights[keep], n), sigma_m


def normalize_sym(a: EdgeTable) -> EdgeTable:
    """D^-1/2 A D^-1/2 over A's edges; every node must have positive degree.

    Each weight is (d_i^-1/2 * a_ij) * d_j^-1/2, rounded as scipy's product
    of the diagonal matrices rounds it.
    """
    degrees = _row_sums(a)
    zero = np.flatnonzero(degrees <= 0.0)
    if zero.size:
        raise ZeroDegreeNodeError(int(zero[0]))
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # padding slots read the last node's factor and a zero weight
    return EdgeTable(a.neighbors, inv_sqrt[:, None] * a.weights * inv_sqrt[a.neighbors])


def build_graph(
    lons: Sequence[float],
    lats: Sequence[float],
    params: GraphParams,
    center: tuple[float, float],
) -> tuple[SpatialGraph, np.ndarray]:
    """Full pipeline: grid nodes, kNN kernel adjacency, normalization.

    Returns the graph plus the per-input-point node assignment.
    """
    grid = assign_to_nodes(lons, lats, params.cell_size_m, center)
    a, sigma = build_adjacency(grid.lons, grid.lats, params.k, params.sigma_m)
    graph = SpatialGraph(
        lons=grid.lons,
        lats=grid.lats,
        member_counts=grid.member_counts,
        edges=a,
        adjacency_norm=normalize_sym(a),
        sigma_m=sigma,
    )
    return graph, grid.assignment


def save_graph(graph: SpatialGraph, nodes_path: Path, edges_path: Path) -> None:
    """Write nodes and edges CSVs; floats as shortest exact repr."""
    nodes = (
        [i, repr(lon), repr(lat), count]
        for i, (lon, lat, count) in enumerate(zip(
            graph.lons.tolist(),
            graph.lats.tolist(),
            np.asarray(graph.member_counts, dtype=np.int64).tolist(),
        ))
    )
    write_table(nodes_path, ["node_id", "lon", "lat", "member_count"], nodes)
    rows, cols, weights = (column.tolist() for column in graph.edges.entries())
    edges = ([i, j, repr(w)] for i, j, w in zip(rows, cols, weights))
    write_table(edges_path, ["i", "j", "weight"], edges)


def load_graph(nodes_path: Path, edges_path: Path) -> SpatialGraph:
    """Read a `save_graph` pair; `adjacency_norm` is `normalize_sym` of the
    stored weights. CorruptArtifactError (exit 3) names the line of a row
    that does not parse, holds a `node_id` other than its data-row position
    or a coordinate that is not finite or a weight that is not finite and
    above 0, or names an edge listed twice, an edge without a mirror of
    equal weight or a node without edges, and says to run `graph` again."""
    lons, lats, counts = [], [], []
    with artifact_rows(nodes_path, ["node_id", "lon", "lat", "member_count"], "graph") as (
        (i_id, i_lon, i_lat, i_count), rows
    ):
        for row in rows:
            if int(row[i_id]) != len(lons):
                raise ValueError(f"node_id {row[i_id]} is not the row's position {len(lons)}")
            lons.append(finite(row[i_lon]))
            lats.append(finite(row[i_lat]))
            counts.append(int(row[i_count]))
    n = len(lons)
    key, w = [], []
    with artifact_rows(edges_path, ["i", "j", "weight"], "graph") as ((i_i, i_j, i_w), rows):
        for row in rows:
            i, j = int(row[i_i]), int(row[i_j])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) names a node outside the {n} in {nodes_path}")
            key.append(i * n + j)
            w.append(finite(row[i_w]))
            if w[-1] <= 0.0:
                raise ValueError(f"edge weight {row[i_w]!r} is not above 0")
    key = np.array(key, dtype=np.intp)
    order = np.argsort(key)
    key, w = key[order], np.array(w)[order]
    a = _edge_table(key, w, n)
    try:
        a_norm = normalize_sym(a)
    except ZeroDegreeNodeError as exc:
        raise CorruptArtifactError(edges_path, None, str(exc), "graph") from exc
    mirror = (key % n) * n + key // n
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    for bad, problem in (
        (key[1:] == key[:-1], "is listed twice"),
        ((key[at] != mirror) | (w[at] != w), "has no mirror of equal weight"),
    ):
        if bad.any():
            i, j = divmod(int(key[np.argmax(bad)]), n)
            raise CorruptArtifactError(edges_path, None, f"edge ({i}, {j}) {problem}", "graph")
    return SpatialGraph(
        lons=np.array(lons),
        lats=np.array(lats),
        member_counts=np.array(counts),
        edges=a,
        adjacency_norm=a_norm,
    )
