"""Spatial graph construction from accident point clouds.

Accident locations are grouped on a square grid (local equirectangular
projection around the region centroid); each occupied cell becomes a node at
the mean position of its members. Nodes are linked to their k nearest
neighbors with Gaussian kernel weights over haversine distance, symmetrized,
and normalized as D^-1/2 A D^-1/2 for stable iterative smoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .artifacts import artifact_rows, write_table
from .errors import ConfigError, DegenerateGeometryError, EmptyInputError, ZeroDegreeNodeError

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat points (degrees)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


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


@dataclass
class SpatialGraph:
    node_ids: list[int]
    lons: np.ndarray
    lats: np.ndarray
    member_counts: np.ndarray
    adjacency: sparse.csr_matrix       # symmetric, zero diagonal
    adjacency_norm: sparse.csr_matrix  # D^-1/2 A D^-1/2
    params: GraphParams = field(default_factory=GraphParams)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def edge_counts(self) -> dict:
        """Stored (directed) entries and undirected pair count."""
        directed = self.adjacency.nnz
        return {"directed": directed, "undirected": directed // 2}


def _local_xy_m(lons, lats, lon0: float, lat0: float) -> tuple[np.ndarray, np.ndarray]:
    # equirectangular projection about (lon0, lat0); adequate at city scale
    x = np.radians(np.asarray(lons, dtype=float) - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = np.radians(np.asarray(lats, dtype=float) - lat0) * EARTH_RADIUS_M
    return x, y


def assign_to_nodes(
    lons: Sequence[float],
    lats: Sequence[float],
    cell_size_m: float = 150.0,
    center: tuple[float, float] | None = None,
) -> tuple[list[tuple[int, float, float, int]], np.ndarray]:
    """Group points into grid cells; each occupied cell becomes a node.

    The grid is anchored at `center` (lon, lat) - normally the study-region
    centroid, so cell boundaries don't move with the data - falling back to
    the point-cloud mean. Returns (nodes, assignment): nodes as (node_id,
    centroid_lon, centroid_lat, member_count) ordered by node_id, and a
    per-point array of node ids. Node ids are assigned in (cell_x, cell_y)
    order, so the result is deterministic for a given input set.
    """
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    if lons.size == 0:
        raise EmptyInputError("no points to assign")
    if center is not None:
        lon0, lat0 = float(center[0]), float(center[1])
    else:
        lon0, lat0 = float(lons.mean()), float(lats.mean())
    x, y = _local_xy_m(lons, lats, lon0, lat0)
    cx = np.floor(x / cell_size_m).astype(np.int64)
    cy = np.floor(y / cell_size_m).astype(np.int64)
    # unique rows come out in lexicographic (cx, cy) order
    _, assignment, counts = np.unique(
        np.column_stack((cx, cy)), axis=0, return_inverse=True, return_counts=True
    )
    assignment = assignment.ravel()
    # A stable sort keeps each cell's members in input order, so .mean() over
    # a contiguous slice sums the members in input order, pairwise. (Not
    # np.add.reduceat: it sums sequentially and changes the last bits.)
    order = np.argsort(assignment, kind="stable")
    node_lons, node_lats = lons[order], lats[order]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).tolist()
    nodes = [
        (node_id, float(node_lons[s : s + c].mean()), float(node_lats[s : s + c].mean()), c)
        for node_id, (s, c) in enumerate(zip(starts, counts.tolist()))
    ]
    return nodes, assignment


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
) -> tuple[sparse.csr_matrix, float]:
    """Gaussian-kernel kNN adjacency, symmetrized with elementwise max.

    Entry (i, j) is exp(-d_ij^2 / (2 sigma^2)) when j is among i's k nearest
    neighbors (self excluded; distance ties broken by ascending node id).
    Returns (A, sigma) where sigma is the bandwidth actually used.
    """
    n = lons.size
    if not (n > k >= 1):
        raise DegenerateGeometryError(f"need n > k >= 1, got n={n}, k={k}")
    neighbors, knn_d = _knn(lons, lats, k)
    if sigma_m is None:
        sigma_m = float(np.median(knn_d))
    if sigma_m <= 0:
        raise DegenerateGeometryError("sigma must be positive")
    weights = np.exp(-(knn_d**2) / (2.0 * sigma_m**2))
    rows = np.repeat(np.arange(n), k)
    a = sparse.coo_matrix(
        (weights.ravel(), (rows, neighbors.ravel())), shape=(n, n)
    ).tocsr()
    a = a.maximum(a.T)
    a.setdiag(0.0)
    a.eliminate_zeros()
    return a, sigma_m


def normalize_sym(a: sparse.csr_matrix) -> sparse.csr_matrix:
    """D^-1/2 A D^-1/2; every node must have positive degree."""
    degrees = np.asarray(a.sum(axis=1)).ravel()
    zero = np.flatnonzero(degrees <= 0.0)
    if zero.size:
        raise ZeroDegreeNodeError(int(zero[0]))
    inv_sqrt = sparse.diags(1.0 / np.sqrt(degrees))
    return (inv_sqrt @ a @ inv_sqrt).tocsr()


def build_graph(
    lons: Sequence[float],
    lats: Sequence[float],
    params: GraphParams | None = None,
    center: tuple[float, float] | None = None,
) -> tuple[SpatialGraph, np.ndarray]:
    """Full pipeline: grid nodes, kNN kernel adjacency, normalization.

    Returns the graph plus the per-input-point node assignment.
    """
    params = params or GraphParams()
    nodes, assignment = assign_to_nodes(lons, lats, params.cell_size_m, center)
    node_lons = np.array([n[1] for n in nodes])
    node_lats = np.array([n[2] for n in nodes])
    counts = np.array([n[3] for n in nodes])
    keep, counts, remap = _merge_coincident(node_lons, node_lats, counts)
    if keep.size < len(nodes):
        node_lons, node_lats = node_lons[keep], node_lats[keep]
        assignment = remap[assignment]
    a, sigma = build_adjacency(node_lons, node_lats, params.k, params.sigma_m)
    a_norm = normalize_sym(a)
    graph = SpatialGraph(
        node_ids=list(range(node_lons.size)),
        lons=node_lons,
        lats=node_lats,
        member_counts=counts,
        adjacency=a,
        adjacency_norm=a_norm,
        params=GraphParams(params.cell_size_m, params.k, sigma),
    )
    return graph, assignment


def save_graph(
    graph: SpatialGraph, nodes_path: Path, edges_path: Path, config_hash: str = ""
) -> None:
    """Write nodes and edges CSVs; floats as shortest exact repr."""
    nodes = (
        [i, repr(lon), repr(lat), count]
        for i, lon, lat, count in zip(
            graph.node_ids,
            graph.lons.tolist(),
            graph.lats.tolist(),
            np.asarray(graph.member_counts, dtype=np.int64).tolist(),
        )
    )
    write_table(nodes_path, ["node_id", "lon", "lat", "member_count"], nodes, config_hash)
    coo = graph.adjacency.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols = coo.row[order], coo.col[order]
    norm = np.asarray(graph.adjacency_norm.tocsr()[rows, cols]).ravel()
    edges = (
        [i, j, repr(w), repr(wn)]
        for i, j, w, wn in zip(
            rows.tolist(), cols.tolist(), coo.data[order].tolist(), norm.tolist()
        )
    )
    write_table(edges_path, ["i", "j", "weight", "normalized_weight"], edges, config_hash)


def load_graph(nodes_path: Path, edges_path: Path, params: GraphParams | None = None) -> SpatialGraph:
    """Read a `save_graph` pair. CorruptArtifactError (exit 3) names the
    line of a row that does not parse and says to run `graph` again."""
    ids, lons, lats, counts = [], [], [], []
    with artifact_rows(nodes_path, ["node_id", "lon", "lat", "member_count"], "graph") as (
        (i_id, i_lon, i_lat, i_count), rows
    ):
        for row in rows:
            ids.append(int(row[i_id]))
            lons.append(float(row[i_lon]))
            lats.append(float(row[i_lat]))
            counts.append(int(row[i_count]))
    n = len(ids)
    edge_i, edge_j, w, wn = [], [], [], []
    with artifact_rows(edges_path, ["i", "j", "weight", "normalized_weight"], "graph") as (
        (i_i, i_j, i_w, i_wn), rows
    ):
        for row in rows:
            i, j = int(row[i_i]), int(row[i_j])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) names a node outside the {n} in {nodes_path}")
            edge_i.append(i)
            edge_j.append(j)
            w.append(float(row[i_w]))
            wn.append(float(row[i_wn]))
    a = sparse.coo_matrix((w, (edge_i, edge_j)), shape=(n, n)).tocsr()
    a_norm = sparse.coo_matrix((wn, (edge_i, edge_j)), shape=(n, n)).tocsr()
    return SpatialGraph(
        node_ids=ids,
        lons=np.array(lons),
        lats=np.array(lats),
        member_counts=np.array(counts),
        adjacency=a,
        adjacency_norm=a_norm,
        params=params or GraphParams(),
    )
