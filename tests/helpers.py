"""Test helpers that the pipeline itself never calls."""

import dataclasses
import math
from pathlib import Path

import numpy as np
from scipy import sparse

from roadrisk import autodiff as ad
from roadrisk.autodiff import Tape, no_grad
from roadrisk.config import RunConfig
from roadrisk.errors import DataError
from roadrisk.graph import EARTH_RADIUS_M, EdgeTable
from roadrisk.ingest import CATEGORIES, RecordTable
from roadrisk.training import TARGET_CHANNEL, TrainingData, split_temporal

# the fixture run's settings: the region the synthetic sites lie in, the
# MAPE threshold and the split fractions the tests pass to the library
FIXTURE_CONFIG = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "fixture.json")
FIXTURE_REGION = FIXTURE_CONFIG.region
MAPE_EPS = FIXTURE_CONFIG.mape_eps
FRACTIONS = FIXTURE_CONFIG.split_fractions


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat points (degrees),
    in scalar `math`: the oracle for the graph's vectorised distances."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def neighbor_table(adjacency) -> EdgeTable:
    """The edge table of a square adjacency, dense or scipy sparse: the
    oracle for the tables the pipeline builds without scipy.

    Each row's nonzero columns in ascending order, padded with -1 to the
    widest row, and the adjacency values there, padded with 0.0. No (n, n)
    array is formed for a sparse input.
    """
    a = sparse.csr_matrix(adjacency, dtype=np.float64, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    n = a.shape[0]
    counts = np.diff(a.indptr)
    rows = np.repeat(np.arange(n), counts)
    slots = np.arange(a.nnz) - a.indptr[rows]
    neighbors = np.full((n, counts.max(initial=0)), -1, dtype=np.intp)
    weights = np.zeros(neighbors.shape)
    neighbors[rows, slots] = a.indices
    weights[rows, slots] = a.data
    return EdgeTable(neighbors, weights)


def csr(table: EdgeTable) -> sparse.csr_matrix:
    """An edge table as the scipy CSR matrix it stands for."""
    stored = table.neighbors >= 0
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    n = table.neighbors.shape[0]
    return sparse.csr_matrix((table.weights[stored], table.neighbors[stored], indptr), shape=(n, n))


def scipy_normalize(a: sparse.csr_matrix) -> sparse.csr_matrix:
    """D^-1/2 A D^-1/2 through scipy, as the graph was normalised before it
    became numpy edge tables: the oracle `graph.normalize_sym` matches bitwise."""
    inv_sqrt = sparse.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    return (inv_sqrt @ a @ inv_sqrt).tocsr()


def grad_check(function, params, eps=1e-5, max_coords=24, seed=0) -> float:
    """Compare tape gradients against central finite differences.

    `function` must take no arguments, close over `params` (an iterable of
    Tensors with requires_grad), and return a scalar Tensor. Returns the
    maximum error over sampled coordinates, relative with a unit floor:
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = function()
        tape.backward(loss)
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = range(n) if n <= max_coords else rng.choice(n, max_coords, False)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + eps
            with no_grad():
                up = function().item()
            flat[i] = saved - eps
            with no_grad():
                down = function().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            got = a.reshape(-1)[i]
            err = abs(got - numeric) / max(1.0, abs(got), abs(numeric))
            worst = max(worst, err)
    return worst


def training_data(tensor, t_in, t_out, fractions=FRACTIONS, channel_mask=(1, 1, 1)):
    """Windows over one tensor, unscaled: the targets are its safety channel."""
    splits = split_temporal(tensor.n_weeks, t_in, t_out, fractions)
    targets = tensor.values[:, :, TARGET_CHANNEL].copy()
    return TrainingData(tensor, targets, t_in, t_out, splits, channel_mask)


def window_loop(model, data, starts, training=False, rng=None):
    """Mean L1 over the windows, every window recorded on the active tape
    one after another: the slow-path oracle of `training.batch_loss`, which
    streams a taped batch one window at a time."""
    total = None
    for start in starts:
        x, y = data.window(start)
        pred = model.forward(x, training=training, rng=rng)
        loss = ad.mean_(ad.abs_(ad.sub(pred, y)))
        total = loss if total is None else ad.add(total, loss)
    return ad.scale(total, 1.0 / len(starts))


def zone_map_feature_collection(zone_map, lons, lats, config_hash="") -> dict:
    """One week's map as a dict; with `artifacts.write_json` it is the oracle
    for the text `riskmap.export_geojson` formats itself."""
    features = []
    for i, node_id in enumerate(zone_map.node_ids):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [float(lons[i]), float(lats[i])],
                },
                "properties": {
                    "node_id": int(node_id),
                    "week": zone_map.week,
                    "zone": int(zone_map.zones[i]),
                    "zone_label": zone_map.zone_label(i),
                    "value": float(zone_map.values[i]),
                    "percentile": float(zone_map.percentiles[i]),
                },
            }
        )
    return {
        "type": "FeatureCollection",
        "config_hash": config_hash,
        "week": zone_map.week,
        "features": features,
    }


def record_table(records) -> RecordTable:
    """The columns of hand-made `AccidentRecord`s, as the parser stores them:
    the oracle for the tests that build records rather than parse a CSV.

    `id` takes the width of its longest id. DataError if an id ends in a NUL
    character, which a numpy str column would drop.
    """
    ids = [r.id for r in records]
    nul = next((i for i in ids if i.endswith("\0")), None)
    if nul is not None:
        raise DataError(f"accident id {nul!r} ends in a NUL character")
    columns = {"id": np.array(ids, dtype=np.str_)}
    for field in dataclasses.fields(RecordTable)[1:]:
        values = [getattr(r, field.name) for r in records]
        if field.name == "date":
            columns["date"] = np.array([day.toordinal() for day in values], np.int64)
        elif field.name in CATEGORIES:
            codes = list(CATEGORIES[field.name])
            columns[field.name] = np.array([codes.index(member) for member in values], np.int8)
        else:
            dtype = np.int64 if field.name in ("severity", "casualties") else np.float64
            columns[field.name] = np.array(values, dtype)
    return RecordTable(**columns)


def in_region(record, region) -> bool:
    """Whether one record lies in `region`'s bbox and period, bounds
    included, in scalar Python: the oracle for `RecordTable.within`."""
    lon_min, lat_min, lon_max, lat_max = region.bbox
    first, last = region.period
    return (lon_min <= record.lon <= lon_max and lat_min <= record.lat <= lat_max
            and first <= record.date <= last)


def assert_same_table(got: RecordTable, expected: RecordTable) -> None:
    """Equal columns, dtype and bytes, the `id` column's width included."""
    got, expected = got.columns(), expected.columns()
    assert list(got) == list(expected)
    for name, column in expected.items():
        assert got[name].dtype == column.dtype, name
        assert got[name].tobytes() == column.tobytes(), name
