"""Test helpers that the pipeline itself never calls."""

import numpy as np

from roadrisk.autodiff import Tape, no_grad
from roadrisk.training import TARGET_CHANNEL, TrainingData, split_temporal


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


def training_data(tensor, t_in, t_out, fractions=(0.6, 0.2, 0.2), channel_mask=(1, 1, 1)):
    """Windows over one tensor, unscaled: the targets are its safety channel."""
    splits = split_temporal(tensor.n_weeks, t_in, t_out, fractions)
    targets = tensor.values[:, :, TARGET_CHANNEL].copy()
    return TrainingData(tensor, targets, t_in, t_out, splits, channel_mask)


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
