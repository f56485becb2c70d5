"""Six-zone risk classification of predictions and GeoJSON map export.

Zoning is rank-based within each week: predictions at or below a zero
threshold form the no-risk zone, and the remaining values split at their
20/40/60/80th percentiles into five ascending zones, ties sharing the lower
zone. Rank-based cutoffs make the zones invariant to any strictly
increasing rescaling of the predictions. One GeoJSON FeatureCollection of
node-centroid points is written per forecast week.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_json, write_table

ZONE_LABELS = ("NoRisk", "VeryLow", "Low", "Medium", "High", "VeryHigh")
ZERO_THRESHOLD = 1e-9
PERCENTILE_CUTS = (20.0, 40.0, 60.0, 80.0)


@dataclass
class ZoneMap:
    week: str
    node_ids: list[int]
    values: np.ndarray       # predicted risk per node
    zones: np.ndarray        # int zone 0..5 per node
    percentiles: np.ndarray  # percentile rank of each value within the week

    def zone_label(self, node_index: int) -> str:
        return ZONE_LABELS[int(self.zones[node_index])]


def classify_zones(
    predictions: np.ndarray,
    week: str,
    node_ids: list[int] | None = None,
    zero_threshold: float = ZERO_THRESHOLD,
) -> ZoneMap:
    """Rank predictions into the six zones for one week."""
    values = np.asarray(predictions, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("predictions must be finite")
    n = values.size
    node_ids = list(range(n)) if node_ids is None else list(node_ids)
    zones = np.zeros(n, dtype=int)
    positive = values > zero_threshold
    if positive.any():
        cuts = np.percentile(values[positive], PERCENTILE_CUTS)
        # ties share the lower zone: strictly-above comparisons only
        zones[positive] = 1 + (values[positive, None] > cuts[None, :]).sum(axis=1)
    # the count of values below and equal to each value, from one sort
    ordered = np.sort(values)
    less = np.searchsorted(ordered, values, side="left")
    equal = np.searchsorted(ordered, values, side="right") - less
    percentiles = 100.0 * (less + 0.5 * equal) / n
    return ZoneMap(week, node_ids, values, zones, percentiles)


def zone_map_feature_collection(
    zone_map: ZoneMap,
    lons: np.ndarray,
    lats: np.ndarray,
    config_hash: str = "",
) -> dict:
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


def export_geojson(
    zone_maps: list[ZoneMap],
    lons: np.ndarray,
    lats: np.ndarray,
    out_dir: str | Path,
    config_hash: str = "",
) -> list[Path]:
    """One file per week: risk_week_<label>.geojson. Returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for zone_map in zone_maps:
        collection = zone_map_feature_collection(zone_map, lons, lats, config_hash)
        path = out_dir / f"risk_week_{zone_map.week}.geojson"
        write_json(path, collection)
        paths.append(path)
    return paths


def write_zone_csv(zone_maps: list[ZoneMap], path: str | Path, config_hash: str = "") -> None:
    """Companion table for plotting tools."""
    rows = (
        [
            node_id,
            zone_map.week,
            repr(float(zone_map.values[i])),
            int(zone_map.zones[i]),
            zone_map.zone_label(i),
            repr(float(zone_map.percentiles[i])),
        ]
        for zone_map in zone_maps
        for i, node_id in enumerate(zone_map.node_ids)
    )
    header = ["node_id", "week", "value", "zone", "zone_label", "percentile"]
    write_table(path, header, rows, config_hash)


def load_zone_geojson(path: str | Path) -> dict:
    return read_json(path, "map")


def validate_geojson(obj: dict) -> list[str]:
    """Structural checks per the GeoJSON spec; returns a list of problems."""
    problems = []
    if obj.get("type") != "FeatureCollection":
        problems.append("root type must be FeatureCollection")
    features = obj.get("features")
    if not isinstance(features, list):
        return problems + ["features must be a list"]
    for idx, feature in enumerate(features):
        where = f"features[{idx}]"
        if feature.get("type") != "Feature":
            problems.append(f"{where}: type must be Feature")
        if not isinstance(feature.get("properties"), dict):
            problems.append(f"{where}: properties must be an object")
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict) or geometry.get("type") != "Point":
            problems.append(f"{where}: geometry must be a Point")
            continue
        coords = geometry.get("coordinates")
        if (
            not isinstance(coords, list)
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) for c in coords)
        ):
            problems.append(f"{where}: coordinates must be [lon, lat] numbers")
            continue
        lon, lat = coords
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            problems.append(f"{where}: coordinates out of range")
    return problems
