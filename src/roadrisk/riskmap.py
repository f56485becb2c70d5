"""Six-zone risk classification of predictions and GeoJSON map export.

Zoning is rank-based within each week: predictions at or below a zero
threshold form the no-risk zone, and the remaining values split at their
20/40/60/80th percentiles into five ascending zones, ties sharing the lower
zone. Rank-based cutoffs make the zones invariant to any strictly
increasing rescaling of the predictions. One GeoJSON FeatureCollection of
node-centroid points is written per forecast week. Its text is formatted
here from the map's columns, byte for byte what `artifacts.write_json`
writes for the same object (a test holds it to that oracle), and each
node's point and id are formatted once per export. A map carries the run's
config hash, because it is meant to be read outside the run directory;
`zones.csv` does not, and `map`'s manifest records the sha256 of both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_table
from .errors import ShapeMismatchError

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
) -> ZoneMap:
    """Rank predictions into the six zones for one week.

    ShapeMismatchError if `node_ids` does not hold one id per prediction.
    """
    values = np.asarray(predictions, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("predictions must be finite")
    n = values.size
    node_ids = list(range(n)) if node_ids is None else list(node_ids)
    if len(node_ids) != n:
        raise ShapeMismatchError(f"week {week}: {len(node_ids)} node ids for {n} predictions")
    zones = np.zeros(n, dtype=int)
    positive = values > ZERO_THRESHOLD
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


def _json_floats(column) -> list[str]:
    """Each float of `column` spelled as json spells it: `float.__repr__`,
    or NaN/Infinity, from one C-encoded list. No float's text holds ", "."""
    values = np.asarray(column, dtype=float).tolist()
    return json.dumps(values)[1:-1].split(", ") if values else []


def _feature_heads(node_ids: list[int], lons: list[str], lats: list[str]) -> list[str]:
    """Each node's feature text up to its percentile: the part no week changes."""
    return [
        '    {\n      "geometry": {\n        "coordinates": [\n'
        f'          {lon},\n          {lat}\n        ],\n        "type": "Point"\n'
        f'      }},\n      "properties": {{\n        "node_id": {node_id},\n'
        '        "percentile": '
        for node_id, lon, lat in zip(node_ids, lons, lats)
    ]


def _check_columns(zone_map: ZoneMap, **columns) -> None:
    """ShapeMismatchError unless the map's columns, and any further
    `columns`, each hold one entry per node id."""
    n = len(zone_map.node_ids)
    columns.update(
        values=zone_map.values, zones=zone_map.zones, percentiles=zone_map.percentiles
    )
    for name, column in columns.items():
        if np.shape(column) != (n,):
            raise ShapeMismatchError(
                f"week {zone_map.week}: {name} of shape {np.shape(column)} for {n} node ids"
            )


def export_geojson(
    zone_maps: list[ZoneMap],
    lons: np.ndarray,
    lats: np.ndarray,
    out_dir: str | Path,
    config_hash: str,
) -> list[Path]:
    """One file per week: risk_week_<label>.geojson. Returns written paths.

    Each file is a FeatureCollection of node-centroid points in
    `artifacts.write_json`'s layout, formatted here from the map's columns.
    ShapeMismatchError if a map's columns or the coordinates do not hold
    one entry per node id.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lon_text, lat_text = _json_floats(lons), _json_floats(lats)
    config_text = json.dumps(config_hash)
    labels = [json.dumps(label) for label in ZONE_LABELS]
    head_ids, heads, paths = None, [], []
    for zone_map in zone_maps:
        _check_columns(zone_map, lons=lons, lats=lats)
        ids = [int(node_id) for node_id in zone_map.node_ids]
        if ids != head_ids:
            head_ids, heads = ids, _feature_heads(ids, lon_text, lat_text)
        week = json.dumps(zone_map.week)
        zones = [int(zone) for zone in np.asarray(zone_map.zones).tolist()]
        features = ",\n".join(
            f'{head}{percentile},\n        "value": {value},\n        "week": {week},\n'
            f'        "zone": {zone},\n        "zone_label": {labels[zone]}\n'
            '      },\n      "type": "Feature"\n    }'
            for head, percentile, value, zone in zip(
                heads, _json_floats(zone_map.percentiles), _json_floats(zone_map.values), zones
            )
        )
        features = f"[\n{features}\n  ]" if features else "[]"
        path = out_dir / f"risk_week_{zone_map.week}.geojson"
        path.write_text(
            f'{{\n  "config_hash": {config_text},\n  "features": {features},\n'
            f'  "type": "FeatureCollection",\n  "week": {week}\n}}\n'
        )
        paths.append(path)
    return paths


def write_zone_csv(zone_maps: list[ZoneMap], path: str | Path) -> None:
    """Companion table for plotting tools; ShapeMismatchError as for
    `export_geojson`."""
    for zone_map in zone_maps:
        _check_columns(zone_map)
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
    write_table(path, header, rows)


def load_zone_geojson(path: str | Path) -> dict:
    return read_json(path, "map")


def validate_geojson(obj: dict) -> list[str]:
    """Structural checks per the GeoJSON spec; returns a list of problems."""
    if not isinstance(obj, dict):
        return ["root must be an object"]
    problems = []
    if obj.get("type") != "FeatureCollection":
        problems.append("root type must be FeatureCollection")
    features = obj.get("features")
    if not isinstance(features, list):
        return problems + ["features must be a list"]
    for idx, feature in enumerate(features):
        where = f"features[{idx}]"
        if not isinstance(feature, dict):
            problems.append(f"{where}: must be an object")
            continue
        if feature.get("type") != "Feature":
            problems.append(f"{where}: type must be Feature")
        if not isinstance(feature.get("properties"), dict):
            problems.append(f"{where}: properties must be an object")
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict) or geometry.get("type") != "Point":
            problems.append(f"{where}: geometry must be a Point")
            continue
        coords = geometry.get("coordinates")
        # json reads true and false as bool, which is an int
        if (
            not isinstance(coords, list)
            or len(coords) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coords)
        ):
            problems.append(f"{where}: coordinates must be [lon, lat] numbers")
            continue
        lon, lat = coords
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            problems.append(f"{where}: coordinates out of range")
    return problems
