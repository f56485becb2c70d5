import json

import numpy as np
import pytest

from helpers import zone_map_feature_collection
from roadrisk import riskmap as rm
from roadrisk.artifacts import write_json
from roadrisk.errors import ShapeMismatchError


def assert_export_matches_oracle(tmp_path, zone_maps, lons, lats, config_hash):
    """export_geojson writes, file for file, the bytes of write_json on the
    dict the maps used to be built as."""
    paths = rm.export_geojson(zone_maps, lons, lats, tmp_path / "maps", config_hash)
    assert [p.name for p in paths] == [f"risk_week_{m.week}.geojson" for m in zone_maps]
    for zone_map, path in zip(zone_maps, paths):
        oracle = tmp_path / "oracle.json"
        write_json(oracle, zone_map_feature_collection(zone_map, lons, lats, config_hash))
        assert path.read_bytes() == oracle.read_bytes(), path.name
    return paths


def test_all_zero_predictions_all_norisk():
    zones = rm.classify_zones(np.zeros(10), "2013-W40")
    assert (zones.zones == 0).all()
    assert zones.zone_label(0) == "NoRisk"


def test_1_to_100_splits_evenly():
    values = np.arange(1.0, 101.0)
    zones = rm.classify_zones(values, "w")
    counts = np.bincount(zones.zones, minlength=6)
    assert counts.tolist() == [0, 20, 20, 20, 20, 20]


def test_zone_monotone_in_value():
    rng = np.random.default_rng(0)
    values = np.concatenate([np.zeros(3), rng.uniform(0.1, 5.0, 47)])
    zones = rm.classify_zones(values, "w").zones
    order = np.argsort(values)
    assert (np.diff(zones[order]) >= 0).all()


def test_negative_predictions_are_norisk():
    zones = rm.classify_zones(np.array([-0.5, 0.0, 1.0, 2.0]), "w")
    assert zones.zones[0] == 0
    assert zones.zones[1] == 0
    assert zones.zones[2] >= 1


def test_ties_share_lower_zone():
    values = np.array([1.0, 1.0, 1.0, 1.0, 5.0])
    zones = rm.classify_zones(values, "w").zones
    assert len(set(zones[:4])) == 1


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(1)
    values = np.concatenate([np.zeros(5), rng.uniform(0.5, 4.0, 45)])
    base = rm.classify_zones(values, "w").zones
    squashed = np.where(values > 0, np.log1p(values) * 3.0, 0.0)
    got = rm.classify_zones(squashed, "w").zones
    assert (got == base).all()


def test_percentiles_are_ranks():
    values = np.array([0.0, 1.0, 2.0, 3.0])
    zones = rm.classify_zones(values, "w")
    assert zones.percentiles.tolist() == [12.5, 37.5, 62.5, 87.5]


@pytest.mark.parametrize("n", [1, 5, 300, 2000])
def test_percentiles_match_pairwise_counts(n):
    rng = np.random.default_rng(n)
    values = np.round(rng.uniform(-1.0, 4.0, n), 1)  # many ties
    values[rng.random(n) < 0.2] = 0.0
    values[rng.random(n) < 0.2] = -0.0
    less = (values[:, None] < values[None, :]).sum(axis=0)
    equal = (values[:, None] == values[None, :]).sum(axis=0)
    oracle = 100.0 * (less + 0.5 * equal) / n
    got = rm.classify_zones(values, "w").percentiles
    assert got.tobytes() == oracle.tobytes()


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        rm.classify_zones(np.array([1.0, np.nan]), "w")


def test_single_positive_value_gets_lowest_positive_zone():
    # one positive value ties every percentile cutoff; ties take the lower zone
    zones = rm.classify_zones(np.array([3.0]), "w")
    assert zones.zones.tolist() == [1]


def test_single_node_very_high_export(tmp_path):
    zones = rm.ZoneMap(
        week="2013-W40",
        node_ids=[7],
        values=np.array([3.0]),
        zones=np.array([5]),
        percentiles=np.array([50.0]),
    )
    assert zones.zone_label(0) == "VeryHigh"
    paths = rm.export_geojson([zones], np.array([-0.1]), np.array([51.5]), tmp_path, "hash")
    collection = rm.load_zone_geojson(paths[0])
    assert rm.validate_geojson(collection) == []
    feature = collection["features"][0]
    assert feature["properties"]["zone_label"] == "VeryHigh"
    assert feature["properties"]["node_id"] == 7
    assert feature["geometry"]["coordinates"] == [-0.1, 51.5]


def test_geojson_roundtrip_recovers_zones(tmp_path):
    rng = np.random.default_rng(2)
    lons = -0.1 + rng.uniform(0, 0.01, 20)
    lats = 51.5 + rng.uniform(0, 0.01, 20)
    zone_maps = [
        rm.classify_zones(np.abs(rng.uniform(-1, 3, 20)), f"2013-W{w:02d}")
        for w in range(40, 52)
    ]
    paths = rm.export_geojson(zone_maps, lons, lats, tmp_path, "cfg")
    assert len(paths) == 12
    for zone_map, path in zip(zone_maps, paths):
        collection = rm.load_zone_geojson(path)
        assert rm.validate_geojson(collection) == []
        assert collection["config_hash"] == "cfg"
        recovered = [f["properties"]["zone"] for f in collection["features"]]
        assert recovered == zone_map.zones.tolist()


def test_validator_catches_structural_problems():
    assert rm.validate_geojson({"type": "Nope"}) != []
    assert rm.validate_geojson({"type": "FeatureCollection"}) != []
    bad_point = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [500.0, 0.0]},
                "properties": {},
            }
        ],
    }
    problems = rm.validate_geojson(bad_point)
    assert any("out of range" in p for p in problems)


def test_zone_csv(tmp_path):
    zones = rm.classify_zones(np.array([0.0, 1.0, 2.0]), "2013-W40", node_ids=[3, 4, 5])
    rm.write_zone_csv([zones], tmp_path / "zones.csv")
    lines = (tmp_path / "zones.csv").read_text().splitlines()
    assert lines[0] == "node_id,week,value,zone,zone_label,percentile"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "3"


@pytest.mark.parametrize("n", [1, 30, 300])
def test_export_is_bytewise_the_write_json_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    lons = rng.uniform(-0.2, 0.1, n)
    lats = rng.uniform(51.4, 51.6, n)
    node_ids = rng.permutation(10 * n)[:n].tolist()
    zone_maps = []
    for week in ("2013-W40", "2013-W41", "2013-W42"):
        values = np.round(rng.uniform(-1.0, 4.0, n), 2)  # ties and non-positives
        zone_maps.append(rm.classify_zones(values, week, node_ids))
    assert_export_matches_oracle(tmp_path, zone_maps, lons, lats, "3f9a")


def test_export_of_a_map_without_nodes(tmp_path):
    zone_map = rm.classify_zones(np.zeros(0), "2013-W40", [])
    (path,) = assert_export_matches_oracle(tmp_path, [zone_map], np.zeros(0), np.zeros(0), "h")
    assert '\n  "features": [],\n' in path.read_text()
    assert rm.load_zone_geojson(path)["features"] == []


def test_export_spells_floats_and_strings_as_json_does(tmp_path):
    values = np.array([-0.0, 5e-324, 1e16, 1e-07, 1.0 / 3.0, 2.5])
    lons = np.array([-0.0, -0.1278, 0.0, -179.99999999999997, 1e-07, 180.0])
    lats = np.array([51.5, -0.0, 1.0 / 3.0, 5e-324, -90.0, float("nan")])
    # a quote and a non-ASCII character, which json writes as an escape
    week = 'W"40-\u00e9'
    zone_map = rm.classify_zones(values, week, [0, 1, 2, 3, 4, 5])
    (path,) = assert_export_matches_oracle(tmp_path, [zone_map], lons, lats, 'cfg"\u00fc')
    text = path.read_text()
    assert text.isascii()
    for spelled in ("-0.0", "5e-324", "1e+16", "1e-07", "0.3333333333333333", "NaN"):
        assert spelled in text


def test_export_of_maps_whose_node_lists_differ(tmp_path):
    lons, lats = np.array([-0.1, -0.2, -0.3]), np.array([51.1, 51.2, 51.3])
    zone_maps = [
        rm.classify_zones(np.array([0.0, 1.0, 2.0]), "2013-W40", [10, 11, 12]),
        rm.classify_zones(np.array([3.0, 1.0, 0.5]), "2013-W41", [12, 10, 11]),
        rm.classify_zones(np.array([3.0, 2.0, 1.0]), "2013-W42", [12, 10, 11]),
        rm.classify_zones(np.array([1.0, 2.0, 3.0]), "2013-W43", [10, 11, 12]),
    ]
    assert_export_matches_oracle(tmp_path, zone_maps, lons, lats, "cfg")


def test_node_ids_shorter_than_values_is_an_error(tmp_path):
    values = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatchError):
        rm.classify_zones(values, "w", node_ids=[7, 8])
    zone_map = rm.ZoneMap("w", [7, 8], values, np.array([1, 3, 5]), np.array([1.0, 50.0, 99.0]))
    with pytest.raises(ShapeMismatchError):
        rm.export_geojson([zone_map], np.zeros(3), np.zeros(3), tmp_path, "cfg")
    with pytest.raises(ShapeMismatchError):
        rm.write_zone_csv([zone_map], tmp_path / "zones.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("short", ["lons", "lats"])
def test_coordinates_shorter_than_nodes_is_an_error(tmp_path, short):
    zone_map = rm.classify_zones(np.array([1.0, 2.0, 3.0]), "w", [7, 8, 9])
    coords = {"lons": np.zeros(3), "lats": np.zeros(3)}
    coords[short] = np.zeros(2)
    with pytest.raises(ShapeMismatchError):
        rm.export_geojson([zone_map], coords["lons"], coords["lats"], tmp_path, "cfg")


def test_validator_reports_non_objects_instead_of_raising():
    point = {"type": "Point", "coordinates": [0.0, 0.0]}
    for features in ([1], [{"type": "Feature", "geometry": "x", "properties": {}}],
                     [{"type": "Feature", "geometry": point, "properties": [1]}]):
        problems = rm.validate_geojson({"type": "FeatureCollection", "features": features})
        assert len(problems) == 1, features
    assert rm.validate_geojson([1]) == ["root must be an object"]


def test_validator_rejects_boolean_coordinates():
    feature = {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [True, False]},
        "properties": {},
    }
    problems = rm.validate_geojson({"type": "FeatureCollection", "features": [feature]})
    assert problems == ["features[0]: coordinates must be [lon, lat] numbers"]
