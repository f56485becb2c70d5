import datetime as dt
import math

import numpy as np
import pytest

from roadrisk import features as ft
from roadrisk.errors import DataError, ShapeMismatchError
from roadrisk.ingest import (
    CATEGORIES,
    AccidentRecord,
    HumanControl,
    JunctionControl,
    LightCondition,
    PhysicalFacility,
    RecordTable,
    RoadType,
    SurfaceCondition,
    WeatherCondition,
    week_label,
)

TABLES = ft.WeightTables.default()


# Per-record scores, the arithmetic `build_risk_tensor` does on columns,
# kept as its oracles.
def severity_weight(tables, severity, road_type, speed_limit_mph):
    """Multiplicative severity x road-context x speed weight."""
    return (
        tables.severity[severity]
        * tables.categories["road_type"][road_type]
        * ft.speed_factor(speed_limit_mph)
    )


def infrastructure_risk(tables, record):
    """Mean of the four infrastructure factor weights, in (0, 1]."""
    return (
        tables.categories["ped_human_control"][record.ped_human_control]
        + tables.categories["ped_physical_facility"][record.ped_physical_facility]
        + tables.categories["light"][record.light]
        + tables.categories["junction_control"][record.junction_control]
    ) / 4.0


def environmental_risk(tables, record):
    """Mean of the surface and weather weights, in (0, 1]."""
    weights = tables.categories
    return (weights["surface"][record.surface] + weights["weather"][record.weather]) / 2.0


def make_record(
    date=dt.date(2012, 6, 11),
    severity=3,
    casualties=1,
    road=RoadType.SINGLE_CARRIAGEWAY,
    speed=60.0,
    junction=JunctionControl.AUTO_SIGNAL,
    human=HumanControl.SCHOOL_PATROL,
    facility=PhysicalFacility.ZEBRA,
    light=LightCondition.DAYLIGHT,
    weather=WeatherCondition.FINE,
    surface=SurfaceCondition.DRY,
    rid="R",
):
    return AccidentRecord(
        id=rid,
        date=date,
        lon=-0.1,
        lat=51.5,
        severity=severity,
        casualties=casualties,
        road_type=road,
        speed_limit=speed,
        junction_control=junction,
        ped_human_control=human,
        ped_physical_facility=facility,
        light=light,
        weather=weather,
        surface=surface,
    )


GOLDEN_SEVERITY = {1: 3.0, 2: 2.0, 3: 1.0}
GOLDEN_ROAD = {
    RoadType.SINGLE_CARRIAGEWAY: 1.0,
    RoadType.ONE_WAY: 1.1,
    RoadType.DUAL_CARRIAGEWAY: 1.2,
    RoadType.SLIP_ROAD: 1.3,
    RoadType.ROUNDABOUT: 1.5,
}
GOLDEN_HUMAN = {
    HumanControl.SCHOOL_PATROL: 0.2,
    HumanControl.AUTHORISED_PERSON: 0.3,
    HumanControl.NONE_WITHIN_50M: 0.4,
}
GOLDEN_FACILITY = {
    PhysicalFacility.FOOTBRIDGE_OR_SUBWAY: 0.1,
    PhysicalFacility.SIGNAL_JUNCTION_PHASE: 0.2,
    PhysicalFacility.NON_JUNCTION_CROSSING: 0.3,
    PhysicalFacility.ZEBRA: 0.35,
    PhysicalFacility.CENTRAL_REFUGE: 0.4,
    PhysicalFacility.NONE_WITHIN_50M: 0.6,
}
GOLDEN_LIGHT = {
    LightCondition.DAYLIGHT: 0.2,
    LightCondition.DARK_LIT: 0.4,
    LightCondition.DARK_LIGHTING_UNKNOWN: 0.6,
    LightCondition.DARK_UNLIT: 0.7,
    LightCondition.DARK_NO_LIGHTING: 0.8,
}
GOLDEN_JUNCTION = {
    JunctionControl.AUTHORISED_PERSON: 0.2,
    JunctionControl.AUTO_SIGNAL: 0.3,
    JunctionControl.STOP_SIGN: 0.5,
    JunctionControl.GIVE_WAY_OR_UNCONTROLLED: 0.7,
}
GOLDEN_SURFACE = {
    SurfaceCondition.DRY: 0.2,
    SurfaceCondition.WET_OR_DAMP: 0.5,
    SurfaceCondition.SNOW: 0.7,
    SurfaceCondition.FLOOD: 0.7,
    SurfaceCondition.FROST_OR_ICE: 0.8,
}
GOLDEN_WEATHER = {
    WeatherCondition.FINE: 0.2,
    WeatherCondition.FINE_HIGH_WINDS: 0.3,
    WeatherCondition.RAIN: 0.5,
    WeatherCondition.FOG_OR_MIST: 0.6,
    WeatherCondition.RAIN_HIGH_WINDS: 0.7,
    WeatherCondition.SNOW: 0.7,
    WeatherCondition.SNOW_HIGH_WINDS: 0.8,
}


def test_golden_weight_tables():
    assert TABLES.severity == GOLDEN_SEVERITY
    assert TABLES.categories.keys() == CATEGORIES.keys()  # one table per category column
    for mapping, golden in [
        (TABLES.categories["road_type"], GOLDEN_ROAD),
        (TABLES.categories["ped_human_control"], GOLDEN_HUMAN),
        (TABLES.categories["ped_physical_facility"], GOLDEN_FACILITY),
        (TABLES.categories["light"], GOLDEN_LIGHT),
        (TABLES.categories["junction_control"], GOLDEN_JUNCTION),
        (TABLES.categories["surface"], GOLDEN_SURFACE),
        (TABLES.categories["weather"], GOLDEN_WEATHER),
    ]:
        for key, want in golden.items():
            assert mapping[key] == want, key
        # total over the enum: every member (Unknown included) has a weight
        assert set(mapping) == set(type(next(iter(golden))))


def test_unknown_variants_use_default_weight():
    assert TABLES.categories["road_type"][RoadType.UNKNOWN] == 0.5
    assert TABLES.categories["weather"][WeatherCondition.UNKNOWN] == 0.5


def test_severity_weight_fatal_roundabout():
    assert severity_weight(TABLES, 1, RoadType.ROUNDABOUT, 60.0) == pytest.approx(4.5)


def test_severity_weight_slight_single():
    assert severity_weight(TABLES, 3, RoadType.SINGLE_CARRIAGEWAY, 60.0) == pytest.approx(1.0)


def test_severity_weight_serious_dual_fast():
    assert severity_weight(TABLES, 2, RoadType.DUAL_CARRIAGEWAY, 120.0) == pytest.approx(3.6)


def test_infrastructure_risk_hand_case():
    rec = make_record(
        human=HumanControl.SCHOOL_PATROL,
        facility=PhysicalFacility.ZEBRA,
        light=LightCondition.DAYLIGHT,
        junction=JunctionControl.AUTO_SIGNAL,
    )
    assert infrastructure_risk(TABLES, rec) == pytest.approx(0.2625)


def test_environmental_risk_hand_cases():
    dry_fine = make_record(surface=SurfaceCondition.DRY, weather=WeatherCondition.FINE)
    assert environmental_risk(TABLES, dry_fine) == pytest.approx(0.2)
    icy_storm = make_record(
        surface=SurfaceCondition.FROST_OR_ICE, weather=WeatherCondition.SNOW_HIGH_WINDS
    )
    assert environmental_risk(TABLES, icy_storm) == pytest.approx(0.8)


def test_risk_bounds():
    rng = np.random.default_rng(0)
    infra_lo = min(min(GOLDEN_HUMAN.values()), 0.5)
    for _ in range(50):
        rec = make_record(
            human=rng.choice(list(HumanControl)),
            facility=rng.choice(list(PhysicalFacility)),
            light=rng.choice(list(LightCondition)),
            junction=rng.choice(list(JunctionControl)),
            surface=rng.choice(list(SurfaceCondition)),
            weather=rng.choice(list(WeatherCondition)),
        )
        assert 0.0 < infrastructure_risk(TABLES, rec) <= 1.0
        assert 0.0 < environmental_risk(TABLES, rec) <= 1.0
        assert infrastructure_risk(TABLES, rec) >= infra_lo / 4


PERIOD = (dt.date(2012, 6, 11), dt.date(2012, 7, 8))  # four ISO weeks


def safety_channel(records):
    """Channel 0 of a one-node tensor over PERIOD."""
    return ft.build_risk_tensor(TABLES, records, [0] * len(records), [0], PERIOD).values[:, :, 0]


def test_traffic_safety_no_accidents_is_zero():
    # week-local: an accident adds nothing to the weeks after it
    rec = make_record(date=dt.date(2012, 6, 11))  # 2012-W24, the first week
    safety = safety_channel([rec])
    assert safety[0, 0] > 0.0
    assert (safety[1:] == 0.0).all()


def test_traffic_safety_single_accident_log2():
    rec = make_record(casualties=1, severity=3, road=RoadType.SINGLE_CARRIAGEWAY, speed=60.0)
    assert safety_channel([rec])[0, 0] == pytest.approx(math.log(2.0))


def test_traffic_safety_additive():
    rec = make_record()
    one = safety_channel([rec])[0, 0]
    two = safety_channel([rec, rec])[0, 0]
    assert two == pytest.approx(2 * one)


def test_build_tensor_empty_is_zero():
    tensor = ft.build_risk_tensor(TABLES, [], [], [0, 1], PERIOD)
    assert tensor.values.shape == (4, 2, 3)
    assert (tensor.values == 0).all()


def test_build_tensor_single_accident_locality():
    rec = make_record(date=dt.date(2012, 6, 20))
    tensor = ft.build_risk_tensor(TABLES, [rec], [1], [0, 1], PERIOD)
    nonzero = np.argwhere(tensor.values.sum(axis=2) != 0)
    assert nonzero.tolist() == [[1, 1]]  # second week, node 1, all channels there
    assert (tensor.values[1, 1] > 0).all()


def brute_force_tensor(records, assignment, node_ids, weeks):
    w, n = len(weeks), len(node_ids)
    out = np.zeros((w, n, 3))
    for t, week in enumerate(weeks):
        for i, node in enumerate(node_ids):
            cell = [
                r
                for r, a in zip(records, assignment)
                if a == node and week_label(r.date) == week
            ]
            for r in cell:
                out[t, i, 0] += math.log(r.casualties + 1) * severity_weight(
                    TABLES, r.severity, r.road_type, r.speed_limit
                )
            if cell:
                out[t, i, 1] = np.mean([infrastructure_risk(TABLES, r) for r in cell])
                out[t, i, 2] = np.mean([environmental_risk(TABLES, r) for r in cell])
    return out


FIVE_RECORDS = [
    make_record(date=dt.date(2012, 6, 11), severity=1, casualties=3, road=RoadType.ROUNDABOUT, rid="a"),
    make_record(date=dt.date(2012, 6, 12), severity=2, casualties=1, surface=SurfaceCondition.WET_OR_DAMP, rid="b"),
    make_record(date=dt.date(2012, 6, 25), severity=3, casualties=2, light=LightCondition.DARK_LIT, rid="c"),
    make_record(date=dt.date(2012, 7, 2), severity=3, casualties=1, weather=WeatherCondition.RAIN, rid="d"),
    make_record(date=dt.date(2012, 7, 3), severity=2, casualties=4, junction=JunctionControl.STOP_SIGN, rid="e"),
]
FIVE_ASSIGNMENT = [0, 1, 0, 1, 1]


def test_build_tensor_matches_brute_force():
    tensor = ft.build_risk_tensor(TABLES, FIVE_RECORDS, FIVE_ASSIGNMENT, [0, 1], PERIOD)
    oracle = brute_force_tensor(FIVE_RECORDS, FIVE_ASSIGNMENT, [0, 1], tensor.weeks)
    np.testing.assert_allclose(tensor.values, oracle, atol=1e-12)


def test_build_tensor_order_invariant():
    base = ft.build_risk_tensor(TABLES, FIVE_RECORDS, FIVE_ASSIGNMENT, [0, 1], PERIOD)
    perm = [3, 0, 4, 2, 1]
    shuffled = ft.build_risk_tensor(
        TABLES,
        [FIVE_RECORDS[i] for i in perm],
        [FIVE_ASSIGNMENT[i] for i in perm],
        [0, 1],
        PERIOD,
    )
    np.testing.assert_allclose(shuffled.values, base.values, atol=1e-12)


def test_build_tensor_casualty_monotonicity():
    low = make_record(casualties=2)
    high = make_record(casualties=4)
    t_low = ft.build_risk_tensor(TABLES, [low], [0], [0], PERIOD)
    t_high = ft.build_risk_tensor(TABLES, [high], [0], [0], PERIOD)
    assert t_high.values[0, 0, 0] > t_low.values[0, 0, 0]


def test_build_tensor_rejects_foreign_node():
    rec = make_record()
    for node in (7, 2, -1):  # a record's node is a position in 0..n-1
        with pytest.raises(ShapeMismatchError, match=f"^record node {node} is outside the 2 "):
            ft.build_risk_tensor(TABLES, [rec], [node], [0, 1], PERIOD)


def test_build_tensor_length_mismatch_states_both_lengths():
    with pytest.raises(DataError, match="^5 records but 4 node assignments$"):
        ft.build_risk_tensor(TABLES, FIVE_RECORDS, FIVE_ASSIGNMENT[:4], [0, 1], PERIOD)


def test_tensor_roundtrip(tmp_path):
    tensor = ft.build_risk_tensor(TABLES, FIVE_RECORDS, FIVE_ASSIGNMENT, [0, 1], PERIOD)
    tensor.meta["note"] = "fixture"
    bin_path, meta_path = tmp_path / "t.bin", tmp_path / "t.json"
    ft.save_tensor(tensor, bin_path, meta_path)
    loaded = ft.load_tensor(bin_path, meta_path)
    assert loaded.weeks == tensor.weeks
    assert (loaded.values == tensor.values).all()
    with np.load(bin_path) as archive:  # the node axis is positions: no id member
        assert sorted(archive.files) == ["values", "weeks"]
    assert loaded.meta["note"] == "fixture"


def test_weight_tables_reject_nonpositive():
    raw = {
        "severity": {"1": 3.0, "2": 2.0, "3": 0.0},
        "road_type": {rt.value: 1.0 for rt in RoadType if rt is not RoadType.UNKNOWN},
        "human_control": {m.value: 0.2 for m in HumanControl if m.name != "UNKNOWN"},
        "physical_facility": {m.value: 0.2 for m in PhysicalFacility if m.name != "UNKNOWN"},
        "light": {m.value: 0.2 for m in LightCondition if m.name != "UNKNOWN"},
        "junction_control": {m.value: 0.2 for m in JunctionControl if m.name != "UNKNOWN"},
        "surface": {m.value: 0.2 for m in SurfaceCondition if m.name != "UNKNOWN"},
        "weather": {m.value: 0.2 for m in WeatherCondition if m.name != "UNKNOWN"},
    }
    with pytest.raises(ValueError):
        ft.WeightTables.from_dict(raw)


def loop_risk_tensor(tables, records, assignment, n_nodes, period):
    """The per-record loop `build_risk_tensor` replaced, kept as its oracle."""
    weeks = ft.iso_weeks_between(period[0], period[1])
    week_pos = {w: t for t, w in enumerate(weeks)}
    values = np.zeros((len(weeks), n_nodes, 3))
    counts = np.zeros((len(weeks), n_nodes))
    for rec, node in zip(records, assignment):
        i = int(node)
        label = week_label(rec.date)
        if label not in week_pos:
            continue
        t = week_pos[label]
        w_sev = severity_weight(tables, rec.severity, rec.road_type, rec.speed_limit)
        values[t, i, 0] += math.log(rec.casualties + 1.0) * w_sev
        values[t, i, 1] += infrastructure_risk(tables, rec)
        values[t, i, 2] += environmental_risk(tables, rec)
        counts[t, i] += 1.0
    occupied = counts > 0
    values[:, :, 1][occupied] /= counts[occupied]
    values[:, :, 2][occupied] /= counts[occupied]
    return values


def seeded_records(n, seed):
    """Records drawn over every enum member (UNKNOWN included), casualties
    1-9, severities 1-3, non-round speeds, and dates reaching two weeks past
    either end of PERIOD."""
    rng = np.random.default_rng(seed)

    def pick(enum_cls):
        members = list(enum_cls)
        return members[int(rng.integers(len(members)))]

    start = PERIOD[0] - dt.timedelta(days=14)
    span = (PERIOD[1] - PERIOD[0]).days + 29
    return [
        make_record(
            date=start + dt.timedelta(days=int(rng.integers(span))),
            severity=int(rng.integers(1, 4)),
            casualties=int(rng.integers(1, 10)),
            road=pick(RoadType),
            speed=float(rng.choice([0.0, 20.0, 30.0, 40.0, 70.0, 37.3])),
            junction=pick(JunctionControl),
            human=pick(HumanControl),
            facility=pick(PhysicalFacility),
            light=pick(LightCondition),
            weather=pick(WeatherCondition),
            surface=pick(SurfaceCondition),
            rid=str(k),
        )
        for k in range(n)
    ]


def test_build_tensor_matches_record_loop_bitwise():
    records = seeded_records(3000, seed=11)
    for member_enum, attr in [
        (RoadType, "road_type"), (JunctionControl, "junction_control"),
        (HumanControl, "ped_human_control"), (PhysicalFacility, "ped_physical_facility"),
        (LightCondition, "light"), (WeatherCondition, "weather"), (SurfaceCondition, "surface"),
    ]:
        assert {getattr(r, attr) for r in records} == set(member_enum)
    assert {r.casualties for r in records} == set(range(1, 10))
    assert any(r.date < PERIOD[0] for r in records) and any(r.date > PERIOD[1] for r in records)
    nodes = range(6)
    occupied = [4, 0, 5, 1, 3]  # records in no node order, and node 2 gets none
    rng = np.random.default_rng(12)
    assignment = [occupied[int(k)] for k in rng.integers(0, 5, len(records))]
    assert 2 not in assignment

    tensor = ft.build_risk_tensor(TABLES, records, assignment, nodes, PERIOD)
    assert tensor.values.tobytes() == loop_risk_tensor(
        TABLES, records, assignment, len(nodes), PERIOD
    ).tobytes()
    assert (tensor.values[:, 2] == 0.0).all()
    table = RecordTable.from_records(records)
    on_table = ft.build_risk_tensor(TABLES, table, np.asarray(assignment), nodes, PERIOD)
    assert on_table.values.tobytes() == tensor.values.tobytes()
    assert on_table.weeks == tensor.weeks and on_table.n_nodes == tensor.n_nodes == 6

    order = rng.permutation(len(records))
    shuffled = [records[k] for k in order]
    shuffled_assignment = np.asarray(assignment)[order]  # numpy ints, as the CLI passes
    tensor = ft.build_risk_tensor(TABLES, shuffled, shuffled_assignment, nodes, PERIOD)
    assert tensor.values.tobytes() == loop_risk_tensor(
        TABLES, shuffled, shuffled_assignment, len(nodes), PERIOD
    ).tobytes()
