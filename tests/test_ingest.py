import datetime as dt
import math

import numpy as np
import pytest

from roadrisk import ingest
from roadrisk.errors import (
    CorruptArtifactError,
    DataError,
    MissingColumnError,
    TooManyRejectsError,
    UnassignedRecordError,
)
from roadrisk.ingest import (
    AccidentRecord,
    Granularity,
    HumanControl,
    JunctionControl,
    LightCondition,
    PhysicalFacility,
    RegionSpec,
    RoadType,
    SurfaceCondition,
    WeatherCondition,
)

from helpers import assert_same_table, in_region, record_table

HEADER = (
    "Accident_Index,Date,Longitude,Latitude,Accident_Severity,Number_of_Casualties,"
    "Road_Type,Speed_limit,Junction_Control,Pedestrian_Crossing-Human_Control,"
    "Pedestrian_Crossing-Physical_Facilities,Light_Conditions,Weather_Conditions,"
    "Road_Surface_Conditions"
)


def make_csv(tmp_path, rows, name="acc.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def row(
    idx="A1",
    date="15/06/2012",
    lon="-0.1278",
    lat="51.5074",
    severity="1",
    casualties="2",
    road="6",
    speed="30",
    junction="2",
    human="0",
    facility="1",
    light="1",
    weather="1",
    surface="1",
):
    return ",".join(
        [idx, date, lon, lat, severity, casualties, road, speed, junction, human, facility, light, weather, surface]
    )


def test_parse_copies_fields(tmp_path):
    path = make_csv(tmp_path, [row(severity="1", casualties="2")])
    table, rejects = ingest.parse_accident_csv(path)
    assert rejects == []
    [rec] = table
    assert rec.severity == 1
    assert rec.casualties == 2
    assert rec.road_type is RoadType.SINGLE_CARRIAGEWAY
    assert rec.date == dt.date(2012, 6, 15)
    assert rec.light is LightCondition.DAYLIGHT


def test_parse_rejects_empty_longitude(tmp_path):
    path = make_csv(tmp_path, [row(), row(idx="A2", lon="")])
    table, rejects = ingest.parse_accident_csv(path)
    assert len(table) == 1
    assert len(rejects) == 1
    assert rejects[0].line == 3
    assert "coordinate" in rejects[0].reason


def test_parse_three_row_fixture_counts(tmp_path):
    path = make_csv(
        tmp_path, [row(idx="A1"), row(idx="A2", date="31/13/2012"), row(idx="A3")]
    )
    table, rejects = ingest.parse_accident_csv(path)
    assert len(table) == 2
    assert len(rejects) == 1


def test_parse_missing_column_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Accident_Index,Date\nA1,01/01/2012\n")
    with pytest.raises(MissingColumnError):
        ingest.parse_accident_csv(path)


def test_parse_majority_rejects_is_fatal(tmp_path):
    path = make_csv(tmp_path, [row(), row(idx="B", lon="x"), row(idx="C", lat="")])
    with pytest.raises(TooManyRejectsError):
        ingest.parse_accident_csv(path)


def test_parse_unknown_codes_map_to_unknown(tmp_path):
    path = make_csv(tmp_path, [row(road="-1", weather="8", surface="9")])
    [rec], _ = ingest.parse_accident_csv(path)
    assert rec.road_type is RoadType.UNKNOWN
    assert rec.weather is WeatherCondition.UNKNOWN
    assert rec.surface is SurfaceCondition.UNKNOWN


def test_parse_text_labels(tmp_path):
    path = make_csv(
        tmp_path,
        [row(road="Roundabout", weather="Fine without high winds", surface="Frost/Ice")],
    )
    [rec], _ = ingest.parse_accident_csv(path)
    assert rec.road_type is RoadType.ROUNDABOUT
    assert rec.weather is WeatherCondition.FINE
    assert rec.surface is SurfaceCondition.FROST_OR_ICE


# Every coded member as literal data: (name, value, STATS19 code, labels).
# Values are also the weight-table keys; 35 codes and 52 labels in all.
CATEGORIES = {
    RoadType: [
        ("SINGLE_CARRIAGEWAY", "single_carriageway", 6, ["Single carriageway"]),
        ("ONE_WAY", "one_way", 2, ["One way street", "One way"]),
        ("DUAL_CARRIAGEWAY", "dual_carriageway", 3, ["Dual carriageway"]),
        ("SLIP_ROAD", "slip_road", 7, ["Slip road"]),
        ("ROUNDABOUT", "roundabout", 1, ["Roundabout"]),
    ],
    JunctionControl: [
        ("AUTHORISED_PERSON", "authorised_person", 1, ["Authorised person"]),
        ("AUTO_SIGNAL", "auto_signal", 2, ["Automatic traffic signal", "Auto traffic signal"]),
        ("STOP_SIGN", "stop_sign", 3, ["Stop Sign"]),
        ("GIVE_WAY_OR_UNCONTROLLED", "give_way_or_uncontrolled", 4,
         ["Give way or uncontrolled"]),
    ],
    HumanControl: [
        ("SCHOOL_PATROL", "school_patrol", 1, ["Control by school crossing patrol"]),
        ("AUTHORISED_PERSON", "authorised_person", 2, ["Control by other authorised person"]),
        ("NONE_WITHIN_50M", "none_within_50m", 0,
         ["None within 50 metres", "None within 50 meters"]),
    ],
    PhysicalFacility: [
        ("FOOTBRIDGE_OR_SUBWAY", "footbridge_or_subway", 7, ["Footbridge or subway"]),
        ("SIGNAL_JUNCTION_PHASE", "signal_junction_phase", 5,
         ["Pedestrian phase at traffic signal junction"]),
        ("NON_JUNCTION_CROSSING", "non_junction_crossing", 4,
         ["Non-junction pedestrian crossing",
          "Pelican, puffin, toucan or similar non-junction pedestrian light crossing"]),
        ("ZEBRA", "zebra", 1, ["Zebra crossing", "Zebra"]),
        ("CENTRAL_REFUGE", "central_refuge", 8, ["Central refuge"]),
        ("NONE_WITHIN_50M", "none_within_50m", 0,
         ["No physical crossing within 50 meters",
          "No physical crossing facilities within 50 metres"]),
    ],
    LightCondition: [
        ("DAYLIGHT", "daylight", 1, ["Daylight: Street light present", "Daylight"]),
        ("DARK_LIT", "dark_lit", 4,
         ["Darkness: Street lights present and lit", "Darkness - lights lit"]),
        ("DARK_LIGHTING_UNKNOWN", "dark_lighting_unknown", 7,
         ["Darkness: Street lighting unknown", "Darkness - lighting unknown"]),
        ("DARK_UNLIT", "dark_unlit", 5,
         ["Darkness: Street lights present but unlit", "Darkness - lights unlit"]),
        ("DARK_NO_LIGHTING", "dark_no_lighting", 6,
         ["Darkness: No street lighting", "Darkness - no lighting"]),
    ],
    WeatherCondition: [
        ("FINE", "fine", 1, ["Fine without high winds", "Fine no high winds"]),
        ("FINE_HIGH_WINDS", "fine_high_winds", 4, ["Fine with high winds"]),
        ("RAIN", "rain", 2, ["Raining without high winds", "Raining no high winds"]),
        ("FOG_OR_MIST", "fog_or_mist", 7, ["Fog or mist"]),
        ("RAIN_HIGH_WINDS", "rain_high_winds", 5, ["Raining with high winds"]),
        ("SNOW", "snow", 3, ["Snowing without high winds", "Snowing no high winds"]),
        ("SNOW_HIGH_WINDS", "snow_high_winds", 6, ["Snowing with high winds"]),
    ],
    SurfaceCondition: [
        ("DRY", "dry", 1, ["Dry"]),
        ("WET_OR_DAMP", "wet_or_damp", 2, ["Wet or damp", "Wet/Damp"]),
        ("SNOW", "snow", 3, ["Snow"]),
        ("FLOOD", "flood", 5, ["Flood (Over 3cm of water)", "Flood over 3cm. deep"]),
        ("FROST_OR_ICE", "frost_or_ice", 4, ["Frost/Ice", "Frost or ice"]),
    ],
}


@pytest.mark.parametrize("cls", list(CATEGORIES), ids=lambda cls: cls.__name__)
def test_categories_parse_as_tabled(cls):
    table = CATEGORIES[cls]
    assert [m.name for m in cls] == [name for name, *_ in table] + ["UNKNOWN"]
    assert cls.UNKNOWN.value == "unknown"
    for name, value, code, labels in table:
        member = cls[name]
        assert member.value == value
        assert cls.parse(code) is member
        assert cls.parse(str(code)) is member
        assert cls.parse(f" 0{code} ") is member
        for label in labels:
            assert cls.parse(label) is member
            assert cls.parse("  " + label.upper().replace(" ", "_") + "!") is member
            assert cls.parse(label.lower().replace(" ", " - ")) is member
    for member in cls:
        assert cls(member.value) is member
    claimed = {code for _, _, code, _ in table}
    for code in (-1, max(claimed) + 1, *(set(range(10)) - claimed)):
        assert cls.parse(code) is cls.UNKNOWN
        assert cls.parse(str(code)) is cls.UNKNOWN
    for text in ("", "  ", "no such label", "1.0"):
        assert cls.parse(text) is cls.UNKNOWN
    with pytest.raises(ValueError):
        cls("no_such_value")


def test_parse_deterministic(tmp_path):
    rows = [row(idx=f"A{i}", casualties=str(1 + i % 3)) for i in range(20)]
    path = make_csv(tmp_path, rows)
    first, _ = ingest.parse_accident_csv(path)
    second, _ = ingest.parse_accident_csv(path)
    assert_same_table(first, second)


def test_rejects_report_roundtrip(tmp_path):
    path = make_csv(tmp_path, [row(), row(idx="A2", date="nonsense"), row(idx="A3")])
    _, rejects = ingest.parse_accident_csv(path)
    out = tmp_path / "rejects.csv"
    ingest.write_rejects(rejects, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "line,reason"
    assert lines[1].startswith("3,")


def make_record(lon=-0.1278, lat=51.5074, date=dt.date(2012, 6, 15), rid="R"):
    return AccidentRecord(
        id=rid,
        date=date,
        lon=lon,
        lat=lat,
        severity=3,
        casualties=1,
        road_type=RoadType.SINGLE_CARRIAGEWAY,
        speed_limit=30.0,
        junction_control=ingest.JunctionControl.AUTO_SIGNAL,
        ped_human_control=ingest.HumanControl.NONE_WITHIN_50M,
        ped_physical_facility=ingest.PhysicalFacility.ZEBRA,
        light=LightCondition.DAYLIGHT,
        weather=WeatherCondition.FINE,
        surface=SurfaceCondition.DRY,
    )


REGION = RegionSpec(
    name="test",
    bbox=(-0.2, 51.4, 0.0, 51.6),
    period=(dt.date(2012, 1, 1), dt.date(2012, 12, 31)),
)


def test_filter_region_keeps_boundary_point():
    rec = make_record(lon=-0.2, lat=51.4)
    assert list(ingest.filter_region(record_table([rec]), REGION)) == [rec]


def test_filter_region_excludes_just_outside():
    rec = make_record(lon=-0.201, lat=51.5)
    assert list(ingest.filter_region(record_table([rec]), REGION)) == []


def test_filter_region_brute_force_count():
    # 10 records, 4 inside the box by construction
    coords = [
        (-0.1, 51.5), (-0.19, 51.41), (-0.01, 51.59), (-0.15, 51.45),  # inside
        (-0.3, 51.5), (0.1, 51.5), (-0.1, 51.3), (-0.1, 51.7),
        (-0.25, 51.35), (0.05, 51.65),
    ]
    records = [
        make_record(lon=lon, lat=lat, rid=str(i))
        for i, (lon, lat) in enumerate(coords)
    ]
    expected = [
        r for r in records if -0.2 <= r.lon <= 0.0 and 51.4 <= r.lat <= 51.6
    ]
    got = ingest.filter_region(record_table(records), REGION)
    assert list(got) == expected
    assert len(got) == 4


def test_filter_region_idempotent():
    rng = np.random.default_rng(1)
    records = [
        make_record(lon=float(lon), lat=float(lat), rid=str(i))
        for i, (lon, lat) in enumerate(
            zip(rng.uniform(-0.3, 0.1, 30), rng.uniform(51.35, 51.65, 30))
        )
    ]
    once = ingest.filter_region(record_table(records), REGION)
    assert 0 < len(once) < len(records)
    assert ingest.filter_region(once, REGION) is once


def test_aggregate_empty_records_zero_series():
    # 2012-01-02 (Mon, W01) through 2012-01-29 (Sun, W04): four ISO weeks
    series = ingest.aggregate_temporal(
        record_table([]),
        [],
        Granularity.WEEKLY,
        n_nodes=3,
        period=(dt.date(2012, 1, 2), dt.date(2012, 1, 29)),
    )
    assert series.values.shape == (4, 3)
    assert series.values.sum() == 0.0


def test_aggregate_seven_consecutive_days():
    # 2012-06-11 is a Monday; 7 consecutive days span exactly one ISO week
    records = [
        make_record(date=dt.date(2012, 6, 11) + dt.timedelta(days=i), rid=str(i))
        for i in range(7)
    ]
    assignment = [0] * 7
    period = (dt.date(2012, 6, 11), dt.date(2012, 6, 17))
    table = record_table(records)
    daily = ingest.aggregate_temporal(table, assignment, Granularity.DAILY, 1, period)
    assert daily.values.shape == (7, 1)
    assert (daily.values == 1.0).all()
    weekly = ingest.aggregate_temporal(table, assignment, Granularity.WEEKLY, 1, period)
    assert weekly.values.shape == (1, 1)
    assert weekly.values[0, 0] == 7.0


def test_aggregate_split_across_iso_weeks():
    # Thursday start: 4 days in that ISO week, 3 in the next
    records = [
        make_record(date=dt.date(2012, 6, 14) + dt.timedelta(days=i), rid=str(i))
        for i in range(7)
    ]
    period = (dt.date(2012, 6, 14), dt.date(2012, 6, 20))
    table = record_table(records)
    weekly = ingest.aggregate_temporal(table, [0] * 7, Granularity.WEEKLY, 1, period)
    assert weekly.values[:, 0].tolist() == [4.0, 3.0]


def test_aggregate_totals_conserved():
    rng = np.random.default_rng(2)
    records = [
        make_record(
            date=dt.date(2012, 1, 1) + dt.timedelta(days=int(d)), rid=str(i)
        )
        for i, d in enumerate(rng.integers(0, 365, 200))
    ]
    assignment = rng.integers(0, 4, 200).tolist()
    totals = []
    for g in Granularity:
        series = ingest.aggregate_temporal(record_table(records), assignment, g, 4, REGION.period)
        totals.append(series.values.sum())
        labels = series.index
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)
    assert totals == [200.0, 200.0, 200.0]


def test_aggregate_unassigned_raises():
    rec = make_record()
    with pytest.raises(UnassignedRecordError):
        ingest.aggregate_temporal(record_table([rec]), [-1], Granularity.DAILY, 1, REGION.period)


def test_aggregate_length_mismatch_states_both_lengths():
    records = [make_record(rid="a"), make_record(rid="b")]
    with pytest.raises(DataError, match="^2 records but 1 node assignments$"):
        ingest.aggregate_temporal(record_table(records), [0], Granularity.DAILY, 1, REGION.period)


def test_weekly_index_has_no_gaps():
    records = [
        make_record(date=dt.date(2012, 1, 2), rid="a"),
        make_record(date=dt.date(2012, 3, 2), rid="b"),
    ]
    period = (dt.date(2012, 1, 2), dt.date(2012, 3, 2))
    series = ingest.aggregate_temporal(record_table(records), [0, 0], Granularity.WEEKLY, 1, period)
    assert len(series.index) == 9
    assert series.totals().sum() == 2.0


def test_snr_constant_series_is_infinite():
    series = ingest.AggregatedSeries(
        Granularity.DAILY, ["d1", "d2", "d3"], np.full((3, 1), 4.0)
    )
    with pytest.warns(UserWarning):
        assert ingest.snr(series) == math.inf


def test_snr_hand_case():
    # totals [1, 3]: mean 2, sample (n-1) sd sqrt(2) -> ratio sqrt(2)
    series = ingest.AggregatedSeries(
        Granularity.WEEKLY, ["w1", "w2"], np.array([[1.0], [3.0]])
    )
    assert ingest.snr(series) == pytest.approx(math.sqrt(2.0))
    # and with the triple [1, 2, 3]: mean 2, sample sd 1 -> ratio 2
    series3 = ingest.AggregatedSeries(
        Granularity.WEEKLY, ["w1", "w2", "w3"], np.array([[1.0], [2.0], [3.0]])
    )
    assert ingest.snr(series3) == pytest.approx(2.0)


def test_iso_weeks_between_spans_year_boundary():
    weeks = ingest.iso_weeks_between(dt.date(2012, 12, 24), dt.date(2013, 1, 8))
    assert weeks == ["2012-W52", "2013-W01", "2013-W02"]


def branch_period_range(start, end, granularity):
    """The three-branch calendar walk `_period_range` replaced, kept as its
    oracle: days step by one, weeks by seven from the Monday of `start`'s
    week, months by counting (year, month)."""
    labels = []
    if granularity is Granularity.DAILY:
        day = start
        while day <= end:
            labels.append(day.isoformat())
            day += dt.timedelta(days=1)
    elif granularity is Granularity.WEEKLY:
        day = start - dt.timedelta(days=start.isoweekday() - 1)
        while day <= end:
            labels.append(ingest.week_label(day))
            day += dt.timedelta(days=7)
    else:
        year, month = start.year, start.month
        while (year, month) <= (end.year, end.month):
            labels.append(f"{year}-{month:02d}")
            month += 1
            if month == 13:
                year, month = year + 1, 1
    return labels


@pytest.mark.parametrize("granularity", list(Granularity))
def test_period_range_matches_branch_walk(granularity):
    day = dt.date
    edges = [
        (day(2015, 12, 28), day(2016, 1, 10)),  # ISO week 2015-W53
        (day(2015, 12, 31), day(2016, 1, 3)),
        (day(2012, 1, 31), day(2012, 2, 1)),
        (day(2012, 2, 29), day(2012, 3, 1)),
        (day(2012, 12, 31), day(2013, 1, 1)),
        (day(2012, 12, 24), day(2013, 1, 8)),
    ]
    edges += [(start, start) for pair in edges for start in pair]
    rng = np.random.default_rng(17)
    randoms = [
        (day(2009, 1, 1) + dt.timedelta(days=int(s)), day(2009, 1, 1) + dt.timedelta(days=int(s + n)))
        for s, n in zip(rng.integers(0, 3650, 1000), rng.integers(0, 800, 1000))
    ]
    assert any(start.isocalendar()[1] == 53 for start, _ in randoms)
    for start, end in edges + randoms:
        assert ingest._period_range(start, end, granularity) == branch_period_range(
            start, end, granularity
        ), (start, end)


def loop_aggregate(records, assignment, granularity, n_nodes, period):
    """The per-record loop `aggregate_temporal` replaced, kept as its oracle."""
    index = branch_period_range(*period, granularity)
    pos = {label: i for i, label in enumerate(index)}
    values = np.zeros((len(index), n_nodes))
    for rec, node in zip(records, assignment):
        label = ingest._period_label(rec.date, granularity)
        if label in pos:
            values[pos[label], int(node)] += 1.0
    return index, values


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("period", [(dt.date(2012, 3, 7), dt.date(2013, 2, 10))], ids=["period"])
def test_aggregate_matches_record_loop(granularity, period):
    rng = np.random.default_rng(5)
    # 2011-12-20 .. 2013-03-..: the period cuts records off at both ends
    records = [
        make_record(date=dt.date(2011, 12, 20) + dt.timedelta(days=int(d)), rid=str(i))
        for i, d in enumerate(rng.integers(0, 450, 2000))
    ]
    assignment = np.asarray(rng.integers(0, 5, 2000))
    series = ingest.aggregate_temporal(record_table(records), assignment, granularity, 6, period)
    index, values = loop_aggregate(records, assignment, granularity, 6, period)
    assert series.index == index
    assert series.values.shape == (len(index), 6)
    assert series.values.tobytes() == values.tobytes()


def dictreader_parse(path, schema=None):
    """The `csv.DictReader` parser `parse_accident_csv` replaced, kept as
    its oracle (without the majority-rejects check)."""
    import csv

    schema = {**ingest.DEFAULT_SCHEMA, **(schema or {})}
    records, rejects = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(csv.DictReader(fh), start=2):

            def cell(logical):
                return (raw.get(schema[logical]) or "").strip()

            try:
                try:
                    lon, lat = float(cell("lon")), float(cell("lat"))
                except ValueError:
                    raise ValueError("unparseable coordinates")
                if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                    raise ValueError("coordinates out of range")
                if math.isnan(lon) or math.isnan(lat):
                    raise ValueError("coordinates out of range")
                date = ingest._parse_date(cell("date"))
                try:
                    severity = int(cell("severity"))
                except ValueError:
                    raise ValueError("unparseable severity")
                if severity not in (1, 2, 3):
                    raise ValueError(f"severity {severity} outside 1..3")
                try:
                    casualties = int(cell("casualties"))
                except ValueError:
                    raise ValueError("unparseable casualty count")
                if casualties < 1:
                    raise ValueError("casualty count below 1")
                if casualties >= 2**63:
                    raise ValueError("casualty count above 2**63 - 1")
                try:
                    speed = float(cell("speed_limit"))
                except ValueError:
                    speed = 0.0
                records.append(AccidentRecord(
                    id=cell("accident_id"), date=date, lon=lon, lat=lat,
                    severity=severity, casualties=casualties,
                    road_type=RoadType.parse(cell("road_type")),
                    speed_limit=max(speed, 0.0),
                    junction_control=ingest.JunctionControl.parse(cell("junction_control")),
                    ped_human_control=ingest.HumanControl.parse(cell("ped_human_control")),
                    ped_physical_facility=ingest.PhysicalFacility.parse(
                        cell("ped_physical_facility")),
                    light=LightCondition.parse(cell("light")),
                    weather=WeatherCondition.parse(cell("weather")),
                    surface=SurfaceCondition.parse(cell("surface")),
                ))
            except ValueError as exc:
                rejects.append(ingest.Reject(line_no, str(exc)))
    return records, rejects


def test_parse_matches_dictreader_parser(tmp_path):
    good = [
        row(idx=f"G{i}", casualties=str(1 + i % 9), severity=str(1 + i % 3),
            date=f"{1 + i % 28:02d}/{1 + i % 12:02d}/2012")
        for i in range(30)
    ] + [
        row(idx="iso", date=" 2012-06-15 "),
        row(idx=" padded ", lon=" -0.1 ", road=" Roundabout ", light="Darkness - lights lit"),
        row(idx="labels", road="One way street", junction="Stop Sign", human="None within 50 metres",
            facility="Zebra crossing", light="Darkness: No street lighting",
            weather="Fog or mist", surface="Wet/Damp"),
        row(idx="unknowns", road="-1", junction="", human="bogus", facility="99", light="",
            weather="Hail", surface=""),
        row(idx="speeds", speed=""),
        row(idx="negative-speed", speed="-5"),
        row(idx="blank-id", junction=" 3 "),
        "short,01/02/2012,-0.1,51.5,2,1",  # missing cells read as blank
        row(idx="quoted", road='"Slip road"'),
    ]
    bad = [
        row(idx="r1", lon=""),
        row(idx="r2", lat="north"),
        row(idx="r3", lon="181"),
        row(idx="r4", lat="nan"),
        row(idx="r5", date="31/13/2012"),
        row(idx="r6", date=""),
        row(idx="r7", severity="x"),
        row(idx="r8", severity="4"),
        row(idx="r9", casualties="two"),
        row(idx="r10", casualties="0"),
        row(idx="r11", casualties=str(2**63)),
        "",  # a blank line: skipped, not counted
    ]
    rows = [r for pair in zip(good, bad) for r in pair] + good[len(bad):]
    path = tmp_path / "bom.csv"
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")

    parsed, rejects = ingest.parse_accident_csv(path)
    records, expected = dictreader_parse(path)
    assert rejects == expected and list(parsed) == records
    assert len(rejects) == 11
    assert {r.reason.split(" ")[0] for r in rejects} >= {"unparseable", "coordinates", "severity"}
    assert (records, rejects) == row_loop_parse(path)
    assert_same_table(parsed, record_table(records))
    # iteration builds the records once, with one `date` object per day
    days = [r.date for r in parsed]
    assert len(set(map(id, days))) == len(set(days)) < len(days)
    assert all(a is b for a, b in zip(parsed, parsed))


def row_loop_parse(path, schema=None):
    """The row-at-a-time parser that `parse_accident_csv` replaced, kept as
    its oracle: one `AccidentRecord` per row, memoising each distinct date
    and category text."""
    import csv
    import operator

    schema = {**ingest.DEFAULT_SCHEMA, **(schema or {})}
    records, rejects = [], []
    dates = ingest._Memo(ingest._parse_date)
    enums = tuple(ingest._Memo(cls.parse) for cls in ingest.CATEGORIES.values())
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MissingColumnError("<header row>")
        at = {name: i for i, name in enumerate(header)}
        for logical in ingest.LOGICAL_COLUMNS:
            if schema[logical] not in at:
                raise MissingColumnError(schema[logical])
        cells = operator.itemgetter(
            *(at[schema[logical]] for logical in ingest.LOGICAL_COLUMNS))
        width = len(header)
        for line_no, raw in enumerate(filter(None, reader), start=2):
            if len(raw) < width:
                raw += [""] * (width - len(raw))
            try:
                records.append(parse_row(list(map(str.strip, cells(raw))), dates, enums))
            except ValueError as exc:
                rejects.append(ingest.Reject(line_no, str(exc)))
    total = len(records) + len(rejects)
    if total and len(rejects) * 2 > total:
        raise TooManyRejectsError(len(rejects), total)
    return records, rejects


def parse_row(cells, dates, enums):
    """One record from a row's stripped cells in LOGICAL_COLUMNS order;
    `dates` and `enums` memoise `_parse_date` and each category's parse."""
    (accident_id, date, lon, lat, severity, casualties, road_type, speed,
     junction_control, human_control, physical_facility, light, weather, surface) = cells
    road_types, junction_controls, human_controls, facilities, lights, weathers, surfaces = enums
    try:
        lon, lat = float(lon), float(lat)
    except ValueError:
        raise ValueError("unparseable coordinates")
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):  # NaN fails it too
        raise ValueError("coordinates out of range")
    date = dates[date]
    try:
        severity = int(severity)
    except ValueError:
        raise ValueError("unparseable severity")
    if severity not in (1, 2, 3):
        raise ValueError(f"severity {severity} outside 1..3")
    try:
        casualties = int(casualties)
    except ValueError:
        raise ValueError("unparseable casualty count")
    if casualties < 1:
        raise ValueError("casualty count below 1")
    if casualties >= 2**63:
        raise ValueError("casualty count above 2**63 - 1")
    try:
        speed = float(speed)
    except ValueError:
        speed = 0.0
    speed = max(speed, 0.0) if math.isfinite(speed) else 0.0
    return AccidentRecord(
        id=accident_id, date=date, lon=lon, lat=lat, severity=severity, casualties=casualties,
        road_type=road_types[road_type], speed_limit=speed,
        junction_control=junction_controls[junction_control],
        ped_human_control=human_controls[human_control],
        ped_physical_facility=facilities[physical_facility],
        light=lights[light], weather=weathers[weather], surface=surfaces[surface],
    )


@pytest.mark.parametrize(
    "defects, reason",
    [
        (dict(lon="x", date="bad"), "unparseable coordinates"),
        (dict(lat="91", date="32/01/2012"), "coordinates out of range"),
        (dict(lon="nan", severity="x"), "coordinates out of range"),
        (dict(date="bad", severity="9"), "unparseable date 'bad'"),
        (dict(date="bad", severity="x"), "unparseable date 'bad'"),
        (dict(date=" 2012-02-30 ", casualties="0"), "unparseable date '2012-02-30'"),
        (dict(severity="x", casualties="0"), "unparseable severity"),
        (dict(severity=" 40000000000000000000 ", casualties="two"),
         "severity 40000000000000000000 outside 1..3"),
        (dict(severity="-4", casualties="0"), "severity -4 outside 1..3"),
        (dict(casualties="two", lon="1e999"), "coordinates out of range"),
        (dict(casualties="-99999999999999999999"), "casualty count below 1"),
        (dict(casualties=str(2**64)), "casualty count above 2**63 - 1"),
    ],
    ids=["coords-date", "range-date", "nan-severity", "date-severity", "date-unparseable-severity",
         "date-casualties",
         "severity-casualties", "huge-severity", "severity-range-casualties",
         "casualties-coords", "huge-negative-casualties", "huge-casualties"],
)
def test_reject_reason_is_the_first_defect(tmp_path, defects, reason):
    good = [row(idx=f"G{i}") for i in range(4)]
    path = make_csv(tmp_path, [*good[:2], row(idx="bad", **defects), *good[2:]])
    _, rejects = ingest.parse_accident_csv(path)
    assert rejects == [ingest.Reject(4, reason)]
    assert row_loop_parse(path)[1] == rejects


def chunk_file(tmp_path):
    """24 data rows whose rejects and short rows sit at the first and last
    rows of chunks of 1, 3 and 7 rows, with blank lines between chunks."""
    rejects = {0: dict(lon=""), 2: dict(date="x"), 6: dict(severity="7"), 9: dict(lat="-91"),
               20: dict(casualties="0"), 21: dict(severity="one"), 23: dict(lon="east")}
    short = {3, 5, 7, 13, 14, 18}
    lines = [""]
    for k in range(24):
        if k in short:
            lines.append(f"S{k},0{1 + k % 9}/02/2012,-0.1,51.5,2,1")
        else:
            cells = {"idx": f"R{k}", "lon": f"-0.1{k}", "road": str(k % 8), **rejects.get(k, {})}
            lines.append(row(**cells))
        if k in (2, 6, 13, 20):
            lines.append("")
    lines.append("")
    return make_csv(tmp_path, lines)


def test_chunk_boundaries_do_not_change_the_parse(tmp_path, monkeypatch):
    path = chunk_file(tmp_path)
    records, rejects = dictreader_parse(path)
    assert len(records) == 17 and [r.line for r in rejects] == [2, 4, 8, 11, 22, 23, 25]
    for size in (1, 3, 7, 24, 25):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", size)
        parsed, got = ingest.parse_accident_csv(path)
        assert got == rejects, size
        assert_same_table(parsed, record_table(records))


def test_cells_padded_with_any_whitespace_parse_as_stripped(tmp_path):
    # `float` and `int` skip less than `str.strip` does, e.g. not U+001C..U+001F
    path = make_csv(tmp_path, [
        row(idx="\x1cA1\u3000", lon="\x1c-0.1\x1f", lat="\x1d51.5 ", severity="\x1e2",
            casualties="\u30001\x1c", speed="\x1f30\x1c", date="\x1c15/06/2012"),
        row(idx="A2", speed="\x1cx"),
    ])
    records, rejects = row_loop_parse(path)
    assert rejects == [] and records[0].lon == -0.1 and records[0].speed_limit == 30.0
    assert records[1].speed_limit == 0.0
    parsed, got = ingest.parse_accident_csv(path)
    assert got == [] and parsed.id.tolist() == ["A1", "A2"]
    assert_same_table(parsed, record_table(records))


def test_casualty_counts_at_the_int64_edge(tmp_path):
    path = make_csv(tmp_path, [row(idx="A1", casualties=str(2**63 - 1)), row(idx="A2"),
                                 row(idx="A3", casualties=f" {2**63} ")])
    parsed, rejects = ingest.parse_accident_csv(path)
    assert parsed.casualties.tolist() == [2**63 - 1, 2]
    assert rejects == [ingest.Reject(4, "casualty count above 2**63 - 1")]
    assert (list(parsed), rejects) == row_loop_parse(path)


def test_parse_refuses_an_id_it_would_shorten(tmp_path):
    path = make_csv(tmp_path, [row(idx="A1"), row(idx="A2\0 "), row(idx="A3\0", lon="")])
    with pytest.raises(DataError, match=r"line 3: accident id 'A2\\x00' ends in a NUL character"):
        ingest.parse_accident_csv(path)
    # a rejected row's id is never stored, and a NUL inside an id is kept
    path = make_csv(tmp_path, [row(idx="A1"), row(idx="A\0B"), row(idx="A3\0", lon="")])
    parsed, rejects = ingest.parse_accident_csv(path)
    assert parsed.id.tolist() == ["A1", "A\0B"] and [r.line for r in rejects] == [4]


def test_parse_holds_less_than_the_rows_as_lists(tmp_path):
    """A 30,000-row parse peaks well below what the same rows held as
    Python lists need, so the parse streams the file."""
    import csv
    import tracemalloc

    rows = [row(idx=f"M{i:08d}", date=f"{1 + i % 28:02d}/{1 + i % 12:02d}/2013",
                lon=f"-0.{i % 9973:06d}", lat=f"51.{i % 9967:06d}", casualties=str(1 + i % 5))
            for i in range(30_000)]
    path = make_csv(tmp_path, rows)
    del rows

    def peak_mb(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def as_lists():
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    # the rows as lists peak at 14.3 MB and the parse at 6.6 MB (CPython 3.11)
    bound = 10.0
    assert peak_mb(as_lists) > bound
    assert peak_mb(lambda: ingest.parse_accident_csv(path)) < bound


def test_table_within_region_matches_the_row_oracle(tmp_path):
    just_west = repr(math.nextafter(-0.2, -1.0))  # the next float outside the bbox
    rows = [row(idx="inside"), row(idx="a-much-longer-id-outside", lon="-0.3"),
            row(idx="corner", lon="-0.2", lat="51.4"), row(idx="far-corner", lon="0.0", lat="51.6"),
            row(idx="just-west", lon=just_west), row(idx="first-day", date="01/01/2012"),
            row(idx="day-before", date="31/12/2011"), row(idx="late", date="01/01/2013"),
            row(idx="edge-day", date="31/12/2012", lat="51.6")]
    path = make_csv(tmp_path, rows)
    parsed, rejects = ingest.parse_accident_csv(path)
    assert rejects == [] and parsed.id.dtype == np.dtype("<U24")
    kept = parsed.within(REGION)
    assert kept.id.tolist() == ["inside", "corner", "far-corner", "first-day", "edge-day"]
    # `id` narrows to the longest kept id, as parsing the kept rows alone gives
    assert kept.id.dtype == np.dtype("<U10")
    assert_same_table(kept, record_table([r for r in parsed if in_region(r, REGION)]))
    assert_same_table(ingest.filter_region(parsed, REGION), kept)
    everywhere = RegionSpec("all", (-180.0, -90.0, 180.0, 90.0), (dt.date(1, 1, 1), dt.date.max))
    assert parsed.within(everywhere) is parsed
    none = parsed.within(RegionSpec("none", (10.0, 10.0, 11.0, 11.0), REGION.period))
    assert_same_table(none, record_table([]))


def test_non_finite_speed_limit_reads_as_unposted(tmp_path):
    speeds = ["nan", "inf", "-inf", "NaN"]
    path = make_csv(tmp_path, [row(idx=str(i), speed=s) for i, s in enumerate(speeds)])
    table, rejects = ingest.parse_accident_csv(path)
    assert rejects == [] and table.speed_limit.tolist() == [0.0] * len(speeds)
    csv_path, npz_path = write_pair(tmp_path, table)
    assert ingest.read_records(npz_path, csv_path).speed_limit.tolist() == [0.0] * len(speeds)


def all_members_records():
    """Records covering every member of every enum field, ISO week 53
    (2015-12-31, 2016-01-03), year boundaries, and floats whose repr needs
    all 17 digits, each within the bounds `_parse_row` enforces."""
    dates = [dt.date(2015, 12, 31), dt.date(2016, 1, 3), dt.date(2016, 1, 4),
             dt.date(2012, 12, 31), dt.date(2013, 1, 1), dt.date(2020, 2, 29)]
    floats = [0.1 + 0.2, 1.0 / 3.0, -0.12780000000000002, 5e-324, 179.99999999999997, 0.0]
    enum_fields = [
        ("road_type", RoadType), ("junction_control", ingest.JunctionControl),
        ("ped_human_control", ingest.HumanControl),
        ("ped_physical_facility", ingest.PhysicalFacility), ("light", LightCondition),
        ("weather", WeatherCondition), ("surface", SurfaceCondition),
    ]
    width = max(len(cls) for _, cls in enum_fields)
    return [
        AccidentRecord(
            id=f'id "{k}", with comma',
            date=dates[k % len(dates)],
            lon=floats[k % len(floats)],
            lat=-floats[(k + 1) % len(floats)] / 2.0,
            severity=1 + k % 3,
            casualties=1 + k,
            speed_limit=abs(floats[(k + 2) % len(floats)]) * 100,
            **{name: list(cls)[k % len(cls)] for name, cls in enum_fields},
        )
        for k in range(width)
    ]


def write_pair(tmp_path, table):
    csv_path, npz_path = tmp_path / "records.csv", tmp_path / "records.npz"
    ingest.write_records(table, csv_path, npz_path)
    return csv_path, npz_path


def test_records_round_trip(tmp_path):
    records = all_members_records()
    assert any(ingest.week_label(r.date) == "2015-W53" for r in records)
    assert any(math.copysign(1.0, r.lat) < 0 and r.lat == 0.0 for r in records)  # -0.0
    csv_path, npz_path = write_pair(tmp_path, record_table(records))
    back = ingest.read_records(npz_path, csv_path)
    expected = {
        "id": [r.id for r in records],
        "date": [r.date.toordinal() for r in records],
        **{name: [getattr(r, name) for r in records]
           for name in ("lon", "lat", "severity", "casualties", "speed_limit")},
        **{name: [list(cls).index(getattr(r, name)) for r in records]
           for name, cls in ingest.CATEGORIES.items()},
    }
    assert sorted(back.columns()) == sorted(expected)
    in_memory = record_table(records).columns()
    for name, column in back.columns().items():
        assert column.dtype == in_memory[name].dtype, name
        assert column.tobytes() == np.array(expected[name], dtype=column.dtype).tobytes(), name
    assert back.id[0] == 'id "0", with comma'

    # the readable copy: one row per record, in the logical column order
    import csv

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ingest.LOGICAL_COLUMNS
    for r, cells in zip(records, rows[1:]):
        assert cells[:4] == [r.id, r.date.isoformat(), repr(r.lon), repr(r.lat)]
        assert cells[6] == r.road_type.value and cells[-1] == r.surface.value


@pytest.mark.parametrize("chunk_rows", [2, 4096])
def test_records_csv_matches_the_record_writer(tmp_path, monkeypatch, chunk_rows):
    """`write_records` formats columns; the per-record writer it replaced is
    the oracle for the bytes of `records.csv`."""
    from roadrisk.artifacts import write_table

    monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
    records = all_members_records()
    csv_path, _ = write_pair(tmp_path, record_table(records))
    expected = tmp_path / "expected.csv"
    write_table(expected, ingest.LOGICAL_COLUMNS, (
        [r.id, r.date.isoformat(), repr(r.lon), repr(r.lat), r.severity, r.casualties,
         r.road_type.value, repr(r.speed_limit), r.junction_control.value,
         r.ped_human_control.value, r.ped_physical_facility.value, r.light.value,
         r.weather.value, r.surface.value]
        for r in records
    ))
    assert csv_path.read_bytes() == expected.read_bytes()


def test_record_table_refuses_an_id_it_would_shorten():
    # the oracle builder refuses, as the parser does, an id a str column would shorten
    with pytest.raises(DataError, match="ends in a NUL character"):
        record_table([make_record(rid="A1"), make_record(rid="A2\0")])


def test_records_npz_is_byte_identical_across_reruns(tmp_path, monkeypatch):
    import time

    records = all_members_records()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write_pair(tmp_path / "a", record_table(records))[1].read_bytes()
    monkeypatch.setattr(time, "time", lambda: 2e9)  # a rerun years later
    assert write_pair(tmp_path / "b", record_table(records))[1].read_bytes() == first


def four_records():
    return record_table([make_record(rid=str(k)) for k in range(4)])


def rewrite(edit):
    """Damage that rewrites the archive's bytes."""
    def damage(path):
        path.write_bytes(edit(path.read_bytes()))
    return damage


def recolumn(name, edit):
    """Damage that stores a well-formed archive with column `name` edited;
    `edit` returning None drops the column."""
    from roadrisk.artifacts import write_columns

    def damage(path):
        with np.load(path) as archive:
            columns = {key: archive[key] for key in archive.files}
        columns[name] = edit(columns[name])
        write_columns(path, {key: c for key, c in columns.items() if c is not None})
    return damage


def at_row(row, value):
    return lambda c: np.where(np.arange(c.size) == row, value, c).astype(c.dtype)


@pytest.mark.parametrize(
    "damage, problem",
    [
        (recolumn("road_type", at_row(2, len(RoadType))),
         f"column 'road_type' holds {len(RoadType)} at row 2"),
        (recolumn("surface", at_row(1, -1)), "column 'surface' holds -1 at row 1"),
        (rewrite(lambda blob: blob[: len(blob) // 2]), "not an .npz archive"),
        (recolumn("date", at_row(3, 0)), "column 'date' holds 0 at row 3"),
        (recolumn("severity", lambda c: c.astype(np.float64)), "column 'severity' holds float64"),
        (recolumn("weather", lambda c: None), "no 'weather' column"),
        (rewrite(lambda blob: b"not a zip archive"), "not an .npz archive"),
        (recolumn("lat", lambda c: c[:-1]), "column 'lat' holds float64 of shape (3,)"),
        (recolumn("road_type", lambda c: c.astype(np.int64)), "column 'road_type' holds int64"),
        (recolumn("lon", at_row(3, np.inf)), "column 'lon' holds inf at row 3"),
        (recolumn("lat", at_row(0, np.nan)), "column 'lat' holds nan at row 0"),
        (recolumn("csv_sha256", lambda c: np.array([str(c)])), "csv_sha256 is not one string"),
        (recolumn("speed_limit", at_row(1, np.nan)), "column 'speed_limit' holds nan at row 1"),
        # finite, but outside the bounds `_parse_row` enforces
        (recolumn("lon", at_row(2, 500.0)), "column 'lon' holds 500.0 at row 2"),
        (recolumn("lat", at_row(1, -90.5)), "column 'lat' holds -90.5 at row 1"),
        (recolumn("speed_limit", at_row(3, -30.0)), "column 'speed_limit' holds -30.0 at row 3"),
    ],
    ids=["enum", "blank-enum", "truncated", "date", "integer", "column", "not-zip", "length",
         "code-dtype", "infinite-lon", "nan-lat", "stamp", "nan-speed", "lon-out-of-range",
         "lat-out-of-range", "negative-speed"],
)
def test_read_records_fails_closed(tmp_path, damage, problem):
    csv_path, npz_path = write_pair(tmp_path, four_records())
    damage(npz_path)
    with pytest.raises(CorruptArtifactError) as info:
        ingest.read_records(npz_path, csv_path)
    message = str(info.value)
    assert message.startswith(f"{npz_path}: ") and problem in message, message
    assert message.endswith("run `ingest` again")
    assert info.value.path == npz_path and info.value.line is None


def test_read_records_detects_an_edited_csv(tmp_path):
    csv_path, npz_path = write_pair(tmp_path, four_records())
    ingest.read_records(npz_path, csv_path)
    csv_path.write_text(csv_path.read_text().replace(",single_carriageway,", ",roundabout,", 1))
    with pytest.raises(CorruptArtifactError) as info:
        ingest.read_records(npz_path, csv_path)
    message = str(info.value)
    assert message.startswith(f"{csv_path}: ") and "sha256" in message
    assert message.endswith("run `ingest` again")
