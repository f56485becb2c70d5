"""Accident CSV ingestion, region scoping, and temporal aggregation.

Input files follow the UK STATS19 accident table layout: one row per
police-reported accident with WGS84 coordinates, a DD/MM/YYYY date, severity,
casualty count, and categorical context codes. Physical column names vary by
regional export, so parsing goes through a logical-to-physical column mapping
supplied in the run config. Categorical fields accept both the numeric codes
from the official data dictionary and spelled-out labels; anything else maps
to the Unknown variant rather than dropping the row.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import math
import operator
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import artifact_rows, write_table
from .errors import (
    ConfigError,
    MissingColumnError,
    TooManyRejectsError,
    UnassignedRecordError,
)


def _norm_label(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", " ", text.strip().lower()).strip()


class _CodedEnum(enum.Enum):
    """Enum whose members parse from numeric codes or text labels."""

    @classmethod
    def parse(cls, raw: str | int | None) -> "_CodedEnum":
        if raw is None:
            return cls.UNKNOWN
        text = str(raw).strip()
        if not text:
            return cls.UNKNOWN
        try:
            return cls._codes().get(int(text), cls.UNKNOWN)
        except ValueError:
            return cls._labels().get(_norm_label(text), cls.UNKNOWN)

    @classmethod
    def _codes(cls) -> dict:
        return cls.__dict__["_code_map"]

    @classmethod
    def _labels(cls) -> dict:
        cache = cls.__dict__.get("_label_cache")
        if cache is None:
            cache = {}
            for member, labels in cls.__dict__["_label_map"].items():
                for label in labels:
                    cache[_norm_label(label)] = member
            setattr(cls, "_label_cache", cache)
        return cache


class RoadType(_CodedEnum):
    SINGLE_CARRIAGEWAY = "single_carriageway"
    ONE_WAY = "one_way"
    DUAL_CARRIAGEWAY = "dual_carriageway"
    SLIP_ROAD = "slip_road"
    ROUNDABOUT = "roundabout"
    UNKNOWN = "unknown"


RoadType._code_map = {
    1: RoadType.ROUNDABOUT,
    2: RoadType.ONE_WAY,
    3: RoadType.DUAL_CARRIAGEWAY,
    6: RoadType.SINGLE_CARRIAGEWAY,
    7: RoadType.SLIP_ROAD,
}
RoadType._label_map = {
    RoadType.SINGLE_CARRIAGEWAY: ["Single carriageway"],
    RoadType.ONE_WAY: ["One way street", "One way"],
    RoadType.DUAL_CARRIAGEWAY: ["Dual carriageway"],
    RoadType.SLIP_ROAD: ["Slip road"],
    RoadType.ROUNDABOUT: ["Roundabout"],
}


class HumanControl(_CodedEnum):
    SCHOOL_PATROL = "school_patrol"
    AUTHORISED_PERSON = "authorised_person"
    NONE_WITHIN_50M = "none_within_50m"
    UNKNOWN = "unknown"


HumanControl._code_map = {
    0: HumanControl.NONE_WITHIN_50M,
    1: HumanControl.SCHOOL_PATROL,
    2: HumanControl.AUTHORISED_PERSON,
}
HumanControl._label_map = {
    HumanControl.SCHOOL_PATROL: ["Control by school crossing patrol"],
    HumanControl.AUTHORISED_PERSON: ["Control by other authorised person"],
    HumanControl.NONE_WITHIN_50M: ["None within 50 metres", "None within 50 meters"],
}


class PhysicalFacility(_CodedEnum):
    FOOTBRIDGE_OR_SUBWAY = "footbridge_or_subway"
    SIGNAL_JUNCTION_PHASE = "signal_junction_phase"
    NON_JUNCTION_CROSSING = "non_junction_crossing"
    ZEBRA = "zebra"
    CENTRAL_REFUGE = "central_refuge"
    NONE_WITHIN_50M = "none_within_50m"
    UNKNOWN = "unknown"


PhysicalFacility._code_map = {
    0: PhysicalFacility.NONE_WITHIN_50M,
    1: PhysicalFacility.ZEBRA,
    4: PhysicalFacility.NON_JUNCTION_CROSSING,
    5: PhysicalFacility.SIGNAL_JUNCTION_PHASE,
    7: PhysicalFacility.FOOTBRIDGE_OR_SUBWAY,
    8: PhysicalFacility.CENTRAL_REFUGE,
}
PhysicalFacility._label_map = {
    PhysicalFacility.FOOTBRIDGE_OR_SUBWAY: ["Footbridge or subway"],
    PhysicalFacility.SIGNAL_JUNCTION_PHASE: [
        "Pedestrian phase at traffic signal junction"
    ],
    PhysicalFacility.NON_JUNCTION_CROSSING: [
        "Non-junction pedestrian crossing",
        "Pelican, puffin, toucan or similar non-junction pedestrian light crossing",
    ],
    PhysicalFacility.ZEBRA: ["Zebra crossing", "Zebra"],
    PhysicalFacility.CENTRAL_REFUGE: ["Central refuge"],
    PhysicalFacility.NONE_WITHIN_50M: [
        "No physical crossing within 50 meters",
        "No physical crossing facilities within 50 metres",
    ],
}


class LightCondition(_CodedEnum):
    DAYLIGHT = "daylight"
    DARK_LIT = "dark_lit"
    DARK_LIGHTING_UNKNOWN = "dark_lighting_unknown"
    DARK_UNLIT = "dark_unlit"
    DARK_NO_LIGHTING = "dark_no_lighting"
    UNKNOWN = "unknown"


LightCondition._code_map = {
    1: LightCondition.DAYLIGHT,
    4: LightCondition.DARK_LIT,
    5: LightCondition.DARK_UNLIT,
    6: LightCondition.DARK_NO_LIGHTING,
    7: LightCondition.DARK_LIGHTING_UNKNOWN,
}
LightCondition._label_map = {
    LightCondition.DAYLIGHT: ["Daylight: Street light present", "Daylight"],
    LightCondition.DARK_LIT: [
        "Darkness: Street lights present and lit",
        "Darkness - lights lit",
    ],
    LightCondition.DARK_LIGHTING_UNKNOWN: [
        "Darkness: Street lighting unknown",
        "Darkness - lighting unknown",
    ],
    LightCondition.DARK_UNLIT: [
        "Darkness: Street lights present but unlit",
        "Darkness - lights unlit",
    ],
    LightCondition.DARK_NO_LIGHTING: [
        "Darkness: No street lighting",
        "Darkness - no lighting",
    ],
}


class JunctionControl(_CodedEnum):
    AUTHORISED_PERSON = "authorised_person"
    AUTO_SIGNAL = "auto_signal"
    STOP_SIGN = "stop_sign"
    GIVE_WAY_OR_UNCONTROLLED = "give_way_or_uncontrolled"
    UNKNOWN = "unknown"


JunctionControl._code_map = {
    1: JunctionControl.AUTHORISED_PERSON,
    2: JunctionControl.AUTO_SIGNAL,
    3: JunctionControl.STOP_SIGN,
    4: JunctionControl.GIVE_WAY_OR_UNCONTROLLED,
}
JunctionControl._label_map = {
    JunctionControl.AUTHORISED_PERSON: ["Authorised person"],
    JunctionControl.AUTO_SIGNAL: ["Automatic traffic signal", "Auto traffic signal"],
    JunctionControl.STOP_SIGN: ["Stop Sign"],
    JunctionControl.GIVE_WAY_OR_UNCONTROLLED: ["Give way or uncontrolled"],
}


class WeatherCondition(_CodedEnum):
    FINE = "fine"
    FINE_HIGH_WINDS = "fine_high_winds"
    RAIN = "rain"
    FOG_OR_MIST = "fog_or_mist"
    RAIN_HIGH_WINDS = "rain_high_winds"
    SNOW = "snow"
    SNOW_HIGH_WINDS = "snow_high_winds"
    UNKNOWN = "unknown"


WeatherCondition._code_map = {
    1: WeatherCondition.FINE,
    2: WeatherCondition.RAIN,
    3: WeatherCondition.SNOW,
    4: WeatherCondition.FINE_HIGH_WINDS,
    5: WeatherCondition.RAIN_HIGH_WINDS,
    6: WeatherCondition.SNOW_HIGH_WINDS,
    7: WeatherCondition.FOG_OR_MIST,
}
WeatherCondition._label_map = {
    WeatherCondition.FINE: ["Fine without high winds", "Fine no high winds"],
    WeatherCondition.FINE_HIGH_WINDS: ["Fine with high winds"],
    WeatherCondition.RAIN: ["Raining without high winds", "Raining no high winds"],
    WeatherCondition.FOG_OR_MIST: ["Fog or mist"],
    WeatherCondition.RAIN_HIGH_WINDS: ["Raining with high winds"],
    WeatherCondition.SNOW: ["Snowing without high winds", "Snowing no high winds"],
    WeatherCondition.SNOW_HIGH_WINDS: ["Snowing with high winds"],
}


class SurfaceCondition(_CodedEnum):
    DRY = "dry"
    WET_OR_DAMP = "wet_or_damp"
    SNOW = "snow"
    FLOOD = "flood"
    FROST_OR_ICE = "frost_or_ice"
    UNKNOWN = "unknown"


SurfaceCondition._code_map = {
    1: SurfaceCondition.DRY,
    2: SurfaceCondition.WET_OR_DAMP,
    3: SurfaceCondition.SNOW,
    4: SurfaceCondition.FROST_OR_ICE,
    5: SurfaceCondition.FLOOD,
}
SurfaceCondition._label_map = {
    SurfaceCondition.DRY: ["Dry"],
    SurfaceCondition.WET_OR_DAMP: ["Wet or damp", "Wet/Damp"],
    SurfaceCondition.SNOW: ["Snow"],
    SurfaceCondition.FLOOD: ["Flood (Over 3cm of water)", "Flood over 3cm. deep"],
    SurfaceCondition.FROST_OR_ICE: ["Frost/Ice", "Frost or ice"],
}


LOGICAL_COLUMNS = [
    "accident_id",
    "date",
    "lon",
    "lat",
    "severity",
    "casualties",
    "road_type",
    "speed_limit",
    "junction_control",
    "ped_human_control",
    "ped_physical_facility",
    "light",
    "weather",
    "surface",
]

# physical names as used by the national open-data accident table
DEFAULT_SCHEMA = {
    "accident_id": "Accident_Index",
    "date": "Date",
    "lon": "Longitude",
    "lat": "Latitude",
    "severity": "Accident_Severity",
    "casualties": "Number_of_Casualties",
    "road_type": "Road_Type",
    "speed_limit": "Speed_limit",
    "junction_control": "Junction_Control",
    "ped_human_control": "Pedestrian_Crossing-Human_Control",
    "ped_physical_facility": "Pedestrian_Crossing-Physical_Facilities",
    "light": "Light_Conditions",
    "weather": "Weather_Conditions",
    "surface": "Road_Surface_Conditions",
}


@dataclass(frozen=True)
class AccidentRecord:
    id: str
    date: dt.date
    lon: float
    lat: float
    severity: int
    casualties: int
    road_type: RoadType
    speed_limit: float
    junction_control: JunctionControl
    ped_human_control: HumanControl
    ped_physical_facility: PhysicalFacility
    light: LightCondition
    weather: WeatherCondition
    surface: SurfaceCondition


@dataclass(frozen=True)
class RegionSpec:
    name: str
    bbox: tuple[float, float, float, float]  # lon_min, lat_min, lon_max, lat_max
    period: tuple[dt.date, dt.date]

    def __post_init__(self):
        lon_min, lat_min, lon_max, lat_max = self.bbox
        if not (lon_min < lon_max and lat_min < lat_max):
            raise ConfigError(f"degenerate bbox for region {self.name!r}")
        if self.period[0] > self.period[1]:
            raise ConfigError(f"region {self.name!r} period ends before it starts")

    def contains(self, record: AccidentRecord) -> bool:
        lon_min, lat_min, lon_max, lat_max = self.bbox
        return (
            lon_min <= record.lon <= lon_max
            and lat_min <= record.lat <= lat_max
            and self.period[0] <= record.date <= self.period[1]
        )

    @property
    def center(self) -> tuple[float, float]:
        lon_min, lat_min, lon_max, lat_max = self.bbox
        return ((lon_min + lon_max) / 2.0, (lat_min + lat_max) / 2.0)


@dataclass(frozen=True)
class Reject:
    line: int
    reason: str


def _parse_date(text: str) -> dt.date:
    text = text.strip()
    for fmt in ("%d/%m/%Y", "%Y-%m-%d"):
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {text!r}")


class _Memo(dict):
    """`memo[text]` is `parse(text)`, computed once per distinct text.

    A hit is a plain dict lookup. A `parse` that raises stores nothing, so
    the error surfaces at every row holding that text.
    """

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


# the enum columns of a row, in LOGICAL_COLUMNS order
_ROW_ENUMS = (
    RoadType,
    JunctionControl,
    HumanControl,
    PhysicalFacility,
    LightCondition,
    WeatherCondition,
    SurfaceCondition,
)


def parse_accident_csv(
    path: str | Path,
    schema: dict[str, str] | None = None,
) -> tuple[list[AccidentRecord], list[Reject]]:
    """Parse one accident CSV into records plus a rejects report.

    Rows with unusable coordinates, dates, severity or casualty counts are
    collected as rejects (line number + reason), never silently dropped.
    Raises TooManyRejectsError when more than half of the data rows reject.
    Line numbers count the header as 1 and skip blank lines, as
    `csv.DictReader` does; a short row reads its missing cells as blank.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    records: list[AccidentRecord] = []
    rejects: list[Reject] = []
    # each distinct text is parsed once per call
    dates = _Memo(_parse_date)
    enums = tuple(_Memo(cls.parse) for cls in _ROW_ENUMS)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MissingColumnError("<header row>")
        at = {name: i for i, name in enumerate(header)}  # last duplicate wins
        for logical in LOGICAL_COLUMNS:
            if schema[logical] not in at:
                raise MissingColumnError(schema[logical])
        cells = operator.itemgetter(*(at[schema[logical]] for logical in LOGICAL_COLUMNS))
        width = len(header)
        for line_no, row in enumerate(filter(None, reader), start=2):
            if len(row) < width:
                row += [""] * (width - len(row))
            try:
                records.append(_parse_row(list(map(str.strip, cells(row))), dates, enums))
            except ValueError as exc:
                rejects.append(Reject(line_no, str(exc)))
    total = len(records) + len(rejects)
    if total and len(rejects) * 2 > total:
        raise TooManyRejectsError(len(rejects), total)
    return records, rejects


def _parse_row(cells: list[str], dates: _Memo, enums: tuple[_Memo, ...]) -> AccidentRecord:
    """One record from a row's stripped cells in LOGICAL_COLUMNS order;
    `dates` and `enums` memoise `_parse_date` and each `_ROW_ENUMS` parse."""
    (accident_id, date, lon, lat, severity, casualties, road_type, speed,
     junction_control, human_control, physical_facility, light, weather, surface) = cells
    road_types, junction_controls, human_controls, facilities, lights, weathers, surfaces = enums
    try:
        lon, lat = float(lon), float(lat)
    except ValueError:
        raise ValueError("unparseable coordinates")
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise ValueError("coordinates out of range")
    if math.isnan(lon) or math.isnan(lat):
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
    try:
        speed = float(speed)
    except ValueError:
        speed = 0.0  # missing speed limit treated as unposted, not a reject
    speed = max(speed, 0.0)
    return AccidentRecord(
        id=accident_id,
        date=date,
        lon=lon,
        lat=lat,
        severity=severity,
        casualties=casualties,
        road_type=road_types[road_type],
        speed_limit=speed,
        junction_control=junction_controls[junction_control],
        ped_human_control=human_controls[human_control],
        ped_physical_facility=facilities[physical_facility],
        light=lights[light],
        weather=weathers[weather],
        surface=surfaces[surface],
    )


def write_rejects(
    rejects: Sequence[Reject], path: str | Path, config_hash: str = ""
) -> None:
    write_table(path, ["line", "reason"], ([r.line, r.reason] for r in rejects), config_hash)


def write_records(
    records: Sequence[AccidentRecord], path: str | Path, config_hash: str = ""
) -> None:
    """Persist normalized records (logical column names, ISO dates).

    Enum cells read `_value_`, the attribute behind `Enum.value`, because
    the property costs a Python-level descriptor call per cell.
    """
    rows = (
        [
            r.id,
            r.date.isoformat(),
            repr(r.lon),
            repr(r.lat),
            r.severity,
            r.casualties,
            r.road_type._value_,
            repr(r.speed_limit),
            r.junction_control._value_,
            r.ped_human_control._value_,
            r.ped_physical_facility._value_,
            r.light._value_,
            r.weather._value_,
            r.surface._value_,
        ]
        for r in records
    )
    write_table(path, LOGICAL_COLUMNS, rows, config_hash)


def read_records(path: str | Path) -> list[AccidentRecord]:
    """Load records written by write_records.

    CorruptArtifactError (exit 3) names the line of a row that does not
    parse: a short row, a number or date that does not convert, or an enum
    value no member has.
    """
    # each distinct date and enum text is parsed once; a miss on an enum
    # calls the class itself, which raises for a value no member has
    dates = _Memo(dt.date.fromisoformat)
    (road_types, junction_controls, human_controls, facilities,
     lights, weathers, surfaces) = (_Memo(cls) for cls in _ROW_ENUMS)
    with artifact_rows(path, LOGICAL_COLUMNS, "ingest") as (at, rows):
        (i_id, i_date, i_lon, i_lat, i_severity, i_casualties, i_road, i_speed,
         i_junction, i_human, i_facility, i_light, i_weather, i_surface) = at
        return [
            AccidentRecord(
                id=row[i_id],
                date=dates[row[i_date]],
                lon=float(row[i_lon]),
                lat=float(row[i_lat]),
                severity=int(row[i_severity]),
                casualties=int(row[i_casualties]),
                road_type=road_types[row[i_road]],
                speed_limit=float(row[i_speed]),
                junction_control=junction_controls[row[i_junction]],
                ped_human_control=human_controls[row[i_human]],
                ped_physical_facility=facilities[row[i_facility]],
                light=lights[row[i_light]],
                weather=weathers[row[i_weather]],
                surface=surfaces[row[i_surface]],
            )
            for row in rows
        ]


def filter_region(
    records: Iterable[AccidentRecord], region: RegionSpec
) -> list[AccidentRecord]:
    """Records inside the bbox (inclusive bounds) and period (inclusive)."""
    return [r for r in records if region.contains(r)]


class Granularity(enum.Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"


def week_label(day: dt.date) -> str:
    iso = day.isocalendar()
    return f"{iso[0]}-W{iso[1]:02d}"


def _period_label(day: dt.date, granularity: Granularity) -> str:
    if granularity is Granularity.DAILY:
        return day.isoformat()
    if granularity is Granularity.WEEKLY:
        return week_label(day)
    return f"{day.year}-{day.month:02d}"


def _period_range(
    start: dt.date, end: dt.date, granularity: Granularity
) -> list[str]:
    """All period labels from the one containing `start` through `end`."""
    labels = []
    if granularity is Granularity.DAILY:
        day = start
        while day <= end:
            labels.append(day.isoformat())
            day += dt.timedelta(days=1)
    elif granularity is Granularity.WEEKLY:
        day = start - dt.timedelta(days=start.isoweekday() - 1)  # back to Monday
        while day <= end:
            labels.append(week_label(day))
            day += dt.timedelta(days=7)
    else:
        year, month = start.year, start.month
        while (year, month) <= (end.year, end.month):
            labels.append(f"{year}-{month:02d}")
            month += 1
            if month == 13:
                year, month = year + 1, 1
    return labels


def iso_weeks_between(start: dt.date, end: dt.date) -> list[str]:
    """Ordered ISO-week labels covering [start, end], partial weeks kept."""
    return _period_range(start, end, Granularity.WEEKLY)


@dataclass
class AggregatedSeries:
    granularity: Granularity
    index: list[str]       # ordered, gap-free period labels
    node_ids: list[int]
    values: np.ndarray     # (periods, nodes) counts

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    @property
    def total_count(self) -> float:
        return float(self.values.sum())


def aggregate_temporal(
    records: Sequence[AccidentRecord],
    assignment: Sequence[int],
    granularity: Granularity,
    n_nodes: int | None = None,
    period: tuple[dt.date, dt.date] | None = None,
) -> AggregatedSeries:
    """Count accidents per (node, period); gaps hold explicit zeros.

    `assignment` gives the node id of each record, aligned with `records`.
    The index spans `period` when given, otherwise the observed date range.
    """
    if len(records) != len(assignment):
        raise UnassignedRecordError("<length mismatch>")
    for rec, node in zip(records, assignment):
        if node is None or int(node) < 0:
            raise UnassignedRecordError(rec.id)
    if n_nodes is None:
        n_nodes = (max((int(a) for a in assignment), default=-1)) + 1
    dates = list(map(operator.attrgetter("date"), records))
    if period is not None:
        start, end = period
    elif records:
        start, end = min(dates), max(dates)
    else:
        return AggregatedSeries(granularity, [], list(range(n_nodes)), np.zeros((0, n_nodes)))
    index = _period_range(start, end, granularity)
    pos = {label: i for i, label in enumerate(index)}
    # one period row per distinct date; -1 outside the index
    row_of = {day: pos.get(_period_label(day, granularity), -1) for day in set(dates)}
    rows = np.fromiter(map(row_of.__getitem__, dates), dtype=np.intp, count=len(dates))
    nodes = np.fromiter(map(int, assignment), dtype=np.intp, count=len(dates))
    inside = rows >= 0
    values = np.zeros((len(index), n_nodes))
    np.add.at(values, (rows[inside], nodes[inside]), 1.0)
    return AggregatedSeries(granularity, index, list(range(n_nodes)), values)


def snr(series: AggregatedSeries) -> float:
    """Mean over standard deviation of the network-total per-period counts.

    Sample (n-1) standard deviation. A constant series has no noise to
    measure; returns +inf with a warning.
    """
    totals = series.totals()
    if totals.size < 2:
        raise ValueError("need at least 2 periods for a signal-to-noise ratio")
    sd = float(np.std(totals, ddof=1))
    if sd == 0.0:
        warnings.warn("zero variance series; signal-to-noise ratio is infinite")
        return math.inf
    return float(np.mean(totals)) / sd
