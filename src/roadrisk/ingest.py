"""Accident CSV ingestion, region scoping, and temporal aggregation.

Input files follow the UK STATS19 accident table layout: one row per
police-reported accident with WGS84 coordinates, a DD/MM/YYYY date, severity,
casualty count, and categorical context codes. Physical column names vary by
regional export, so parsing goes through a logical-to-physical column mapping
supplied in the run config. Categorical fields accept both the numeric codes
from the official data dictionary and spelled-out labels; anything else maps
to the Unknown variant rather than dropping the row.

Parsing yields one `AccidentRecord` per row. Past the parse, records travel
as a `RecordTable` of numpy columns: `write_records` stores both a readable
`records.csv` and the columns as `records.npz`, which later stages load.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .artifacts import file_sha256, read_columns, reading, write_columns, write_table
from .errors import (
    ConfigError,
    CorruptArtifactError,
    DataError,
    MissingColumnError,
    TooManyRejectsError,
    UnassignedRecordError,
)


def _norm_label(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", " ", text.strip().lower()).strip()


class _CodedEnum(enum.Enum):
    """Enum whose members parse from numeric codes or text labels.

    A member is declared on one line as its value, then its STATS19 code,
    then the labels it also parses from, e.g.
    `ROUNDABOUT = "roundabout", 1, "Roundabout"`. Only the value is the
    member's `.value`; UNKNOWN, declared by value alone, claims no code or
    label and is what anything unclaimed parses to.
    """

    def __new__(cls, value: str, code: int | None = None, *labels: str):
        member = object.__new__(cls)
        member._value_ = value
        member._code = code
        member._label_texts = labels
        return member

    @classmethod
    def parse(cls, raw: str | int) -> "_CodedEnum":
        text = str(raw).strip()
        if not text:
            return cls.UNKNOWN
        try:
            return cls._codes().get(int(text), cls.UNKNOWN)
        except ValueError:
            return cls._labels().get(_norm_label(text), cls.UNKNOWN)

    @classmethod
    @functools.cache
    def _codes(cls) -> dict:
        return {member._code: member for member in cls if member._code is not None}

    @classmethod
    @functools.cache
    def _labels(cls) -> dict:
        return {_norm_label(label): member for member in cls for label in member._label_texts}

    @classmethod
    @functools.cache
    def _positions(cls) -> dict:
        """Each member's position in the enum, keyed by `id(member)`: keyed
        by the member itself, each lookup calls the Python-level
        `Enum.__hash__`."""
        return {id(member): i for i, member in enumerate(cls)}


class RoadType(_CodedEnum):
    SINGLE_CARRIAGEWAY = "single_carriageway", 6, "Single carriageway"
    ONE_WAY = "one_way", 2, "One way street", "One way"
    DUAL_CARRIAGEWAY = "dual_carriageway", 3, "Dual carriageway"
    SLIP_ROAD = "slip_road", 7, "Slip road"
    ROUNDABOUT = "roundabout", 1, "Roundabout"
    UNKNOWN = "unknown"


class HumanControl(_CodedEnum):
    SCHOOL_PATROL = "school_patrol", 1, "Control by school crossing patrol"
    AUTHORISED_PERSON = "authorised_person", 2, "Control by other authorised person"
    NONE_WITHIN_50M = "none_within_50m", 0, "None within 50 metres", "None within 50 meters"
    UNKNOWN = "unknown"


class PhysicalFacility(_CodedEnum):
    FOOTBRIDGE_OR_SUBWAY = "footbridge_or_subway", 7, "Footbridge or subway"
    SIGNAL_JUNCTION_PHASE = (
        "signal_junction_phase", 5, "Pedestrian phase at traffic signal junction"
    )
    NON_JUNCTION_CROSSING = (
        "non_junction_crossing", 4,
        "Non-junction pedestrian crossing",
        "Pelican, puffin, toucan or similar non-junction pedestrian light crossing",
    )
    ZEBRA = "zebra", 1, "Zebra crossing", "Zebra"
    CENTRAL_REFUGE = "central_refuge", 8, "Central refuge"
    NONE_WITHIN_50M = (
        "none_within_50m", 0,
        "No physical crossing within 50 meters",
        "No physical crossing facilities within 50 metres",
    )
    UNKNOWN = "unknown"


class LightCondition(_CodedEnum):
    DAYLIGHT = "daylight", 1, "Daylight: Street light present", "Daylight"
    DARK_LIT = (
        "dark_lit", 4, "Darkness: Street lights present and lit", "Darkness - lights lit"
    )
    DARK_LIGHTING_UNKNOWN = (
        "dark_lighting_unknown", 7,
        "Darkness: Street lighting unknown", "Darkness - lighting unknown",
    )
    DARK_UNLIT = (
        "dark_unlit", 5, "Darkness: Street lights present but unlit", "Darkness - lights unlit"
    )
    DARK_NO_LIGHTING = (
        "dark_no_lighting", 6, "Darkness: No street lighting", "Darkness - no lighting"
    )
    UNKNOWN = "unknown"


class JunctionControl(_CodedEnum):
    AUTHORISED_PERSON = "authorised_person", 1, "Authorised person"
    AUTO_SIGNAL = "auto_signal", 2, "Automatic traffic signal", "Auto traffic signal"
    STOP_SIGN = "stop_sign", 3, "Stop Sign"
    GIVE_WAY_OR_UNCONTROLLED = "give_way_or_uncontrolled", 4, "Give way or uncontrolled"
    UNKNOWN = "unknown"


class WeatherCondition(_CodedEnum):
    FINE = "fine", 1, "Fine without high winds", "Fine no high winds"
    FINE_HIGH_WINDS = "fine_high_winds", 4, "Fine with high winds"
    RAIN = "rain", 2, "Raining without high winds", "Raining no high winds"
    FOG_OR_MIST = "fog_or_mist", 7, "Fog or mist"
    RAIN_HIGH_WINDS = "rain_high_winds", 5, "Raining with high winds"
    SNOW = "snow", 3, "Snowing without high winds", "Snowing no high winds"
    SNOW_HIGH_WINDS = "snow_high_winds", 6, "Snowing with high winds"
    UNKNOWN = "unknown"


class SurfaceCondition(_CodedEnum):
    DRY = "dry", 1, "Dry"
    WET_OR_DAMP = "wet_or_damp", 2, "Wet or damp", "Wet/Damp"
    SNOW = "snow", 3, "Snow"
    FLOOD = "flood", 5, "Flood (Over 3cm of water)", "Flood over 3cm. deep"
    FROST_OR_ICE = "frost_or_ice", 4, "Frost/Ice", "Frost or ice"
    UNKNOWN = "unknown"


# physical names as used by the national open-data accident table; the key
# order is the column order of LOGICAL_COLUMNS and of records.csv
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
LOGICAL_COLUMNS = list(DEFAULT_SCHEMA)


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


_FIELD_TYPES = get_type_hints(AccidentRecord)
# the category fields of a record and their enums, in LOGICAL_COLUMNS order
CATEGORIES = {
    name: hint for name, hint in _FIELD_TYPES.items()
    if isinstance(hint, type) and issubclass(hint, _CodedEnum)
}
_ROW_ENUMS = tuple(CATEGORIES.values())
# the dtype of each RecordTable column, from the field's type
_DTYPES = {
    name: np.int8 if name in CATEGORIES
    else {str: np.str_, dt.date: np.int64, int: np.int64, float: np.float64}[hint]
    for name, hint in _FIELD_TYPES.items()
}


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Records as numpy columns, one per `AccidentRecord` field, in record order.

    `id` holds str; `date` holds day ordinals (`date.toordinal()`);
    `severity` and `casualties` int64; `lon`, `lat` and `speed_limit`
    float64; each category column (`CATEGORIES`) holds int8 codes, a
    member's position in its enum.
    """

    id: np.ndarray
    date: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    severity: np.ndarray
    casualties: np.ndarray
    road_type: np.ndarray
    speed_limit: np.ndarray
    junction_control: np.ndarray
    ped_human_control: np.ndarray
    ped_physical_facility: np.ndarray
    light: np.ndarray
    weather: np.ndarray
    surface: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    def columns(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _DTYPES}

    @classmethod
    def from_records(cls, records: "RecordTable | Sequence[AccidentRecord]") -> "RecordTable":
        """The columns of `records`; a `RecordTable` is returned as it is.

        DataError if an id ends in a NUL character: a numpy str column
        would drop it.
        """
        if isinstance(records, cls):
            return records
        ids = [r.id for r in records]
        nul = next((i for i in ids if i.endswith("\0")), None)
        if nul is not None:
            raise DataError(f"accident id {nul!r} ends in a NUL character")
        columns = {"id": np.array(ids, dtype=np.str_)}
        for name, dtype in _DTYPES.items():
            if name == "id":
                continue
            values = map(operator.attrgetter(name), records)
            if name == "date":
                values = map(dt.date.toordinal, values)
            elif name in CATEGORIES:
                values = map(CATEGORIES[name]._positions().__getitem__, map(id, values))
            columns[name] = np.fromiter(values, dtype, len(records))
        return cls(**columns)


# what each stored column's values satisfy beyond `read_columns`' finite
# floats; `parse_accident_csv` makes no other
_IN_RANGE = {
    "date": lambda d: (d >= 1) & (d <= dt.date.max.toordinal()),
    "lon": lambda x: (x >= -180.0) & (x <= 180.0),
    "lat": lambda y: (y >= -90.0) & (y <= 90.0),
    "severity": lambda s: (s >= 1) & (s <= 3),
    "casualties": lambda c: c >= 1,
    "speed_limit": lambda v: v >= 0.0,
    **{
        name: lambda c, size=len(enum_cls): (c >= 0) & (c < size)
        for name, enum_cls in CATEGORIES.items()
    },
}
_STAMP = "csv_sha256"


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
    if casualties >= 2**63:  # RecordTable holds counts as int64
        raise ValueError("casualty count above 2**63 - 1")
    try:
        speed = float(speed)
    except ValueError:
        speed = 0.0  # missing speed limit treated as unposted, not a reject
    speed = max(speed, 0.0) if math.isfinite(speed) else 0.0  # so is nan or inf
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


def write_rejects(rejects: Sequence[Reject], path: str | Path, config_hash: str) -> None:
    write_table(path, ["line", "reason"], ([r.line, r.reason] for r in rejects), config_hash)


def write_records(
    records: Sequence[AccidentRecord],
    csv_path: str | Path,
    npz_path: str | Path,
    config_hash: str,
) -> None:
    """Persist normalized records twice.

    `csv_path` is the readable copy (logical column names, ISO dates). No
    stage reads it back: `npz_path` holds the same records as `RecordTable`
    columns, stamped with the sha256 of `csv_path`. Enum cells read
    `_value_`, the attribute behind `Enum.value`, because the property costs
    a Python-level descriptor call per cell.
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
    write_table(csv_path, LOGICAL_COLUMNS, rows, config_hash)
    columns = RecordTable.from_records(records).columns()
    write_columns(npz_path, {**columns, _STAMP: np.array(file_sha256(csv_path))})


def read_records(npz_path: str | Path, csv_path: str | Path) -> RecordTable:
    """Load the table `write_records` stored in `npz_path`.

    CorruptArtifactError (exit 3) names `npz_path` if it is not a readable
    archive, lacks a column or holds an extra one, or holds a column of
    another length or dtype or a value the parser never makes (such as a
    code outside its category or a float that is not finite). It names
    `csv_path` if that file no longer has the sha256 the table was stamped
    with, that is, if it was edited after `ingest` wrote both.
    """
    schema = {name: (dtype, ("rows",)) for name, dtype in _DTYPES.items()}
    columns = read_columns(npz_path, {**schema, _STAMP: (np.str_, ())}, "ingest")
    stamp = columns.pop(_STAMP)
    with reading(npz_path, "ingest"):
        for name, in_range in _IN_RANGE.items():
            bad = np.flatnonzero(~in_range(columns[name]))
            if bad.size:
                value = columns[name][bad[0]].item()
                raise ValueError(f"column {name!r} holds {value!r} at row {bad[0]}")
    if file_sha256(csv_path) != str(stamp):
        raise CorruptArtifactError(
            csv_path, None,
            f"its sha256 differs from the one {Path(npz_path).name} was stamped with, "
            "so it changed after `ingest` wrote both", "ingest",
        )
    return RecordTable(**columns)


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
    days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
    return list(dict.fromkeys(_period_label(day, granularity) for day in days))


def iso_weeks_between(start: dt.date, end: dt.date) -> list[str]:
    """Ordered ISO-week labels covering [start, end], partial weeks kept."""
    return _period_range(start, end, Granularity.WEEKLY)


@dataclass
class AggregatedSeries:
    granularity: Granularity
    index: list[str]       # ordered, gap-free period labels
    values: np.ndarray     # (periods, nodes) counts, a node's column its position

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=1)


def period_rows(days: np.ndarray, index: list[str], granularity: Granularity) -> np.ndarray:
    """Each day ordinal's row in `index`, a list of `granularity` period
    labels; -1 for a day whose period is not in it."""
    pos = {label: i for i, label in enumerate(index)}
    distinct, inverse = np.unique(days, return_inverse=True)
    rows = [
        pos.get(_period_label(dt.date.fromordinal(day), granularity), -1)
        for day in distinct.tolist()
    ]
    return np.array(rows, dtype=np.intp)[inverse]


def aggregate_temporal(
    table: RecordTable,
    assignment: Sequence[int],
    granularity: Granularity,
    n_nodes: int,
    period: tuple[dt.date, dt.date],
) -> AggregatedSeries:
    """Count accidents per (node, period) over `period`; gaps hold explicit zeros.

    `assignment` gives the node position of each record, aligned with `table`.
    """
    if len(table) != len(assignment):
        raise DataError(f"{len(table)} records but {len(assignment)} node assignments")
    nodes = np.asarray(assignment, dtype=np.intp)
    unassigned = np.flatnonzero(nodes < 0)
    if unassigned.size:
        raise UnassignedRecordError(str(table.id[unassigned[0]]))
    index = _period_range(*period, granularity)
    rows = period_rows(table.date, index, granularity)
    inside = rows >= 0
    values = np.zeros((len(index), n_nodes))
    np.add.at(values, (rows[inside], nodes[inside]), 1.0)
    return AggregatedSeries(granularity, index, values)


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
