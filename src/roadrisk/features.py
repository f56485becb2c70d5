"""Weekly three-channel risk features on graph nodes.

Channel 0 (traffic safety) accumulates, per node and week, the casualty-
weighted severity of each accident: log(casualties + 1) times a severity
weight, a road-context weight, and a speed factor 0.5 + v/120. Channels 1
(infrastructure) and 2 (environment) average fixed per-category weights,
four infrastructure factors and two environmental ones, over that week's
accidents at the node. The weight tables live in a JSON file so regional
recalibrations are data edits, not code edits.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import operator
import struct
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_json, reading, write_json
from .errors import DataError, ShapeMismatchError, UnassignedRecordError
from .ingest import (
    AccidentRecord,
    HumanControl,
    JunctionControl,
    LightCondition,
    PhysicalFacility,
    RoadType,
    SurfaceCondition,
    WeatherCondition,
    iso_weeks_between,
    week_label,
)

FEATURE_NAMES = ("traffic_safety", "infrastructure", "environmental")


def _enum_table(enum_cls, weights: dict, unknown_default: float) -> dict:
    table = {}
    for member in enum_cls:
        if member.name == "UNKNOWN":
            table[member] = unknown_default
        else:
            table[member] = float(weights[member.value])
    return table


@dataclass
class WeightTables:
    """Severity/road/infrastructure/environment weights, total over each enum."""

    severity_w: dict[int, float]
    road_w: dict[RoadType, float]
    human_control_w: dict[HumanControl, float]
    physical_facility_w: dict[PhysicalFacility, float]
    light_w: dict[LightCondition, float]
    junction_control_w: dict[JunctionControl, float]
    surface_w: dict[SurfaceCondition, float]
    weather_w: dict[WeatherCondition, float]
    unknown_default: float = 0.5

    @classmethod
    def from_dict(cls, raw: dict) -> "WeightTables":
        unk = float(raw.get("unknown_default", 0.5))
        tables = cls(
            severity_w={int(k): float(v) for k, v in raw["severity"].items()},
            road_w=_enum_table(RoadType, raw["road_type"], unk),
            human_control_w=_enum_table(HumanControl, raw["human_control"], unk),
            physical_facility_w=_enum_table(
                PhysicalFacility, raw["physical_facility"], unk
            ),
            light_w=_enum_table(LightCondition, raw["light"], unk),
            junction_control_w=_enum_table(
                JunctionControl, raw["junction_control"], unk
            ),
            surface_w=_enum_table(SurfaceCondition, raw["surface"], unk),
            weather_w=_enum_table(WeatherCondition, raw["weather"], unk),
            unknown_default=unk,
        )
        tables.validate()
        return tables

    @classmethod
    def load(cls, path: str | Path) -> "WeightTables":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def default(cls) -> "WeightTables":
        raw = json.loads(
            resources.files("roadrisk.data").joinpath("weight_tables.json").read_text()
        )
        return cls.from_dict(raw)

    def validate(self) -> None:
        for table in (
            self.severity_w,
            self.road_w,
            self.human_control_w,
            self.physical_facility_w,
            self.light_w,
            self.junction_control_w,
            self.surface_w,
            self.weather_w,
        ):
            if any(w <= 0 for w in table.values()):
                raise ValueError("all risk weights must be positive")
        if set(self.severity_w) != {1, 2, 3}:
            raise ValueError("severity table must cover exactly levels 1..3")


def speed_factor(speed_limit_mph: float) -> float:
    return 0.5 + speed_limit_mph / 120.0


def severity_weight(
    tables: WeightTables,
    severity: int,
    road_type: RoadType,
    speed_limit_mph: float,
) -> float:
    """Multiplicative severity x road-context x speed weight."""
    return (
        tables.severity_w[severity]
        * tables.road_w[road_type]
        * speed_factor(speed_limit_mph)
    )


def infrastructure_risk(tables: WeightTables, record: AccidentRecord) -> float:
    """Mean of the four infrastructure factor weights, in (0, 1]."""
    return (
        tables.human_control_w[record.ped_human_control]
        + tables.physical_facility_w[record.ped_physical_facility]
        + tables.light_w[record.light]
        + tables.junction_control_w[record.junction_control]
    ) / 4.0


def environmental_risk(tables: WeightTables, record: AccidentRecord) -> float:
    """Mean of the surface and weather weights, in (0, 1]."""
    return (
        tables.surface_w[record.surface] + tables.weather_w[record.weather]
    ) / 2.0


@dataclass
class RiskTensor:
    """(weeks, nodes, 3) array of risk values plus its axis labels."""

    weeks: list[str]
    node_ids: list[int]
    values: np.ndarray  # (W, N, 3), feature order: safety, infrastructure, environment
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w, n = len(self.weeks), len(self.node_ids)
        if self.values.shape != (w, n, 3):
            raise ShapeMismatchError(
                f"risk tensor shape {self.values.shape} != ({w}, {n}, 3)"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("risk tensor contains non-finite values")

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def copy(self) -> "RiskTensor":
        return RiskTensor(
            list(self.weeks), list(self.node_ids), self.values.copy(), dict(self.meta)
        )


def build_risk_tensor(
    tables: WeightTables,
    records: Sequence[AccidentRecord],
    assignment: Sequence[int],
    node_ids: Sequence[int],
    period: tuple[dt.date, dt.date],
) -> RiskTensor:
    """Assemble the weekly (W, N, 3) risk tensor over a study period.

    Safety risk is additive over a cell's accidents; infrastructure and
    environment are per-accident scores averaged within the cell, zero where
    the cell saw no accidents. Per-record scores use the same float64
    operations, in the same order, as `severity_weight`,
    `infrastructure_risk` and `environmental_risk`, and each cell sums its
    records in record order, so the tensor is bitwise what a loop over the
    records with those functions gives.
    """
    if len(records) != len(assignment):
        raise UnassignedRecordError("<length mismatch>")
    node_ids = list(node_ids)
    node_pos = {int(n): i for i, n in enumerate(node_ids)}
    weeks = iso_weeks_between(period[0], period[1])
    week_pos = {w: t for t, w in enumerate(weeks)}
    w, n = len(weeks), len(node_ids)
    values = np.zeros((w, n, 3))
    counts = np.zeros((w, n))

    cols = np.fromiter(
        map(node_pos.get, map(int, assignment), itertools.repeat(-1)),
        dtype=np.intp, count=len(records),
    )
    if (cols < 0).any():
        node = int(assignment[int(np.argmax(cols < 0))])
        raise ShapeMismatchError(f"record node {node} not in graph nodes")
    date = operator.attrgetter("date")
    week_of = {day: week_pos.get(week_label(day), -1) for day in set(map(date, records))}
    rows = np.fromiter(map(week_of.__getitem__, map(date, records)), np.intp, len(records))
    inside = rows >= 0  # the rest fall outside the study period
    kept = list(itertools.compress(records, inside))

    def column(name: str, table: dict, key=None) -> np.ndarray:
        """`table[key(field)]` for field `name` of each kept record, as float64."""
        fields = map(operator.attrgetter(name), kept)
        if key is not None:
            fields = map(key, fields)
        return np.fromiter(map(table.__getitem__, fields), np.float64, len(kept))

    def member_weights(name: str, table: dict) -> np.ndarray:
        # enum members are singletons, so look them up by id: keyed by the
        # member itself, each lookup calls the Python-level Enum.__hash__
        return column(name, {id(member): w for member, w in table.items()}, key=id)

    # math.log per distinct count: np.log need not match libm to the last bit
    log_of = {c: math.log(c + 1.0) for c in {r.casualties for r in kept}}
    speed = np.fromiter(map(operator.attrgetter("speed_limit"), kept), np.float64, len(kept))
    w_sev = (
        column("severity", tables.severity_w)
        * member_weights("road_type", tables.road_w)
        * speed_factor(speed)
    )
    infrastructure = (
        member_weights("ped_human_control", tables.human_control_w)
        + member_weights("ped_physical_facility", tables.physical_facility_w)
        + member_weights("light", tables.light_w)
        + member_weights("junction_control", tables.junction_control_w)
    ) / 4.0
    environment = (
        member_weights("surface", tables.surface_w) + member_weights("weather", tables.weather_w)
    ) / 2.0

    # np.add.at adds unbuffered, in index order: each cell sums its records
    # in record order, from 0.0, as the loop did
    t, i = rows[inside], cols[inside]
    np.add.at(values, (t, i, 0), column("casualties", log_of) * w_sev)
    np.add.at(values, (t, i, 1), infrastructure)
    np.add.at(values, (t, i, 2), environment)
    np.add.at(counts, (t, i), 1.0)

    occupied = counts > 0
    values[:, :, 1][occupied] /= counts[occupied]
    values[:, :, 2][occupied] /= counts[occupied]
    return RiskTensor(weeks, node_ids, values)


_HEADER = struct.Struct("<iii")


def save_tensor(tensor: RiskTensor, bin_path: str | Path, meta_path: str | Path) -> None:
    """Flat binary: header (W, N, F as little-endian int32) then float64
    payload in week-major order; JSON sidecar carries labels and metadata."""
    w, n, f = tensor.values.shape
    with open(bin_path, "wb") as fh:
        fh.write(_HEADER.pack(w, n, f))
        fh.write(np.ascontiguousarray(tensor.values, dtype="<f8").tobytes())
    sidecar = {
        "weeks": tensor.weeks,
        "node_ids": tensor.node_ids,
        "features": list(FEATURE_NAMES),
        **tensor.meta,
    }
    write_json(meta_path, sidecar)


def load_tensor(
    bin_path: str | Path, meta_path: str | Path, stage: str = "features"
) -> RiskTensor:
    """Read a `save_tensor` pair. DataError if the header is cut short or
    disagrees with the payload size, a value is not finite, or the sidecar
    is not a JSON object whose week and node labels match the header; its
    message says to run `stage`, the CLI command that writes the pair,
    again."""
    blob = Path(bin_path).read_bytes()
    if len(blob) < _HEADER.size:
        raise DataError(
            f"tensor {bin_path} holds {len(blob)} bytes, less than its "
            f"{_HEADER.size}-byte header; run `{stage}` again"
        )
    w, n, f = _HEADER.unpack_from(blob)
    if min(w, n, f) < 0 or len(blob) != _HEADER.size + 8 * w * n * f:
        raise DataError(
            f"tensor {bin_path} holds {len(blob) - _HEADER.size} payload bytes but its "
            f"header says {w} x {n} x {f} float64 values; run `{stage}` again"
        )
    payload = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    sidecar = read_json(meta_path, stage)
    with reading(meta_path, stage):
        weeks = list(sidecar["weeks"])
        node_ids = [int(i) for i in sidecar["node_ids"]]
        if (len(weeks), len(node_ids), len(FEATURE_NAMES)) != (w, n, f):
            raise ValueError(
                f"{len(weeks)} weeks and {len(node_ids)} nodes label a {w} x {n} x {f} tensor"
            )
    meta = {
        k: v for k, v in sidecar.items() if k not in ("weeks", "node_ids", "features")
    }
    with reading(bin_path, stage):  # a value that is not finite
        return RiskTensor(weeks, node_ids, payload.reshape(w, n, f).astype(np.float64), meta)
