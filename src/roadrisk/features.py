"""Weekly three-channel risk features on graph nodes.

Channel 0 (traffic safety) accumulates, per node and week, the casualty-
weighted severity of each accident: log(casualties + 1) times a severity
weight, a road-context weight, and a speed factor 0.5 + v/120. Channels 1
(infrastructure) and 2 (environment) average fixed per-category weights,
four infrastructure factors and two environmental ones, over that week's
accidents at the node. The weight tables live in a JSON file so regional
recalibrations are data edits, not code edits. A tensor is stored as a
column archive of its values and week labels, beside a JSON sidecar of its
metadata; node k is the tensor's column k, as it is the graph's row k.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_columns, read_json, write_columns, write_json
from .errors import CorruptArtifactError, DataError, NumericError, ShapeMismatchError
from .ingest import (
    CATEGORIES,
    AccidentRecord,
    Granularity,
    HumanControl,
    JunctionControl,
    LightCondition,
    PhysicalFacility,
    RecordTable,
    RoadType,
    SurfaceCondition,
    WeatherCondition,
    iso_weeks_between,
    period_rows,
)

FEATURE_NAMES = ("traffic_safety", "infrastructure", "environmental")


def _enum_table(enum_cls, name: str, weights: dict, unknown_default: float) -> dict:
    known = {member.value for member in enum_cls if member.name != "UNKNOWN"}
    for key in weights:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in weight table {name!r}")
    table = {}
    for member in enum_cls:
        if member.name == "UNKNOWN":
            table[member] = unknown_default
        else:
            table[member] = float(weights[member.value])
    return table


# WeightTables field -> (table name in the JSON file, enum the table covers)
_ENUM_TABLES = {
    "road_w": ("road_type", RoadType),
    "human_control_w": ("human_control", HumanControl),
    "physical_facility_w": ("physical_facility", PhysicalFacility),
    "light_w": ("light", LightCondition),
    "junction_control_w": ("junction_control", JunctionControl),
    "surface_w": ("surface", SurfaceCondition),
    "weather_w": ("weather", WeatherCondition),
}
_TABLE_KEYS = {"severity", "unknown_default"} | {key for key, _ in _ENUM_TABLES.values()}


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
        for key in raw:
            if key not in _TABLE_KEYS:
                raise ValueError(f"unknown weight table {key!r}")
        unk = float(raw.get("unknown_default", 0.5))
        enum_tables = {
            attr: _enum_table(enum_cls, key, raw[key], unk)
            for attr, (key, enum_cls) in _ENUM_TABLES.items()
        }
        tables = cls(
            severity_w={int(k): float(v) for k, v in raw["severity"].items()},
            **enum_tables,
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


@dataclass
class RiskTensor:
    """(weeks, nodes, 3) array of risk values plus its week labels; the node
    axis is the graph's node positions."""

    weeks: list[str]
    values: np.ndarray  # (W, N, 3), feature order: safety, infrastructure, environment
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w = len(self.weeks)
        if self.values.ndim != 3 or self.values.shape[0] != w or self.values.shape[2] != 3:
            raise ShapeMismatchError(f"risk tensor shape {self.values.shape} != ({w}, nodes, 3)")
        if not np.isfinite(self.values).all():
            week, node, channel = np.argwhere(~np.isfinite(self.values))[0].tolist()
            raise NumericError(
                f"risk tensor holds {self.values[week, node, channel].item()!r} in week "
                f"{self.weeks[week]} at node {node}, channel {FEATURE_NAMES[channel]}"
            )

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]


def build_risk_tensor(
    tables: WeightTables,
    records: RecordTable | Sequence[AccidentRecord],
    assignment: Sequence[int],
    node_ids: Sequence[int],
    period: tuple[dt.date, dt.date],
) -> RiskTensor:
    """Assemble the weekly (W, N, 3) risk tensor over a study period.

    `assignment` holds each record's node position in 0..N-1, where N is
    `len(node_ids)`; nothing else of `node_ids` is read.

    Each accident scores three values: log(casualties + 1) times the
    product of its severity weight, road-type weight and
    `speed_factor(speed_limit)`; the mean of its four infrastructure
    weights (human control, physical facility, light, junction control);
    and the mean of its surface and weather weights. Safety risk sums a
    cell's scores; infrastructure and environment average them within the
    cell, zero where the cell saw no accidents. Each weight is looked up by
    the record's category code, and the products and sums run in the order
    written here, so every score is bitwise what per-record float arithmetic
    gives, and each cell sums its records in record order.
    """
    table = RecordTable.from_records(records)
    if len(table) != len(assignment):
        raise DataError(f"{len(table)} records but {len(assignment)} node assignments")
    weeks = iso_weeks_between(period[0], period[1])
    w, n = len(weeks), len(node_ids)
    values = np.zeros((w, n, 3))
    counts = np.zeros((w, n))

    cols = np.asarray(assignment, dtype=np.intp)
    outside = (cols < 0) | (cols >= n)
    if outside.any():
        raise ShapeMismatchError(
            f"record node {int(cols[np.argmax(outside)])} is outside the {n} graph nodes"
        )
    rows = period_rows(table.date, weeks, Granularity.WEEKLY)
    inside = rows >= 0  # the rest fall outside the study period

    def weight(name: str, table_w: dict) -> np.ndarray:
        """`table_w[member]` for each kept record's member in category `name`."""
        by_code = np.array([table_w[member] for member in CATEGORIES[name]])
        return by_code[getattr(table, name)[inside]]

    # math.log per distinct count: np.log need not match libm to the last bit
    casualties, per_record = np.unique(table.casualties[inside], return_inverse=True)
    log_casualties = np.array([math.log(c + 1.0) for c in casualties.tolist()])[per_record]
    severity_w = np.array([tables.severity_w[level] for level in (1, 2, 3)])
    w_sev = (
        severity_w[table.severity[inside] - 1]
        * weight("road_type", tables.road_w)
        * speed_factor(table.speed_limit[inside])
    )
    infrastructure = (
        weight("ped_human_control", tables.human_control_w)
        + weight("ped_physical_facility", tables.physical_facility_w)
        + weight("light", tables.light_w)
        + weight("junction_control", tables.junction_control_w)
    ) / 4.0
    environment = (weight("surface", tables.surface_w) + weight("weather", tables.weather_w)) / 2.0

    # np.add.at adds unbuffered, in index order: each cell sums its records
    # in record order, from 0.0, as a per-record loop does
    t, i = rows[inside], cols[inside]
    np.add.at(values, (t, i, 0), log_casualties * w_sev)
    np.add.at(values, (t, i, 1), infrastructure)
    np.add.at(values, (t, i, 2), environment)
    np.add.at(counts, (t, i), 1.0)

    occupied = counts > 0
    values[:, :, 1][occupied] /= counts[occupied]
    values[:, :, 2][occupied] /= counts[occupied]
    return RiskTensor(weeks, values)


_TENSOR_COLUMNS = {
    "values": (np.float64, ("weeks", "nodes", len(FEATURE_NAMES))),
    "weeks": (np.str_, ("weeks",)),
}


def save_tensor(tensor: RiskTensor, bin_path: str | Path, meta_path: str | Path) -> None:
    """Write the values and week labels as a `write_columns` archive and the
    metadata as a JSON sidecar that names the feature channels."""
    write_columns(
        bin_path, {"values": tensor.values, "weeks": np.array(tensor.weeks, dtype=np.str_)}
    )
    write_json(meta_path, {"features": list(FEATURE_NAMES), **tensor.meta})


def load_tensor(bin_path: str | Path, meta_path: str | Path) -> RiskTensor:
    """Read a `save_tensor` pair. `CorruptArtifactError` if the archive fails
    `read_columns` against its declared members, or the sidecar is not a
    JSON object whose `features` are `FEATURE_NAMES`; the message names the
    file and says to run `features`, the CLI command that writes the pair,
    again."""
    columns = read_columns(bin_path, _TENSOR_COLUMNS, "features")
    meta = read_json(meta_path, "features")
    if meta.pop("features", None) != list(FEATURE_NAMES):
        problem = f"its features are not {list(FEATURE_NAMES)}"
        raise CorruptArtifactError(meta_path, None, problem, "features")
    return RiskTensor(columns["weeks"].tolist(), columns["values"], meta)
