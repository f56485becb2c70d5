"""Weekly three-channel risk features on graph nodes.

Channel 0 (traffic safety) accumulates, per node and week, the casualty-
weighted severity of each accident: log(casualties + 1) times a severity
weight, a road-context weight, and a speed factor 0.5 + v/120. Channels 1
(infrastructure) and 2 (environment) average fixed per-category weights,
four infrastructure factors and two environmental ones, over that week's
accidents at the node. The weight tables live in a JSON file so regional
recalibrations are data edits, not code edits; once loaded, each category
table is keyed by the record column it weighs. A tensor is stored as a
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
    RecordTable,
    iso_weeks_between,
    period_rows,
)

FEATURE_NAMES = ("traffic_safety", "infrastructure", "environmental")

# weights-file table -> the record column it weighs; the column's enum
# (`ingest.CATEGORIES`) names the table's keys
_TABLE_COLUMNS = {
    "road_type": "road_type",
    "human_control": "ped_human_control",
    "physical_facility": "ped_physical_facility",
    "light": "light",
    "junction_control": "junction_control",
    "surface": "surface",
    "weather": "weather",
}


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


@dataclass
class WeightTables:
    """Risk weights: `severity` maps a severity level (1..3) to its weight,
    and `categories` maps each weighed record column to a weight for every
    member of its enum, UNKNOWN included."""

    severity: dict[int, float]
    categories: dict[str, dict]

    @classmethod
    def from_dict(cls, raw: dict) -> "WeightTables":
        """Tables from a weights file's JSON object. ValueError for an unknown
        table or key, a weight that is not positive and finite, or severity
        levels other than 1..3; KeyError for a missing table or key. The
        `unknown_default` entry (0.5 if absent) weighs each UNKNOWN member."""
        for key in raw:
            if key not in {"severity", "unknown_default", *_TABLE_COLUMNS}:
                raise ValueError(f"unknown weight table {key!r}")
        unknown = float(raw.get("unknown_default", 0.5))
        categories = {
            column: _enum_table(CATEGORIES[column], name, raw[name], unknown)
            for name, column in _TABLE_COLUMNS.items()
        }
        severity = {int(k): float(v) for k, v in raw["severity"].items()}
        for table in (severity, *categories.values()):
            for w in table.values():
                if not 0 < w < math.inf:
                    raise ValueError(f"every risk weight must be positive and finite, not {w!r}")
        if set(severity) != {1, 2, 3}:
            raise ValueError("severity table must cover exactly levels 1..3")
        return cls(severity, categories)

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
    cell, zero where the cell saw no accidents. Each weight is looked up in
    `tables.categories[column]` by the record's code in that column, and
    the products and sums run in the order written here, so every score is
    bitwise what per-record float arithmetic gives, and each cell sums its
    records in record order.
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

    def weight(column: str) -> np.ndarray:
        """The weight of each kept record's member in category `column`."""
        by_code = np.array([tables.categories[column][member] for member in CATEGORIES[column]])
        return by_code[getattr(table, column)[inside]]

    # math.log per distinct count: np.log need not match libm to the last bit
    casualties, per_record = np.unique(table.casualties[inside], return_inverse=True)
    log_casualties = np.array([math.log(c + 1.0) for c in casualties.tolist()])[per_record]
    severity_w = np.array([tables.severity[level] for level in (1, 2, 3)])
    w_sev = (
        severity_w[table.severity[inside] - 1]
        * weight("road_type")
        * speed_factor(table.speed_limit[inside])
    )
    infrastructure = (
        weight("ped_human_control")
        + weight("ped_physical_facility")
        + weight("light")
        + weight("junction_control")
    ) / 4.0
    environment = (weight("surface") + weight("weather")) / 2.0

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
