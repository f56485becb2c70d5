"""Run configuration: one JSON file drives the whole pipeline.

A run is reproducible from the config plus the input files alone. Each
command's manifest is the run's provenance record: the config hash (sha256
of the canonical JSON form, less the input and output paths), the sha256 of
each file the command opened, and the sha256 of each file it wrote.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import sys
import types
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .artifacts import file_sha256, write_json
from .diffusion import DiffusionConfig, preset
from .errors import ConfigError
from .graph import GraphParams
from .ingest import LOGICAL_COLUMNS, RegionSpec
from .model import ModelConfig
from .training import TrainConfig


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Short stable fingerprint of any JSON-serializable structure."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


def _object(raw, section: str, keys) -> dict:
    """Config section `section` as a dict; null means the defaults.

    A key outside `keys` raises ConfigError naming the section and the key,
    so a typo fails instead of silently running on a default.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object, not {raw!r}")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in config section {section!r}")
    return raw


def _fits(hint, value) -> bool:
    """Whether JSON `value` has the type of annotation `hint`. An int takes
    an integer only and a float a finite integer or float (not NaN or an
    Infinity), neither a bool; a tuple takes a list of its length. A
    section or a date is left to the function that converts it."""
    if get_origin(hint) is types.UnionType:
        return any(_fits(option, value) for option in get_args(hint))
    if get_origin(hint) is tuple:
        return (isinstance(value, list) and len(value) == len(get_args(hint))
                and all(map(_fits, get_args(hint), value)))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if hint in (int, str, bool, type(None)):
        return isinstance(value, hint)
    return True


def _section(cls, raw, section: str, /, base=None, **convert):
    """Build dataclass `cls`, or override `base`, from one JSON section.

    The dataclass fields are the schema: ConfigError names a key whose value
    does not have its field's type (`_fits`). A key the section leaves out
    keeps its default; a list becomes a tuple; `convert` maps a key to the
    function that turns its JSON value into the field value.
    """
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in _object(raw, section, {f.name for f in fields(cls)}).items():
        hint = hints[key]
        if not _fits(hint, value):
            name = hint.__name__ if type(hint) is type else hint
            raise ConfigError(
                f"key {key!r} in config section {section!r} must be {name}, not {value!r}"
            )
        kwargs[key] = (convert[key](value) if key in convert
                       else tuple(value) if isinstance(value, list) else value)
    return cls(**kwargs) if base is None else replace(base, **kwargs)


def _period(raw) -> tuple[dt.date, dt.date]:
    start, end = raw
    return dt.date.fromisoformat(start), dt.date.fromisoformat(end)


def _diffusion(raw) -> DiffusionConfig:
    """A `preset` key names the base that the section's other keys override."""
    base = None
    if isinstance(raw, dict) and "preset" in raw:
        raw = dict(raw)
        base = preset(raw.pop("preset"))
    return _section(DiffusionConfig, raw, "diffusion", base=base, beta=float)


@dataclass
class RunConfig:
    data_csv: str
    out_dir: str
    region: RegionSpec
    schema: dict[str, str] = field(default_factory=dict)
    graph: GraphParams = field(default_factory=GraphParams)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    weight_tables: str | None = None  # None: packaged defaults
    mape_eps: float = 1e-8
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        fractions = self.split_fractions
        if not (len(fractions) == 3 and min(fractions) > 0 and abs(sum(fractions) - 1.0) <= 1e-9):
            raise ConfigError(
                f"split_fractions must be three fractions above 0 that sum to 1, got {fractions}"
            )
        if not 0 <= self.mape_eps < math.inf:
            raise ConfigError(f"mape_eps must be finite and >= 0, got {self.mape_eps}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["region"]["period"] = [d.isoformat() for d in self.region.period]
        return out

    @property
    def fingerprint(self) -> str:
        """The hash of every setting but the deployment paths `data_csv` and
        `out_dir`, so a run moved to another directory stamps the same hash;
        the manifests record the data file's digest."""
        settings = self.to_dict()
        del settings["data_csv"], settings["out_dir"]
        return config_hash(settings)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return _section(
                cls, raw, "top level",
                region=lambda r: _section(RegionSpec, r, "region", period=_period),
                schema=lambda r: dict(_object(r, "schema", LOGICAL_COLUMNS)),
                graph=lambda r: _section(GraphParams, r, "graph"),
                diffusion=_diffusion,
                model=lambda r: _section(ModelConfig, r, "model"),
                train=lambda r: _section(TrainConfig, r, "train"),
                mape_eps=float,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid run config: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """Relative paths inside the config resolve against the working directory."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
            raise ConfigError(f"cannot read run config {path}: {exc}") from exc
        return cls.from_dict(raw)


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: RunConfig,
    inputs: dict[str, str | Path],
    outputs: list[str],
    runtime_s: float,
    extra: dict | None = None,
) -> Path:
    """Per-command provenance record; runtime is the only varying field.
    `inputs` maps a name to each file the command opened, `outputs` names
    the files it wrote relative to `out_dir`; both are recorded by sha256.
    `extra` adds command-specific entries."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config_hash": config.fingerprint,
        "seed": config.seed,
        "inputs": {name: file_sha256(p) for name, p in inputs.items()},
        "outputs": {name: file_sha256(out_dir / name) for name in outputs},
        **(extra or {}),
        "runtime_s": round(runtime_s, 3),
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    write_json(path, manifest)
    return path
