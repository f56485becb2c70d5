"""Run configuration: one JSON file drives the whole pipeline.

A run is reproducible from the config plus the input files alone, so every
artifact embeds the config hash (sha256 of the canonical JSON form) and
manifests record input-file digests next to it.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .artifacts import write_json
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


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


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


def _section(cls, raw, section: str, /, base=None, **convert):
    """Build dataclass `cls`, or override `base`, from one JSON section.

    The dataclass fields are the schema. A key the section leaves out keeps
    its default; a list becomes a tuple; `convert` maps a key to the function
    that turns its JSON value into the field value.
    """
    kwargs = {
        key: convert[key](value) if key in convert
        else tuple(value) if isinstance(value, list) else value
        for key, value in _object(raw, section, {f.name for f in fields(cls)}).items()
    }
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

    def to_dict(self) -> dict:
        out = asdict(self)
        out["region"]["period"] = [d.isoformat() for d in self.region.period]
        return out

    @property
    def fingerprint(self) -> str:
        return config_hash(self.to_dict())

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
                seed=int,
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
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read run config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: RunConfig,
    inputs: dict[str, str | Path],
    outputs: list[str],
    runtime_s: float,
) -> Path:
    """Per-command provenance record; runtime is the only varying field."""
    manifest = {
        "command": command,
        "config_hash": config.fingerprint,
        "seed": config.seed,
        "inputs": {name: file_sha256(p) for name, p in sorted(inputs.items())},
        "outputs": sorted(outputs),
        "runtime_s": round(runtime_s, 3),
    }
    path = Path(out_dir) / f"manifest_{command.replace('-', '_')}.json"
    write_json(path, manifest)
    return path
