"""Forecast error metrics, horizon-bucketed reports, naive baselines.

MAPE divides by the true value, and sparse accident data is full of true
zeros, so the percentage error is computed only over cells with |y| above a
small threshold; the excluded fraction is part of every report rather than
hidden. Horizon buckets group forecast weeks 1-4, 5-8 and 9-12, and each
bucket value is the mean of its member weeks' values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_table
from .errors import AllMaskedError, ShapeMismatchError

HORIZON_BUCKETS = (("short", 0, 4), ("medium", 4, 8), ("long", 8, 12))


def _check_shapes(y_hat: np.ndarray, y: np.ndarray):
    if y_hat.shape != y.shape:
        raise ShapeMismatchError(f"prediction {y_hat.shape} vs truth {y.shape}")


def mae(y_hat: np.ndarray, y: np.ndarray) -> float:
    y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
    _check_shapes(y_hat, y)
    return float(np.mean(np.abs(y_hat - y)))


def rmse(y_hat: np.ndarray, y: np.ndarray) -> float:
    y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
    _check_shapes(y_hat, y)
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def masked_fraction(y: np.ndarray, eps: float = 1e-8) -> float:
    y = np.asarray(y, float)
    return float(np.mean(np.abs(y) <= eps))


def mape(y_hat: np.ndarray, y: np.ndarray, eps: float = 1e-8) -> float:
    """Mean absolute percentage error over cells with |y| > eps, in percent."""
    y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
    _check_shapes(y_hat, y)
    keep = np.abs(y) > eps
    if not keep.any():
        raise AllMaskedError("every target cell is below the MAPE threshold")
    return float(100.0 * np.mean(np.abs(y_hat[keep] - y[keep]) / np.abs(y[keep])))


@dataclass
class EvalReport:
    """Per-horizon and per-week error summary for one forecast matrix."""

    buckets: dict[str, dict[str, float]]
    per_week: list[dict]                 # one row per forecast week
    masked_fraction: float
    mape_eps: float
    config_fingerprint: str = ""
    runtime_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "buckets": self.buckets,
            "per_week": self.per_week,
            "masked_fraction": self.masked_fraction,
            "mape_eps": self.mape_eps,
            "config_fingerprint": self.config_fingerprint,
            "runtime_s": self.runtime_s,
            **self.extra,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def save_csv(self, path: str | Path) -> None:
        rows = [
            [name, "", vals["mae"], vals["rmse"], vals["mape"], self.config_fingerprint]
            for name, vals in self.buckets.items()
        ] + [
            ["week", row["week"], row["mae"], row["rmse"], row["mape"], self.config_fingerprint]
            for row in self.per_week
        ]
        write_table(path, ["scope", "week", "mae", "rmse", "mape", "config_fingerprint"], rows)


def horizon_report(
    y_hat: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-8,
    config_fingerprint: str = "",
    runtime_s: float = 0.0,
) -> EvalReport:
    """Bucketed report over a (nodes, weeks) forecast.

    Weekly metrics are computed over nodes; a bucket is the mean of its
    member weeks. Weeks whose targets are entirely masked contribute no MAPE
    and are flagged in their row.
    """
    y_hat, y = np.asarray(y_hat, float), np.asarray(y, float)
    _check_shapes(y_hat, y)
    n_weeks = y.shape[1]
    per_week = []
    for w in range(n_weeks):
        row = {
            "week": w + 1,
            "mae": mae(y_hat[:, w], y[:, w]),
            "rmse": rmse(y_hat[:, w], y[:, w]),
            "masked_fraction": masked_fraction(y[:, w], eps),
        }
        try:
            row["mape"] = mape(y_hat[:, w], y[:, w], eps)
        except AllMaskedError:
            row["mape"] = None
        per_week.append(row)
    buckets = {}
    for name, lo, hi in HORIZON_BUCKETS:
        members = [r for r in per_week if lo < r["week"] <= hi]
        if not members:
            continue
        mapes = [r["mape"] for r in members if r["mape"] is not None]
        buckets[name] = {
            "mae": float(np.mean([r["mae"] for r in members])),
            "rmse": float(np.mean([r["rmse"] for r in members])),
            "mape": float(np.mean(mapes)) if mapes else None,
            "weeks": f"{lo + 1}-{hi}",
        }
    return EvalReport(
        buckets=buckets,
        per_week=per_week,
        masked_fraction=masked_fraction(y, eps),
        mape_eps=eps,
        config_fingerprint=config_fingerprint,
        runtime_s=runtime_s,
    )


def baseline_persistence(data, window_start: int) -> np.ndarray:
    """Repeat the last observed target week across the horizon."""
    last = data.targets[window_start + data.t_in - 1, :]
    return np.tile(last[:, None], (1, data.t_out))


def baseline_historical_mean(data) -> np.ndarray:
    """Repeat each node's training-span target mean across the horizon."""
    lo, hi = data.splits.train
    means = data.targets[lo:hi].mean(axis=0)
    return np.tile(means[:, None], (1, data.t_out))
