"""Ablation runner: one experiment over arms of input-channel subsets or
diffusion presets.

Every arm trains a fresh model from the same parameter seed on the same
windows; arms differ only in the ablated factor, and each report carries a
fingerprint of its arm configuration so the comparison table is auditable.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from .artifacts import write_table
from .config import config_hash
from .diffusion import DiffusionConfig
from .features import RiskTensor
from .graph import SpatialGraph
from .metrics import EvalReport, horizon_report
from .model import ModelConfig, RiskForecaster
from .training import TrainConfig, prepare_training_data, train

FEATURE_ARMS = {
    "SIE": (1, 1, 1),
    "SE": (1, 0, 1),
    "SI": (1, 1, 0),
    "S": (1, 0, 0),
}


def run_ablation(
    tensor: RiskTensor,
    graph: SpatialGraph,
    arms: dict[str, tuple[DiffusionConfig, tuple[int, int, int]]],
    model_config: ModelConfig,
    train_config: TrainConfig,
    mape_eps: float,
    fractions: tuple[float, float, float],
    seed: int,
) -> dict[str, EvalReport]:
    """Train and evaluate one arm per `(diffusion config, channel mask)` in
    `arms`, the way `train` and `eval` do: every arm's parameters come from
    `seed` and its windows from the split `fractions`."""
    reports = {}
    for name, (diffusion_config, channel_mask) in arms.items():
        data, _, _ = prepare_training_data(
            tensor,
            graph.adjacency_norm,
            diffusion_config,
            t_in=model_config.t_in,
            t_out=model_config.t_out,
            fractions=fractions,
            channel_mask=channel_mask,
        )
        model = RiskForecaster(model_config, graph.adjacency_norm, seed=seed)
        result = train(model, data, train_config)
        x, y = data.window(data.last_test_window())
        descriptor = {
            "model": asdict(model_config),
            "train": asdict(train_config),
            "diffusion": asdict(diffusion_config),
            "channel_mask": list(channel_mask),
            "split_fractions": list(fractions),
            "seed": seed,
        }
        report = horizon_report(
            model.predict(x), y, eps=mape_eps, config_fingerprint=config_hash(descriptor)
        )
        report.extra["arm"] = descriptor
        report.extra["best_val_loss"] = result.best_val_loss
        report.extra["best_epoch"] = result.best_epoch
        reports[name] = report
    return reports


def write_comparison_csv(reports: dict[str, EvalReport], path: str | Path) -> None:
    """One row per arm with bucket metrics side by side."""
    header = [
        "arm",
        "short_mae", "short_rmse", "short_mape",
        "medium_mae", "medium_rmse", "medium_mape",
        "long_mae", "long_rmse", "long_mape",
        "masked_fraction", "best_val_loss", "config_fingerprint",
    ]
    rows = []
    for name, report in reports.items():
        row = [name]
        for bucket in ("short", "medium", "long"):
            vals = report.buckets.get(bucket, {})
            row += [vals.get("mae"), vals.get("rmse"), vals.get("mape")]
        row += [
            report.masked_fraction,
            report.extra.get("best_val_loss"),
            report.config_fingerprint,
        ]
        rows.append(row)
    write_table(path, header, rows)
