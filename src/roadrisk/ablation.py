"""Ablation runners: input-channel subsets and diffusion presets.

Every arm trains a fresh model from the same parameter seed on the same
windows; arms differ only in the ablated factor, and each report carries a
fingerprint of its arm configuration so the comparison table is auditable.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path

from .artifacts import write_table
from .config import config_hash
from .diffusion import PRESETS, DiffusionConfig
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


def _run_arm(
    tensor: RiskTensor,
    graph: SpatialGraph,
    diffusion_config: DiffusionConfig,
    model_config: ModelConfig,
    train_config: TrainConfig,
    channel_mask: tuple[int, int, int],
    mape_eps: float,
    arm_descriptor: dict,
) -> EvalReport:
    started = time.time()
    data, _, _ = prepare_training_data(
        tensor,
        graph.adjacency_norm,
        diffusion_config,
        t_in=model_config.t_in,
        t_out=model_config.t_out,
        channel_mask=channel_mask,
    )
    model = RiskForecaster(model_config, graph.adjacency_norm, seed=train_config.seed)
    result = train(model, data, train_config)
    start = data.last_test_window()
    x, y = data.window(start)
    report = horizon_report(
        model.predict(x),
        y,
        eps=mape_eps,
        config_fingerprint=config_hash(arm_descriptor),
        runtime_s=time.time() - started,
    )
    report.extra["arm"] = arm_descriptor
    report.extra["best_val_loss"] = result.best_val_loss
    report.extra["best_epoch"] = result.best_epoch
    return report


def arm_descriptor(
    model_config: ModelConfig,
    train_config: TrainConfig,
    diffusion_config: DiffusionConfig,
    channel_mask: tuple[int, int, int],
) -> dict:
    return {
        "model": asdict(model_config),
        "train": asdict(train_config),
        "diffusion": asdict(diffusion_config),
        "channel_mask": list(channel_mask),
    }


def run_feature_ablation(
    tensor: RiskTensor,
    graph: SpatialGraph,
    diffusion_config: DiffusionConfig,
    model_config: ModelConfig,
    train_config: TrainConfig,
    arms: dict[str, tuple[int, int, int]] | None = None,
    mape_eps: float = 1e-8,
) -> dict[str, EvalReport]:
    """Train one arm per input-channel subset; identical seeds across arms."""
    arms = arms or FEATURE_ARMS
    reports = {}
    for name, mask in arms.items():
        descriptor = arm_descriptor(model_config, train_config, diffusion_config, mask)
        reports[name] = _run_arm(
            tensor, graph, diffusion_config, model_config, train_config,
            mask, mape_eps, descriptor,
        )
    return reports


def run_diffusion_ablation(
    tensor: RiskTensor,
    graph: SpatialGraph,
    model_config: ModelConfig,
    train_config: TrainConfig,
    presets: dict[str, DiffusionConfig] | None = None,
    mape_eps: float = 1e-8,
) -> dict[str, EvalReport]:
    """Train one arm per diffusion preset; identical seeds across arms."""
    presets = presets or PRESETS
    reports = {}
    for name, cfg in presets.items():
        descriptor = arm_descriptor(model_config, train_config, cfg, (1, 1, 1))
        reports[name] = _run_arm(
            tensor, graph, cfg, model_config, train_config,
            (1, 1, 1), mape_eps, descriptor,
        )
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
