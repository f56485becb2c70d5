"""Statistical checks that the three risk channels behave distinctly.

Four batteries, run over a 1 km grid version of the risk features: pairwise
cross-channel correlation (low |r| means the channels carry non-redundant
signal), weekly volatility and persistence (coefficient of variation,
lag-1 autocorrelation of the network-mean series), spatial clustering
(one-way random-effects intraclass correlation with grid cells as groups),
and a hierarchical regression showing each added channel's incremental
explained variance against next-week accident counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_table
from .errors import InsufficientGroupsError
from .features import FEATURE_NAMES, RiskTensor, WeightTables, build_risk_tensor
from .graph import assign_to_nodes
from .ingest import AccidentRecord, Granularity, RegionSpec, aggregate_temporal


def cross_dimension_correlation(tensor: RiskTensor) -> tuple[np.ndarray, list[str]]:
    """Mean |Pearson r| of each channel against the other two.

    Computed over (week, node) cells with any activity; a channel pair with
    zero variance is skipped and noted.
    """
    active = tensor.values.sum(axis=2) > 0
    if active.sum() < 3:
        raise InsufficientGroupsError("need at least 3 active cells for correlations")
    flat = tensor.values[active]  # (cells, 3)
    notes = []
    abs_r = np.full((3, 3), np.nan)
    for a in range(3):
        for b in range(a + 1, 3):
            xa, xb = flat[:, a], flat[:, b]
            if xa.std() == 0.0 or xb.std() == 0.0:
                notes.append(
                    f"pair ({FEATURE_NAMES[a]}, {FEATURE_NAMES[b]}) skipped: zero variance"
                )
                continue
            r = float(np.corrcoef(xa, xb)[0, 1])
            abs_r[a, b] = abs_r[b, a] = abs(r)
    per_dim = np.array(
        [
            np.nan if np.isnan(abs_r[d]).all() else np.nanmean(abs_r[d])
            for d in range(3)
        ]
    )
    return per_dim, notes


def temporal_stats(tensor: RiskTensor) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(CV %, lag-1 autocorrelation) of each channel's network-mean series."""
    if tensor.n_weeks < 3:
        raise InsufficientGroupsError("need at least 3 weeks for temporal statistics")
    series = tensor.values.mean(axis=1)  # (W, 3)
    notes = []
    cv = np.full(3, np.nan)
    autocorr = np.full(3, np.nan)
    for f in range(3):
        s = series[:, f]
        mean = s.mean()
        sd = s.std(ddof=1)
        if mean == 0.0:
            notes.append(f"{FEATURE_NAMES[f]}: zero mean, CV undefined")
        else:
            cv[f] = 100.0 * sd / mean
        if sd == 0.0:
            notes.append(f"{FEATURE_NAMES[f]}: constant series, autocorrelation undefined")
        else:
            autocorr[f] = float(np.corrcoef(s[:-1], s[1:])[0, 1])
    return cv, autocorr, notes


def icc_grid(tensor: RiskTensor) -> tuple[np.ndarray, list[str]]:
    """Intraclass correlation per channel: cells as groups, weeks as observations.

    One-way random-effects variance decomposition on the balanced design;
    negative between-group variance estimates clamp to zero (noted).
    """
    w, n = tensor.n_weeks, tensor.n_nodes
    if n < 2 or w < 2:
        raise InsufficientGroupsError(
            f"need >=2 cells and >=2 weeks for ICC, got {n} cells x {w} weeks"
        )
    notes = []
    icc = np.zeros(3)
    for f in range(3):
        x = tensor.values[:, :, f]  # (W, N) observations per cell column
        group_means = x.mean(axis=0)
        grand = x.mean()
        ssb = w * ((group_means - grand) ** 2).sum()
        msb = ssb / (n - 1)
        ssw = ((x - group_means) ** 2).sum()
        msw = ssw / (n * (w - 1))
        sigma_between = (msb - msw) / w
        if sigma_between < 0.0:
            notes.append(f"{FEATURE_NAMES[f]}: negative between-cell variance clamped to 0")
            sigma_between = 0.0
        denom = sigma_between + msw
        icc[f] = 0.0 if denom == 0.0 else sigma_between / denom
        if denom == 0.0:
            notes.append(f"{FEATURE_NAMES[f]}: zero total variance, ICC set to 0")
    return icc, notes


def _ols_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """R^2 of y ~ [1, x]; ridge fallback on rank deficiency (flagged)."""
    design = np.column_stack([np.ones(len(y)), x])
    gram = design.T @ design
    moment = design.T @ y
    ridge = False
    try:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError
        beta = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        ridge = True
        beta = np.linalg.solve(gram + 1e-8 * np.eye(gram.shape[0]), moment)
    resid = y - design @ beta
    ss_tot = ((y - y.mean()) ** 2).sum()
    if ss_tot == 0.0:
        return 1.0, ridge
    return float(1.0 - (resid**2).sum() / ss_tot), ridge


def hierarchical_r2(
    tensor: RiskTensor, next_week_counts: np.ndarray
) -> tuple[list[float], list[float | None], list[str]]:
    """R^2 of next-week accident counts on S, then S+I, then S+I+E.

    `next_week_counts` is (W, N) aligned with the tensor; row t of the design
    pairs features at week t with counts at week t+1. Returns the R^2
    sequence, relative improvements against the base model (percent), and
    notes (e.g. ridge fallback engaged).
    """
    w, n = tensor.n_weeks, tensor.n_nodes
    if next_week_counts.shape != (w, n):
        raise InsufficientGroupsError(
            f"counts {next_week_counts.shape} do not match tensor ({w}, {n})"
        )
    features = tensor.values[:-1].reshape(-1, 3)
    target = next_week_counts[1:].reshape(-1)
    notes = []
    r2_seq = []
    for step in (1, 2, 3):
        r2, ridge = _ols_r2(features[:, :step], target)
        if ridge:
            notes.append(f"step {step}: rank-deficient design, ridge fallback engaged")
        r2_seq.append(r2)
    base = r2_seq[0]
    rel = [None]
    for i in (1, 2):
        rel.append(None if base == 0.0 else 100.0 * (r2_seq[i] - r2_seq[i - 1]) / base)
    return r2_seq, rel, notes


@dataclass
class ValidationReport:
    mean_abs_r: dict[str, float]
    cv_percent: dict[str, float | None]
    lag1_autocorr: dict[str, float | None]
    icc: dict[str, float]
    r2_sequence: list[float]
    r2_relative_improvement: list[float | None]
    grid_cells: int
    weeks: int
    notes: list[str] = field(default_factory=list)
    config_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "mean_abs_r": self.mean_abs_r,
            "cv_percent": self.cv_percent,
            "lag1_autocorr": self.lag1_autocorr,
            "icc": self.icc,
            "between_grid_variance_percent": {
                k: (None if v is None else 100.0 * v) for k, v in self.icc.items()
            },
            "r2_sequence": self.r2_sequence,
            "r2_relative_improvement": self.r2_relative_improvement,
            "grid_cells": self.grid_cells,
            "weeks": self.weeks,
            "notes": self.notes,
            "config_fingerprint": self.config_fingerprint,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def save_csv(self, path: str | Path) -> None:
        """Row-per-metric layout with one column per risk channel."""
        def cell(value):
            return "" if value is None or (isinstance(value, float) and np.isnan(value)) else value

        rows = [
            ["cross_correlation_mean_abs_r"] + [cell(self.mean_abs_r[f]) for f in FEATURE_NAMES],
            ["coeff_of_variation_percent"] + [cell(self.cv_percent[f]) for f in FEATURE_NAMES],
            ["week_to_week_autocorr"] + [cell(self.lag1_autocorr[f]) for f in FEATURE_NAMES],
            ["intraclass_corr"] + [cell(self.icc[f]) for f in FEATURE_NAMES],
            ["between_grid_variance_percent"]
            + [cell(None if self.icc[f] is None else 100.0 * self.icc[f]) for f in FEATURE_NAMES],
            ["incremental_r2"] + [cell(v) for v in self.r2_sequence],
            ["relative_improvement_percent"]
            + ["base"]
            + [cell(v) for v in self.r2_relative_improvement[1:]],
            ["config_fingerprint", self.config_fingerprint, "", ""],
        ]
        write_table(path, ["metric"] + list(FEATURE_NAMES), rows)


def framework_validation_report(
    records: list[AccidentRecord],
    region: RegionSpec,
    tables: WeightTables | None = None,
    cell_size_m: float = 1000.0,
    config_fingerprint: str = "",
) -> ValidationReport:
    """Run the full battery on a coarse-grid rebuild of the risk features."""
    tables = tables or WeightTables.default()
    nodes, assignment = assign_to_nodes(
        [r.lon for r in records], [r.lat for r in records], cell_size_m, center=region.center
    )
    node_ids = [node[0] for node in nodes]
    tensor = build_risk_tensor(tables, records, assignment, node_ids, region.period)
    counts = aggregate_temporal(
        records, assignment, Granularity.WEEKLY, len(node_ids), region.period
    ).values

    mean_abs_r, notes_r = cross_dimension_correlation(tensor)
    cv, autocorr, notes_t = temporal_stats(tensor)
    icc, notes_i = icc_grid(tensor)
    r2_seq, r2_rel, notes_h = hierarchical_r2(tensor, counts)

    def by_name(values):
        return {
            name: (None if np.isnan(values[f]) else float(values[f]))
            for f, name in enumerate(FEATURE_NAMES)
        }

    return ValidationReport(
        mean_abs_r=by_name(mean_abs_r),
        cv_percent=by_name(cv),
        lag1_autocorr=by_name(autocorr),
        icc=by_name(icc),
        r2_sequence=r2_seq,
        r2_relative_improvement=r2_rel,
        grid_cells=len(node_ids),
        weeks=tensor.n_weeks,
        notes=notes_r + notes_t + notes_i + notes_h,
        config_fingerprint=config_fingerprint,
    )
