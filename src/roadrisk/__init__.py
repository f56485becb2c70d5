"""Road-accident risk forecasting on spatial graphs.

Pipeline, end to end: parse accident CSVs, build weekly three-channel risk
features (safety / infrastructure / environment) on a road-segment graph,
smooth them with feature-specific spatial diffusion, train an attention
encoder-decoder graph network, evaluate per horizon, and export six-zone
weekly risk maps as GeoJSON.

The usual entry points:

    from roadrisk import ingest, graph, features, diffusion, training, metrics
    from roadrisk.model import ModelConfig, RiskForecaster
    from roadrisk.config import RunConfig

or the CLI: ``roadrisk <command> --config run.json``.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .diffusion import PRESETS, DiffusionConfig, MinMaxScaler, apply_diffusion
from .features import RiskTensor, WeightTables, build_risk_tensor
from .graph import GraphParams, SpatialGraph, build_graph
from .ingest import AccidentRecord, RegionSpec, filter_region, parse_accident_csv
from .metrics import EvalReport, horizon_report, mae, mape, rmse
from .model import ModelConfig, RiskForecaster
from .riskmap import ZoneMap, classify_zones, export_geojson
from .training import TrainConfig, TrainingData, prepare_training_data, train

__all__ = [
    "AccidentRecord",
    "DiffusionConfig",
    "EvalReport",
    "GraphParams",
    "MinMaxScaler",
    "ModelConfig",
    "PRESETS",
    "RegionSpec",
    "RiskForecaster",
    "RiskTensor",
    "RunConfig",
    "SpatialGraph",
    "TrainConfig",
    "TrainingData",
    "WeightTables",
    "ZoneMap",
    "apply_diffusion",
    "build_graph",
    "build_risk_tensor",
    "classify_zones",
    "export_geojson",
    "filter_region",
    "horizon_report",
    "mae",
    "mape",
    "parse_accident_csv",
    "prepare_training_data",
    "rmse",
    "train",
]
