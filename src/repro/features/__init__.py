"""Feature extraction for imputation-algorithm recommendation (Section V-B)."""

from repro.features.extractor import FeatureExtractor, extract_features_matrix
from repro.features.statistical import STATISTICAL_FEATURE_NAMES
from repro.features.topological import TOPOLOGICAL_FEATURE_NAMES
from repro.features.scaling import (
    BaseScaler,
    IdentityScaler,
    StandardScaler,
    MinMaxScaler,
    RobustScaler,
    MaxAbsScaler,
    NormalizerScaler,
    QuantileScaler,
    PowerScaler,
    PCAScaler,
    SCALER_REGISTRY,
    available_scalers,
    get_scaler,
    scaler_search_space,
)

__all__ = [
    "FeatureExtractor",
    "extract_features_matrix",
    "STATISTICAL_FEATURE_NAMES",
    "TOPOLOGICAL_FEATURE_NAMES",
    "BaseScaler",
    "IdentityScaler",
    "StandardScaler",
    "MinMaxScaler",
    "RobustScaler",
    "MaxAbsScaler",
    "NormalizerScaler",
    "QuantileScaler",
    "PowerScaler",
    "PCAScaler",
    "SCALER_REGISTRY",
    "available_scalers",
    "get_scaler",
    "scaler_search_space",
]
