"""Edge network distance estimation from multi-origin traceroute data."""

from .model import (
    PairEstimate,
    RejectKind,
    RejectReason,
    TraceError,
    TracePath,
)
from .transit import (
    EstimateOptions,
    PairOutcome,
    PreparedTrace,
    batch_estimate,
    estimate_pair,
    min_over_origins,
)
from .stats import EdgeDistribution, build_distribution
from .handover import LossModel, PersistenceTable

__version__ = "0.1.0"
