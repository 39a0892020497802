"""Segment-budgeted subsequence matching and segmental LCS solvers."""

from .core import (
    Embedding,
    ResourceLimitError,
    Segmentation,
    as_text,
    check_budget,
    verify_embedding,
)
from .indseglcs import indseglcs, segmentation_score, side_config
from .lce import LcsufIndex
from .oracle import (
    OracleLimitError,
    episode_bruteforce,
    indseglcs_bruteforce,
    min_segments_bruteforce,
    slcs_bruteforce,
)
from .reduction import build_episode_reduction, check_reduction_equivalence
from .segmatch import min_segments, seg2_linear, sege
from .seglcs import (
    SolveStats,
    slcs_baseline,
    slcs_diagonal,
    slcs_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Embedding",
    "LcsufIndex",
    "OracleLimitError",
    "ResourceLimitError",
    "Segmentation",
    "SolveStats",
    "as_text",
    "build_episode_reduction",
    "check_budget",
    "check_reduction_equivalence",
    "episode_bruteforce",
    "indseglcs",
    "indseglcs_bruteforce",
    "min_segments",
    "min_segments_bruteforce",
    "seg2_linear",
    "sege",
    "segmentation_score",
    "side_config",
    "slcs_baseline",
    "slcs_bruteforce",
    "slcs_diagonal",
    "slcs_witness",
    "verify_embedding",
]
