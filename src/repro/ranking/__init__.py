"""Cascade ranking: the Sec. 4.2 example application."""

from .cascade import (
    CascadeSimulation,
    RankingStage,
    StageResult,
    fixed_model_stages,
    sliced_model_stages,
)

__all__ = [
    "CascadeSimulation",
    "RankingStage",
    "StageResult",
    "sliced_model_stages",
    "fixed_model_stages",
]
