"""Evaluation harness: detection error, parameter sweeps, text reports."""

from repro.analysis.error import DetectionOutcome, detection_error, evaluate_trace
from repro.analysis.report import (
    format_boxplot,
    format_sweep,
    format_table,
    paper_comparison_table,
)
from repro.analysis.sweep import (
    BoxplotStats,
    LimitationStudy,
    SweepPoint,
    SweepPointResult,
)

__all__ = [
    "DetectionOutcome",
    "detection_error",
    "evaluate_trace",
    "format_boxplot",
    "format_sweep",
    "format_table",
    "paper_comparison_table",
    "BoxplotStats",
    "LimitationStudy",
    "SweepPoint",
    "SweepPointResult",
]
