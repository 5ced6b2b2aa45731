"""FTIO core: detection pipeline, confidence, characterization, online prediction."""

from repro.core.characterization import (
    characterize,
    substantial_io_threshold,
    time_ratio_and_bandwidth,
)
from repro.core.config import FtioConfig
from repro.core.confidence import (
    candidate_confidence,
    confidence_index_sets,
    refined_confidence,
)
from repro.core.ftio import Ftio, detect
from repro.core.intervals import (
    FrequencyInterval,
    merge_predictions,
    most_probable_interval,
    resolution_eps,
)
from repro.core.online import (
    OnlinePredictor,
    PredictionStep,
    merged_intervals,
    predict_from_file,
    predict_from_flushes,
    replay_online,
)
from repro.core.result import (
    CharacterizationResult,
    FrequencyCandidate,
    FtioResult,
    Periodicity,
)

__all__ = [
    "characterize",
    "substantial_io_threshold",
    "time_ratio_and_bandwidth",
    "FtioConfig",
    "candidate_confidence",
    "confidence_index_sets",
    "refined_confidence",
    "Ftio",
    "detect",
    "FrequencyInterval",
    "merge_predictions",
    "most_probable_interval",
    "resolution_eps",
    "OnlinePredictor",
    "PredictionStep",
    "merged_intervals",
    "predict_from_file",
    "predict_from_flushes",
    "replay_online",
    "CharacterizationResult",
    "FrequencyCandidate",
    "FtioResult",
    "Periodicity",
]
