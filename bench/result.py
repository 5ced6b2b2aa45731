"""Result plumbing shared by every workload: metric summaries, the
environment record, and the result file."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import ROOT

#: Times the whole set-up is performed in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def summary(values, unit: str) -> dict:
    """A metric as reported: the median of ``values`` with quartiles and
    sample count beside it."""
    data = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(data, [25.0, 50.0, 75.0])
    return {
        "value": float(median), "unit": unit,
        "q1": float(q1), "q3": float(q3), "n": int(data.size),
    }


def scalar(value: float, unit: str) -> dict:
    """A metric that is one measurement, not a distribution."""
    return {"value": float(value), "unit": unit}


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, dict]
    attempted: int
    failed: int
    correct: bool
    #: Free-form detail for the result file (phase sizes, counters, notes).
    detail: dict = field(default_factory=dict)
    #: Metrics whose number should not be trusted this run (with the reason),
    #: e.g. a nominal phase whose generator was starved.
    unresolved: dict[str, str] = field(default_factory=dict)

    def contract_line(self) -> str:
        """The one JSON object the driver reads from the last stdout line."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in self.metrics.items()
            },
        })


def environment() -> dict:
    """Noise context recorded with every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            # Never look for a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def write_result(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

