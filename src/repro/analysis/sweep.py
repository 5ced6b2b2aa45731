"""Parameter sweeps of the limitation study (Figures 8 and 9).

Three sweeps are defined, one per panel of Figure 8 (the third also produces
Figure 9):

* :func:`phase_ratio_sweep` — the time between I/O phases relative to their
  length, with and without background noise (Figure 8a);
* :func:`desync_sweep` — the mean per-process delay ϕ added to the I/O phases
  (Figure 8b);
* :func:`variability_sweep` — the variability σ/µ of the compute time between
  I/O phases (Figures 8c and 9).

Each sweep point generates ``traces_per_point`` semi-synthetic traces, runs
FTIO on every one of them, and reports box-plot statistics of the detection
error and of the characterization metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.error import DetectionOutcome, evaluate_trace
from repro.core.config import FtioConfig
from repro.core.ftio import Ftio
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int
from repro.workloads.noise import NoiseLevel
from repro.workloads.synthetic import (
    PhaseLibrary,
    SemiSyntheticGenerator,
    SyntheticAppConfig,
)


@dataclass(frozen=True)
class BoxplotStats:
    """Summary statistics of one distribution (mirrors the paper's box plots)."""

    mean: float
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: list[float] | np.ndarray) -> "BoxplotStats":
        """Compute the statistics of ``values`` (which must be non-empty)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot summarize an empty distribution")
        return cls(
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            q1=float(np.percentile(arr, 25)),
            q3=float(np.percentile(arr, 75)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            count=int(arr.size),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis position of a sweep."""

    label: str
    value: float
    app_config: SyntheticAppConfig


@dataclass(frozen=True)
class SweepPointResult:
    """All outcomes collected for one sweep point."""

    point: SweepPoint
    outcomes: tuple[DetectionOutcome, ...]

    @property
    def errors(self) -> np.ndarray:
        """Detection errors of all traces at this point."""
        return np.array([o.error for o in self.outcomes])

    @property
    def confidences(self) -> np.ndarray:
        """DFT confidences of all traces at this point."""
        return np.array([o.confidence for o in self.outcomes])

    def error_stats(self) -> BoxplotStats:
        """Box-plot statistics of the detection error."""
        return BoxplotStats.from_values(self.errors)

    def metric_stats(self, name: str) -> BoxplotStats:
        """Box-plot statistics of a characterization metric (sigma_vol, sigma_time, ...)."""
        values = [getattr(o, name) for o in self.outcomes if getattr(o, name) is not None]
        if not values:
            return BoxplotStats(
                mean=float("nan"),
                median=float("nan"),
                q1=float("nan"),
                q3=float("nan"),
                minimum=float("nan"),
                maximum=float("nan"),
                count=0,
            )
        return BoxplotStats.from_values(values)


@dataclass
class LimitationStudy:
    """Runs the semi-synthetic sweeps of Section III-A.

    Parameters
    ----------
    library:
        Phase library shared by every generated trace (the paper reuses the
        same 99 traced IOR phases for all experiments).
    traces_per_point:
        Number of traces per parameter combination (paper: 100).
    sampling_frequency:
        fs used by FTIO in the study (paper: 1 Hz).
    """

    library: PhaseLibrary = field(default_factory=lambda: PhaseLibrary.generate(seed=0))
    traces_per_point: int = 20
    sampling_frequency: float = 1.0
    use_autocorrelation: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.traces_per_point, "traces_per_point")
        self._generator = SemiSyntheticGenerator(library=self.library)
        self._ftio = Ftio(
            FtioConfig(
                sampling_frequency=self.sampling_frequency,
                use_autocorrelation=self.use_autocorrelation,
            )
        )

    # ------------------------------------------------------------------ #
    def run_point(self, point: SweepPoint, *, seed: SeedLike = None) -> SweepPointResult:
        """Generate and evaluate all traces of one sweep point."""
        rng = as_generator(seed)
        outcomes = []
        for _ in range(self.traces_per_point):
            trace = self._generator.generate(point.app_config, seed=rng)
            outcomes.append(evaluate_trace(trace, ftio=self._ftio))
        return SweepPointResult(point=point, outcomes=tuple(outcomes))

    def run(self, points: list[SweepPoint], *, seed: SeedLike = 0) -> list[SweepPointResult]:
        """Run every sweep point with independent RNG streams.

        The per-point seeds are drawn from ``seed`` in point order, so a run
        is reproducible from ``seed`` alone.
        """
        rng = as_generator(seed)
        point_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in points]
        return [self.run_point(p, seed=s) for p, s in zip(points, point_seeds)]

    # ------------------------------------------------------------------ #
    # the three sweeps of the paper
    # ------------------------------------------------------------------ #
    def phase_ratio_points(
        self,
        ratios: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
        *,
        noise: NoiseLevel | str = NoiseLevel.NONE,
        iterations: int = 20,
    ) -> list[SweepPoint]:
        """Figure 8a: compute time as a multiple of the I/O phase duration."""
        io_duration = self.library.mean_duration()
        points = []
        for ratio in ratios:
            points.append(
                SweepPoint(
                    label=f"tcpu={ratio:g}x tio, noise={NoiseLevel(noise).value}",
                    value=ratio,
                    app_config=SyntheticAppConfig(
                        iterations=iterations,
                        compute_mean=ratio * io_duration,
                        compute_std=0.0,
                        desync_mean=0.0,
                        noise=noise,
                    ),
                )
            )
        return points

    def desync_points(
        self,
        phis: tuple[float, ...] = (0.0, 5.5, 11.0, 22.0, 44.0),
        *,
        compute_mean: float = 11.0,
        iterations: int = 20,
    ) -> list[SweepPoint]:
        """Figure 8b: mean per-process delay ϕ added to the I/O phases."""
        return [
            SweepPoint(
                label=f"phi={phi:g}s",
                value=phi,
                app_config=SyntheticAppConfig(
                    iterations=iterations,
                    compute_mean=compute_mean,
                    compute_std=0.0,
                    desync_mean=phi,
                    noise=NoiseLevel.NONE,
                ),
            )
            for phi in phis
        ]

    def variability_points(
        self,
        sigma_over_mu: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0),
        *,
        compute_mean: float = 11.0,
        iterations: int = 20,
    ) -> list[SweepPoint]:
        """Figures 8c and 9: variability σ/µ of the compute time."""
        return [
            SweepPoint(
                label=f"sigma/mu={ratio:g}",
                value=ratio,
                app_config=SyntheticAppConfig(
                    iterations=iterations,
                    compute_mean=compute_mean,
                    compute_std=ratio * compute_mean,
                    desync_mean=0.0,
                    noise=NoiseLevel.NONE,
                ),
            )
            for ratio in sigma_over_mu
        ]
