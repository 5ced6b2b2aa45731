#!/usr/bin/env python3
"""Use case: feeding the Set-10 I/O scheduler with FTIO periods (Section IV).

The example simulates the Figure 17 workload — one high-frequency application
(19.2 s period) and fifteen low-frequency applications (384 s period) sharing
a parallel file system — under four configurations:

* Set-10 with clairvoyant (ideal) period knowledge,
* Set-10 with periods estimated at runtime by FTIO: every completed I/O phase
  is streamed into the prediction service, which publishes a live period,
* Set-10 with FTIO periods corrupted by ±50 %,
* the unmodified file system (fair sharing).

It prints the stretch, I/O slowdown and utilization of each configuration and
the relative improvements of the FTIO-fed scheduler over the baseline.

Run with::

    python examples/io_scheduling.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.scheduling import CONFIGURATIONS, SchedulingExperiment, summarize


def main() -> None:
    experiment = SchedulingExperiment()
    workload = experiment.workload
    print(
        f"Workload: {workload.n_high} high-frequency job(s) (period {workload.high_frequency_period} s) + "
        f"{workload.n_low} low-frequency jobs (period {workload.low_frequency_period} s), "
        f"I/O = {workload.io_fraction:.2%} of each period"
    )
    print("Running 5 repetitions of each configuration...\n")

    runs = experiment.run(repetitions=5, seed=2024)
    summary = summarize(runs)

    rows = [
        [
            configuration,
            f"{summary[configuration]['stretch']:.3f}",
            f"{summary[configuration]['io_slowdown']:.3f}",
            f"{summary[configuration]['utilization']:.3f}",
        ]
        for configuration in CONFIGURATIONS
    ]
    print(format_table(["configuration", "stretch", "I/O slowdown", "utilization"], rows))

    ftio = summary["set10-ftio"]
    original = summary["original"]
    print("\nSet-10 + FTIO compared to the unmodified file system (negative = reduction):")
    print(f"  stretch       {ftio['stretch'] / original['stretch'] - 1:+.0%} (paper: -20%)")
    print(f"  I/O slowdown  {ftio['io_slowdown'] / original['io_slowdown'] - 1:+.0%} (paper: -56%)")
    print(f"  utilization   {ftio['utilization'] / original['utilization'] - 1:+.0%} (paper: +26%)")


if __name__ == "__main__":
    main()
