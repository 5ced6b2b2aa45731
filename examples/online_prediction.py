#!/usr/bin/env python3
"""Online period prediction during a (simulated) HACC-IO execution.

The example reproduces the Figure 15 workflow of the paper end to end:

1. a HACC-IO-like application runs its compute/write/read loop; a simulated
   TMIO tracer records every request and *flushes* the data to a JSON Lines
   file at the end of every loop iteration (the single added line of code the
   paper describes);
2. after every flush, FTIO re-analyses the file and predicts the period of the
   upcoming I/O phases, shrinking its analysis window once the prediction has
   stabilized;
3. the consecutive predictions are merged into frequency intervals with
   probabilities.

Run with::

    python examples/online_prediction.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import FtioConfig
from repro.core.online import merged_intervals, predict_from_file
from repro.tracer import TmioTracer, TracerMode
from repro.workloads import hacc_flush_times, hacc_io_trace


def main() -> None:
    # --- 1. simulated application run with online tracing ----------------- #
    trace = hacc_io_trace(ranks=64, loops=10, period=8.0, first_phase_delay=6.0, seed=7)
    flush_times = hacc_flush_times(trace)
    print(f"HACC-IO-like run: {len(trace)} requests over {trace.duration:.1f} s, "
          f"{len(flush_times)} loop iterations")
    print(f"Ground-truth mean period: {trace.ground_truth.average_period():.2f} s "
          "(first phase delayed by initialization)\n")

    trace_file = Path(tempfile.mkdtemp()) / "hacc_io.jsonl"
    tracer = TmioTracer(mode=TracerMode.ONLINE, path=trace_file, metadata={"app": "hacc-io"})

    pending = sorted(trace.requests(), key=lambda r: r.end)
    cursor = 0
    for flush_time in flush_times:
        while cursor < len(pending) and pending[cursor].end <= flush_time:
            tracer.record(pending[cursor])
            cursor += 1
        tracer.flush(timestamp=flush_time)
    print(f"Tracer wrote {tracer.statistics.flushes} flushes to {trace_file}\n")

    # --- 2. FTIO online prediction over the flush file -------------------- #
    config = FtioConfig(sampling_frequency=10.0, use_autocorrelation=False,
                        compute_characterization=False)
    steps = predict_from_file(trace_file, config=config)

    print("prediction  time [s]  window [s]        period [s]  confidence")
    for step in steps:
        period = f"{step.period:.2f}" if step.period is not None else "   -"
        print(
            f"{step.index:10d}  {step.time:8.1f}  [{step.window[0]:6.1f}, {step.window[1]:6.1f}]"
            f"  {period:>10}  {step.confidence:10.0%}"
        )

    # --- 3. merged frequency intervals ------------------------------------ #
    intervals = merged_intervals(steps)
    print("\nMerged frequency intervals (probability = share of predictions):")
    for interval in intervals:
        low_p, high_p = interval.period_range
        print(
            f"  [{interval.low:.4f}, {interval.high:.4f}] Hz "
            f"(periods {low_p:.2f}-{high_p:.2f} s): probability {interval.probability:.0%}"
        )


if __name__ == "__main__":
    main()
