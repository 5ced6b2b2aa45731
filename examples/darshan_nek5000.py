#!/usr/bin/env python3
"""Analysing a Darshan-style profile and choosing the analysis window (Figure 11).

The example rebuilds the Nek5000-like Darshan heatmap described in the paper
(regular ~7 GB checkpoints roughly every 4642 s plus irregular 30 GB and 75 GB
phases), stores it as a profile file, and shows how the FTIO verdict depends
on the analysis window: the full 86 000 s trace is aperiodic, while the
reduced 56 000 s window exposes the checkpoint period.

Run with::

    python examples/darshan_nek5000.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Ftio
from repro.trace import read_heatmap, write_heatmap
from repro.workloads import nek5000_heatmap, reduced_window


def describe(label: str, result) -> None:
    print(f"\n--- {label} ---")
    print(f"verdict:    {result.periodicity.value}")
    if result.is_periodic:
        print(f"period:     {result.period:.1f} s ({result.dominant_frequency * 1000:.3f} mHz)")
        print(f"confidence: {result.best_confidence:.1%}")
    print(f"samples:    {result.signal.n_samples} at fs = {result.signal.sampling_frequency:.4f} Hz")


def main() -> None:
    # Build the profile and round-trip it through the on-disk format, exactly
    # like consuming a downloaded profile from the I/O Trace Initiative.
    with tempfile.TemporaryDirectory() as directory:
        profile_path = Path(directory) / "nek5000_heatmap.json"
        write_heatmap(nek5000_heatmap(seed=0), profile_path)
        heatmap = read_heatmap(profile_path)
    print(f"Loaded Darshan-style heatmap: {heatmap.n_bins} bins of {heatmap.bin_width:.0f} s, "
          f"{heatmap.total_bytes() / 2**30:.0f} GiB written, "
          f"application = {heatmap.metadata['application']}")

    ftio = Ftio()  # the sampling frequency is taken from the heatmap bin width

    describe("full trace (delta_t = 86 000 s)", ftio.detect(heatmap))
    describe("reduced window (delta_t = 56 000 s)", ftio.detect(heatmap, window=reduced_window()))

    print(
        "\nAs in the paper, the irregular 30 GB phases late in the run break the "
        "periodicity of the full trace; restricting the window recovers the "
        "~4642 s checkpoint period with high confidence."
    )


if __name__ == "__main__":
    main()
