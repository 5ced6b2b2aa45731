"""A batch of one at the sizes offline analysis cuts, and rows a batch must not let raise.

The batch property of ``tests/trace/test_sampling_batch.py`` draws rows of at
most 40 requests; the offline suite discretizes thousands at a time, one
trace per call.  Each case below is one row, held ``==`` to
``_frozen_discretize`` of ``tests/trace/test_sampling.py``: samples bytes,
fs′ bits, ``t_start`` and abstraction error.

* HACC-IO replay prefixes shaped like the benchmark's replay (8 ranks,
  256 MiB requests): 2 k – 7 k requests, windowed to their last three periods;
* 192-request semi-synthetic traces (4 ranks x 4 requests x 12 iterations)
  at 10 and 100 Hz, whole.

A row :func:`discretize_windows` cannot cut — a rate that is not a number, a
window that is not a pair of numbers, an unknown kind — comes back as the
error ``discretize_trace`` raises for it alone, and every other row of the
batch is the row alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import MIB
from repro.exceptions import ConfigurationError
from repro.trace.sampling import DiscreteSignal, TraceWindow, discretize_trace, discretize_windows
from repro.trace.trace import Trace
from repro.workloads import PhaseLibrary, SemiSyntheticGenerator, SyntheticAppConfig
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace
from tests.trace.test_sampling import _frozen_bandwidth_signal, _frozen_discretize


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_frozen(trace: Trace, fs: float, window: tuple[float, float] | None) -> DiscreteSignal:
    """One row cut alone, held to the frozen composed route bit for bit."""
    got = discretize_trace(trace, fs, window=window)
    samples, t_start, error = _frozen_discretize(trace, fs, "write", "point", window)
    times, _ = _frozen_bandwidth_signal(trace, "write")
    t0, t1 = float(times[0]), float(times[-1])
    if window is not None:
        t0, t1 = max(window[0], t0), min(window[1], t1)
    assert got.samples.tobytes() == samples.tobytes()
    assert _bits(got.sampling_frequency) == _bits(len(samples) / (t1 - t0))
    assert _bits(got.t_start) == _bits(t_start)
    assert _bits(got.abstraction_error) == _bits(error)
    return got


@pytest.fixture(scope="module")
def replay_trace() -> Trace:
    return hacc_io_trace(ranks=8, loops=24, request_size=256 * MIB, seed=11)


@pytest.fixture(scope="module")
def semi_synthetic() -> list[Trace]:
    rng = np.random.default_rng(5)
    library = PhaseLibrary.generate(
        n_phases=8, ranks=4, volume_per_rank=1 << 30, request_size=1 << 28, seed=rng
    )
    generator = SemiSyntheticGenerator(library)
    return [
        generator.generate(
            SyntheticAppConfig(iterations=12, compute_mean=mean, compute_std=0.03 * mean),
            seed=rng,
        )
        for mean in (4.0, 7.5, 12.0)
    ]


class TestOfflineShapes:
    @pytest.mark.parametrize("step", [7, 14, 22])
    def test_a_replay_prefix_windowed_to_three_periods(self, replay_trace, step):
        times = hacc_flush_times(replay_trace)
        t = times[step]
        prefix = replay_trace.completed_before(t)
        assert 2_000 <= len(prefix) <= 7_000
        window = (t - 3 * (t - times[step - 1]), t)
        got = assert_frozen(prefix, 10.0, window)
        assert got.n_samples >= 30 * 3

    @pytest.mark.parametrize("fs", [10.0, 100.0])
    def test_a_192_request_trace_whole(self, semi_synthetic, fs):
        for trace in semi_synthetic:
            assert len(trace) == 192
            got = assert_frozen(trace, fs, None)
            assert got.sampling_frequency >= fs


def alone_of(row: TraceWindow) -> DiscreteSignal:
    return discretize_trace(
        row.trace, row.sampling_frequency, kind=row.kind, mode=row.mode, window=row.window
    )


class TestMalformedRows:
    @pytest.fixture(scope="class")
    def trace(self) -> Trace:
        return hacc_io_trace(ranks=2, loops=4, seed=1)

    def test_each_row_returns_its_own_error(self, trace):
        good = [
            TraceWindow(trace, 10.0),
            TraceWindow(trace, 10.0, window=(trace.t_start + 5.0, trace.t_end - 5.0)),
            TraceWindow(trace, 3.0, mode="bin", window=(trace.t_start, trace.t_end)),
        ]
        bad = [
            (TraceWindow(trace, "abc"), ValueError),
            (TraceWindow(trace, None), TypeError),  # type: ignore[arg-type]
            (TraceWindow(trace, -1.0), ConfigurationError),
            (TraceWindow(trace, 10.0, window=("a", "b")), ValueError),  # type: ignore[arg-type]
            (TraceWindow(trace, 10.0, window=(1.0,)), ValueError),  # type: ignore[arg-type]
            (TraceWindow(trace, 10.0, window=(None, 5.0)), TypeError),  # type: ignore[arg-type]
            (TraceWindow(trace, 10.0, window=(5.0, 1.0)), ValueError),
            (TraceWindow(trace, 10.0, kind="sideways"), ValueError),
            # A window too far out for the clip, and not a window either.
            (TraceWindow(trace.shifted(1e9), 10.0, window=(1.0,)), ValueError),  # type: ignore
        ]
        # Windowed and whole rows, good and bad, interleaved.
        rows = [good[0], bad[0][0], good[1], *[row for row, _ in bad[1:5]], good[2]]
        rows += [row for row, _ in bad[5:]]
        batch = discretize_windows(rows)
        by_row = dict(zip(map(id, rows), batch))

        for row, kind in bad:
            got = by_row[id(row)]
            assert type(got) is kind, (row, got)
            with pytest.raises(kind) as alone:
                alone_of(row)
            assert str(got) == str(alone.value)
        for row in good:
            got = by_row[id(row)]
            alone = alone_of(row)
            assert isinstance(got, DiscreteSignal)
            assert got.samples.tobytes() == alone.samples.tobytes()
            assert _bits(got.sampling_frequency) == _bits(alone.sampling_frequency)
            assert _bits(got.t_start) == _bits(alone.t_start)
            assert _bits(got.abstraction_error) == _bits(alone.abstraction_error)
