"""Unit tests for the discretization / sampling layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from repro.exceptions import (
    AnalysisError,
    ConfigurationError,
    EmptyTraceError,
    InsufficientSamplesError,
)
from repro.trace.bandwidth import BandwidthSignal, bandwidth_signal
from repro.trace.record import IOKind, IORequest
from repro.trace.sampling import (
    DiscreteSignal,
    _sample_grid,
    discretize_signal,
    discretize_trace,
    recommend_sampling_frequency,
)
from repro.trace.trace import Trace
from repro.workloads.miniio import miniio_trace


def square_trace(n_bursts: int = 5, period: float = 10.0, burst: float = 2.0) -> Trace:
    requests = [
        IORequest(rank=0, start=i * period, end=i * period + burst, nbytes=int(1e9))
        for i in range(n_bursts)
    ]
    return Trace.from_requests(requests)


class TestDiscretize:
    def test_sample_count_matches_duration(self):
        signal = bandwidth_signal(square_trace())
        discrete = discretize_signal(signal, 1.0)
        # 42 s at >= 1 Hz: the next 5-smooth length is 45, sampled at 45 / 42 Hz.
        assert signal.duration == 42.0
        assert discrete.n_samples == 45
        assert discrete.sampling_frequency == 45 / 42
        assert discrete.duration == pytest.approx(signal.duration, rel=1e-15)

    def test_bin_mode_conserves_volume(self):
        trace = square_trace()
        discrete = discretize_trace(trace, 0.5, mode="bin")
        assert discrete.volume() == pytest.approx(trace.volume, rel=1e-6)
        assert discrete.abstraction_error == pytest.approx(0.0, abs=1e-9)

    def test_point_mode_well_sampled_has_small_error(self):
        trace = square_trace()
        discrete = discretize_trace(trace, 50.0, mode="point")
        assert discrete.abstraction_error < 0.1

    def test_point_mode_undersampled_has_large_error(self):
        # miniIO-style sub-10-ms bursts sampled at 100 Hz: aliasing (Figure 6).
        trace = miniio_trace(ranks=4, bursts=20, seed=1)
        coarse = discretize_trace(trace, 100.0, mode="point")
        fine = discretize_trace(trace, 2000.0, mode="point")
        assert coarse.abstraction_error > 0.5
        assert fine.abstraction_error < 0.3
        assert coarse.abstraction_error > fine.abstraction_error

    def test_window_restriction(self):
        trace = square_trace(n_bursts=10)
        full = discretize_trace(trace, 1.0)
        windowed = discretize_trace(trace, 1.0, window=(0.0, 30.0))
        assert windowed.n_samples < full.n_samples
        assert windowed.duration <= 31.0

    def test_too_few_samples_rejected(self):
        signal = bandwidth_signal(square_trace(n_bursts=1, period=1.0, burst=0.5))
        with pytest.raises(InsufficientSamplesError):
            discretize_signal(signal, 0.1)

    def test_invalid_sampling_frequency(self):
        signal = bandwidth_signal(square_trace())
        with pytest.raises(ConfigurationError):
            discretize_signal(signal, 0.0)

    @pytest.mark.parametrize("fs", [float("inf"), 1e12])
    def test_unbounded_sample_count_is_a_typed_error(self, fs):
        # Was an OverflowError and a 43.7 TiB MemoryError, neither a ReproError.
        with pytest.raises(AnalysisError, match="samples"):
            discretize_trace(square_trace(), fs)

    def test_nan_boundary_is_a_typed_error(self):
        # A NaN end sorts last, so the window length is NaN: refused before
        # any grid is cut (the grid sampler never sees a NaN boundary).
        trace = Trace.from_requests(
            [
                IORequest(rank=0, start=0.0, end=5.0, nbytes=10),
                IORequest(rank=1, start=1.0, end=float("nan"), nbytes=10),
            ]
        )
        with pytest.raises(AnalysisError):
            discretize_trace(trace, 1.0)


class TestDiscreteSignal:
    def test_times_and_resolution(self):
        signal = DiscreteSignal(samples=np.ones(10), sampling_frequency=2.0, t_start=5.0)
        assert signal.duration == pytest.approx(5.0)
        assert signal.frequency_resolution == pytest.approx(0.2)
        assert signal.times[0] == pytest.approx(5.0)
        assert signal.times[-1] == pytest.approx(9.5)

    def test_volume(self):
        signal = DiscreteSignal(samples=np.full(4, 10.0), sampling_frequency=2.0)
        assert signal.volume() == pytest.approx(20.0)

    def test_window(self):
        signal = DiscreteSignal(samples=np.arange(10, dtype=float), sampling_frequency=1.0)
        sub = signal.window(3.0, 7.0)
        assert sub.n_samples == 4
        assert sub.samples[0] == pytest.approx(3.0)
        assert sub.t_start == pytest.approx(3.0)

    def test_window_invalid(self):
        signal = DiscreteSignal(samples=np.arange(10, dtype=float), sampling_frequency=1.0)
        with pytest.raises(ValueError):
            signal.window(5.0, 5.0)


class TestRecommendSamplingFrequency:
    def test_recommends_nyquist_of_shortest_request(self):
        trace = Trace.from_requests(
            [
                IORequest(rank=0, start=0.0, end=0.5, nbytes=100),
                IORequest(rank=0, start=1.0, end=1.1, nbytes=100),
            ]
        )
        fs = recommend_sampling_frequency(trace)
        assert fs == pytest.approx(2.0 / 0.1, rel=1e-6)

    def test_empty_trace_returns_zero(self):
        assert recommend_sampling_frequency(Trace.empty()) == 0.0


# --------------------------------------------------------------------- #
# the one-pass discretize_trace against the composed public route, and
# both against a frozen copy of the implementation they replaced
# --------------------------------------------------------------------- #
def _frozen_bandwidth_signal(trace: Trace, kind: str | None):
    """``bandwidth_signal`` as it was before the array-level helpers (PR 20), verbatim."""
    work = trace if kind is None else trace.filter_kind(kind)
    if work.is_empty:
        raise EmptyTraceError("cannot build a bandwidth signal from an empty trace")
    starts = work.starts.astype(np.float64)
    ends = work.ends.astype(np.float64)
    nbytes = work.nbytes.astype(np.float64)
    durations = np.maximum(ends - starts, 1e-9)
    ends = starts + durations
    rates = nbytes / durations
    boundaries = np.concatenate([starts, ends])
    deltas = np.concatenate([rates, -rates])
    order = np.argsort(boundaries, kind="stable")
    boundaries = boundaries[order]
    deltas = deltas[order]
    unique_times, inverse = np.unique(boundaries, return_inverse=True)
    delta_per_time = np.zeros(len(unique_times))
    np.add.at(delta_per_time, inverse, deltas)
    active = np.cumsum(delta_per_time)[:-1]
    active = np.where(np.abs(active) < 1e-6, 0.0, active)
    active = np.maximum(active, 0.0)
    return unique_times, active


def _frozen_at(times, values, t):
    idx = np.searchsorted(times, t, side="right") - 1
    inside = (idx >= 0) & (idx < len(values)) & (t < times[-1])
    out = np.zeros_like(t)
    out[inside] = values[idx[inside]]
    return out


def _frozen_restricted(times, values, t0, t1):
    """``BandwidthSignal.restricted`` of PR 20, constructor check included."""
    if t1 <= t0:
        raise ValueError("window end must be > start")
    t0 = max(t0, float(times[0]))
    t1 = min(t1, float(times[-1]))
    if t1 <= t0 or len(values) == 0:
        clipped = np.array([t0, max(t1, t0 + 1e-9)])
        if np.any(np.diff(clipped) <= 0):
            raise ValueError("segment boundaries must be strictly increasing")
        return clipped, np.array([0.0])
    inner = times[(times > t0) & (times < t1)]
    clipped = np.concatenate([[t0], inner, [t1]])
    return clipped, _frozen_at(times, values, 0.5 * (clipped[:-1] + clipped[1:]))


def _frozen_discretize(trace: Trace, fs: float, kind, mode, window):
    """``discretize_signal(bandwidth_signal(...))`` of PR 20, on bare arrays.

    Returns ``(samples, t_start, abstraction_error)``.
    """
    times, values = _frozen_bandwidth_signal(trace, kind)
    if not fs > 0:
        raise ConfigurationError("sampling_frequency must be > 0")
    if window is not None:
        times, values = _frozen_restricted(times, values, *window)
    t0, t1 = float(times[0]), float(times[-1])
    if (t1 - t0) * fs < 1:
        raise InsufficientSamplesError("too few samples")
    # The grid of this PR (the only three lines that are not PR 20's): N is the
    # next 5-smooth length, fs the effective rate N / Δt, and from here on the
    # frozen code reads that rate wherever it read the requested one.
    n = next_fast_len(max(math.ceil((t1 - t0) * fs), 2), real=True)
    fs = n / (t1 - t0)
    edges = t0 + np.arange(n + 1) / fs
    cum = np.concatenate([[0.0], np.cumsum(values * np.diff(times))])
    true_bin_volumes = np.diff(np.interp(np.clip(edges, t0, t1), times, cum))
    if mode == "point":
        samples = _frozen_at(times, values, t0 + np.arange(n) / fs)
    else:
        samples = true_bin_volumes * fs
    true_volume = float(true_bin_volumes.sum())
    error = 0.0
    if true_volume > 0:
        error = float(np.abs(samples / fs - true_bin_volumes).sum() / true_volume)
    return samples, t0, error


def _outcome(fn):
    """What ``fn`` returned, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the thing compared
        return type(exc)


# Timestamps on a quarter-second grid collide (duplicate boundaries, requests
# ending where the next starts), neighbouring floats make segments one ulp
# wide (whose midpoint rounds onto a boundary), free floats fill in the rest.
_instants = st.one_of(
    st.integers(0, 80).map(lambda q: q / 4.0),
    st.integers(0, 6).map(lambda k: 2.0 + k * 2.0**-51),
    st.floats(0.0, 20.0, allow_nan=False, width=64),
)
_durations = st.one_of(
    st.sampled_from([0.0, 1e-10, 0.25, 0.5, 1.0, 2.5]),
    st.floats(0.0, 6.0, allow_nan=False, width=64),
)
_requests = st.lists(
    st.tuples(
        _instants,
        _durations,
        st.integers(0, 10**9),
        st.integers(0, 3),
        st.sampled_from([IOKind.WRITE, IOKind.WRITE, IOKind.WRITE, IOKind.READ]),
    ),
    min_size=1,
    max_size=14,
)
_windows = st.one_of(
    st.none(),
    # inside / overlapping / wholly before / wholly after the data / inverted
    st.tuples(st.floats(-30.0, 60.0, allow_nan=False), st.floats(-30.0, 60.0, allow_nan=False)),
    st.tuples(st.integers(-8, 100), st.integers(1, 60)).map(
        lambda w: (w[0] / 4.0, (w[0] + w[1]) / 4.0)
    ),
)


def _trace_of(rows) -> Trace:
    return Trace.from_requests(
        IORequest(rank=rank, start=start, end=start + duration, nbytes=nbytes, kind=kind)
        for start, duration, nbytes, rank, kind in rows
    )


class TestOnePassEqualsComposedRoute:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=_requests,
        kind=st.sampled_from(["write", "read", None]),
        mode=st.sampled_from(["point", "bin"]),
        window=_windows,
        fs=st.sampled_from([0.5, 1.0, 3.0, 10.0, 37.5, 200.0]),
    )
    def test_bit_identical(self, rows, kind, mode, window, fs):
        trace = _trace_of(rows)

        def unpack(signal):
            return signal.samples, signal.t_start, signal.abstraction_error

        one_pass = _outcome(
            lambda: unpack(discretize_trace(trace, fs, kind=kind, mode=mode, window=window))
        )
        composed = _outcome(
            lambda: unpack(
                discretize_signal(bandwidth_signal(trace, kind=kind), fs, mode=mode, window=window)
            )
        )
        frozen = _outcome(lambda: _frozen_discretize(trace, fs, kind, mode, window))

        if isinstance(one_pass, type):
            assert composed is one_pass
            assert frozen is one_pass
            return
        # The frozen oracle samples point by point (``_frozen_at``), which is
        # what holds the grid-inverted sampler to ``==``.
        for other in (composed, frozen):
            assert not isinstance(other, type), other
            assert np.array_equal(one_pass[0], other[0])
            assert one_pass[1] == other[1]
            assert one_pass[2] == other[2]

    @settings(max_examples=300, deadline=None)
    @given(
        boundaries=st.lists(_instants, min_size=2, max_size=12, unique=True).map(sorted),
        levels=st.lists(
            st.one_of(st.floats(0.0, 1e9), st.just(float("nan"))), min_size=11, max_size=11
        ),
        anchor=st.one_of(_instants, st.floats(-5.0, 25.0, allow_nan=False)),
        count=st.integers(0, 60),
        rate=st.sampled_from([0.5, 1.0, 3.0, 4.0, 37.5, 2.0**51]),
    )
    def test_grid_sampler_equals_per_sample_lookup(self, boundaries, levels, anchor, count, rate):
        # Any sorted grid, wherever it lies against the signal: starting
        # before, on or after it, samples landing exactly on boundaries
        # (quarter-second instants at 4 Hz), many in one segment, one-ulp
        # segments with grid points an ulp apart (rate 2**51), NaN levels.
        times = np.array(boundaries)
        values = np.array(levels[: len(times) - 1])
        grid = anchor + np.arange(count) / rate
        expected = BandwidthSignal(times=times, values=values).at(grid)
        assert np.array_equal(_sample_grid(times, values, grid), expected, equal_nan=True)
        assert np.array_equal(
            _sample_grid(times, values, grid), _frozen_at(times, values, grid), equal_nan=True
        )

    @settings(max_examples=300, deadline=None)
    @given(rows=_requests, kind=st.sampled_from(["write", "read", None]), window=_windows)
    def test_bandwidth_signal_and_its_restriction_unchanged(self, rows, kind, window):
        trace = _trace_of(rows)
        expected = _outcome(lambda: _frozen_bandwidth_signal(trace, kind))
        if isinstance(expected, type):
            with pytest.raises(expected):
                bandwidth_signal(trace, kind=kind)
            return
        signal = bandwidth_signal(trace, kind=kind)
        assert np.array_equal(signal.times, expected[0])
        assert np.array_equal(signal.values, expected[1])
        if window is None:
            return
        clipped = _outcome(lambda: _frozen_restricted(*expected, *window))
        if isinstance(clipped, type):
            with pytest.raises(clipped):
                signal.restricted(*window)
            return
        restricted = signal.restricted(*window)
        assert np.array_equal(restricted.times, clipped[0])
        assert np.array_equal(restricted.values, clipped[1])

    def test_one_ulp_segment_takes_the_value_at_its_midpoint(self):
        # The midpoint of [a, b) with b the float after a rounds onto a or b;
        # when it is b the clipped segment reads its right-hand neighbour.
        # Odd as that is, it is what every published window was cut with.
        a = 2.0 + 2.0**-51
        b = 2.0 + 2.0**-50
        assert 0.5 * (a + b) == b
        trace = Trace.from_requests(
            [
                IORequest(rank=0, start=1.0, end=a, nbytes=1000),
                IORequest(rank=1, start=b, end=3.0, nbytes=3000),
            ]
        )
        signal = bandwidth_signal(trace)
        assert signal.values.tolist()[1] == 0.0  # the gap between the two requests
        restricted = signal.restricted(0.0, 10.0)
        expected = _frozen_restricted(signal.times, signal.values, 0.0, 10.0)
        assert np.array_equal(restricted.values, expected[1])
        assert restricted.values[1] == signal.values[2]

    def test_many_requests_on_one_timestamp_add_up_in_order(self):
        # Groups of >= 8 equal timestamps are where a pairwise sum and the
        # one-by-one accumulation of np.add.at part ways.
        rng = np.random.default_rng(7)
        requests = [
            IORequest(rank=r, start=float(b), end=float(b) + 1.0, nbytes=int(rng.integers(1, 10**9)))
            for b in range(4)
            for r in range(23)
        ]
        trace = Trace.from_requests(requests)
        times, values = _frozen_bandwidth_signal(trace, "write")
        signal = bandwidth_signal(trace)
        assert np.array_equal(signal.times, times)
        assert np.array_equal(signal.values, values)

    def test_nan_timestamps_collapse_into_one_boundary(self):
        # Nothing rejects a NaN timestamp on the way in; np.unique counted all
        # of them as one trailing boundary and so does the neighbour compare.
        nan = float("nan")
        trace = Trace.from_requests(
            [
                IORequest(rank=0, start=0.0, end=1.0, nbytes=10),
                IORequest(rank=1, start=0.5, end=nan, nbytes=10),
                IORequest(rank=2, start=nan, end=nan, nbytes=10),
            ]
        )
        times, values = _frozen_bandwidth_signal(trace, "write")
        signal = bandwidth_signal(trace)
        assert np.array_equal(signal.times, times, equal_nan=True)
        assert np.array_equal(signal.values, values, equal_nan=True)
        assert np.isnan(signal.times).sum() == 1

    def test_window_too_far_out_for_the_placeholder_width(self):
        # At t ~ 1e9 the 1e-9 s placeholder segment of an empty window has no
        # width.  The restriction still refuses to build it (ValueError), and
        # so did every discretization before an empty window was "no
        # samples" whatever its magnitude; this is where the frozen oracle,
        # which cuts through the placeholder, parts from both routes.
        trace = Trace.from_requests(
            [IORequest(rank=0, start=1e9, end=1e9 + 5.0, nbytes=10)]
        )
        window = (1e9 + 10.0, 1e9 + 20.0)
        with pytest.raises(InsufficientSamplesError):
            discretize_trace(trace, 1.0, window=window)
        with pytest.raises(InsufficientSamplesError):
            discretize_signal(bandwidth_signal(trace), 1.0, window=window)
        with pytest.raises(ValueError):
            bandwidth_signal(trace).restricted(*window)
        with pytest.raises(ValueError):
            _frozen_discretize(trace, 1.0, "write", "point", window)
        # Near t = 10 s the same empty window was already "no samples".
        near = trace.shifted(10.0 - 1e9)
        with pytest.raises(InsufficientSamplesError):
            discretize_trace(near, 1.0, window=(20.0, 30.0))


# --------------------------------------------------------------------- #
# the definition of the sample grid: fs gives (upward), Δt does not
# --------------------------------------------------------------------- #
def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestSampleGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        fs=st.floats(0.5, 200.0, allow_nan=False),
        mode=st.sampled_from(["point", "bin"]),
    )
    def test_length_is_fast_rate_is_at_least_fs_and_the_window_is_exact(self, data, fs, mode):
        rows = data.draw(_requests)
        window = data.draw(_windows)
        trace = _trace_of(rows)
        signal = bandwidth_signal(trace, kind=None)
        try:
            clipped = signal if window is None else signal.restricted(*window)
            discrete = discretize_trace(trace, fs, kind=None, mode=mode, window=window)
        except (ValueError, InsufficientSamplesError):
            assume(False)
        t0, dt = clipped.t_start, clipped.t_end - clipped.t_start
        wanted = dt * fs
        n, rate = discrete.n_samples, discrete.sampling_frequency

        assert _is_5_smooth(n)
        assert n >= math.ceil(wanted)
        assert discrete.t_start == t0
        # fs is the minimum; the excess is one 5-smooth gap plus one sample.
        assert rate >= fs * (1 - 1e-15)
        assert rate <= 2.0 * fs * (1 + 1e-15)
        if wanted >= 3:
            assert rate <= 1.34 * fs
        if wanted >= 256:
            assert rate <= 1.12 * fs
        # N / fs′ is the window itself, so bin k sits at k / Δt.
        assert abs(discrete.duration - dt) <= 2 * math.ulp(dt)
        assert discrete.frequency_resolution == pytest.approx(1.0 / dt, rel=1e-15)
        assert np.array_equal(discrete.times, t0 + np.arange(n) / rate)
        if mode == "bin":
            # Conserved up to the rounding of the instants themselves: an
            # instantaneous request is a 1e-9 s segment at up to 1e18 B/s.
            slack = 4 * len(clipped.values) * clipped.max_bandwidth() * math.ulp(clipped.t_end)
            assert discrete.volume() == pytest.approx(clipped.volume(), rel=1e-9, abs=slack)
            assert discrete.abstraction_error == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.floats(1.0, 500.0, allow_nan=False),
        shift=st.floats(0.0, 1e4, allow_nan=False),
        fs=st.sampled_from([1.0, 10.0, 37.5]),
    )
    def test_windows_of_equal_length_get_equal_n(self, dt, shift, fs):
        def cut(t0):
            signal = BandwidthSignal(times=np.array([t0, t0 + dt]), values=np.array([1.0]))
            return discretize_signal(signal, fs)

        # Shifting the window may move its float length by an ulp; when it
        # does not, N and the rate are functions of the length alone.
        assume((shift + dt) - shift == dt)
        first, second = cut(0.0), cut(shift)
        assert first.n_samples == second.n_samples
        assert first.sampling_frequency == second.sampling_frequency

    def test_worst_case_excess_rates(self):
        # The cases the module docstring quotes: one sample over a 5-smooth
        # length pays the whole gap to the next one.
        for wanted, n in [(20_737, 21_600), (2_701, 2_880), (325, 360), (21, 24)]:
            signal = BandwidthSignal(times=np.array([0.0, float(wanted)]), values=np.array([1.0]))
            discrete = discretize_signal(signal, 1.0)
            assert discrete.n_samples == n
            assert discrete.sampling_frequency == n / wanted
