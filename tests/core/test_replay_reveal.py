"""The offline replay reveals a trace the way the flush stream does.

At every prediction time ``t``, :func:`repro.core.online.replay_online` shows
its predictor ``trace.completed_before(t)``: the requests with ``end <= t``.
:func:`repro.trace.jsonl.trace_to_flushes` cuts a trace into flushes by the
same rule, so replaying a trace and streaming its flushes through
:func:`repro.core.online.predict_from_flushes` must publish the same steps:
window, period and confidence compared as ``float.hex``.  The rule decides
three cases: a zero-duration request (``start == end``) at the trace's first
instant, one at a flush time, and a request ending exactly at a flush time.
``REPRO_SOAK=1`` runs the property at 50x (the nightly CI job).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core import FtioConfig
from repro.core.online import predict_from_flushes, replay_online
from repro.trace.jsonl import trace_to_flushes
from repro.trace.record import IOKind, IORequest
from repro.trace.trace import Trace
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace

CONFIG = FtioConfig(sampling_frequency=10.0)
FAST = FtioConfig(
    sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
)


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def published(steps) -> list[tuple]:
    return [
        (s.index, _hex(s.time), tuple(map(_hex, s.window)), _hex(s.period), _hex(s.confidence))
        for s in steps
    ]


def assert_replay_is_the_stream(trace: Trace, times, config: FtioConfig, **kw) -> list:
    replayed = replay_online(trace, times, config=config, **kw)
    streamed = predict_from_flushes(trace_to_flushes(trace, times), config=config, **kw)
    assert published(replayed) == published(streamed)
    return replayed


def with_requests(trace: Trace, *extra: IORequest) -> Trace:
    return Trace.from_requests([*extra, *trace.requests()], metadata=trace.metadata)


@pytest.fixture(scope="module")
def hacc():
    return hacc_io_trace(ranks=4, loops=8, seed=3)


class TestRevealedLikeTheFlushes:
    def test_an_instantaneous_write_before_the_first_request(self, hacc):
        times = hacc_flush_times(hacc)
        t0 = hacc.t_start - 1.0
        trace = with_requests(hacc, IORequest(rank=0, start=t0, end=t0, nbytes=10**6))
        steps = assert_replay_is_the_stream(trace, times, CONFIG)
        assert len(steps) == len(times) == 8
        # The write is flushed at the first flush time: the first window starts at it.
        assert steps[0].window[0] == t0
        assert any(step.period is not None for step in steps)

    def test_requests_ending_exactly_at_a_flush_time(self, hacc):
        times = hacc_flush_times(hacc)
        t = times[3]
        trace = with_requests(
            hacc,
            IORequest(rank=1, start=t - 0.5, end=t, nbytes=10**7),
            IORequest(rank=2, start=t, end=t, nbytes=10**6),  # zero duration at t
        )
        # Both are visible at t; a window [t_start, t) drops the instantaneous one.
        visible = trace.completed_before(t)
        assert len(trace.window(trace.t_start, t).completed_before(t)) == len(visible) - 1
        assert_replay_is_the_stream(trace, times, CONFIG)

    def test_a_fixed_window_too(self, hacc):
        times = hacc_flush_times(hacc)
        t0 = hacc.t_start - 1.0
        trace = with_requests(hacc, IORequest(rank=0, start=t0, end=t0, nbytes=10**6))
        assert_replay_is_the_stream(trace, times, FAST, adaptive_window=False)


# --------------------------------------------------------------------- #
# the property: random traces with the cases the rule decides
# --------------------------------------------------------------------- #
# A quarter-second grid makes tied starts and ends common; zero durations
# are drawn often, and flush stamps are drawn from the request ends.
_instants = st.integers(0, 160).map(lambda q: q / 4.0)
_durations = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5, 3.75])


@st.composite
def _replays(draw) -> tuple[Trace, list[float], bool]:
    requests = draw(
        st.lists(
            st.tuples(
                _instants,
                _durations,
                st.integers(0, 10**9),
                st.integers(0, 3),
                st.sampled_from([IOKind.WRITE, IOKind.WRITE, IOKind.WRITE, IOKind.READ]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    trace = Trace.from_requests(
        IORequest(rank=rank, start=start, end=start + duration, nbytes=nbytes, kind=kind)
        for start, duration, nbytes, rank, kind in requests
    )
    ends = sorted({float(end) for end in trace.ends})
    times = draw(
        st.lists(st.one_of(st.sampled_from(ends), _instants), min_size=1, max_size=8)
    )
    return trace, times, draw(st.booleans())


PROPERTY_EXAMPLES = 60


class TestReplayIsTheStream:
    @given(case=_replays())
    @settings(
        max_examples=PROPERTY_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_step(self, case):
        trace, times, adaptive = case
        assert_replay_is_the_stream(trace, times, FAST, adaptive_window=adaptive)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @given(case=_replays())
    @settings(
        max_examples=50 * PROPERTY_EXAMPLES,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_step_soak(self, case):
        trace, times, adaptive = case
        assert_replay_is_the_stream(trace, times, FAST, adaptive_window=adaptive)
