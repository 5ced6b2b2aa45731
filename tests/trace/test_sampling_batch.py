"""The pump-wide discretization, held row by row to the row alone and to the frozen oracle.

:func:`repro.trace.sampling.discretize_windows` runs the kind mask, the event
sweep and the window clip once over every row of a batch (rows NaN-padded
into one block) and samples each group of equal N in 2-D.  Every row must
come out ``==``:

(a) to the same row discretized alone (``discretize_trace``, a batch of
    one): samples bytes, fs′, ``t_start``, abstraction error and mode, or the
    same exception type and message;
(b) to ``_frozen_discretize`` of ``tests/trace/test_sampling.py``, a frozen
    copy of the composed route these helpers replaced, on the grid of this
    module: samples, ``t_start`` and abstraction error, or the same
    exception type.

The batches mix write / read / all kinds, point and bin mode and rates;
rows the kind filter empties; windows too short for one sample and rows of
more than ``_MAX_SAMPLES``; one-ulp segments, NaN timestamps and duplicate
timestamps; windows before, over and after the data; one-request rows; and
groups of one, two and many rows with equal and with distinct N′.
``test_the_required_cases_in_one_batch`` pins each case so no draw has to be
lucky.  ``REPRO_SOAK=1`` runs the property at 50x (the nightly CI job).
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError, EmptyTraceError, InsufficientSamplesError
from repro.trace.record import IOKind, IORequest
from repro.trace.sampling import (
    _MAX_SAMPLES,
    _chunks,
    DiscreteSignal,
    TraceWindow,
    discretize_trace,
    discretize_windows,
)
from repro.trace.trace import Trace
from tests.trace.test_sampling import _durations, _frozen_discretize, _instants, _trace_of

NAN = float("nan")


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _alone(row: TraceWindow) -> DiscreteSignal | Exception:
    try:
        return discretize_trace(
            row.trace, row.sampling_frequency, kind=row.kind, mode=row.mode, window=row.window
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the thing compared
        return exc


def _frozen(row: TraceWindow):
    try:
        trace, fs, kind, mode, window = row
        return _frozen_discretize(trace, fs, kind, mode, window)
    except Exception as exc:  # noqa: BLE001
        return exc


def hold_to_both_references(rows: list[TraceWindow]) -> list[DiscreteSignal | Exception]:
    batch = discretize_windows(rows)
    assert len(batch) == len(rows)
    for row, got in zip(rows, batch):
        alone = _alone(row)
        if isinstance(alone, Exception):
            assert type(got) is type(alone), (got, alone)
            assert str(got) == str(alone)
        else:
            assert isinstance(got, DiscreteSignal), got
            assert got.samples.tobytes() == alone.samples.tobytes()
            assert _bits(got.sampling_frequency) == _bits(alone.sampling_frequency)
            assert _bits(got.t_start) == _bits(alone.t_start)
            assert _bits(got.abstraction_error) == _bits(alone.abstraction_error)
            assert got.mode == alone.mode
        if type(alone) is AnalysisError and "samples" in str(alone):
            continue  # the frozen oracle has no size limit: it would cut the window
        frozen = _frozen(row)
        if "holds no part of the signal" in str(alone):
            # The named divergence: an empty window too far out for the 1 ns
            # placeholder is "no samples" now, the oracle's ValueError before.
            assert type(frozen) is ValueError, frozen
            continue
        if isinstance(alone, Exception):
            assert isinstance(frozen, Exception), frozen
            assert type(frozen) is type(alone), (frozen, alone)
        else:
            assert not isinstance(frozen, Exception), frozen
            assert np.array_equal(got.samples, frozen[0])
            assert got.t_start == frozen[1]
            assert _bits(got.abstraction_error) == _bits(frozen[2])
    return batch


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
_kinds = st.sampled_from([IOKind.WRITE, IOKind.WRITE, IOKind.WRITE, IOKind.READ])
_request = st.tuples(_instants, _durations, st.integers(0, 10**9), st.integers(0, 3), _kinds)
# Up to 24 requests: past 16 events numpy's default sort is no longer an
# insertion sort, so an unstable sort would reorder tied timestamps.
_requests = st.lists(_request, min_size=1, max_size=24)
# Many requests on a few instants, of durations whose rates are not
# integers: the order three or more tied deltas are added in shows.
_tied_requests = st.lists(
    st.tuples(
        st.integers(0, 8).map(lambda q: q / 4.0),
        st.sampled_from([0.1, 0.3, 0.7, 1.3]),
        st.integers(1, 10**9),
        st.integers(0, 3),
        _kinds,
    ),
    min_size=12,
    max_size=40,
)
_nan_requests = st.lists(
    st.tuples(
        st.one_of(_instants, st.just(NAN)),
        st.one_of(_durations, st.just(NAN)),
        st.integers(0, 10**9),
        st.integers(0, 3),
        _kinds,
    ),
    min_size=1,
    max_size=24,
)
# A handful of window lengths and rates, so windows of equal length — and
# rows of equal N — are common; free windows and None fill in the rest.
_windows = st.one_of(
    st.none(),
    st.tuples(st.integers(-40, 110), st.sampled_from([1, 8, 24, 40])).map(
        lambda w: (w[0] / 4.0, (w[0] + w[1]) / 4.0)
    ),
    st.tuples(st.floats(-30.0, 60.0, allow_nan=False), st.floats(-30.0, 60.0, allow_nan=False)),
)
_rates = st.sampled_from([0.5, 1.0, 3.0, 10.0, 37.5, 200.0])


@st.composite
def _row(draw) -> TraceWindow:
    requests = draw(st.one_of(_requests, _requests, _tied_requests, _nan_requests))
    return TraceWindow(
        trace=_trace_of(requests),
        sampling_frequency=draw(_rates),
        kind=draw(st.sampled_from(["write", "write", "read", None])),
        mode=draw(st.sampled_from(["point", "bin"])),
        window=draw(_windows),
    )


@st.composite
def _oversized_row(draw) -> TraceWindow:
    """A row of more than ``_MAX_SAMPLES`` samples: a quarter second at least, at 1 GHz."""
    starts = draw(st.lists(st.integers(0, 80), min_size=1, max_size=6))
    requests = [(q / 4.0, 0.25, 10, 0, IOKind.WRITE) for q in starts]
    return TraceWindow(_trace_of(requests), 1e9, "write", draw(st.sampled_from(["point", "bin"])))


_rows = st.lists(
    st.one_of(_row(), _row(), _row(), _row(), _oversized_row()), min_size=1, max_size=16
)


# --------------------------------------------------------------------- #
# the properties
# --------------------------------------------------------------------- #
PROPERTY_EXAMPLES = 200


class TestEveryRowEqualsTheRowAlone:
    @given(rows=_rows)
    @settings(
        max_examples=PROPERTY_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_every_row(self, rows):
        hold_to_both_references(rows)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @given(rows=_rows)
    @settings(
        max_examples=50 * PROPERTY_EXAMPLES,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_every_row_soak(self, rows):
        hold_to_both_references(rows)

    def test_the_required_cases_in_one_batch(self):
        """One batch in which every case the property must reach is checked to be reached."""

        def trace(*requests) -> Trace:
            return Trace.from_requests(
                IORequest(rank=r, start=s, end=e, nbytes=b, kind=k)
                for r, (s, e, b, k) in enumerate(requests)
            )

        w, rd = IOKind.WRITE, IOKind.READ
        rng = np.random.default_rng(5)
        # 30 requests on each of four instants: ties the sort must keep in order.
        ties = trace(
            *[
                (float(b), float(b) + 0.3, int(rng.integers(1, 10**9)), w)
                for b in range(4)
                for _ in range(30)
            ]
        )
        bursts = trace(*[(4.0 * i, 4.0 * i + 0.5, 10**6 + i, w) for i in range(6)])
        mixed = trace(
            (0.0, 2.0, 100, w), (1.0, 3.0, 300, rd), (5.0, 6.0, 50, rd), (7.0, 9.5, 80, w)
        )
        a = 2.0 + 2.0**-51
        ulp = trace((1.0, a, 1000, w), (2.0 + 2.0**-50, 3.0, 3000, w), (0.0, 8.0, 7, w))
        with_nan = trace(
            (0.0, 1.0, 10, w), (0.5, NAN, 10, w), (NAN, NAN, 10, w), (2.0, 6.0, 10, w)
        )
        one = trace((3.0, 7.5, 12345, w))
        rows = [
            TraceWindow(ties, 10.0, "write", "point", (0.5, 3.5)),
            TraceWindow(ties, 10.0, "write", "bin", (0.25, 3.25)),  # same N as the row above
            TraceWindow(bursts, 10.0, "write", "point", (1.0, 4.0)),  # same N again
            TraceWindow(bursts, 37.5, None, "point", None),
            TraceWindow(mixed, 3.0, "read", "bin", None),
            TraceWindow(mixed, 3.0, "write", "point", (0.5, 8.0)),
            TraceWindow(mixed, 3.0, None, "point", (-5.0, 20.0)),
            TraceWindow(trace((0.0, 1.0, 5, rd)), 1.0, "write", "point", None),  # emptied by kind
            TraceWindow(bursts, 0.5, "write", "point", (4.0, 4.5)),  # too short
            TraceWindow(bursts, 1e9, "write", "point", None),  # too many samples
            TraceWindow(ulp, 200.0, "write", "point", (0.0, 10.0)),
            TraceWindow(ulp, 200.0, "write", "bin", None),
            TraceWindow(with_nan, 10.0, "write", "point", (0.0, 5.0)),
            TraceWindow(with_nan, 10.0, "write", "point", None),
            TraceWindow(bursts, 10.0, "write", "point", (-30.0, -20.0)),  # before the data
            TraceWindow(bursts, 10.0, "write", "point", (40.0, 50.0)),  # after the data
            TraceWindow(one, 10.0, "write", "point", None),
            TraceWindow(one, 10.0, "write", "bin", (4.0, 7.0)),  # same N as row 0
            TraceWindow(mixed, 1.0, "write", "point", (6.5, 5.0)),  # inverted
            TraceWindow(one.shifted(1e9), 1.0, "write", "bin", (1e9 + 20.0, 1e9 + 30.0)),
        ]
        batch = hold_to_both_references(rows)
        outcomes = [type(out) for out in batch]
        assert outcomes.count(EmptyTraceError) == 1
        assert outcomes.count(InsufficientSamplesError) == 4
        assert outcomes.count(AnalysisError) == 2  # too many samples, a NaN span
        assert outcomes.count(ValueError) == 1
        sizes = Counter(out.n_samples for out in batch if isinstance(out, DiscreteSignal))
        assert sizes.most_common(1)[0][1] >= 3  # a group of many
        assert 1 in sizes.values()  # a group of one
        assert np.isnan(with_nan.ends).any()
        assert batch[9].args[0].count(str(_MAX_SAMPLES)) == 1

    def test_a_long_row_does_not_pad_the_short_ones(self):
        # 3 000 requests beside twenty of 3: two blocks, not one 21 x 6 000.
        rng = np.random.default_rng(11)

        def trace(n: int) -> Trace:
            starts = np.sort(rng.uniform(0.0, 50.0, n))
            return Trace.from_requests(
                IORequest(rank=0, start=s, end=s + 0.05, nbytes=int(b))
                for s, b in zip(starts, rng.integers(1, 10**6, n))
            )

        rows = [TraceWindow(trace(3), 10.0, window=(0.0, 40.0)) for _ in range(20)]
        rows.insert(7, TraceWindow(trace(3000), 10.0, window=(5.0, 45.0)))
        assert [len(chunk) for chunk in _chunks(list(range(len(rows))), rows)] == [20, 1]
        hold_to_both_references(rows)

    def test_an_empty_window_is_no_samples_at_any_magnitude(self):
        far = Trace.from_requests([IORequest(rank=0, start=1e9, end=1e9 + 5.0, nbytes=10)])
        near = far.shifted(10.0 - 1e9)
        batch = discretize_windows(
            [
                TraceWindow(far, 1.0, window=(1e9 + 10.0, 1e9 + 20.0)),
                TraceWindow(near, 1.0, window=(20.0, 30.0)),
                TraceWindow(near, 1.0),
            ]
        )
        assert isinstance(batch[0], InsufficientSamplesError)
        assert isinstance(batch[1], InsufficientSamplesError)
        assert isinstance(batch[2], DiscreteSignal)
