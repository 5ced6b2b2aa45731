"""A session's detection must not depend on who else is in the batch.

The batch loop (:mod:`repro.service.batch`) hands the due sessions' windows
to :func:`repro.core.kernels.compute_batch_kernels`, which stacks them into
2-D arrays and runs single vectorized FFT/ACF/outlier kernels over the stack.
It is the service's only evaluation path, so what it computes must not depend
on the batch: these tests assert bit-identity — not tolerance-based closeness
— between sessions evaluated together and the sequential reference, which is
*the same session evaluated alone* (:meth:`JobSession.detect`: the same
kernels on a batch of one), across mixed window lengths, mixed sampling rates
within one length and long ACF windows, and that a job publishes the same
bits alone or beside batchmates.  A property-based sweep (hypothesis) drives
randomized session populations through both.  The kernels themselves are held
to a frozen copy of the 1-D arithmetic they replaced in
``tests/core/test_kernels.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from repro.core import FtioConfig
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    detect_sessions_inline,
)
from repro.service.session import JobSession
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IOKind, IORequest
from tests.conftest import make_jittered_flushes


# --------------------------------------------------------------------- #
# session builders
# --------------------------------------------------------------------- #
def make_config(*, fs: float = 10.0, use_acf: bool = False) -> FtioConfig:
    return FtioConfig(
        sampling_frequency=fs,
        use_autocorrelation=use_acf,
        compute_characterization=False,
    )


def make_flushes(seed: int, n_flushes: int, *, period: float = 4.0) -> list[FlushRecord]:
    """A deterministic periodic flush stream (one burst per period)."""
    rng = np.random.default_rng(seed)
    flushes = []
    t = 0.0
    for index in range(n_flushes):
        requests = tuple(
            IORequest(
                rank=r,
                start=t + r * (period / 16),
                end=t + r * (period / 16) + 0.01,
                nbytes=int(rng.integers(1 << 10, 1 << 20)),
                kind=IOKind.WRITE,
            )
            for r in range(8)
        )
        flushes.append(
            FlushRecord(flush_index=index, timestamp=t + period, requests=requests)
        )
        t += period
    return flushes


#: One long-window ACF session: 12 jittered ~10 s periods at fs = 100 Hz is a
#: ~12 000-sample window, past the 8 192 samples where the 1-D and the batched
#: ACF used to round differently (seed 13 carried that into the confidence).
LONG_ACF_SPEC = {
    "seed": 13, "n_flushes": 12, "period": 10.0, "fs": 100.0, "use_acf": True, "jittered": True,
}


def build_session(job: str, spec: dict) -> JobSession:
    session = JobSession(
        job, SessionConfig(config=make_config(fs=spec["fs"], use_acf=spec["use_acf"]))
    )
    make = make_jittered_flushes if spec.get("jittered") else make_flushes
    for flush in make(spec["seed"], spec["n_flushes"], period=spec["period"]):
        session.ingest(flush)
    return session


def assert_state_equal(a, b, path="state"):
    """Recursive bit-exact comparison of predictor state dicts."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, f"{path}: array meta differs"
        assert np.array_equal(a, b, equal_nan=True), f"{path}: array values differ"
    elif isinstance(a, float):
        # Bit-exact: NaN must equal NaN, and no tolerance is granted.
        assert (a == b) or (np.isnan(a) and np.isnan(b)), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_steps_equal(seq_steps, batch_steps):
    assert len(seq_steps) == len(batch_steps)
    for seq, bat in zip(seq_steps, batch_steps):
        if seq is None or bat is None:
            assert seq is None and bat is None
            continue
        assert seq.index == bat.index
        assert seq.time == bat.time
        assert seq.window == bat.window
        assert_state_equal(seq.dominant_frequency, bat.dominant_frequency, "frequency")
        assert_state_equal(seq.period, bat.period, "period")
        assert_state_equal(seq.confidence, bat.confidence, "confidence")


# --------------------------------------------------------------------- #
# population strategy: mixed lengths, mixed configs, ragged by design
# --------------------------------------------------------------------- #
session_specs = st.lists(
    st.fixed_dictionaries(
        {
            "seed": st.integers(min_value=1, max_value=2**31 - 1),
            "n_flushes": st.integers(min_value=2, max_value=5),
            "period": st.sampled_from([2.0, 4.0, 6.5]),
            "fs": st.sampled_from([5.0, 10.0]),
            "use_acf": st.booleans(),
        }
    ),
    min_size=2,
    max_size=6,
)


class TestBatchedEqualsSequential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=session_specs)
    def test_inline_batch_bit_identical_across_mixed_windows(self, specs):
        """Randomized ragged populations: batched == sequential, bit for bit.

        Sessions differ in flush count, period, sampling frequency and ACF
        setting, so one batch spans several window lengths and a group can
        mix rates and ACF settings — none of which may leak into a result.
        """
        sequential = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]
        batched = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]

        seq_steps = [s.detect() for s in sequential]
        report = detect_sessions_inline(batched)
        assert not any(report.failed)
        assert_steps_equal(seq_steps, report.steps)
        for seq, bat in zip(sequential, batched):
            assert_state_equal(seq.predictor.state_dict(), bat.predictor.state_dict())

    def test_second_round_carries_state_identically(self):
        """Adaptive-window state after round 1 feeds round 2 identically."""
        specs = [
            {"seed": s, "n_flushes": n, "period": p, "fs": 10.0, "use_acf": acf}
            for s, n, p, acf in [
                (11, 3, 4.0, False),
                (12, 4, 4.0, True),
                (13, 2, 6.5, False),
                (14, 5, 2.0, True),
            ]
        ] + [LONG_ACF_SPEC]
        sequential = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]
        batched = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]
        for round_index in range(2):
            seq_steps = [s.detect() for s in sequential]
            report = detect_sessions_inline(batched)
            assert not any(report.failed)
            assert_steps_equal(seq_steps, report.steps)
            if round_index == 0:
                # New data between rounds, so round 2 evaluates fresh windows
                # from the *carried* predictor state.
                for i, (seq, bat) in enumerate(zip(sequential, batched)):
                    extra = make_flushes(1000 + i, 2, period=specs[i]["period"])
                    for flush in extra:
                        seq.ingest(flush)
                        bat.ingest(flush)
        for seq, bat in zip(sequential, batched):
            assert_state_equal(seq.predictor.state_dict(), bat.predictor.state_dict())

    @pytest.mark.parametrize("batchmates", [0, 2])
    def test_long_acf_window_bit_identical(self, batchmates):
        """Past 8 192 samples the batch engine still equals the reference,
        as a batch of one and beside short-window batchmates."""
        specs = [LONG_ACF_SPEC] + [
            {"seed": 40 + i, "n_flushes": 4, "period": 4.0, "fs": 10.0, "use_acf": True}
            for i in range(batchmates)
        ]
        sequential = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]
        batched = [build_session(f"job-{i}", spec) for i, spec in enumerate(specs)]
        seq_steps = [s.detect() for s in sequential]
        assert seq_steps[0].window[1] - seq_steps[0].window[0] > 81.92  # > 8 192 samples
        assert 0.0 < seq_steps[0].confidence < 1.0
        report = detect_sessions_inline(batched)
        assert not any(report.failed)
        assert_steps_equal(seq_steps, report.steps)
        for seq, bat in zip(sequential, batched):
            assert_state_equal(seq.predictor.state_dict(), bat.predictor.state_dict())

    def test_failed_session_degrades_alone(self):
        """One sick session must not poison its batchmates."""
        good_spec = {"seed": 31, "n_flushes": 3, "period": 4.0, "fs": 10.0, "use_acf": False}
        reference = build_session("good", good_spec)
        good = build_session("good", good_spec)
        sick = build_session("sick", {**good_spec, "seed": 32})

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        sick.predictor.prepare_step = boom  # type: ignore[method-assign]
        report = detect_sessions_inline([good, sick])
        assert report.failed == [False, True]
        assert report.steps[1] is None
        assert_steps_equal([reference.detect()], [report.steps[0]])
        # The sick session's claim was dropped, not wedged: healthy again and
        # flushed again, it evaluates.
        del sick.predictor.prepare_step
        sick.ingest(make_flushes(32, 3, period=4.0)[-1])
        again = detect_sessions_inline([sick])
        assert again.failed == [False] and again.steps[0] is not None


class TestFleetOfDistinctPeriodsBatches:
    def test_distinct_periods_share_a_handful_of_fast_lengths(self, monkeypatch):
        """64 jobs, 64 periods: few groups, 5-smooth transforms, per-row rates.

        Cut at exactly fs, 64 periods are 64 window lengths — 64 groups of one,
        most with a large prime factor.  Cut to the next 5-smooth length they
        land on the ~10 such lengths between 256 and 400 samples, and a group's
        rows differ only in the effective rate each result is labelled with.
        """
        jobs, rounds = 64, 12
        periods = [6.4 + 3.6 * j / (jobs - 1) for j in range(jobs)]

        def flush(job: int, index: int) -> FlushRecord:
            # One burst of four back-to-back requests, a sixteenth of the
            # period long, flushed as it ends.
            period = periods[job]
            edges = [0.37 * job + index * period + period / 16.0 * i / 4 for i in range(5)]
            requests = tuple(
                IORequest(rank=i, start=edges[i], end=edges[i + 1], nbytes=1 << 20)
                for i in range(4)
            )
            return FlushRecord(flush_index=index, timestamp=edges[-1], requests=requests)

        streams = [[flush(j, r) for r in range(rounds)] for j in range(jobs)]
        config = SessionConfig(config=make_config(fs=10.0))
        sequential = [JobSession(f"job-{j}", config) for j in range(jobs)]
        batched = [JobSession(f"job-{j}", config) for j in range(jobs)]

        transforms: list[tuple[int, ...]] = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            transforms.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        for r in range(rounds):
            for j in range(jobs):
                sequential[j].ingest(streams[j][r])
                batched[j].ingest(streams[j][r])
            seq_steps = [s.detect() for s in sequential]
            del transforms[:]
            report = detect_sessions_inline(batched)
            assert not any(report.failed)
            assert_steps_equal(seq_steps, report.steps)
            assert all(next_fast_len(shape[-1], real=True) == shape[-1] for shape in transforms)
        for seq, bat in zip(sequential, batched):
            assert_state_equal(seq.predictor.state_dict(), bat.predictor.state_dict())

        # The last pump: one 2-D transform per group.
        assert all(len(shape) == 2 for shape in transforms)
        assert sum(shape[0] for shape in transforms) == jobs
        assert len(transforms) <= 12
        rates_by_length: dict[int, set[float]] = {}
        for step, period in zip(report.steps, periods):
            signal, spectrum = step.result.signal, step.result.spectrum
            assert step.period == pytest.approx(period, rel=0.05)
            assert spectrum.sampling_frequency == signal.sampling_frequency >= 10.0
            assert spectrum.frequencies[1] == pytest.approx(1.0 / step.window_length, rel=1e-12)
            rates_by_length.setdefault(signal.n_samples, set()).add(signal.sampling_frequency)
        assert len(rates_by_length) == len(transforms)
        assert max(len(rates) for rates in rates_by_length.values()) >= 4


class TestServiceFacadeEquivalence:
    def test_alone_or_with_batchmates_publishes_identical_bits(self):
        """A job's published (period, confidence) must not depend on who else
        came due in the same pump — i.e. on shard count or tenant mix."""
        n_flushes, warm = 40, 10

        def run(with_mate: bool) -> list[tuple]:
            service = PredictionService(
                ServiceConfig(
                    session=SessionConfig(
                        config=make_config(fs=100.0, use_acf=True),
                        # The window keeps growing: every update evaluates
                        # more than 8 192 samples.
                        adaptive_window=False,
                    ),
                )
            )
            updates: list[tuple] = []
            service.publisher.subscribe(
                lambda u: updates.append((u.period, u.confidence)), jobs=["job"]
            )
            ours = make_jittered_flushes(1, n_flushes)
            theirs = make_jittered_flushes(1001, n_flushes)
            try:
                for i in range(n_flushes):
                    service.ingest_flush("job", ours[i])
                    if with_mate:
                        service.ingest_flush("mate", theirs[i])
                    if i >= warm:
                        service.pump()
                return updates
            finally:
                service.close()

        alone = run(False)
        assert len(alone) == n_flushes - warm
        assert any(0.0 < confidence < 1.0 for _, confidence in alone)
        assert alone == run(True)
