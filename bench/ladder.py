"""The traced run: where the time goes, layer by layer.

``--trace 1`` replays the ``stream_many_small`` bytes of the run's seed
through a *ladder* of seven rungs, each adding one layer to the one before::

    freq          spectral kernels on the windows the session rung prepared
    session       JobSession.ingest + claim / prepare / kernels / complete,
                  called in the order detect_sessions_inline uses
    service       in-process PredictionService: feed_bytes + pump
    shard_ring    ShardedService(1), frames over the shm ring
    shard_socket  ShardedService(1), frames over the socketpair (ring_bytes=0)
    gateway       client -> TCP gateway -> ring shard (a server subprocess)
    remote        client -> TCP gateway -> one dial-home shard over 127.0.0.1

All rungs are up at once and **take turns round by round** (round ``r`` goes
through every rung before round ``r + 1`` starts, the order rotating), so a
host that speeds up or slows down during the run moves all rungs together and
the differences between them — each rung's *tax* — stay meaningful.  An
untraced twin of the ``service`` rung takes turns too; the gap between the
twins is the tracing overhead.

Beside the ladder: direct drives of public functions (framing, protocol
codec, shm ring, publisher), a metrics-on / metrics-off comparison, an
open-loop slice, a live reshard, and a short offline profile.  A run for
``stream_few_long`` also drives that workload's own stream through the
in-process rungs; its spans take precedence for the detection-side metrics
(see :mod:`bench.report`).

Every call into a layer is a span; the spans are written to
``bench/out/trace-<tag>.json`` and every per-layer metric is derived from
that file.  The in-process ``service`` rung *is* the single-process reference:
every other rung pumps the same batches and its updates must equal the
reference's bit for bit.
"""

from __future__ import annotations

import math
import select
import socket
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

import repro.api as api
from repro.core.ftio import Ftio
from repro.service import PredictionService, ShardedService
from repro.service import protocol as proto
from repro.service.backend import ThreadBackend
from repro.service.batch import compute_batch_kernels
from repro.service.publisher import PredictionPublisher, PredictionUpdate
from repro.service.session import JobSession
from repro.service.shm_ring import ShmRingReader, ShmRingWriter
from repro.trace.framing import FrameDecoder, FrameSplitter, encode_frame
from repro.trace.msgpack import packb

from bench import offline, report
from bench.loadgen import (
    Ledger,
    Stream,
    closed_loop,
    falsify,
    generate_stream,
    latencies,
    open_loop,
)
from bench.result import Outcome, write_result
from bench.spans import Tracer
from bench.topology import ClientTarget, EngineTarget, Server
from bench.workloads import (
    OFFLINE_SUITE,
    STREAM_FEW_LONG,
    STREAM_MANY_SMALL,
    WARM_ROUNDS,
    StreamSpec,
    smoke_offline,
    smoke_stream,
)

#: Interleaved metrics-on / metrics-off pairs of the observability comparison.
OBS_PAIRS = 10
#: Jobs and rounds (of the ladder stream, from round 0) each such run feeds.
OBS_JOBS = 32
OBS_ROUNDS = 6
#: Rounds fed around the live reshard, after the turn-taking rounds.
RESHARD_ROUNDS = 2
#: Shares of ``--seconds``: the turn-taking rounds of the ladder, and the
#: open-loop slice on the ``service`` rung.
LADDER_SHARE = 1.2
NOMINAL_SHARE = 0.125


@dataclass
class Tally:
    """Outputs compared against the reference, and how many differed."""

    attempted: int = 0
    failed: int = 0
    #: Per rung: updates seen, wrong, missing.
    notes: dict = field(default_factory=dict)

    def compare(self, rung: str, seen: dict, reference: dict, expected: int) -> None:
        """``seen`` must hold ``expected`` updates, each equal to the reference's."""
        wrong = sum(1 for key, value in seen.items() if reference.get(key) != value)
        missing = max(0, expected - len(seen))
        self.attempted += expected
        self.failed += wrong + missing
        self.notes[rung] = {"updates": len(seen), "wrong": wrong, "missing": missing}


class SpanBackend(ThreadBackend):
    """The thread backend with its batch-detect call recorded as a span, so
    the pump's self time (pump minus the detect call it wraps) is in the trace."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None

    def detect_batch(self, sessions):
        if self.tracer is None:
            return super().detect_batch(sessions)
        with self.tracer.span("detect_batch", "service.batch", len(sessions)):
            return super().detect_batch(sessions)

    def detect(self, session, *, now=None):
        if self.tracer is None:
            return super().detect(session, now=now)
        with self.tracer.span("detect_batch", "service.batch", 1):
            return super().detect(session, now=now)


def _stage_observer(tracer: Tracer):
    """A ``compute_batch_kernels`` observer recording each kernel stage as a span."""

    def observer(stage: str, group_size: int, seconds: float) -> None:
        now = time.perf_counter()
        tracer.add(stage, "freq", now - seconds, now, group_size)

    return observer


# --------------------------------------------------------------------- #
# rungs: each drives one round of the stream through its layers
# --------------------------------------------------------------------- #
class StageRung:
    """``session``: ``JobSession`` + predictor + batch kernels, stage by stage."""

    name = "session"

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        config = stream.spec.config().session_config()
        self.sessions = [JobSession(job, config) for job in stream.jobs]
        self.configs = [config.config] * len(self.sessions)
        self.seen: dict = {}
        #: The windows prepared in the latest round (what the freq rung replays).
        self.signals: list = []
        self.window_samples: list[int] = []

    def round(self, r: int, tracer: Tracer) -> None:
        n = len(self.sessions)
        records = self.stream.records[r * n : (r + 1) * n]
        prepared = []
        with tracer.span("round", "ladder", n):
            with tracer.span("ingest", "service.session", n):
                for session, record in zip(self.sessions, records):
                    session.ingest(record)
            for session in self.sessions:
                t0 = time.perf_counter()
                task = session.begin_batch_detect()
                t1 = time.perf_counter()
                prepared.append(session.predictor.prepare_step(task.trace, now=task.now))
                t2 = time.perf_counter()
                tracer.add("claim", "service.session", t0, t1)
                tracer.add("prepare", "trace.sampling", t1, t2)
            self.signals = [p.signal for p in prepared]
            with tracer.span("kernels", "freq", n):
                kernels = compute_batch_kernels(
                    self.signals, self.configs, _stage_observer(tracer)
                )
            with tracer.span("complete", "core", n):
                steps = [
                    session.complete_batch_detect(p, kernels=k)
                    for session, p, k in zip(self.sessions, prepared, kernels)
                ]
        self.window_samples.extend(s.n_samples for s in self.signals if s is not None)
        for session, step in zip(self.sessions, steps):
            self.seen[(session.job, step.time)] = (step.index, step.period, step.confidence)

    def restore(self, state: dict) -> None:
        by_job = {entry["job"]: entry for entry in state["sessions"]}
        for session in self.sessions:
            session.load_state_dict(by_job[session.job])

    def close(self) -> None:
        pass


class KernelRung:
    """``freq``: the spectral kernels alone, on the session rung's latest windows."""

    name = "freq"
    seen = None  # publishes nothing to compare

    def __init__(self, stages: StageRung) -> None:
        self.stages = stages

    def round(self, r: int, tracer: Tracer) -> None:
        signals = self.stages.signals
        with tracer.span("kernels", "freq", len(signals)):
            compute_batch_kernels(signals, self.stages.configs)

    def restore(self, state: dict) -> None:
        pass

    def close(self) -> None:
        pass


class TargetRung:
    """A topology behind the target interface: submit the round, pump."""

    def __init__(self, name: str, target, stream: Stream, *, traced: bool = True,
                 backend: SpanBackend | None = None) -> None:
        self.name = name
        self.target = target
        self.stream = stream
        self.traced = traced
        self.backend = backend
        self.ledger = Ledger()

    @property
    def seen(self) -> dict:
        return self.ledger.seen

    def round(self, r: int, tracer: Tracer) -> None:
        active = tracer if self.traced else None
        if self.backend is not None:
            self.backend.tracer = active
        closed_loop(self.target, self.stream, r, self.ledger, max_rounds=1, tracer=active)

    def restore(self, state: dict) -> None:
        self.target.restore(state)

    def close(self) -> None:
        self.target.close()


def take_turns(
    tracer: Tracer, rungs: list, first_round: int, last_round: int, seconds: float
) -> tuple[int, dict[str, list[float]]]:
    """Send rounds ``first_round ...`` through every rung in turn until
    ``seconds`` have passed (at least one round).

    Each rung records under its own root span; the order rotates so no rung
    always runs first.  Returns the next round and every rung's seconds per
    round.
    """
    own = {rung.name: Tracer(tracer.workload) for rung in rungs}
    spent: dict[str, list[float]] = {rung.name: [] for rung in rungs}
    r = first_round
    with ExitStack() as roots:
        for rung in rungs:
            if getattr(rung, "traced", True):
                roots.enter_context(own[rung.name].span(rung.name, "ladder"))
        deadline = time.perf_counter() + seconds
        while r < last_round and (r == first_round or time.perf_counter() < deadline):
            turn = (r - first_round) % len(rungs)
            for rung in rungs[turn:] + rungs[:turn]:
                started = time.perf_counter()
                rung.round(r, own[rung.name])
                spent[rung.name].append(time.perf_counter() - started)
            r += 1
    for rung_tracer in own.values():
        tracer.absorb(rung_tracer)
    return r, spent


def warm_up(rungs: list, service: "TargetRung") -> None:
    """Bring every rung to the same warm state before anything is timed.

    Only the ``service`` rung is fed the warm-up rounds; the others restore
    its ``snapshot_state()`` through their own public restore path (eight
    rounds through eight topologies would cost more than the measurement),
    then every rung runs the last warm-up round itself, spans dropped.  A
    restore that were not faithful would show as a mismatch against the
    reference.
    """
    discard = Tracer()
    for r in range(WARM_ROUNDS - 1):
        service.round(r, discard)
    state = service.target.engine.snapshot_state()
    for rung in rungs:
        if rung is not service:
            rung.restore(state)
    for rung in rungs:
        rung.round(WARM_ROUNDS - 1, discard)


# --------------------------------------------------------------------- #
# probes run on a single rung after the turn-taking rounds
# --------------------------------------------------------------------- #
def nominal_probe(tracer: Tracer, rung: TargetRung, first_round: int, seconds: float) -> int:
    """An open-loop slice on the ``service`` rung; returns the flushes sent."""
    stream, spec = rung.stream, rung.stream.spec
    rung.backend.tracer = tracer
    with tracer.span("nominal", "loadgen"):
        nominal = open_loop(
            rung.target, stream, first_round * spec.jobs, rung.ledger,
            rate=spec.nominal_rate, tick=spec.tick, seconds=seconds, tracer=tracer,
        )
    rung.backend.tracer = None
    rung.ledger.observe(rung.target.drain())
    latency = latencies(nominal, stream, rung.ledger)
    tracer.count("loadgen.latency_p99_ms", float(np.percentile(latency, 99.0)) * 1e3)
    tracer.count("loadgen.late_p99_ms", float(np.percentile(nominal.wake_late, 99.0)) * 1e3)
    tracer.count("loadgen.offered_per_s", nominal.offered_per_s)
    tracer.count("loadgen.backlog_end", nominal.backlog)
    return nominal.sent


def service_counters(tracer: Tracer, rung: TargetRung) -> None:
    """Counts and the state snapshot of the warm in-process service."""
    service: PredictionService = rung.target.engine
    stats = service.stats()
    with tracer.span("snapshot", "service.snapshot"):
        state = service.snapshot_state()
    tracer.count("service.session.resident_samples", stats["resident_samples"])
    tracer.count("service.session.evicted_samples", stats["evicted_samples"])
    tracer.count("service.dispatcher.detections", stats["detections"])
    tracer.count("service.dispatcher.coalesced", stats["flushes"] - stats["detections"])
    tracer.count("service.dispatcher.failed", stats["failures"])
    tracer.count("service.publisher.published", stats["published"])
    tracer.count("service.snapshot.bytes", len(packb(state)))


def reshard_probe(tracer: Tracer, rung: TargetRung, first_round: int) -> None:
    """One live 1 -> 2 -> 1 ``reshard()`` over the warm jobs.

    Round ``first_round`` is fed while the first handover is armed (so frames
    for moving jobs are double-routed), the next between the two hops; the
    updates that follow must still equal the reference.
    """
    engine: ShardedService = rung.target.engine
    rounds = rung.stream.rounds

    def feed_while_armed(phase: str) -> None:
        if phase == "parked":
            rung.target.submit(rounds[first_round])

    with tracer.span("reshard_probe", "ladder"):
        with tracer.span("reshard", "service.sharding"):
            grown = engine.reshard(2, on_phase=feed_while_armed)
        rung.ledger.observe(rung.target.pump())
        rung.target.submit(rounds[first_round + 1])
        rung.ledger.observe(rung.target.pump())
        with tracer.span("reshard", "service.sharding"):
            shrunk = engine.reshard(1)
    tracer.count(
        "service.sharding.sessions_moved", grown["moved_sessions"] + shrunk["moved_sessions"]
    )
    tracer.count(
        "service.sharding.double_routed_frames",
        grown["double_routed_frames"] + shrunk["double_routed_frames"],
    )


def stats_probe(tracer: Tracer, rung: TargetRung, reads: int = 20) -> None:
    """``stats()`` round trips through the gateway."""
    with tracer.span("stats_probe", "ladder"):
        for _ in range(reads):
            with tracer.span("stats", "service.gateway"):
                rung.target.stats()


def heartbeat_probe(tracer: Tracer, rung: TargetRung, probes: int = 20) -> None:
    """Read-plane heartbeats router -> remote shard, asked of the server."""
    rtts = rung.target.server.ask(f"heartbeat {probes}")["rtt_s"]
    tracer.count("service.transport.heartbeat_rtt_p50_ms", median(rtts) * 1e3)


# --------------------------------------------------------------------- #
# direct drives of public functions
# --------------------------------------------------------------------- #
def ingest_drive(tracer: Tracer, stream: Stream, tally: Tally, rounds: int = 4) -> None:
    """The ingest path piece by piece, over whole rounds: ``encode_frame``,
    ``FrameSplitter``, ``FrameDecoder``, ``JobSession.ingest`` — and, right
    beside them, ``feed_bytes`` of a fresh service doing all of it at once,
    so the broker's own share is a difference of numbers taken together."""
    n = stream.spec.jobs
    rounds = min(rounds, len(stream.rounds))
    splitter = FrameSplitter()
    decoder = FrameDecoder()
    config = stream.spec.config()
    sessions = {job: JobSession(job, config.session_config()) for job in stream.jobs}
    service = PredictionService(config.service_config())
    try:
        with tracer.span("ingest_path", "ladder"):
            for r in range(rounds):
                records = stream.records[r * n : (r + 1) * n]
                with tracer.span("encode", "trace.framing", n):
                    frames = [
                        encode_frame(rec, job=job) for rec, job in zip(records, stream.jobs)
                    ]
                with tracer.span("split", "trace.framing", n):
                    splitter.feed(stream.rounds[r])
                    raw = splitter.drain()
                with tracer.span("decode", "trace.framing", n):
                    decoder.feed(stream.rounds[r])
                    decoded = decoder.drain()
                with tracer.span("ingest", "service.session", n):
                    for frame in decoded:
                        sessions[frame.job].ingest(frame.flush)
                with tracer.span("feed", "service.broker", n):
                    service.feed_bytes(stream.rounds[r])
                tally.attempted += 3 * n
                tally.failed += sum(a != b for a, b in zip(frames, stream.frames[r * n :]))
                tally.failed += abs(len(raw) - n)
                tally.failed += sum(d.flush != rec for d, rec in zip(decoded, records))
    finally:
        service.close()
    tracer.count("trace.framing.bytes_per_frame", len(stream.rounds[0]) / n)
    tracer.count("trace.framing.copied_bytes_per_frame", splitter.bytes_copied_per_frame)


def protocol_drive(tracer: Tracer, stream: Stream, reference: dict, stats: dict,
                   repeats: int = 20) -> None:
    """Encode and decode the FTC1 messages one closed-loop round sends."""
    n = stream.spec.jobs
    updates = tuple(
        PredictionUpdate(job, value[0], when, None if value[1] is None else 1.0 / value[1],
                         value[1], value[2], 0.0).to_dict()
        for (job, when), value in list(reference.items())[:n]
    )
    messages = [
        proto.SubmitFrames(data=stream.rounds[0]), proto.SubmitReply(frames=n),
        proto.Pump(), proto.PumpReply(submitted=n, updates=updates),
        proto.Stats(), proto.StatsReply(stats=stats),
    ]
    with tracer.span("protocol", "ladder"):
        for _ in range(repeats):
            with tracer.span("protocol_encode", "service.protocol"):
                wire = [proto.encode_message(m) for m in messages]
            with tracer.span("protocol_decode", "service.protocol"):
                for data in wire:
                    proto.decode_message(data)
    # What one round puts on the client's socket: the frames and the pump.
    tracer.count("client.bytes_sent_per_flush", (len(wire[0]) + len(wire[2])) / n)


def ring_drive(tracer: Tracer, stream: Stream, tally: Tally, rounds: int = 8) -> None:
    """``ShmRingWriter.write`` against a reader thread splitting the frames out."""
    n = stream.spec.jobs
    rounds = min(rounds, len(stream.rounds))
    writer = ShmRingWriter(stream.spec.config().service_config().ring_bytes)
    parent_end, shard_end = socket.socketpair()
    reader = ShmRingReader(writer.handle, shard_end)
    splitter = FrameSplitter()
    frames = [0]

    def consume() -> None:
        while not reader.eof:
            select.select([shard_end], [], [], 0.05)  # wait, do not spin on the GIL
            reader.pump_doorbell()
            for view in reader.views():
                splitter.feed(view)
                frames[0] += len(splitter.drain())
                splitter.detach()  # the ring reclaims this span at ack()
                view.release()
            reader.ack()

    consumer = threading.Thread(target=consume, name="bench-ring-reader")
    total = 0
    try:
        writer.bind(parent_end)
        consumer.start()
        started = time.perf_counter()
        with tracer.span("ring", "ladder"):
            for r in range(rounds):
                with tracer.span("ring_write", "service.shm_ring", n):
                    total += writer.write(stream.rounds[r])
        parent_end.close()  # EOF on the doorbell ends the reader loop
        consumer.join(timeout=60)
        elapsed = time.perf_counter() - started
    finally:
        parent_end.close()
        consumer.join(timeout=60)
        reader.close()
        shard_end.close()
        writer.close()  # unlinks the segment
    tally.attempted += rounds * n
    tally.failed += abs(rounds * n - frames[0]) + (rounds * n if consumer.is_alive() else 0)
    tracer.count("service.shm_ring.mb_per_s", total / elapsed / 1e6)
    tracer.count("service.shm_ring.stalls", writer.stalls)
    tracer.count("service.shm_ring.doorbells_per_frame", writer.doorbell_sends / (rounds * n))


def publisher_drive(tracer: Tracer, reference: dict, count: int = 2000) -> None:
    """``PredictionPublisher.publish`` with one subscriber attached."""
    publisher = PredictionPublisher()
    received: list = []
    publisher.subscribe(received.append)
    updates = [
        PredictionUpdate(job, value[0], when, None, value[1], value[2])
        for (job, when), value in list(reference.items())[:count]
    ]
    with tracer.span("publisher", "ladder"):
        with tracer.span("publish", "service.publisher", len(updates)):
            for update in updates:
                publisher.publish(update)


def obs_drive(tracer: Tracer, stream: Stream, pairs: int) -> None:
    """The same rounds through a fresh service with the metric registry on and
    off, interleaved, alternating which goes first."""
    n = stream.spec.jobs
    jobs = min(OBS_JOBS, n)
    rounds = min(OBS_ROUNDS, len(stream.rounds))
    payloads = [b"".join(stream.frames[r * n : r * n + jobs]) for r in range(rounds)]

    def run_once(metrics: bool) -> None:
        service = PredictionService(stream.spec.config(metrics=metrics).service_config())
        try:
            name = "metrics_on" if metrics else "metrics_off"
            with tracer.span(name, "obs", rounds * jobs):
                for payload in payloads:
                    service.feed_bytes(payload)
                    service.pump()
        finally:
            service.close()

    with tracer.span("obs", "ladder"):
        for pair in range(pairs):
            for metrics in ((True, False) if pair % 2 == 0 else (False, True)):
                run_once(metrics)


# --------------------------------------------------------------------- #
# the offline profile
# --------------------------------------------------------------------- #
def offline_profile(tracer: Tracer, spec, suite: offline.Suite, tally: Tally) -> None:
    """``Ftio.detect`` whole, then the same detection stage by stage
    (discretize, kernels, decide), and a flush-by-flush replay."""
    tracer.workload = spec.name
    observer = _stage_observer(tracer)
    windows: list[int] = []
    with tracer.span("offline", "ladder"):
        for fs in spec.sampling_frequencies:
            ftio = Ftio(
                api.ReproConfig().with_analysis(
                    sampling_frequency=fs, use_autocorrelation=True
                ).analysis
            )
            for source in suite.sources:
                with tracer.span("detect", "core"):
                    whole = ftio.detect(source)
                with tracer.span("round", "ladder"):
                    with tracer.span("prepare", "trace.sampling"):
                        signal = ftio.prepare_signal(ftio.to_signal(source))
                    with tracer.span("kernels", "freq"):
                        (kernels,) = compute_batch_kernels([signal], [ftio.config], observer)
                    with tracer.span("complete", "core"):
                        staged = ftio.analyze_signal(signal, kernels=kernels, prepared=True)
                windows.append(signal.n_samples)
                tally.attempted += 1
                tally.failed += staged.period != whole.period
    tracer.count("freq.samples_per_window", sum(windows) / len(windows))
    config = api.ReproConfig().with_analysis(sampling_frequency=spec.sampling_frequencies[0])
    with tracer.span("replay", "ladder"):
        for _ in range(3):
            with tracer.span("replay_pass", "core", len(suite.replay_times)):
                api.predict(suite.replay_trace, suite.replay_times, config=config)


# --------------------------------------------------------------------- #
# the whole traced run
# --------------------------------------------------------------------- #
def _stream_for(spec: StreamSpec, seed: int, seconds: float, rungs: int) -> Stream:
    """Enough rounds for the turn-taking loop (every round passes ``rungs``
    rungs, none faster than the headroom rate), the reshard and the open-loop
    slice."""
    turns = LADDER_SHARE * seconds * spec.headroom_rate / (spec.jobs * rungs)
    nominal = NOMINAL_SHARE * seconds * spec.nominal_rate / spec.jobs
    return generate_stream(
        spec, seed, WARM_ROUNDS + math.ceil(turns) + RESHARD_ROUNDS + math.ceil(nominal) + 2
    )


def in_process_rungs(stream: Stream) -> list:
    """The four rungs that need no other process: the untraced service twin,
    ``service``, ``session`` and ``freq`` (the session rung runs before the
    freq rung, which replays its windows)."""
    config = stream.spec.config().service_config()
    backend = SpanBackend()
    stages = StageRung(stream)
    return [
        TargetRung("service_untraced", EngineTarget(PredictionService(config)), stream,
                   traced=False),
        TargetRung("service", EngineTarget(PredictionService(config, backend=backend)),
                   stream, backend=backend),
        stages,
        KernelRung(stages),
    ]


def drive_ladder(
    tracer: Tracer, stream: Stream, rungs: list, seconds: float, tally: Tally,
    *, corrupt: bool = False,
) -> dict:
    """Warm every rung, let them take turns, run the probes, compare every
    rung with the ``service`` rung, close; returns the reference."""
    tracer.workload = stream.spec.name
    by_name = {rung.name: rung for rung in rungs}
    service: TargetRung = by_name["service"]
    n = stream.spec.jobs
    nominal_seconds = NOMINAL_SHARE * seconds
    reserve = RESHARD_ROUNDS + math.ceil(nominal_seconds * stream.spec.nominal_rate / n) + 1
    try:
        warm_up(rungs, service)
        turns_end, spent = take_turns(
            tracer, rungs, WARM_ROUNDS, len(stream.rounds) - reserve, LADDER_SHARE * seconds
        )
        # The twins ran the same rounds side by side; the medians' gap is the
        # cost of recording the spans.
        tracer.count("trace.untraced_flushes_per_s", n / median(spent["service_untraced"]))
        tracer.count("trace.traced_flushes_per_s", n / median(spent["service"]))
        tracer.count(
            "freq.samples_per_window", float(np.mean(by_name["session"].window_samples))
        )

        # The reference has to cover the rounds fed around the reshard too.
        service.backend.tracer = None
        closed_loop(service.target, stream, turns_end, service.ledger,
                    max_rounds=RESHARD_ROUNDS)
        # Restored rungs saw the rounds from the last warm-up round on.
        expected = {rung.name: (turns_end - WARM_ROUNDS + 1) * n for rung in rungs}
        if "shard_ring" in by_name:
            reshard_probe(tracer, by_name["shard_ring"], turns_end)
            expected["shard_ring"] += RESHARD_ROUNDS * n
        if "gateway" in by_name:
            stats_probe(tracer, by_name["gateway"])
        if "remote" in by_name:
            heartbeat_probe(tracer, by_name["remote"])
        nominal_probe(tracer, service, turns_end + RESHARD_ROUNDS, nominal_seconds)
        service_counters(tracer, service)

        reference = service.seen
        if corrupt:
            falsify(reference)
        for rung in rungs:
            if rung.seen is None or rung is service:
                continue
            if isinstance(rung, TargetRung):
                rung.ledger.observe(rung.target.drain())
            tally.compare(rung.name, rung.seen, reference, expected[rung.name])
    finally:
        for rung in rungs:
            rung.close()
    return reference


def run(
    workload: str, seed: int, seconds: float, *,
    smoke: bool = False, corrupt: bool = False, trace_path: Path,
) -> Outcome:
    """One traced run for ``workload``; see the module docstring."""
    tracer = Tracer()
    tally = Tally()
    ladder_spec = smoke_stream(STREAM_MANY_SMALL) if smoke else STREAM_MANY_SMALL
    offline_spec = smoke_offline(OFFLINE_SUITE) if smoke else replace(
        OFFLINE_SUITE, synthetic_traces=40
    )
    config = ladder_spec.config().service_config()

    with ExitStack() as stack:
        # The two server topologies import while the inputs are generated and
        # then sit idle until their turn; nothing is timed before both are up.
        servers = []
        for remote in (False, True):
            servers.append(Server(ladder_spec.name, smoke=smoke, remote=remote))
            stack.callback(servers[-1].close)
        stream = _stream_for(ladder_spec, seed, seconds, rungs=8)
        own_stream = None
        if workload == STREAM_FEW_LONG.name:
            own_spec = smoke_stream(STREAM_FEW_LONG) if smoke else STREAM_FEW_LONG
            own_stream = _stream_for(own_spec, seed, seconds / 2, rungs=3)
        suite = offline.build_suite(offline_spec, seed)
        for server in servers:
            server.wait_ready()

        offline_profile(tracer, offline_spec, suite, tally)
        if own_stream is not None:
            drive_ladder(tracer, own_stream, in_process_rungs(own_stream), seconds / 2, tally)
            ingest_drive(tracer, own_stream, tally)

        rungs = in_process_rungs(stream) + [
            TargetRung("shard_ring", EngineTarget(ShardedService(1, config)), stream),
            TargetRung("shard_socket",
                       EngineTarget(ShardedService(1, replace(config, ring_bytes=0))), stream),
            TargetRung("gateway", ClientTarget(servers[0]), stream),
            TargetRung("remote", ClientTarget(servers[1]), stream),
        ]
        reference = drive_ladder(tracer, stream, rungs, seconds, tally, corrupt=corrupt)
        ingest_drive(tracer, stream, tally)
        protocol_drive(
            tracer, stream, reference,
            stats={"jobs": ladder_spec.jobs, "flushes": len(reference)},
        )
        ring_drive(tracer, stream, tally)
        publisher_drive(tracer, reference)
        obs_drive(tracer, stream, pairs=2 if smoke else OBS_PAIRS)

    document = tracer.to_dict()
    document["meta"] = {"workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke}
    write_result(trace_path, document)
    metrics, detail = report.derive(document, workload)
    detail["compared"] = tally.notes
    detail["trace_file"] = str(trace_path)
    detail["stream_sha256"] = stream.digest
    detail["failed_share"] = tally.failed / max(1, tally.attempted)
    correct = tally.failed == 0 and not detail["violations"]
    return Outcome(
        metrics=metrics, attempted=tally.attempted, failed=tally.failed,
        correct=correct, detail=detail,
    )
