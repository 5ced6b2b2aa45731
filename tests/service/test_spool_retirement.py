"""Property: a spool bounded by rotation and retirement delivers every frame once.

Random sequences of the five things that happen to a tailed spool — a
producer writes a frame, the spool rotates, the engine polls, the engine
checkpoints (``snapshot_state()``), the engine calls ``compact_spools()`` —
run against an in-process :class:`PredictionService` (no shard processes).
After every step:

* the tail has read every frame written before its last poll exactly once,
  in order;
* a frame-bounded replay from the last checkpoint
  (:func:`~repro.service.service.replay_since`, what a shard revive runs)
  yields exactly the frames the tail read after that checkpoint;
* retirement never unlinks the file that holds the checkpoint's position.

``REPRO_SOAK=1`` runs the property at 50x (the nightly CI job).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.service import PredictionService, ServiceConfig
from repro.service.service import replay_since
from repro.trace.framing import FrameWriter, encode_frame, spool_generations
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest

STEPS = ("write", "rotate", "poll", "checkpoint", "compact")


def flush(index: int) -> FlushRecord:
    request = IORequest(rank=0, start=float(index), end=index + 0.5, nbytes=4096)
    return FlushRecord(flush_index=index, timestamp=index + 1.0, requests=(request,))


def inodes_on_disk(spool: Path) -> set[int]:
    files = [spool] + [path for _, path in spool_generations(spool)]
    return {os.stat(path).st_ino for path in files if path.exists()}


def check_spool_steps(steps: list[str], frames_per_generation: int | None) -> None:
    frame_size = len(encode_frame(flush(0), job="a"))
    with tempfile.TemporaryDirectory() as directory:
        spool = Path(directory) / "spool.fts"
        max_bytes = None if frames_per_generation is None else frames_per_generation * frame_size
        writer = FrameWriter(spool, job="a", max_bytes=max_bytes)
        service = PredictionService(ServiceConfig(metrics=False))
        tail = service.tail_file(spool)
        written: list[bytes] = []
        read: list[bytes] = []
        mark: tuple[dict, int] | None = None
        read_at_mark = 0
        for step in steps:
            if step == "write":
                index = len(written)
                writer.write(flush(index))
                written.append(encode_frame(flush(index), job="a"))
            elif step == "rotate":
                writer.rotate()
            elif step == "poll":
                seen = len(written)
                read += [
                    encode_frame(flush(frame.flush.flush_index), job=frame.job)
                    for frame in tail.poll()
                ]
                assert read == written[:seen], "every written frame exactly once, in order"
            elif step == "checkpoint":
                service.snapshot_state()
                mark, read_at_mark = (tail.position, tail.frames_read), len(read)
            else:
                live = spool.read_bytes() if spool.exists() else None
                service.compact_spools()
                assert (spool.read_bytes() if spool.exists() else None) == live
                if mark is not None and mark[0]["inode"] is not None:
                    assert mark[0]["inode"] in inodes_on_disk(spool)
            replay = replay_since(spool, mark, tail)
            assert [bytes(raw.data) for raw in replay] == read[read_at_mark:]
        read += [
            encode_frame(flush(frame.flush.flush_index), job=frame.job) for frame in tail.poll()
        ]
        assert read == written
        service.close()


_steps = st.lists(st.sampled_from(STEPS), max_size=40)
_generation = st.one_of(st.none(), st.integers(1, 4))
PROPERTY_EXAMPLES = 200


class TestSpoolRetirement:
    @given(steps=_steps, frames_per_generation=_generation)
    @settings(
        max_examples=PROPERTY_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_frame_once_and_replay_from_the_checkpoint(self, steps, frames_per_generation):
        check_spool_steps(steps, frames_per_generation)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @given(steps=_steps, frames_per_generation=_generation)
    @settings(
        max_examples=50 * PROPERTY_EXAMPLES,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_frame_once_and_replay_from_the_checkpoint_soak(
        self, steps, frames_per_generation
    ):
        check_spool_steps(steps, frames_per_generation)
