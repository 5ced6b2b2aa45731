"""Per-layer metrics, derived from a trace file.

::

    python -m bench.report bench/out/trace-<tag>.json

prints every per-layer metric and the ladder as a table (rung, us/flush, tax
over the previous rung, share of the ``gateway`` rung's total — the topology
``stack_many_small`` runs end to end).

**Which spans feed which metric.**  Spans carry the name of the workload whose
input drove them.  The ladder, the wire-side drives and the observability
comparison are always driven by the ``stream_many_small`` bytes; the offline
profile by the ``offline_suite`` inputs.  Detection-side metrics
(``trace.sampling``, ``freq``, ``core.complete_us``, ``service.session`` ...)
prefer the spans of the run's own workload where it has any — the
``stream_few_long`` stream for that workload, the offline stages for
``offline_suite`` — and fall back to the ladder's stream otherwise, so every
run reports every metric and says (``detail.sources``) where each came from.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench.result import scalar
from bench.spans import self_seconds

LADDER = "stream_many_small"
OFFLINE = "offline_suite"
FEW_LONG = "stream_few_long"
RUNGS = ("freq", "session", "service", "shard_ring", "shard_socket", "gateway", "remote")

#: The two streaming workloads must stay on opposite sides of the kernels'
#: share of detection time, or they no longer stress different layers.  The
#: seed commit measures 0.64-0.73 and 0.09-0.13; the limits leave room for run-to-run
#: scatter without letting the two meet.
FREQ_SHARE_MIN_FEW_LONG = 0.5
FREQ_SHARE_MAX_MANY_SMALL = 0.25

#: name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER: dict[str, tuple[str, str]] = {
    "trace.framing.encode_us": ("us", "lower"),
    "trace.framing.split_us": ("us", "lower"),
    "trace.framing.decode_us": ("us", "lower"),
    "trace.framing.bytes_per_frame": ("bytes", "lower"),
    "trace.framing.copied_bytes_per_frame": ("bytes", "lower"),
    "trace.sampling.prepare_us": ("us", "lower"),
    "freq.rfft_us": ("us", "lower"),
    "freq.zscore_us": ("us", "lower"),
    "freq.acf_us": ("us", "lower"),
    "freq.windows": ("count", "higher"),
    "freq.samples_per_window": ("count", "lower"),
    "freq.share": ("fraction", "lower"),
    "core.detect_us": ("us", "lower"),
    "core.complete_us": ("us", "lower"),
    "core.replay_step_us": ("us", "lower"),
    "service.session.ingest_us": ("us", "lower"),
    "service.session.claim_us": ("us", "lower"),
    "service.session.resident_samples": ("count", "lower"),
    "service.session.evicted_samples": ("count", "higher"),
    "service.broker.ingest_self_us": ("us", "lower"),
    "service.batch.groups_per_pump": ("count", "lower"),
    "service.batch.mean_group_size": ("count", "higher"),
    "service.dispatcher.pump_self_us": ("us", "lower"),
    "service.dispatcher.detections": ("count", "higher"),
    "service.dispatcher.coalesced": ("count", "lower"),
    "service.dispatcher.failed": ("count", "lower"),
    "service.publisher.publish_us": ("us", "lower"),
    "service.publisher.published": ("count", "higher"),
    "service.snapshot.seconds": ("s", "lower"),
    "service.snapshot.bytes": ("bytes", "lower"),
    "service.protocol.encode_us": ("us", "lower"),
    "service.protocol.decode_us": ("us", "lower"),
    "service.shm_ring.write_us": ("us", "lower"),
    "service.shm_ring.mb_per_s": ("MB/s", "higher"),
    "service.shm_ring.stalls": ("count", "lower"),
    "service.shm_ring.doorbells_per_frame": ("count", "lower"),
    "service.sharding.route_us": ("us", "lower"),
    "service.sharding.pump_wait_ms": ("ms", "lower"),
    "service.sharding.reshard_s": ("s", "lower"),
    "service.sharding.sessions_moved": ("count", "lower"),
    "service.sharding.double_routed_frames": ("count", "lower"),
    "service.transport.heartbeat_rtt_p50_ms": ("ms", "lower"),
    "service.transport.remote_over_local": ("ratio", "higher"),
    "service.gateway.pump_rtt_ms": ("ms", "lower"),
    "service.gateway.stats_rtt_ms": ("ms", "lower"),
    "client.submit_us": ("us", "lower"),
    "client.bytes_sent_per_flush": ("bytes", "lower"),
    "obs.overhead_share": ("fraction", "lower"),
    **{f"ladder.{rung}.us_per_flush": ("us", "lower") for rung in RUNGS},
    **{f"ladder.{rung}.tax_us": ("us", "lower") for rung in RUNGS[1:]},
    "loadgen.latency_p99_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.offered_per_s": ("flushes/s", "higher"),
    "loadgen.backlog_end": ("count", "lower"),
    "trace_overhead_share": ("fraction", "lower"),
}


class Index:
    """Spans by root and by parent."""

    def __init__(self, spans: list[dict]) -> None:
        self.children: dict[int, list[dict]] = defaultdict(list)
        self.roots: dict[tuple[str, str], dict] = {}
        for span in spans:
            if span["parent"] is None:
                self.roots[(span["workload"], span["name"])] = span
            else:
                self.children[span["parent"]].append(span)

    def root(self, name: str, workload: str) -> dict | None:
        """The root span ``name`` driven by ``workload``'s input, if any."""
        return self.roots.get((workload, name))

    def under(self, root: dict | None, name: str) -> list[dict]:
        """Every descendant of ``root`` called ``name``."""
        found: list[dict] = []
        stack = [root] if root is not None else []
        while stack:
            for child in self.children[stack.pop()["id"]]:
                if child["name"] == name:
                    found.append(child)
                stack.append(child)
        return found


def _seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _quartiles(values: list[float]) -> dict:
    return dict(zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)))


def _us_each(spans: list[dict]) -> float:
    """Microseconds per counted item over a set of spans (0 when there are none)."""
    count = sum(s["count"] for s in spans)
    return _seconds(spans) / count * 1e6 if count else 0.0


def derive(document: dict, workload: str) -> tuple[dict[str, dict], dict]:
    """All per-layer metrics of a traced run, plus the detail behind them."""
    index = Index(document["spans"])
    counters = document["counters"]
    smoke = bool(document.get("meta", {}).get("smoke"))

    # The stream whose own rungs feed the detection-side metrics.
    stream = workload if index.root("session", workload) else LADDER
    offline_run = workload == OFFLINE
    stages = index.root("offline", OFFLINE) if offline_run else index.root("session", stream)
    stage_source = OFFLINE if offline_run else stream
    service = index.root("service", stream)
    session = index.root("session", stream)

    def counter(name: str, tag: str) -> float:
        return float(counters[tag][name])

    value: dict[str, float] = {}

    ingest_path = index.root("ingest_path", stream)
    for stage in ("encode", "split", "decode"):
        value[f"trace.framing.{stage}_us"] = _us_each(index.under(ingest_path, stage))
    value["trace.framing.bytes_per_frame"] = counter("trace.framing.bytes_per_frame", stream)
    value["trace.framing.copied_bytes_per_frame"] = counter(
        "trace.framing.copied_bytes_per_frame", stream
    )

    kernels = index.under(stages, "kernels")
    rfft = index.under(stages, "rfft")
    detect_seconds = sum(
        _seconds(index.under(stages, name)) for name in ("claim", "prepare", "kernels", "complete")
    )
    value["trace.sampling.prepare_us"] = _us_each(index.under(stages, "prepare"))
    for stage in ("rfft", "zscore", "acf"):
        value[f"freq.{stage}_us"] = _us_each(index.under(stages, stage))
    value["freq.windows"] = float(sum(s["count"] for s in kernels))
    value["freq.samples_per_window"] = counter("freq.samples_per_window", stage_source)
    # Time inside the kernel stages (as the observer reports them) over the
    # whole detection: claim + prepare + kernels call + complete.
    value["freq.share"] = (
        sum(_seconds(index.under(stages, stage)) for stage in ("rfft", "zscore", "acf"))
        / detect_seconds
    )
    value["core.complete_us"] = _us_each(index.under(stages, "complete"))
    value["service.batch.groups_per_pump"] = len(rfft) / len(kernels)
    value["service.batch.mean_group_size"] = sum(s["count"] for s in rfft) / len(rfft)

    value["core.detect_us"] = _us_each(index.under(index.root("offline", OFFLINE), "detect"))
    value["core.replay_step_us"] = _us_each(
        index.under(index.root("replay", OFFLINE), "replay_pass")
    )

    value["service.session.ingest_us"] = _us_each(index.under(session, "ingest"))
    value["service.session.claim_us"] = _us_each(index.under(session, "claim"))
    pumps = index.under(service, "pump")
    # feed_bytes minus the decode and the session ingest it wraps, all three
    # timed side by side on the same rounds.
    value["service.broker.ingest_self_us"] = (
        _us_each(index.under(ingest_path, "feed"))
        - value["trace.framing.decode_us"] - _us_each(index.under(ingest_path, "ingest"))
    )
    value["service.dispatcher.pump_self_us"] = (
        (_seconds(pumps) - _seconds(index.under(service, "detect_batch")))
        / sum(s["count"] for s in pumps) * 1e6
    )
    for name in (
        "service.session.resident_samples", "service.session.evicted_samples",
        "service.dispatcher.detections", "service.dispatcher.coalesced",
        "service.dispatcher.failed", "service.publisher.published", "service.snapshot.bytes",
        "loadgen.latency_p99_ms", "loadgen.late_p99_ms", "loadgen.offered_per_s",
        "loadgen.backlog_end",
    ):
        value[name] = counter(name, stream)
    value["service.snapshot.seconds"] = _seconds([index.root("snapshot", stream)])
    value["service.publisher.publish_us"] = _us_each(
        index.under(index.root("publisher", LADDER), "publish")
    )

    protocol = index.root("protocol", LADDER)
    value["service.protocol.encode_us"] = _us_each(index.under(protocol, "protocol_encode"))
    value["service.protocol.decode_us"] = _us_each(index.under(protocol, "protocol_decode"))
    value["service.shm_ring.write_us"] = _us_each(
        index.under(index.root("ring", LADDER), "ring_write")
    )
    for name in (
        "service.shm_ring.mb_per_s", "service.shm_ring.stalls",
        "service.shm_ring.doorbells_per_frame", "service.sharding.sessions_moved",
        "service.sharding.double_routed_frames", "service.transport.heartbeat_rtt_p50_ms",
        "client.bytes_sent_per_flush",
    ):
        value[name] = counter(name, LADDER)

    shard_ring = index.root("shard_ring", LADDER)
    ring_pumps = index.under(shard_ring, "pump")
    value["service.sharding.route_us"] = _us_each(index.under(shard_ring, "submit"))
    value["service.sharding.pump_wait_ms"] = _seconds(ring_pumps) / len(ring_pumps) * 1e3
    value["service.sharding.reshard_s"] = _seconds(
        index.under(index.root("reshard_probe", LADDER), "reshard")
    )

    gateway = index.root("gateway", LADDER)
    gateway_pumps = index.under(gateway, "pump")
    stats_reads = index.under(index.root("stats_probe", LADDER), "stats")
    value["service.gateway.pump_rtt_ms"] = _seconds(gateway_pumps) / len(gateway_pumps) * 1e3
    value["service.gateway.stats_rtt_ms"] = _seconds(stats_reads) / len(stats_reads) * 1e3
    value["client.submit_us"] = _us_each(index.under(gateway, "submit"))

    obs = index.root("obs", LADDER)
    on = [s["end"] - s["start"] for s in index.under(obs, "metrics_on")]
    off = [s["end"] - s["start"] for s in index.under(obs, "metrics_off")]
    value["obs.overhead_share"] = statistics.median(on) / statistics.median(off) - 1.0

    previous = None
    ladder_rows = []
    for rung in RUNGS:
        root = index.root(rung, LADDER)
        each = _us_each(index.under(root, "kernels" if rung == "freq" else "round"))
        value[f"ladder.{rung}.us_per_flush"] = each
        if previous is not None:
            value[f"ladder.{rung}.tax_us"] = each - previous
        ladder_rows.append({"rung": rung, "us_per_flush": each,
                            "tax_us": None if previous is None else each - previous})
        previous = each
    total = value["ladder.gateway.us_per_flush"]
    for row in ladder_rows:
        row["share_of_gateway_total"] = (
            (row["us_per_flush"] if row["tax_us"] is None else row["tax_us"]) / total
        )
    value["service.transport.remote_over_local"] = (
        value["ladder.gateway.us_per_flush"] / value["ladder.remote.us_per_flush"]
    )
    value["trace_overhead_share"] = 1.0 - (
        counter("trace.traced_flushes_per_s", LADDER)
        / counter("trace.untraced_flushes_per_s", LADDER)
    )

    violations: list[str] = []
    if not smoke:
        share = value["freq.share"]
        if workload == FEW_LONG and share < FREQ_SHARE_MIN_FEW_LONG:
            violations.append(
                f"freq.share {share:.3f} on {FEW_LONG} is below {FREQ_SHARE_MIN_FEW_LONG}"
            )
        if stream == LADDER and not offline_run and share > FREQ_SHARE_MAX_MANY_SMALL:
            violations.append(
                f"freq.share {share:.3f} on {LADDER} is above {FREQ_SHARE_MAX_MANY_SMALL}"
            )

    own = self_seconds(document["spans"])
    by_layer: dict[str, float] = defaultdict(float)
    for span in document["spans"]:
        by_layer[f"{span['workload']}:{span['layer']}"] += own[span["id"]]
    detail = {
        "violations": violations,
        "sources": {"detection_stages": stage_source, "service_side": stream, "wire_side": LADDER},
        "ladder": ladder_rows,
        "obs_seconds": {"metrics_on": _quartiles(on), "metrics_off": _quartiles(off),
                        "pairs": len(on), "base": "metrics_off median"},
        "remote_over_local_base": "ladder.gateway flushes/s",
        "self_seconds_by_layer": dict(sorted(by_layer.items())),
        "spans": len(document["spans"]),
    }
    metrics = {name: scalar(value[name], unit) for name, (unit, _) in PER_LAYER.items()}
    return metrics, detail


def ladder_table(rows: list[dict]) -> str:
    lines = [f"{'rung':14s} {'us/flush':>10s} {'tax us':>10s} {'share of gateway total':>24s}"]
    for row in rows:
        tax = "" if row["tax_us"] is None else f"{row['tax_us']:10.1f}"
        lines.append(
            f"{row['rung']:14s} {row['us_per_flush']:10.1f} {tax:>10s} "
            f"{row['share_of_gateway_total']:24.3f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.report", description=__doc__)
    parser.add_argument("trace", type=Path, help="a bench/out/trace-<tag>.json file")
    parser.add_argument("--workload", default=None,
                        help="derive as for this workload (default: the one the run was for)")
    args = parser.parse_args(argv)
    document = json.loads(args.trace.read_text())
    workload = args.workload or document["meta"]["workload"]
    metrics, detail = derive(document, workload)
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}")
    print()
    print(ladder_table(detail["ladder"]))
    for violation in detail["violations"]:
        print("VIOLATION:", violation)
    return 1 if detail["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
