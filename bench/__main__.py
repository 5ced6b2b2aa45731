"""``python -m bench`` — run one workload (or all four) and print its metrics.

::

    python -m bench --workload stream_few_long --seed 1 --seconds 10 --trace 0
    python -m bench --workload stream_many_small --seed 1 --trace 1   # per-layer run
    python -m bench --seed 1 --smoke                                  # all four, toy scale

Every metric is printed by name with its unit, the full result is written
under ``bench/out/`` (and nowhere else), and the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exit status is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from bench import ROOT


def _parse(argv: list[str] | None) -> argparse.Namespace:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the input generator; same seed, same bytes")
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="length of the timed section (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced per-layer run; 0 (default): end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: every code path, a few seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: bench/out/<tag>.json)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: falsify one expected value; the run must then fail")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    args.declared = declared
    return args


def _run_one(workload: str, args: argparse.Namespace):
    from bench import offline, streaming
    from bench.workloads import OFFLINE_SUITE, STREAMS, smoke_offline, smoke_stream

    if args.trace:
        from bench import ladder

        return ladder.run(
            workload, args.seed, args.seconds, smoke=args.smoke,
            corrupt=args.corrupt_reference, trace_path=_out_path(args, workload, "trace-"),
        )
    if workload == OFFLINE_SUITE.name:
        spec = smoke_offline(OFFLINE_SUITE) if args.smoke else OFFLINE_SUITE
        return offline.run(spec, args.seed, args.seconds, corrupt=args.corrupt_reference)
    spec = smoke_stream(STREAMS[workload]) if args.smoke else STREAMS[workload]
    return streaming.run(
        spec, args.seed, args.seconds, smoke=args.smoke, corrupt=args.corrupt_reference
    )


def _out_path(args: argparse.Namespace, workload: str, prefix: str = "") -> Path:
    """Result file of one workload (``prefix="trace-"``: its span file)."""
    if args.out is None:
        tag = f"{workload}-seed{args.seed}" + "-traced" * args.trace + "-smoke" * args.smoke
        return ROOT / "bench" / "out" / f"{prefix}{tag}.json"
    stem = args.out.stem if len(args.workloads) == 1 else f"{args.out.stem}-{workload}"
    return args.out.with_name(f"{prefix}{stem}.json")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"bench: the program under test is not importable ({exc}); "
              f"run from a checkout that has src/", file=sys.stderr)
        return 2

    from bench.topology import adopt_orphans, pin_to_one_cpu, reap_all

    # A terminated run must still stop its server processes: turn SIGTERM
    # into an exception so every ``finally`` on the way out runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopt_orphans()
    args.cpu = pin_to_one_cpu()
    try:
        return _run(args)
    finally:
        # Whatever the run started — server, shards, their multiprocessing
        # helpers — has ended and been waited for before this process exits.
        reap_all()


def _run(args: argparse.Namespace) -> int:
    from bench.result import environment, write_result

    env = environment()
    env["pinned_cpu"] = args.cpu
    expected = {
        m["name"]: m["unit"]
        for m in args.declared["per_layer" if args.trace else "end_to_end"]
    }
    outcomes = {}
    for workload in args.workloads:
        outcome = _run_one(workload, args)
        if {n: m["unit"] for n, m in outcome.metrics.items()} != expected:
            raise SystemExit(
                f"bench: {workload} emitted metrics that differ from BENCHMARK.json: "
                f"{sorted(set(outcome.metrics) ^ set(expected))}"
            )
        outcomes[workload] = outcome
        write_result(_out_path(args, workload), {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "smoke": args.smoke, "environment": env,
            "correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": outcome.metrics,
            "unresolved": outcome.unresolved, "detail": outcome.detail,
        })
        for name, metric in outcome.metrics.items():
            spread = (
                f"  [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n {metric['n']}]"
                if "n" in metric else ""
            )
            note = "  UNRESOLVED: " + outcome.unresolved[name] if name in outcome.unresolved else ""
            print(f"{workload:18s} {name:38s} {metric['value']:14.6g} {metric['unit']}{spread}{note}")
        print(f"{workload:18s} attempted {outcome.attempted}  failed {outcome.failed}  "
              f"correct {outcome.correct}")

    if len(outcomes) == 1:
        (outcome,) = outcomes.values()
        print(outcome.contract_line())
    else:
        print(json.dumps({
            "correct": all(o.correct for o in outcomes.values()),
            "attempted": sum(o.attempted for o in outcomes.values()),
            "failed": sum(o.failed for o in outcomes.values()),
            "metrics": {
                f"{workload}.{name}": {"value": m["value"], "unit": m["unit"]}
                for workload, o in outcomes.items() for name, m in o.metrics.items()
            },
        }))
    return 0 if all(o.correct for o in outcomes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
