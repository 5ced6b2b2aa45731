"""``python -m bench.serve`` — the server subprocess of the stack topologies.

Starts ``api.serve(ReproConfig(shards=1, ...))`` for the named workload
(``ThreadedGateway`` → ``ShardedService`` → one local shard over the shm
ring, or one dial-home remote shard with ``--shard-port``), prints its
address as one JSON line, then answers one-line commands on stdin:

* ``rss`` → ``{"vm_hwm_kb": ...}`` summed over this process and its shards;
* ``heartbeat N`` → ``{"rtt_s": [...]}`` from ``N`` read-plane probes.

End of input shuts the gateway, the shard and the shm segment down.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.serve", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--shard-port", type=int, default=None)
    args = parser.parse_args(argv)

    import repro.api as api

    from bench.topology import stop_resource_tracker, vm_hwm_kb
    from bench.workloads import STREAMS, smoke_stream

    spec = STREAMS[args.workload]
    if args.smoke:
        spec = smoke_stream(spec)
    config = spec.config(shards=1)
    if args.shard_port is not None:
        config = config.with_(shard_port=args.shard_port, placement=("remote",))

    with api.serve(config) as gateway:
        print(json.dumps({"address": gateway.address}), flush=True)
        for line in sys.stdin:
            command = line.split()
            if command == ["rss"]:
                pids = ["self", *(child.pid for child in multiprocessing.active_children())]
                answer = {"vm_hwm_kb": sum(vm_hwm_kb(pid) for pid in pids)}
            elif len(command) == 2 and command[0] == "heartbeat":
                rtts: list[float] = []
                for _ in range(int(command[1])):
                    rtts.extend(
                        rtt for rtt in gateway.engine.heartbeat().values() if rtt is not None
                    )
                answer = {"rtt_s": rtts}
            else:
                answer = {"error": f"unknown command {line.strip()!r}"}
            print(json.dumps(answer), flush=True)
    stop_resource_tracker()  # else it would outlive this process
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
