"""``python -m repro.shard`` — run one dial-home federated shard worker.

The remote half of the multi-host topology: point it at a router whose
``ServiceConfig.shard_port`` is set, and it joins the ring as a worker
shard::

    python -m repro.shard --connect router-host:9400 --token 7

The process serves until the router closes or releases it (clean exit), and
exits non-zero on a rejected handshake (bad token, version mismatch) or an
unreachable router — so a supervisor (systemd, a container runtime) can tell
"done" from "misconfigured".
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ProtocolError, ServiceError


def _parse_connect(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"--connect expects HOST:PORT, got {value!r}"
        )
    return host, int(port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description="Dial home to a sharded prediction router and serve as a worker shard.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        type=_parse_connect,
        metavar="HOST:PORT",
        help="the router's shard listener (ServiceConfig.shard_port)",
    )
    parser.add_argument(
        "--token", type=int, default=None,
        help="tenant token; must match the router's",
    )
    parser.add_argument(
        "--name", default=None,
        help="worker identity shown in shard_details() (default hostname:pid)",
    )
    parser.add_argument(
        "--retries", type=int, default=30,
        help="dial attempts before giving up (default 30)",
    )
    parser.add_argument(
        "--retry-delay", type=float, default=0.5,
        help="seconds between dial attempts (default 0.5)",
    )
    args = parser.parse_args(argv)
    host, port = args.connect

    from repro.service.shard_worker import ShardWorker

    worker = ShardWorker(
        host,
        port,
        token=args.token,
        name=args.name,
        retries=args.retries,
        retry_delay=args.retry_delay,
    )
    try:
        worker.run()
    except (ServiceError, ProtocolError, OSError) as exc:
        print(f"repro-shard: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
