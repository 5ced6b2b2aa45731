"""The topologies a stream is driven through, behind one small interface.

A *target* has ``submit(bytes)``, ``pump() -> [(update, observed_at)]``,
``drain()``, ``stats()`` and ``close()``; ``submit_layer`` / ``pump_layer``
name the module a span around each call is charged to.

* :class:`EngineTarget` — an engine in this process (``PredictionService`` or
  ``ShardedService``); updates are observed in a ``publisher.subscribe``
  callback.
* :class:`ClientTarget` — one ``ServiceClient`` connection to a
  :class:`Server` subprocess (``bench/serve.py``); updates are observed when
  the ``pump()`` reply arrives.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

import repro.api as api
from repro.service import PredictionService, ShardedService

from bench import ROOT

#: Seconds a server subprocess gets to come up (or go away) before it is killed.
_SPAWN_TIMEOUT = 60.0


class EngineTarget:
    """An in-process engine fed by ``feed_bytes`` and pumped inline."""

    def __init__(self, engine: PredictionService | ShardedService) -> None:
        self.engine = engine
        sharded = isinstance(engine, ShardedService)
        self.submit_layer = "service.sharding" if sharded else "service.broker"
        self.pump_layer = "service.sharding" if sharded else "service.dispatcher"
        self._observed: list[tuple] = []
        engine.publisher.subscribe(self._on_update)

    def _on_update(self, update) -> None:
        self._observed.append((update, time.perf_counter()))

    def _take(self) -> list[tuple]:
        observed, self._observed = self._observed, []
        return observed

    def submit(self, data: bytes) -> None:
        self.engine.feed_bytes(data)

    def pump(self) -> list[tuple]:
        self.engine.pump()
        return self._take()

    def drain(self) -> list[tuple]:
        self.engine.drain()
        return self._take()

    def stats(self) -> dict:
        return self.engine.stats()

    def restore(self, state: dict) -> None:
        self.engine.restore_state(state)

    def rss_kb(self) -> int:
        return 0  # this process is counted by the caller

    def close(self) -> None:
        self.engine.close()


class ClientTarget:
    """One blocking client connection to a server subprocess."""

    submit_layer = "client"
    pump_layer = "service.gateway"

    def __init__(self, server: "Server") -> None:
        self.server = server
        try:
            self.client = api.connect(server.address, name="bench-loadgen")
        except BaseException:
            server.close()
            raise

    def _take(self) -> list[tuple]:
        now = time.perf_counter()
        return [(update, now) for update in self.client.predictions()]

    def submit(self, data: bytes) -> None:
        self.client.submit_bytes(data)

    def pump(self) -> list[tuple]:
        self.client.pump()
        return self._take()

    def drain(self) -> list[tuple]:
        self.client.drain()
        return self._take()

    def stats(self) -> dict:
        return self.client.stats()

    def restore(self, state: dict) -> None:
        self.client.restore(state)

    def rss_kb(self) -> int:
        return self.server.rss_kb()

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.close()


# --------------------------------------------------------------------- #
# server subprocess
# --------------------------------------------------------------------- #
def child_env() -> dict[str, str]:
    """Environment of spawned processes: thread pins inherited, ``src`` importable."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _stop(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """Wait for a process to end; kill it if it will not."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class Server:
    """``python -m bench.serve``: gateway → ``ShardedService`` → one shard.

    With ``remote=True`` the shard is a separate ``python -m repro.shard``
    process dialing home over 127.0.0.1 instead of a local ring shard.  The
    server answers one-line commands on stdin (see ``bench/serve.py``);
    closing stdin makes it shut down, so it cannot outlive this process.

    The constructor only spawns; :meth:`wait_ready` (or the first use of
    :attr:`address`) waits for the server to be up, so a caller can prepare
    its input while the processes import.
    """

    def __init__(self, workload: str, *, smoke: bool = False, remote: bool = False) -> None:
        self._worker: subprocess.Popen | None = None
        self._process: subprocess.Popen | None = None
        self._address: str | None = None
        command = [sys.executable, "-m", "bench.serve", "--workload", workload]
        if smoke:
            command.append("--smoke")
        env = child_env()
        try:
            if remote:
                port = free_port()
                command += ["--shard-port", str(port)]
                # Started first: it retries the dial until the router listens.
                self._worker = subprocess.Popen(
                    [sys.executable, "-m", "repro.shard",
                     "--connect", f"127.0.0.1:{port}", "--name", "bench-remote",
                     "--retries", "300", "--retry-delay", "0.1"],
                    env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                )
            self._process = subprocess.Popen(
                command, env=env, cwd=ROOT, text=True, bufsize=1,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        except BaseException:
            self.close()
            raise

    def wait_ready(self) -> None:
        """Block until the server has reported its address."""
        if self._address is None:
            self._address = self._read_line(_SPAWN_TIMEOUT)["address"]

    @property
    def address(self) -> str:
        """``host:port`` of the gateway."""
        self.wait_ready()
        assert self._address is not None
        return self._address

    def _read_line(self, timeout: float) -> dict:
        assert self._process is not None and self._process.stdout is not None
        readable, _, _ = select.select([self._process.stdout], [], [], timeout)
        line = self._process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                f"bench.serve did not answer within {timeout:.0f}s "
                f"(exit code {self._process.poll()})"
            )
        return json.loads(line)

    def ask(self, command: str, timeout: float = 30.0) -> dict:
        """Send a one-line command, return the one-line JSON answer."""
        assert self._process is not None and self._process.stdin is not None
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()
        return self._read_line(timeout)

    def rss_kb(self) -> int:
        """Peak resident set (``VmHWM``) summed over the server and its shards."""
        total = int(self.ask("rss")["vm_hwm_kb"])
        if self._worker is not None:
            total += vm_hwm_kb(self._worker.pid)
        return total

    def close(self) -> None:
        if self._process is not None:
            if self._process.stdin is not None and not self._process.stdin.closed:
                self._process.stdin.close()  # EOF: the server shuts down cleanly
            _stop(self._process)
            if self._process.stdout is not None:
                self._process.stdout.close()
            self._process = None
        if self._worker is not None:
            # The router is gone; the worker would notice within its
            # heartbeat timeout, but nothing is left for it to finish.
            self._worker.terminate()
            _stop(self._worker)
            self._worker = None


# --------------------------------------------------------------------- #
# one CPU
# --------------------------------------------------------------------- #
def pin_to_one_cpu() -> int | None:
    """Run this process, and every process it starts from now on, on one CPU.

    Every workload is one chain of blocking calls — the generator waits for
    the server, the server for its shard — so one CPU loses it little, and it
    gains two things on a shared host: the calibration kernel
    (:mod:`bench.hostspeed`) runs on the very CPU the work runs on, and no
    hand-over between processes waits for a second virtual CPU to be
    scheduled by the host.  Returns the CPU, ``None`` where affinity cannot
    be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# --------------------------------------------------------------------- #
# leaving no process behind
# --------------------------------------------------------------------- #
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose parent dies.

    ``multiprocessing`` starts a ``resource_tracker`` helper next to anything
    that touches shared memory (the shm ring); it ends only after its parent
    has, so it outlives a server subprocess and would be handed to ``init``.
    As a sub-reaper this process inherits such orphans instead and
    :func:`reap_all` can wait for them.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing is adopted
        pass


def stop_resource_tracker() -> None:
    """End this process's own ``resource_tracker`` helper and wait for it.

    It otherwise runs until this process is gone — that is, it would be the
    one process still alive after the benchmark has exited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _children() -> list[int]:
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid == os.getpid():
                pids.append(int(entry))
    return pids


def reap_all(timeout: float = 10.0) -> None:
    """Wait until every child (adopted ones too) has ended; kill what lingers."""
    stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child is left
        if pid:
            continue
        if time.monotonic() > deadline:
            # Killing a parent hands its children over: keep at it.
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size of a process [kB], 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
