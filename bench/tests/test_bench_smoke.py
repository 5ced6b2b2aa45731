"""Smoke test of the benchmark itself: toy scale, every code path.

Three ``python -m bench --smoke`` processes run side by side (all four
workloads end to end, one traced run, one run with a falsified reference);
the tests then check what they printed and wrote against ``BENCHMARK.json``.
Nothing here asserts a speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Directories whose contents may change while the suite runs.
_VOLATILE = {".git", ".pytest_cache", ".hypothesis", "__pycache__", "out"}


def _tree() -> dict[str, tuple[int, int]]:
    """Size and mtime of every file of the checkout outside ``bench/out``."""
    seen = {}
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in _VOLATILE]
        for name in files:
            path = Path(directory, name)
            stat = path.stat()
            seen[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return seen


def _bench(*args: str, out: Path) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, "-m", "bench", "--smoke", "--seed", "1", "--seconds", "1",
         "--out", str(out), *args],
        cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    before = _tree()
    started = {
        "end_to_end": _bench(out=out / "e2e.json"),
        "traced": _bench("--workload", "stream_many_small", "--trace", "1",
                         out=out / "traced.json"),
        "corrupt": _bench("--workload", "stream_many_small", "--corrupt-reference",
                          out=out / "corrupt.json"),
    }
    finished = {}
    for name, process in started.items():
        stdout, stderr = process.communicate(timeout=170)
        finished[name] = (process.returncode, stdout, stderr)
    return {"out": out, "before": before, "after": _tree(), **finished}


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_names_and_limits():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 2 <= len(WORKLOADS) <= 8
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_end_to_end_run_emits_exactly_what_is_declared(runs):
    code, stdout, stderr = runs["end_to_end"]
    assert code == 0, stderr
    line = _last_line(stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        f"{workload}.{name}": unit for workload in WORKLOADS for name, unit in declared.items()
    }
    for workload in WORKLOADS:
        result = json.loads((runs["out"] / f"e2e-{workload}.json").read_text())
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["failed"] == 0 and result["detail"]["failed_share"] == 0
        assert result["seed"] == 1
        assert {"nproc", "loadavg_start", "python", "numpy", "commit"} <= set(
            result["environment"]
        )


def test_traced_run_emits_every_per_layer_metric_and_a_span_file(runs):
    code, stdout, stderr = runs["traced"]
    assert code == 0, stderr
    line = _last_line(stdout)
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }
    trace = json.loads((runs["out"] / "trace-traced.json").read_text())
    assert {"id", "parent", "name", "layer", "workload", "start", "end", "count"} == set(
        trace["spans"][0]
    )
    metrics = line["metrics"]
    taxes = sum(v["value"] for k, v in metrics.items() if k.endswith(".tax_us"))
    assert taxes == pytest.approx(
        metrics["ladder.remote.us_per_flush"]["value"]
        - metrics["ladder.freq.us_per_flush"]["value"]
    )


def test_same_seed_same_bytes(runs):
    digests = {
        json.loads((runs["out"] / name).read_text())["detail"]["stream_sha256"]
        for name in ("e2e-stream_many_small.json", "e2e-stack_many_small.json", "traced.json")
    }
    assert len(digests) == 1


def test_falsified_reference_fails_the_run(runs):
    code, stdout, _ = runs["corrupt"]
    assert code != 0
    line = _last_line(stdout)
    assert line["correct"] is False and line["failed"] >= 1


def test_nothing_is_written_outside_the_output_directory(runs):
    assert runs["before"] == runs["after"]


def test_compare_verdicts(tmp_path):
    from bench import compare

    def write(side: str, workload: str, values: dict[str, list[float]]) -> Path:
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        for run in range(len(next(iter(values.values())))):
            (directory / f"{workload}-{run}.json").write_text(json.dumps({
                "workload": workload, "traced": False,
                "metrics": {k: {"value": v[run], "unit": "x"} for k, v in values.items()},
            }))
        return directory

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    parent = write("parent", "stream_many_small", {
        "flushes_per_s": steady, "latency_p50_ms": steady,
        "peak_rss_mb": steady, "setup_s": [1.0, 2.0, 0.5, 1.8, 0.6],
    })
    change = write("change", "stream_many_small", {
        "flushes_per_s": [v * 0.5 for v in steady],      # slower: regressed
        "latency_p50_ms": [v * 0.5 for v in steady],     # faster: improved
        "peak_rss_mb": [v * 1.01 for v in steady],       # within the bound
        "setup_s": [1.1, 1.9, 0.6, 1.7, 0.7],            # too scattered to tell
    })
    rows, regressed = compare.compare([parent], [change])
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "flushes_per_s": "regressed", "latency_p50_ms": "improved",
        "peak_rss_mb": "unchanged", "setup_s": "unresolved",
    }
    assert regressed
    assert compare.main(["--parent", str(parent), "--change", str(parent)]) == 0
