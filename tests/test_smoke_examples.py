"""The two CI smoke scripts and the first-page examples, run by tier-1.

The smoke scripts lived as Python inside ``.github/workflows/ci.yml`` until
PR 21, where nothing but a CI runner could execute them; the workflow now
calls the files and this test calls their ``main()``.  ``quickstart.py`` and
``online_prediction.py`` are what the README sends a reader to first and print
periods; ``io_scheduling.py`` runs Figure 17 on the streaming service.  Every
example that writes files runs with the temporary directory redirected, which
it must leave empty.
"""

from __future__ import annotations

import re
import runpy
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "script, last_line",
    [
        ("smoke_gateway_ops.py", "no thread left"),
        ("smoke_federation.py", "federation smoke OK:"),
    ],
)
def test_smoke_script_runs_clean(script, last_line, capsys):
    runpy.run_path(str(EXAMPLES / script))["main"]()
    assert last_line in capsys.readouterr().out.strip().splitlines()[-1]


def _run(script: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / script))["main"]()
    return capsys.readouterr().out


def test_quickstart_detects_its_own_period(capsys):
    out = _run("quickstart.py", capsys)
    error = re.search(r"detection error:\s+([0-9.]+)%", out)
    assert error is not None, out
    assert float(error.group(1)) < 5.0


def test_io_scheduling_cuts_the_io_slowdown(capsys):
    out = _run("io_scheduling.py", capsys)
    assert re.search(r"^configuration\s+stretch\s+I/O slowdown\s+utilization$", out, re.M), out
    change = re.search(r"^\s+I/O slowdown\s+([+-]\d+)% \(paper: -56%\)$", out, re.M)
    assert change is not None, out
    assert int(change.group(1)) < 0


def _tracks_the_generator(out: str) -> None:
    truth = float(re.search(r"Ground-truth mean period: ([0-9.]+) s", out).group(1))
    rows = re.findall(r"^\s+\d+\s+[0-9.]+\s+\[.*?\]\s+([0-9.]+)\s+\d+%$", out, flags=re.M)
    assert len(rows) >= 8, out
    # Not 1 %: the window is clipped to the last *write*, 0.8 s before each
    # flush (the read phase), so this loop settles near P - 0.8 s, not P.
    assert float(rows[-1]) == pytest.approx(truth, rel=0.10)


#: The examples that write files, each with a line its report must print.
WRITERS = {
    "online_prediction.py": "Ground-truth mean period",
    "streaming_service.py": "restored service answers identically",
    "darshan_nek5000.py": "restricting the window recovers",
    "sharded_service.py": "all shards shut down cleanly.",
}


@pytest.mark.parametrize("script", sorted(WRITERS))
def test_example_runs_and_leaves_no_temp_files(script, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = _run(script, capsys)
    assert WRITERS[script] in out
    if script == "online_prediction.py":
        _tracks_the_generator(out)
    assert list(tmp_path.iterdir()) == []
