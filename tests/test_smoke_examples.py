"""The two CI smoke scripts, run by tier-1 as well.

They lived as Python inside ``.github/workflows/ci.yml`` until PR 21, where
nothing but a CI runner could execute them; the workflow now calls the files
and this test calls their ``main()``.
"""

from __future__ import annotations

import runpy
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
