"""``docs/protocol.md``'s registry tables are a hand-kept copy of the field list.

The message declarations in :mod:`repro.service.protocol` are the one source
the parser reads; the three registry tables of the wire-protocol document say
the same thing to a human.  This holds the copy to the source: a row per code
with the class name, the field names in declaration order, ``?`` exactly on
the ``| None`` fields, ``[]`` exactly on the array fields, a *retired* row for
each retired code and none for a code that was never assigned.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from repro.service import protocol as proto

DOC = Path(__file__).resolve().parents[2] / "docs" / "protocol.md"
RETIRED = (13, 14, 27)
#: A documented field: `name`, `name?`, `name[]` or `name[]?` — a quoted
#: value such as `"data"` is not one.
FIELD = re.compile(r"`([a-z_]+)(\[\])?(\?)?`")


def registry_rows() -> dict[int, tuple[str, str]]:
    """``code -> (message cell, fields cell)`` of the three registry tables."""
    registry = DOC.read_text(encoding="utf-8").split("### Message type registry", 1)[1]
    rows: dict[int, tuple[str, str]] = {}
    for line in registry.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            assert int(cells[0]) not in rows, f"code {cells[0]} has two rows"
            rows[int(cells[0])] = (cells[1], cells[3])
    return rows


def test_one_row_per_code_and_a_retired_row_per_retired_code():
    rows = registry_rows()
    assert sorted(rows) == sorted([*proto.MESSAGE_TYPES, *RETIRED])
    for code, cls in proto.MESSAGE_TYPES.items():
        assert rows[code][0] == f"`{cls.__name__}`"
    for code in RETIRED:
        assert rows[code][0].startswith("*retired*")
        assert not FIELD.search(rows[code][1])


def test_fields_are_the_declaration():
    rows = registry_rows()
    for code, cls in proto.MESSAGE_TYPES.items():
        documented = FIELD.findall(rows[code][1])
        declared = [
            (f.name, "[]" * f.type.startswith("tuple["), "?" * f.type.endswith("| None"))
            for f in fields(cls)
        ]
        assert documented == declared, f"{code} {cls.__name__}"
        if not declared:
            assert rows[code][1] == "—"
