"""The dependency direction of ``src/repro``, as a test.

The graph is ``utils ← trace``, ``utils ← freq``, ``{trace, freq} ← core ←
service``: the spectral kernels sit in ``core`` *because* it may import both
``freq`` (transforms, detectors) and ``trace`` (``DiscreteSignal``) while
``freq`` imports neither, and every caller — offline ``api.detect``, the
replay, the service's batch loop — reaches them downwards.  An import against
that direction would let a second copy of the pipeline grow where it could not
be shared, so the edges are asserted here.

Recorded, not asserted: ``service ↔ scheduling ↔ cluster`` is a cycle
(``service.provider`` imports ``scheduling.periods`` and, like
``service.bridge``, ``cluster.job``; ``scheduling.periods`` imports
``service.provider`` and ``cluster.simulator`` imports ``scheduling.baseline``,
both inside a function), left alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: layer → the layers nothing in it may import.
FORBIDDEN = {
    "trace": {"freq", "core", "service"},
    "freq": {"trace", "core", "service"},
    "core": {"service", "client", "api"},
}


def _imported_layers(path: Path) -> set[str]:
    """Second-level names of every ``repro.*`` module ``path`` imports."""
    package = ("repro", *path.relative_to(PACKAGE).parts[:-1])
    layers = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[: len(package) - node.level + 1]) if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            # ``from repro import api`` names its layer in the alias.
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                layers.add(parts[1])
    return layers


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_above_it(layer):
    files = sorted((PACKAGE / layer).rglob("*.py"))
    assert files, f"no sources under {PACKAGE / layer}"
    found = {
        str(path.relative_to(PACKAGE)): sorted(_imported_layers(path) & FORBIDDEN[layer])
        for path in files
    }
    assert not {path: layers for path, layers in found.items() if layers}


def test_the_walker_sees_what_it_should():
    """The check is only as good as the walker: it finds the edges the tree has."""
    assert {"freq", "trace", "core"} <= _imported_layers(PACKAGE / "core" / "kernels.py")
    assert "core" in _imported_layers(PACKAGE / "service" / "batch.py")
    assert _imported_layers(PACKAGE / "freq" / "autocorr.py") <= {
        "freq", "utils", "constants", "exceptions",
    }


#: Modules that read config fields only to carry them, never to act on them:
#: ``api`` lowers ``ReproConfig`` onto the layer configs, ``service.transport``
#: ships ``ServiceConfig`` to a remote worker.
CARRIERS = {"api.py", "service/transport.py"}


def _attributes_read(path: Path) -> set[str]:
    """Every ``x.name`` that ``path`` loads (reads, not assigns)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_service_and_session_option_has_a_reader():
    """An option that only the carriers read is an option nothing applies."""
    from dataclasses import fields

    from repro.service.service import ServiceConfig
    from repro.service.session import SessionConfig

    read = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() not in CARRIERS:
            read |= _attributes_read(path)
    options = {f.name for cls in (ServiceConfig, SessionConfig) for f in fields(cls)}
    assert options - read == set()
