"""Two stub modules exist only so the benchmark's layer sites resolve.

``repro.sim.traceplane`` and ``repro.cpu.replay_native`` keep the names
that ``perfbench/layers.py`` wraps for its ``plane`` and
``replay.native`` layers, looked up in the owner's ``__dict__``.  No
module of the package may import either, so deleting them once the
benchmark drops those layers touches nothing else; and the trace-plane
stub raises rather than pretending to publish anything.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

STUBS = ("repro.sim.traceplane", "repro.cpu.replay_native")


def _imported_names(path: Path) -> set:
    """Every dotted name ``path`` imports, or names as a string literal."""
    package = path.relative_to(SRC).parent.parts
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + ((base,) if base else ()))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_module_imports_a_stub():
    importers = {
        path.relative_to(SRC).as_posix(): sorted(
            set(STUBS) & _imported_names(path))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }
    assert not {path: stubs for path, stubs in importers.items() if stubs}


@pytest.mark.parametrize("module, owner, attrs", [
    ("repro.sim.traceplane", "TracePlane", ("acquire", "acquire_stream")),
    ("repro.cpu.replay_native", None, ("run_native",)),
])
def test_the_benchmark_sites_resolve(module, owner, attrs):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    for attr in attrs:
        assert callable(target.__dict__[attr])


@pytest.mark.parametrize("method", ["acquire", "acquire_stream"])
def test_the_trace_plane_stub_refuses_to_run(method):
    from repro.sim.traceplane import TracePlane

    with pytest.raises(RuntimeError, match="trace plane was removed"):
        getattr(TracePlane(), method)(object(), 10, 1.0)
