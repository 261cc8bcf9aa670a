"""The docs cite only variables, paths, names and flags that exist.

Four checks over README.md, DESIGN.md and ``docs/``:

* The docs and the code name the same ``REPRO_*`` environment
  variables.  A variable the docs describe must be read somewhere
  under ``src/``, ``tools/`` or ``perfbench/`` (as a string literal
  naming it), and every variable those trees name must be documented.
  A deleted switch thus cannot linger in the docs, and a new one
  cannot ship undocumented.
* Every repository path in an inline code span exists.  A span is a
  path when it is made of name characters, dots, dashes and slashes
  only, and either starts at a top-level entry of the checkout, of
  ``src/`` or of ``src/repro/`` (``tests/...``, ``repro/sim/...``,
  ``cpu/kernel.c``), or is a bare file name with a source suffix,
  which must then sit at the top of the checkout.  A ``::`` suffix
  names a class or function that the file must define.  Files the
  program writes where its user points it (:data:`OUTPUTS`) are not
  repository paths.
* Every ``repro.*`` dotted name in an inline code span imports or
  resolves to an attribute, ignoring a trailing call.  Neither check
  accepts the stub modules kept only for the benchmark.
* Every ``--flag`` of a ``python -m repro ...`` or ``python -m
  repro.experiments ...`` command, in an inline code span or a fenced
  block, is an option of that entry point's parser: the subcommand's
  parser of :func:`repro.cli.build_parser`, or the experiments
  driver's.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from tests.test_stubs import STUBS

ROOT = Path(__file__).resolve().parents[1]

#: The user-facing docs: README.md, DESIGN.md and every page of docs/.
DOCS = (ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md")))

#: The trees whose Python code may read a variable.
CODE_TREES = ("src", "tools", "perfbench")

_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")

#: Fenced code blocks, and the inline code spans left outside them.
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")

_PATH = re.compile(r"[\w.\-]+(?:/[\w.\-]*)*")

#: A command of either entry point, up to a pipe, a list operator or a
#: shell comment.
_COMMAND = re.compile(
    r"python3? -m (repro\.experiments|repro)(?![\w.])([^|;&#]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_DOTTED = re.compile(r"(repro(?:\.\w+)+)(?:\(.*\))?")

#: Suffixes that make a bare file name a repository path.
SOURCE_SUFFIXES = (".py", ".c", ".md", ".json", ".toml", ".yml")

#: Output files the docs name; the program writes them, the checkout
#: holds none.
OUTPUTS = frozenset({"telemetry.json", "trace.json"})

#: Where a path may be rooted: the checkout, ``src/`` and the package.
PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")

#: The files of the stub modules, relative to the checkout.
STUB_FILES = frozenset(
    "src/" + name.replace(".", "/") + ".py" for name in STUBS)


def code_spans():
    """``(doc, span)`` for every inline code span of the docs."""
    for path in DOCS:
        text = _FENCE.sub("", path.read_text(encoding="utf-8"))
        doc = path.relative_to(ROOT).as_posix()
        for span in _SPAN.findall(text):
            yield doc, span


def command_texts():
    """``(doc, text)`` for every code span and fenced-block line.

    Fenced lines ending in a backslash are joined with the next.
    """
    for doc, span in code_spans():
        yield doc, span
    for path in DOCS:
        doc = path.relative_to(ROOT).as_posix()
        for block in _FENCE.findall(path.read_text(encoding="utf-8")):
            for line in block.replace("\\\n", " ").splitlines():
                yield doc, line


def entry_point_parser(entry: str, words) -> argparse.ArgumentParser:
    """The parser of ``python -m <entry> <words...>``.

    For ``repro`` it is the subcommand's parser when the first word
    names one, else the top-level parser.
    """
    if entry == "repro.experiments":
        from repro.experiments.__main__ import _build_parser
        return _build_parser()
    from repro.cli import build_parser
    parser = build_parser()
    subcommands, = [action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    return subcommands.get(words[0], parser) if words else parser


def unknown_flags(text: str) -> list:
    """The flags of the entry-point commands in ``text`` that their
    parser does not take, as ``"<entry> <first word>: --flag"``."""
    unknown = []
    for entry, rest in _COMMAND.findall(text):
        words = rest.split()
        options = {option for action in
                   entry_point_parser(entry, words)._actions
                   for option in action.option_strings}
        where = " ".join([entry] + words[:1])
        unknown += [f"{where}: {flag}" for flag in _FLAG.findall(rest)
                    if flag not in options]
    return unknown


def repository_path(span: str):
    """``(path, names)`` when ``span`` names a repository path, else None.

    ``names`` are the ``::``-separated test or function names after it.
    """
    path, *names = span.split("::")
    if span in OUTPUTS or not _PATH.fullmatch(path):
        return None
    if "/" in path:
        first = path.split("/")[0]
        if not any((root / first).exists() for root in PATH_ROOTS):
            return None
    elif Path(path).suffix not in SOURCE_SUFFIXES:
        return None
    return path, names


def resolve_path(path: str):
    """The checkout-relative file ``path`` names, or None."""
    roots = PATH_ROOTS if "/" in path else (ROOT,)
    for root in roots:
        target = root / path
        if target.exists():
            return target.relative_to(ROOT).as_posix()
    return None


def resolves(dotted: str) -> bool:
    """Whether a ``repro.*`` name imports, or is an attribute of a module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ImportError:
            continue
        if module in STUBS:
            return False
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def documented_names() -> dict:
    """Variable name -> the first doc that mentions it."""
    names = {}
    for path in DOCS:
        for name in _NAME.findall(path.read_text(encoding="utf-8")):
            names.setdefault(name, path.relative_to(ROOT).as_posix())
    return names


def code_names() -> dict:
    """Variable name -> the first file holding it as a string literal."""
    names = {}
    for tree in CODE_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(module):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and _NAME.fullmatch(node.value)):
                    names.setdefault(node.value,
                                     path.relative_to(ROOT).as_posix())
    return names


def test_every_documented_variable_is_read():
    code = code_names()
    stale = {name: doc for name, doc in documented_names().items()
             if name not in code}
    assert not stale, f"documented but never read: {stale}"


def test_every_variable_read_is_documented():
    docs = documented_names()
    undocumented = {name: path for name, path in code_names().items()
                    if name not in docs}
    assert not undocumented, f"read but never documented: {undocumented}"


def test_every_cited_path_exists():
    missing = []
    for doc, span in code_spans():
        cited = repository_path(span)
        if cited is None:
            continue
        path, names = cited
        found = resolve_path(path)
        if found is None or found in STUB_FILES:
            missing.append((doc, span))
            continue
        text = (ROOT / found).read_text(encoding="utf-8") if names else ""
        if any(not re.search(rf"^\s*(?:class|def) {re.escape(name)}\b",
                             text, re.M) for name in names):
            missing.append((doc, span))
    assert not missing, f"cited but missing: {missing}"


def test_every_dotted_name_resolves():
    unresolved = [(doc, span) for doc, span in code_spans()
                  if (match := _DOTTED.fullmatch(span))
                  and not resolves(match.group(1))]
    assert not unresolved, f"cited but unresolved: {unresolved}"


def test_every_cited_flag_exists():
    unknown = [(doc, flag) for doc, text in command_texts()
               for flag in unknown_flags(text)]
    assert not unknown, f"cited but not an option: {unknown}"


@pytest.mark.parametrize("text, expected", [
    ("python -m repro sweep ora --policy mc=1 --workers 2 --scale 0.5", []),
    ("python -m repro sweep --no-such-flag", ["repro sweep: --no-such-flag"]),
    ("python -m repro cache stats --workers 2", ["repro cache: --workers"]),
    ("python -m repro.experiments all --progress --out r.txt --csv d/", []),
    ("python -m repro.experiments fig5 --max-mb 1",
     ["repro.experiments fig5: --max-mb"]),
    ("python -m repro --bogus", ["repro --bogus: --bogus"]),
    ("REPRO_TRACE_FILE=t.jsonl python -m repro.experiments fig5 --scale 1",
     []),
    ("python -m repro cache stats --json | python -c 'x --nope'", []),
    ("python -m repro cache gc --max-mb 256   # not --a-flag", []),
    ("python -m repro.cli --help", []),
    ("pip install --upgrade repro", []),
])
def test_what_counts_as_an_unknown_flag(text, expected):
    assert unknown_flags(text) == expected


@pytest.mark.parametrize("span, expected", [
    ("src/repro/cpu/kernel.c", ("src/repro/cpu/kernel.c", [])),
    ("cpu/kernel.c", ("cpu/kernel.c", [])),
    ("kernel.c", ("kernel.c", [])),
    ("tests/sim/test_planner.py::TestBitEquality",
     ("tests/sim/test_planner.py", ["TestBitEquality"])),
    ("sim/confidence.replicate", ("sim/confidence.replicate", [])),
    ("telemetry.json", None),
    ("v2/store.sqlite", None),
    ("/dev/shm", None),
    ("fc=1/2", None),
    ("kernel-<digest>.c", None),
    ("repro.sim.parallel", None),
])
def test_what_counts_as_a_path(span, expected):
    assert repository_path(span) == expected


def test_stubs_and_typos_do_not_resolve():
    assert resolves("repro.sim.parallel.dispatch")
    assert resolves("repro.cpu.isa.NUM_REGS")
    assert not resolves("repro.sim.parallel.no_such_name")
    assert not resolves("repro.sim.traceplane")
    assert not resolves("repro.sim.traceplane.TracePlane")
    assert resolve_path("kernel.c") is None
    assert resolve_path("cpu/kernel.c") == "src/repro/cpu/kernel.c"
