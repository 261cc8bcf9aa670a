"""The docs and the code name the same ``REPRO_*`` environment variables.

A variable the docs describe must be read somewhere under ``src/``,
``tools/`` or ``perfbench/`` (as a string literal naming it), and
every variable those trees name must be documented in README.md,
DESIGN.md or ``docs/``.  A deleted switch thus cannot linger in the
docs, and a new one cannot ship undocumented.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The user-facing docs: README.md, DESIGN.md and every page of docs/.
DOCS = (ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md")))

#: The trees whose Python code may read a variable.
CODE_TREES = ("src", "tools", "perfbench")

_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


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
