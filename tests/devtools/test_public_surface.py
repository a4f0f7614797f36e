"""Public-surface census: every public name in ``src/repro`` has a reader.

A public module-level ``def`` / ``class``, or a public method of a public
class, must be read somewhere in ``src/``, ``examples/`` or ``benchmarks/``
other than its own definition and a package ``__init__`` re-export.
Functions and classes count any name or attribute reference; methods count
attribute reads only (``obj.name``, or ``getattr(obj, "name")``).  A name
that only ``tests/`` reads is dead surface: delete it, or move it into
``tests/`` if a test needs it as an oracle.  Run this test before adding a
public name.

Exempt: dunders and simlint's ``visit_*`` methods (``ast.NodeVisitor``
dispatches to them by name).  ``ALLOWED`` lists the few kept names, one
reason each.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "examples", "benchmarks")

ALLOWED: dict[str, str] = {
    "repro.devtools.differential.assert_engines_agree": (
        "the README's differential-testing entry point; test suites are its callers by design"
    ),
    "repro.hw.event.PreemptiveJob.served_s": (
        "per-job served work, the server's conservation invariant; tests/hw/test_event.py "
        "sums it against the server's own accumulator"
    ),
    "repro.hw.memory.hierarchy.HierarchicalKVManager.fetch": (
        "the KVMU's cluster-wise fetch layout (paper Sec. V-C); tests/hw pin its transfer "
        "grouping, and examples/streaming_camera_agent.py drives the same manager"
    ),
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path) -> list[tuple[str, str, bool]]:
    """``(qualname, name, is_method)`` of every public top-level def/class."""
    found: list[tuple[str, str, bool]] = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        found.append((node.name, node.name, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not _is_public(item.name) or item.name.startswith("visit_"):
                    continue
                found.append((f"{node.name}.{item.name}", item.name, True))
    return found


def _references(path: Path) -> tuple[set[str], set[str]]:
    """Names read as bare names, and names read as attributes, in ``path``."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            attributes.add(node.args[1].value)
    return names, attributes


def unread_public_names() -> list[str]:
    """Qualified names of public definitions nothing outside ``tests/`` reads."""
    names: set[str] = set()
    attributes: set[str] = set()
    for reader in READERS:
        for path in sorted((ROOT / reader).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            file_names, file_attributes = _references(path)
            names |= file_names
            attributes |= file_attributes
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(PACKAGE.parent).with_suffix("")
        for qualname, name, is_method in _definitions(path):
            read = name in attributes or (not is_method and name in names)
            if not read:
                unread.append(f"{'.'.join(module.parts)}.{qualname}")
    return unread


def test_every_public_name_has_a_reader():
    unread = [name for name in unread_public_names() if name not in ALLOWED]
    assert unread == [], (
        f"{len(unread)} public names are read only by tests/; delete them or "
        f"add each to ALLOWED with a reason: {unread}"
    )


def test_allow_list_is_live_and_reasoned():
    unread = set(unread_public_names())
    for name, reason in ALLOWED.items():
        assert reason.strip(), f"{name} has no reason"
        assert name in unread, f"{name} has a reader now; drop it from ALLOWED"
