"""Public-surface census: every public name in ``src/repro`` has a reader.

A public module-level ``def`` / ``class``, or a public method of a public
class, must be read somewhere in ``src/``, ``examples/`` or ``benchmarks/``
other than its own definition and a package ``__init__`` re-export.
Functions and classes count any name or attribute reference; methods count
attribute reads only (``obj.name``, or ``getattr(obj, "name")``); a read
inside a function of the same name does not count.  A name that only
``tests/`` reads is dead surface: delete it, or move it into ``tests/`` if
a test needs it as an oracle.  Run this test before adding a public name.
Readers are matched by name, so a namesake elsewhere keeps a name alive;
``traffic_census.py`` beside this file checks what actually runs.

Exempt: dunders and simlint's ``visit_*`` methods (``ast.NodeVisitor``
dispatches to them by name).  ``ALLOWED`` lists the few kept names, one
reason each; ``UNTRACED`` the names only the traffic census exempts.
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
    "repro.sim.scheduler.ScheduleResult.timeline": (
        "the run's activity timeline; kept until ROADMAP item 2 decides how a run is "
        "exported to a trace viewer"
    ),
    "repro.sim.fleet.FleetResult.timeline": (
        "the fleet's merged activity timeline; kept with ScheduleResult.timeline until "
        "ROADMAP item 2 decides it"
    ),
}

#: Names ``traffic_census.py`` may find never entered although something
#: outside ``tests/`` reads them, one reason each (``ALLOWED`` names count
#: too).  The census fails on an entry here that did run.
UNTRACED: dict[str, str] = {
    "repro.core.retrieval_base.KVRetriever.spawn": (
        "the clone-and-reset default SessionBatch uses for a retriever that does not "
        "override spawn (ReSVRetriever does)"
    ),
    "repro.devtools.differential.diff_records": (
        "the engines' record diff (ROADMAP item 6); runs when two record sequences differ"
    ),
    "repro.devtools.sanitizer.EventTrace.tail": (
        "renders a SanitizerError's trace; runs only when a check fails"
    ),
    "repro.devtools.sanitizer.arm": (
        "what a driver's --sanitize calls; the census arms through REPRO_SANITIZE instead"
    ),
    "repro.devtools.simlint.Finding.render": "prints a lint finding; runs only when simlint fails",
    "repro.experiments.sharded_memory.ShardedMemoryResult.row": (
        "the sweep's row lookup that tests and the README bind by its keywords"
    ),
    "repro.hw.event.PreemptiveJob.first_start_s": (
        "assert_drained's causality check reads it for a server built with record=True"
    ),
    "repro.hw.event.PreemptiveResource.backlog_s": (
        "the reference engine's admission reads it under time-sliced compute"
    ),
    "repro.sim.jobtable.JobTable.build_timeline": (
        "materializes a run's timeline; kept with ScheduleResult.timeline until ROADMAP "
        "item 2 decides it"
    ),
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path) -> list[tuple[str, str, bool, ast.AST]]:
    """``(qualname, name, is_method, node)`` of every public top-level def/class."""
    found: list[tuple[str, str, bool, ast.AST]] = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        found.append((node.name, node.name, False, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if not _is_public(item.name) or item.name.startswith("visit_"):
                    continue
                found.append((f"{node.name}.{item.name}", item.name, True, item))
    return found


def _references(path: Path) -> tuple[set[str], set[str]]:
    """Names read as bare names, and names read as attributes, in ``path``.

    A read inside the body of a function of the same name is not counted:
    a method that only delegates to a namesake (``self.lxe.time_s`` inside
    ``time_s``), or a function that only recurses, is not a reader of it.
    """
    names: set[str] = set()
    attributes: set[str] = set()
    stack: list[tuple[ast.AST, str | None]] = [(ast.parse(path.read_text()), None)]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        elif isinstance(node, ast.Name):
            if node.id != enclosing:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr != enclosing:
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
            and node.args[1].value != enclosing
        ):
            attributes.add(node.args[1].value)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
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
        for qualname, name, is_method, _node in _definitions(path):
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
