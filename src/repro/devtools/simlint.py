"""simlint — repo-specific determinism and correctness lint rules.

The stack's headline contracts — seed-determinism (a run is a pure
function of ``(fleet, seed)``) and bit-exact engine equivalence — are
easy to break with one stray line: a module-level ``np.random`` call, a
wall-clock read inside a simulation path, an iteration over a ``set``
whose order leaks into event keys, a float ``==`` that holds on one
engine's arithmetic and not the other's.  ``simlint`` catches those
classes of bug at lint time with rules the general-purpose linters don't
have, using only the stdlib ``ast``/``tokenize`` machinery:

========  ==============================================================
SIM001    No global/module-level RNG: ``np.random.*`` free functions and
          stdlib ``random.*`` calls are banned everywhere; randomness
          must flow through an explicitly seeded
          ``np.random.default_rng((seed, stream))`` generator.
SIM002    No wall-clock reads (``time.time``, ``time.perf_counter``,
          ``datetime.now``, …) outside ``benchmarks/``: simulated time is
          the only clock simulation code may consult.
SIM003    No iteration over ``set(...)`` / ``dict.keys()`` of non-literal
          receivers in ``sim``/``hw`` library modules, where iteration
          order can feed event keys: wrap in ``sorted(...)`` or annotate
          ``# simlint: ordered`` with a justification.
SIM004    No float ``==``/``!=`` in ``sim``/``hw`` library modules when a
          comparand is a float literal, float arithmetic or ``float()``
          call: use ``math.isclose``/``np.isclose`` (or an array
          tolerance), or annotate ``# simlint: exact`` when the equality
          is exact by construction (sentinel values, values copied not
          recomputed).
SIM005    Event pushes must go through ``pack_subkey``/``PRIO_*``
          constants: raw numeric subkey/priority literals in ``heappush``
          tuples, ``loop.schedule(priority=...)`` or
          ``ArrayEventQueue.push`` calls are banned in ``sim``/``hw``
          library modules.
SIM006    No NaN-unaware comparisons in ``analysis`` modules: comparing
          against ``np.nan``/``math.nan``/``float("nan")`` with ``==`` or
          an ordering operator is always wrong (NaN compares false);
          use ``np.isnan``/``math.isnan``.
SIM007    No call to the ``id`` builtin in ``sim``/``hw`` library modules:
          the identity of a mutable value is not a cache key (an object
          edited in place keeps its identity, a collected one hands it
          to a stranger); key caches on the values the result depends on.
SIM008    No builtin ``sum()`` in ``sim``/``hw`` library modules: CPython
          3.12 compensates a float ``sum`` (3.11 folds it left), so the
          same run differs in its last bits across versions; fold floats
          left from ``0.0`` (``reduce(add, values, 0.0)``), or annotate an
          integer count ``# simlint: int-sum — <why>``.
========  ==============================================================

Suppression syntax (checked per physical line via ``tokenize``, so
strings containing ``#`` never confuse it):

* ``# simlint: ignore`` — silence every rule on the line;
* ``# simlint: ignore[SIM003,SIM004]`` — silence the listed rules;
* ``# simlint: exact — <why>`` — SIM004-specific: the equality is exact
  by construction;
* ``# simlint: ordered — <why>`` — SIM003-specific: the iteration order
  provably cannot feed event order;
* ``# simlint: int-sum — <why>`` — SIM008-specific: the sum is over integers;
* ``# simlint: skip-file`` — anywhere in the file: silence the file;
* ``# simlint: file-ignore[SIM002]`` — silence listed rules file-wide.

Run with ``python -m repro.devtools.simlint src tests`` (exits 1 on
findings, 0 when clean); ``--rules`` prints the rule table.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

# --------------------------------------------------------------------- #
# rule registry
# --------------------------------------------------------------------- #

#: rule code -> (one-line summary, one-line fix hint)
RULES: dict[str, tuple[str, str]] = {
    "SIM001": (
        "global RNG call (np.random.* / random.*)",
        "thread a seeded np.random.default_rng((seed, stream)) generator through instead",
    ),
    "SIM002": (
        "wall-clock read outside benchmarks/",
        "simulation code must consume simulated time; move timing into benchmarks/",
    ),
    "SIM003": (
        "iteration over set/dict.keys() where order can feed event keys",
        "wrap the iterable in sorted(...) or annotate '# simlint: ordered — <why>'",
    ),
    "SIM004": (
        "float ==/!= between computed floats",
        "use math.isclose/np.isclose or annotate '# simlint: exact — <why>'",
    ),
    "SIM005": (
        "event push with a raw numeric subkey/priority",
        "pack subkeys with pack_subkey(...) and name priorities PRIO_*",
    ),
    "SIM006": (
        "NaN-unaware comparison (NaN compares false)",
        "use np.isnan/math.isnan (or nan-aware aggregation) instead",
    ),
    "SIM007": (
        "call to the id builtin (the identity of a mutable value is not a cache key)",
        "key on the values the result depends on",
    ),
    "SIM008": (
        "builtin sum() (CPython 3.12 compensates float sums, 3.11 does not)",
        "fold left from 0.0 (reduce(add, values, 0.0)) or annotate '# simlint: int-sum — <why>'",
    ),
}

#: wall-clock callables by dotted name (SIM002)
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}

#: np.random free functions that smuggle in the module-level global RNG;
#: ``default_rng`` / ``Generator`` / ``SeedSequence`` are the sanctioned API
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}

_SUPPRESS_RE = re.compile(
    r"simlint:\s*(ignore|exact|ordered|int-sum|skip-file|file-ignore)"
    r"(?:\[([A-Z0-9,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation: location, rule code, message and fix hint."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message} (hint: {self.hint})"


@dataclass(frozen=True)
class _Scope:
    """Which rule families apply to one file, derived from its path."""

    is_test: bool
    is_bench: bool
    in_simhw: bool
    in_analysis: bool


def _classify(path: str) -> _Scope:
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    names = set(parts)
    is_bench = "benchmarks" in names
    is_test = "tests" in names or parts[-1].startswith("test_")
    return _Scope(
        is_test=is_test,
        is_bench=is_bench,
        in_simhw=bool({"sim", "hw"} & names) and not is_test and not is_bench,
        in_analysis="analysis" in names and not is_test and not is_bench,
    )


# --------------------------------------------------------------------- #
# suppression parsing (tokenize, so '#' inside strings never matches)
# --------------------------------------------------------------------- #


class _Suppressions:
    def __init__(self, source: str):
        self.line_rules: dict[int, set[str] | None] = {}  # None = all rules
        self.file_rules: set[str] = set()
        self.skip_file = False
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [t for t in tokens if t.type == tokenize.COMMENT]
        except (tokenize.TokenError, SyntaxError):
            comments = []
        for token in comments:
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            kind, codes_raw = match.group(1), match.group(2)
            codes = (
                {code.strip() for code in codes_raw.split(",") if code.strip()}
                if codes_raw
                else None
            )
            line = token.start[0]
            if kind == "skip-file":
                self.skip_file = True
            elif kind == "file-ignore":
                self.file_rules |= codes or set(RULES)
            elif kind == "exact":
                self._add(line, {"SIM004"})
            elif kind == "ordered":
                self._add(line, {"SIM003"})
            elif kind == "int-sum":
                self._add(line, {"SIM008"})
            else:  # ignore
                self._add(line, codes)

    def _add(self, line: int, codes: set[str] | None) -> None:
        current = self.line_rules.get(line, set())
        if codes is None or current is None:
            self.line_rules[line] = None
        else:
            self.line_rules[line] = current | codes

    def silences(self, code: str, node: ast.AST) -> bool:
        if code in self.file_rules:
            return True
        lines = {getattr(node, "lineno", 0), getattr(node, "end_lineno", 0) or 0}
        for line in lines:
            codes = self.line_rules.get(line, set())
            if codes is None or code in codes:
                return True
        return False


# --------------------------------------------------------------------- #
# AST helpers
# --------------------------------------------------------------------- #


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def _contains_float_literal(node: ast.AST) -> bool:
    return any(_is_float_literal(sub) for sub in ast.walk(node))


def _looks_float(node: ast.AST) -> bool:
    """A comparand that is float-valued on its face.

    Float literals, arithmetic expressions containing one, unary minus of
    one, and ``float(...)`` calls.  Names/attributes alone are *not*
    flagged — the rule targets comparisons whose floatness is syntactically
    evident, keeping it precise enough to land clean on integer code.
    """
    if _is_float_literal(node):
        return True
    if isinstance(node, ast.UnaryOp):
        return _looks_float(node.operand)
    if isinstance(node, ast.BinOp):
        return _contains_float_literal(node)
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name in {"float", "np.float64", "numpy.float64"}
    return False


def _is_nanlike(node: ast.AST) -> bool:
    name = _dotted_name(node)
    if name in {"np.nan", "numpy.nan", "math.nan", "nan", "np.NaN", "numpy.NaN"}:
        return True
    if isinstance(node, ast.Call) and _dotted_name(node.func) == "float":
        return (
            len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.lower() in {"nan", "-nan", "+nan"}
        )
    return False


def _is_int_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_int_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_int_constant(node.left) and _is_int_constant(node.right)
    return isinstance(node, ast.Constant) and type(node.value) is int


def _set_valued(node: ast.AST, set_names: set[str]) -> bool:
    """Syntactically evident set/keys-view iterables (SIM003)."""
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Set):
        # literal receivers are exempt: their insertion order is the
        # source order, which cannot depend on runtime state
        return False
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        if name in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "keys",
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


class _SetTracker(ast.NodeVisitor):
    """Names assigned a set within the module (simple flow-insensitive pass)."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, (ast.Set, ast.SetComp)) or (
            isinstance(node.value, ast.Call)
            and _dotted_name(node.value.func) in {"set", "frozenset"}
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotation = ast.unparse(node.annotation) if node.annotation else ""
        if isinstance(node.target, ast.Name) and (
            annotation.startswith(("set", "frozenset", "Set"))
        ):
            self.names.add(node.target.id)
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# the linter
# --------------------------------------------------------------------- #


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, scope: _Scope, suppressions: _Suppressions):
        self.path = path
        self.scope = scope
        self.suppressions = suppressions
        self.findings: list[Finding] = []
        self.set_names: set[str] = set()

    # -- reporting ----------------------------------------------------- #
    def report(self, code: str, node: ast.AST, message: str) -> None:
        if self.suppressions.silences(code, node):
            return
        summary, hint = RULES[code]
        self.findings.append(
            Finding(
                path=self.path,
                line=node.lineno,
                col=node.col_offset + 1,
                code=code,
                message=message or summary,
                hint=hint,
            )
        )

    # -- SIM001 / SIM002 / SIM005 / SIM007 / SIM008 (calls) ------------ #
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        if name:
            self._check_rng(node, name)
            self._check_wallclock(node, name)
        if self.scope.in_simhw:
            self._check_event_push(node, name)
            if name == "id":
                self.report("SIM007", node, "")
            elif name == "sum":
                self.report("SIM008", node, "")
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) >= 2 and parts[-2] == "random" and parts[0] in {"np", "numpy"}:
            if parts[-1] == "default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        "SIM001", node, "unseeded default_rng() (nondeterministic entropy)"
                    )
            elif parts[-1] not in _NP_RANDOM_OK:
                self.report(
                    "SIM001", node, f"global numpy RNG call {name}() (module-level state)"
                )
        elif len(parts) == 2 and parts[0] == "random":
            self.report(
                "SIM001", node, f"stdlib global RNG call {name}() (module-level state)"
            )

    def _check_wallclock(self, node: ast.Call, name: str) -> None:
        if self.scope.is_bench:
            return
        if name in _WALLCLOCK:
            self.report("SIM002", node, f"wall-clock read {name}()")

    def _check_event_push(self, node: ast.Call, name: str | None) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        plain = name.split(".")[-1] if name else attr
        if plain == "heappush" and len(node.args) >= 2:
            entry = node.args[1]
            if isinstance(entry, ast.Tuple) and len(entry.elts) >= 2:
                if _is_int_constant(entry.elts[1]):
                    self.report(
                        "SIM005",
                        entry.elts[1],
                        "heappush with a raw numeric subkey/priority",
                    )
        elif attr == "schedule":
            for keyword in node.keywords:
                if keyword.arg == "priority" and _is_int_constant(keyword.value):
                    self.report(
                        "SIM005", keyword.value, "schedule() with a raw numeric priority"
                    )
            if len(node.args) >= 3 and _is_int_constant(node.args[2]):
                self.report(
                    "SIM005", node.args[2], "schedule() with a raw numeric priority"
                )
        elif attr == "push" and len(node.args) >= 3 and _is_int_constant(node.args[1]):
            self.report("SIM005", node.args[1], "event push with a raw numeric subkey")

    # -- SIM003 (iteration order) -------------------------------------- #
    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        if not self.scope.in_simhw:
            return
        if _set_valued(iterable, self.set_names):
            self.report(
                "SIM003",
                node,
                f"iteration over unordered {ast.unparse(iterable)!s:.60}",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iteration(comp.iter, comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- SIM004 / SIM006 (comparisons) --------------------------------- #
    def visit_Compare(self, node: ast.Compare) -> None:
        comparands = [node.left, *node.comparators]
        if self.scope.in_analysis and any(_is_nanlike(c) for c in comparands):
            self.report("SIM006", node, "comparison against NaN is always False")
        elif self.scope.in_simhw and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            if any(_looks_float(c) for c in comparands):
                self.report(
                    "SIM004",
                    node,
                    f"float equality {ast.unparse(node)!s:.60}",
                )
        self.generic_visit(node)


def lint_source(source: str, path: str | Path) -> list[Finding]:
    """Lint one module's source; ``path`` drives the rule scoping."""
    path = str(path)
    suppressions = _Suppressions(source)
    if suppressions.skip_file:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 0,
                col=(error.offset or 0),
                code="SIM000",
                message=f"syntax error: {error.msg}",
                hint="fix the syntax error before linting",
            )
        ]
    tracker = _SetTracker()
    tracker.visit(tree)
    linter = _Linter(path, _classify(path), suppressions)
    linter.set_names = tracker.names
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.col, f.code))


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        root = Path(entry)
        if root.is_file() and root.suffix == ".py":
            yield root
        elif root.is_dir():
            yield from sorted(
                p
                for p in root.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts)
            )


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every ``*.py`` under the given files/directories."""
    findings: list[Finding] = []
    for file_path in _iter_python_files(paths):
        findings.extend(lint_source(file_path.read_text(), file_path))
    return findings


def _print_rules() -> None:
    print("simlint rules:")
    for code, (summary, hint) in RULES.items():
        print(f"  {code}  {summary}")
        print(f"          fix: {hint}")
    print(
        "suppressions: '# simlint: ignore[CODE,...]', '# simlint: exact — why' "
        "(SIM004), '# simlint: ordered — why' (SIM003), '# simlint: int-sum — why' (SIM008), "
        "'# simlint: skip-file', '# simlint: file-ignore[CODE,...]'"
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--rules" in argv:
        _print_rules()
        return 0
    paths = [arg for arg in argv if not arg.startswith("-")]
    if not paths:
        print("usage: python -m repro.devtools.simlint [--rules] PATH [PATH ...]")
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"simlint: {len(findings)} finding(s)")
        return 1
    print("simlint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
