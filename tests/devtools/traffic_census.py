"""Traffic census: every public function in ``src/repro`` that real traffic runs.

    PYTHONPATH=src python tests/devtools/traffic_census.py

The static census (``test_public_surface.py``) asks whether a public name is
*read* outside ``tests/``; this one asks whether its body *runs*.  It runs
every non-test entry point of the repository, armed (``REPRO_SANITIZE=1``,
so sanitizer checks count as traffic), each in its own subprocess under a
``sys.settrace`` hook that records every code object of ``src/repro`` it
enters:

* each ``BENCHMARK.json`` workload through ``benchmarks/e2e/run.py
  --workload W``, plain and with ``--trace 1`` (which adds the probes and the
  reference engine);
* every experiment driver's ``main()``;
* every ``examples/*.py``;
* ``pytest benchmarks --ignore=benchmarks/e2e`` (each benchmark run once);
* ``python -m repro.devtools.simlint src tests benchmarks examples``.

It exits 1 if an entry point fails, if a public function, method or
property (the static census's definitions) was never entered and neither
``ALLOWED`` nor ``UNTRACED`` in ``test_public_surface.py`` names it, or if
an ``UNTRACED`` name did run.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "repro"
E2E_SECONDS = "0.2"
JOBS = 2  # entry points run at once; each holds a whole workload in memory
# a child loads this file without running its ``__main__`` block
CHILD = "import runpy, sys; sys.exit(runpy.run_path(sys.argv[1])['_child'](*sys.argv[2:]))"


def entry_points() -> list[list[str]]:
    """``[kind, target, *argv]`` of every non-test entry point."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_py = str(ROOT / "benchmarks" / "e2e" / "run.py")
    entries = []
    for workload in spec["workloads"]:
        base = ["script", run_py, "--workload", workload["name"], "--seconds", E2E_SECONDS]
        entries += [base, [*base, "--trace", "1"]]
    for path in sorted((PACKAGE / "experiments").glob("*.py")):
        if not path.name.startswith("_"):
            entries.append(["main", f"repro.experiments.{path.stem}"])
    entries += [["script", str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    entries.append(
        ["pytest", "benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"]
    )
    entries.append(["module", "repro.devtools.simlint", "src", "tests", "benchmarks", "examples"])
    return entries


def public_definitions() -> dict[tuple[str, int, str], str]:
    """``(file, first line, name)`` of each public def's code object -> qualname.

    The static census's functions, methods and properties, less abstract
    methods, whose bodies never run by design.  A decorated function's code
    object starts at its first decorator.
    """
    from test_public_surface import _definitions

    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for qualname, name, _is_method, node in _definitions(path):
            if isinstance(node, ast.ClassDef) or any(
                ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list
            ):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path), first, name)] = f"{module}.{qualname}"
    return found


def _child(out: str, kind: str, target: str, *argv: str) -> int:
    """Run one entry point under the trace hook; write what it entered to ``out``."""
    prefix = str(PACKAGE) + os.sep
    entered: set[tuple[str, int, str]] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(hook)
    threading.settrace(hook)
    status = 0
    try:
        if kind == "script":
            sys.argv = [target, *argv]
            sys.path.insert(0, str(Path(target).parent))
            runpy.run_path(target, run_name="__main__")
        elif kind == "module":
            sys.argv = [target, *argv]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        elif kind == "main":
            sys.argv = [target]
            __import__(target, fromlist=["main"]).main()
        else:
            import pytest

            status = int(pytest.main([target, *argv]))
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        Path(out).write_text(json.dumps(sorted(entered)))
    return status


def _run(entry: list[str], scratch: Path, index: int) -> tuple[list[str], int, str, set]:
    out = scratch / f"{index}.json"
    env = dict(os.environ, REPRO_SANITIZE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, __file__, str(out), *entry],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    entered = {tuple(item) for item in json.loads(out.read_text())} if out.exists() else set()
    return entry, done.returncode, done.stderr, entered


def main() -> int:
    sys.path.insert(0, str(HERE))
    from test_public_surface import ALLOWED, UNTRACED

    entries = entry_points()
    entered: set = set()
    failed = []
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(JOBS) as pool:
        runs = pool.map(_run, entries, [Path(scratch)] * len(entries), range(len(entries)))
        for entry, status, stderr, seen in runs:
            entered |= seen
            print(f"{'ok  ' if status == 0 else 'FAIL'} {' '.join(entry)}", flush=True)
            if status != 0:
                failed.append(entry)
                print(stderr[-2000:])
    definitions = public_definitions()
    untraced = sorted(name for key, name in definitions.items() if key not in entered)
    unexplained = [name for name in untraced if name not in ALLOWED and name not in UNTRACED]
    stale = sorted(set(UNTRACED) - set(untraced))
    print(
        f"{len(definitions)} public definitions, {len(untraced)} never entered by "
        f"{len(entries)} entry points ({len(untraced) - len(unexplained)} allowed)"
    )
    for name in unexplained:
        print(f"  never entered, not allowed: {name}")
    for name in stale:
        print(f"  in UNTRACED but entered: {name}")
    return 1 if failed or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
