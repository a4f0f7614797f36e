"""One end-to-end + per-layer benchmark for the V-Rex serving simulator.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--repin] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selfcheck

With ``--workload`` the run is in-process and its last stdout line is the
JSON object the benchmark contract asks for: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from traced passes and micro-probes)
with ``--trace 1``.  Without it every workload of ``BENCHMARK.json`` runs
in its own fresh, single-threaded worker process (untraced passes, then
traced ones), every metric is printed by name with its unit, and one JSON set is appended to
``--out`` (default ``benchmarks/e2e/out/e2e.json``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"
SMOKE_SECONDS = 0.2


def load_harness():
    """Import the program under test; returns (harness module, import seconds)."""
    # numpy reads these when it loads: one worker, no threads
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    for entry in (REPO / "src", HERE):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    start = time.perf_counter()
    import harness

    return harness, time.perf_counter() - start


def _parse(argv: list[str] | None) -> argparse.Namespace:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="~1/50 size, no JSON written")
    parser.add_argument("--repin", action="store_true", help="rewrite the golden digests")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "e2e.json")
    parser.add_argument("--detail", type=Path, help=argparse.SUPPRESS)  # worker -> parent
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true", help="two sets, then --compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    args.spec = spec
    return args


def run_workload(args: argparse.Namespace) -> int:
    """One workload, in this process; the last line printed is the contract JSON."""
    harness, import_s = load_harness()
    result = harness.measure(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        repin=args.repin,
        import_s=import_s,
    )
    harness.print_metrics(result)
    if args.detail is not None:
        args.detail.write_text(json.dumps(result.detail()))
    print(result.last_line())
    return 0 if result.failed == 0 else 1


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own fresh worker: untraced passes, then traced ones."""
    detail = args.out.parent / "worker_detail.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in (w["name"] for w in args.spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve())]
        command += ["--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", "1", "--detail", str(detail)]
        command += ["--smoke"] * args.smoke + ["--repin"] * args.repin
        detail.unlink(missing_ok=True)
        worker = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print("\n".join(worker.stdout.splitlines()[:-1]))
        if not detail.exists():
            raise SystemExit(f"worker for {workload} exited {worker.returncode}")
        runs.append(json.loads(detail.read_text()))
    detail.unlink()
    failed = sorted({f"{r['workload']}:{c}" for r in runs for c in r["failed_checks"]})
    print(f"\n{len(runs)} runs, failed checks: {', '.join(failed) if failed else 'none'}")
    return {"seed": args.seed, "smoke": args.smoke, "runs": runs, "failed_checks": failed}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.compare or args.selfcheck:
        import compare

        if args.compare:
            return compare.compare_files(*args.compare, args.spec)
        first, second = run_all(args), run_all(args)
        regressed = compare.compare_sets([first], [second], args.spec, ("first", "second"))
        return 1 if regressed or first["failed_checks"] or second["failed_checks"] else 0
    if args.workload:
        return run_workload(args)
    result = run_all(args)
    if not args.smoke:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        sets = json.loads(args.out.read_text())["sets"] if args.out.exists() else []
        args.out.write_text(json.dumps({"sets": sets + [result]}, indent=1) + "\n")
        print(f"appended set {len(sets) + 1} to {args.out}")
    return 1 if result["failed_checks"] else 0


if __name__ == "__main__":
    sys.exit(main())
