#!/usr/bin/env python3
"""The repo's one benchmark: paper-scale ingest, hot reads, cold reads and
reads under ingest, each with an untraced and a traced run.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--out F]
        every workload (or one), each in a fresh child process: first
        untraced for the end-to-end metrics, then traced for the per-layer
        metrics; prints every metric by name with its unit, writes the
        result file, exits non-zero on a verification failure
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run in this process (the driver's interface); the last line of
        standard output is the result object
    python3 benchmarks/e2e/run.py compare A.json B.json
        per metric x workload verdict between two result files
    python3 benchmarks/e2e/run.py benchmark-json
        what BENCHMARK.json must say

See README.md next to this file for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             "the program in this checkout and there is none")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spotbench import compare, spec  # noqa: E402
from spotbench.sizes import (FULL, SMOKE, WORKLOADS,  # noqa: E402
                             check_driver_threads)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare", "build-fixture",
                                 "benchmark-json"))
    parser.add_argument("files", nargs="*",
                        help="compare: the two result files")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="seeds the load generator only (default 7)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run once in this process, untraced or traced")
    parser.add_argument("--smoke", action="store_true",
                        help="the seconds-long scale (never a baseline)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, help="result file to write")
    parser.add_argument("--result-out", type=Path,
                        help="(child) where to write the full result")
    parser.add_argument("--trace-out", type=Path,
                        help="directory for trace-<workload>.json dumps")
    args = parser.parse_args(argv)
    args.sizes = SMOKE if args.smoke else FULL
    return args


# -- one run (the driver's interface) -------------------------------------------

def run_once(args: argparse.Namespace) -> int:
    from spotbench import harness
    if args.workload is None:
        sys.exit("--trace needs --workload")
    check_driver_threads(args.sizes)
    result = harness.run_workload(args.workload, args.sizes, args.seed,
                                  args.seconds, bool(args.trace),
                                  args.trace_out)
    result["sizes"] = args.sizes.as_dict()
    if args.result_out is not None:
        args.result_out.write_text(json.dumps(result))
    values = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": spec.UNITS[name]}
                    for name in spec.metric_names(bool(args.trace))},
    }))
    return 0 if result["correct"] else 1


# -- the full report -------------------------------------------------------------

def environment(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "scale": args.sizes.scale, "seconds": args.seconds,
        "seed": args.seed, "repeat": args.repeat,
        "sizes": args.sizes.as_dict(),
    }


def child_run(args: argparse.Namespace, workload: str, seed: int,
              traced: bool) -> dict:
    """One run in a fresh child process; returns its full result."""
    scratch_root = ROOT / ".bench_build" / "e2e"
    scratch_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        out = Path(scratch) / "result.json"
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(traced)), "--result-out", str(out)]
        if args.smoke:
            command.append("--smoke")
        if traced and args.trace_out is not None:
            command += ["--trace-out", str(args.trace_out)]
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not out.exists():
            sys.exit(f"{workload} (seed {seed}, traced={traced}) exited "
                     f"{done.returncode} without a result")
        return json.loads(out.read_text())


def print_run(workload: str, untraced: dict, traced: dict) -> None:
    print(f"\n== {workload}  seed {untraced['seed']}  "
          f"attempted {untraced['attempted']}  failed {untraced['failed']}"
          f"  correct {untraced['correct'] and traced['correct']}")
    for name, _unit, better, bound in spec.END_TO_END:
        value = untraced["end_to_end"][name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {spec.UNITS[name]:6s} "
              f"({better} is better, bound {bound:g})")
    for name, value in traced["per_layer"].items():
        print(f"  {name:34s} {value:14.6g} {spec.UNITS[name]}")
    for label, digest in sorted(untraced["digests"].items()):
        print(f"  digest.{label:27s} {digest}")


def run_all(args: argparse.Namespace) -> int:
    check_driver_threads(args.sizes)
    env = environment(args)
    print(json.dumps(env, indent=1))
    runs = {workload: [] for workload in
            ([args.workload] if args.workload else WORKLOADS)}
    ok = True
    for workload in runs:
        for seed in range(args.seed, args.seed + args.repeat):
            # smoke checks the plumbing, not the numbers: one pass does
            untraced = None if args.smoke else \
                child_run(args, workload, seed, traced=False)
            traced = child_run(args, workload, seed, traced=True)
            untraced = untraced or traced
            print_run(workload, untraced, traced)
            ok = ok and untraced["correct"] and traced["correct"]
            runs[workload].append({
                "seed": seed,
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "end_to_end": untraced["end_to_end"],
                "per_layer": traced["per_layer"],
                "counts": untraced["counts"],
                "digests": untraced["digests"],
                "details": untraced["details"],
                "traced_wall_ratio": (traced["measured_wall_s"]
                                      / untraced["measured_wall_s"]),
            })
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"env": env, "scale": args.sizes.scale, "workloads": runs},
            indent=1))
        print(f"\nwrote {args.out}")
    if not ok:
        print("\nVERIFICATION FAILED: see the failed counts above")
    return 0 if ok else 1


def pin_to_one_core() -> None:
    """Confine this process, its threads and its children to one core.

    Under the GIL the service's threads cannot compute in parallel, and
    on two cores the hand-off convoy makes the same closed loop 2.7x
    slower and bimodal from run to run (p50 0.06-0.41 ms); on one core
    it is steady, and the calibration kernel (spotbench/calibrate.py)
    measures the very core the workload runs on.  What this hides --
    gains from real parallelism -- is listed in README.md.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.command == "benchmark-json":
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.command == "compare":
        if len(args.files) != 2:
            sys.exit("compare needs exactly two result files")
        return compare.main(Path(args.files[0]), Path(args.files[1]))
    pin_to_one_core()
    if args.command == "build-fixture":
        from spotbench import harness
        print(harness.build_fixture(args.sizes))
        return 0
    if args.trace is not None:
        return run_once(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
