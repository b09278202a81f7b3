"""Run fran_d2d benchmark workloads and print their metrics.

    python3 benchmarks/run.py --workload closed-form-grid --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40

Each workload runs in fresh interpreters started by this script (see
``worker.py``), with BLAS/OpenMP pinned to one thread through their
environment and all of them on one CPU.  The report lists every metric with its unit and sample count;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The exit code is 0 whenever a result was
printed, also when an output check failed (``correct`` is then false).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("closed-form-grid", "ia-montecarlo", "file-delivery")
# Extra interpreters that only set up, half before and half after the
# measured one, so that setup_s is a median over the whole run.
SETUP_PROBES = 8
# Time a worker may take beyond --seconds before it is stopped.
GRACE_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Name of the work_per_s throughput on each workload, by its work unit.
WORK_NAMES = {"points": "points_per_s", "uses": "uses_per_s", "bits": "bits_per_s"}


class WorkerError(RuntimeError):
    """A worker exited without a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_worker(args, trace: int, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; returns its set-up time and, unless set-up only, its result."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if ready.strip() != "READY":
            proc.wait(timeout=GRACE_S)
            raise WorkerError(f"worker did not start (exit code {proc.returncode})")
        out, _ = proc.communicate(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def end_to_end(args) -> tuple[dict, list[tuple]]:
    setups = [run_worker(args, 0, setup_only=True)[0] for _ in range(SETUP_PROBES // 2)]
    setup_s, res = run_worker(args, 0, setup_only=False)
    setups.append(setup_s)
    setups += [run_worker(args, 0, setup_only=True)[0] for _ in range(SETUP_PROBES // 2)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "work_per_s": (res["work_per_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed_frac = res["failed"] / res["attempted"]
    rows = [
        ("setup_s", metrics["setup_s"][0], "s", f"{len(setups)} interpreters"),
        ("op_p50_ms", res["op_p50_ms"], "ms", f"{res['items']} items, best of {res['passes']}"),
        ("op_p90_ms", res["op_p90_ms"], "ms", f"{res['ops']} ops, {res['beyond_p90']} beyond"),
        (
            f"work_per_s ({WORK_NAMES[res['work_unit']]})",
            res["work_per_s"],
            f"{res['work_unit']}/s",
            f"{res['work_units']} {res['work_unit']}",
        ),
        ("all-ops p50 (not gated)", res["all_ops_p50_ms"], "ms", f"{res['ops']} ops"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "1 process"),
        ("failed_frac", failed_frac, "ratio", f"{res['failed']}/{res['attempted']} ops"),
    ]
    if res["verify_runs"]:
        # Reported, not gated: on a 2-vCPU VM its spread over ten runs
        # (0.21 to 0.29 of the median) exceeded any usable bound.
        rows.insert(4, ("verify_s (not gated)", res["verify_s"], "s", f"{res['verify_runs']} runs"))
    return {"result": res, "metrics": metrics}, rows


def traced(args) -> tuple[dict, list[tuple]]:
    _, res = run_worker(args, 1, setup_only=False)
    metrics = {name: (value, layer_unit(name)) for name, value in res["layer_metrics"].items()}
    rows = [(name, v, u, f"{res['traced_ops']} traced ops") for name, (v, u) in metrics.items()]
    rows.append(("trace file", res["trace_file"], "", ""))
    return {"result": res, "metrics": metrics}, rows


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms/op" if not name.startswith("cli.verify.") else "ms"
    if name.endswith("us_per_call"):
        return "us/call"
    if name.endswith("ns_per_bit"):
        return "ns/bit"
    if name.endswith("_frac"):
        return "ratio"
    return "count/op"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fran_d2d" / "__init__.py").is_file():
        print(f"benchmark: no fran_d2d package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = machine()
    if hasattr(os, "sched_setaffinity"):
        # Workers inherit this: on a small VM, moving between vCPUs of different
        # speed was the largest source of run-to-run spread.
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        try:
            out, rows = traced(args) if args.trace else end_to_end(args)
        except WorkerError as exc:
            print(f"benchmark: {workload}: {exc}", file=sys.stderr)
            return 1
        res = out["result"]
        print(f"== {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(
            f"env python={res['python']} numpy={res['numpy']} "
            f"nproc={env['nproc']} cpu={env['cpu']!r} threads_per_blas=1 "
            f"pinned_cpu={env.get('pinned_cpu')}"
        )
        for name, value, unit, samples in rows:
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<44} {shown:>14} {unit:<9} {samples}")
        for problem in res["problems"]:
            print(f"  check failed: {problem}")
        print(
            json.dumps(
                {
                    "correct": res["correct"],
                    "attempted": res["attempted"],
                    "failed": res["failed"],
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in out["metrics"].items()
                    },
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
