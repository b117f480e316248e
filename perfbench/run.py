#!/usr/bin/env python3
"""Outside-in benchmark of pshcert's two entry points, certify and grid.

    python3 perfbench/run.py --workload certify-default --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``pshcert`` from
``src/`` and builds nothing. One run:

1. times ``SETUP_IMPORTS`` fresh interpreters importing ``pshcert``
   (``setup_s`` is their median);
2. starts one worker process (``worker.py``), a closed loop with a single
   client that runs the workload's batches back to back within ``--seconds``;
3. gates every output against the sha256 pinned in ``pins.json`` (a
   report must also have status ``pass``);
4. prints a readable summary, then one JSON line with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

End-to-end metrics, all from untraced batches: ``run_s`` and ``cpu_s``
are the median wall and process CPU time of a batch, from the first
``pshcert`` call to the last output written; ``points_per_s`` divides the
certified sample points (the sum of the report's ``samples``) or the grid
cells written by ``run_s``; ``peak_rss_mb`` is the worker's peak resident
memory; ``pass_rate`` is the share of operations that passed the gate,
1 - fail_rate, kept in this form so that the metric is never 0 and a
relative bound applies to it. The summary prints fail_rate itself.

Per-layer metrics are per traced batch. ``trace.overhead_s`` is the mean
traced minus the mean untraced batch time of the same process, and
``trace.unspanned_s`` the part of a traced batch outside every span.

The exit code is 0 when every operation passed the gate, 1 when one
failed, and 2 when the run could not start or finish.

BLAS and OpenMP pools are limited to one thread, so a run uses one core
of the machine for the program and the rest stays free for the system.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_IMPORTS = 11
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170.0


def die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_LIMITS)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(env: dict) -> list:
    """Wall time of fresh interpreters that only import pshcert."""
    times = []
    for _ in range(SETUP_IMPORTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import pshcert"], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("import pshcert failed: " + proc.stderr.decode()[-500:])
    return times


def gate(result: dict, pins: dict) -> list:
    """Per operation: (batch kind, output name, ok, reason)."""
    checks = []
    for kind in ("batches", "traced"):
        for batch in result[kind]:
            for out in batch["outputs"]:
                want = pins.get(out["name"])
                if out["code"] != 0:
                    reason = f"exit {out['code']}"
                elif out["status"] not in (None, "pass"):
                    reason = f"status {out['status']}"
                elif want is None:
                    reason = "no pinned sha256"
                elif out["sha256"] != want:
                    reason = f"sha256 {out['sha256']} != pinned {want}"
                else:
                    reason = "ok"
                checks.append((kind, out["name"], reason == "ok", reason))
    return checks


def batch_work(batch: dict) -> float:
    """Certified sample points or written grid cells of one batch."""
    return float(sum(o["samples"] + o["cells"] for o in batch["outputs"]))


def end_to_end(result: dict, setup: list, checks: list) -> dict:
    batches = result["batches"]
    passed = sum(ok for _, _, ok, _ in checks)
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(b["run_s"] for b in batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        "points_per_s": statistics.median(batch_work(b) / b["run_s"] for b in batches),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_rate": passed / len(checks),
    }


def per_layer(result: dict) -> dict:
    out = dict(result["layers"])
    traced = statistics.fmean(b["run_s"] for b in result["traced"])
    untraced = statistics.fmean(b["run_s"] for b in result["batches"])
    spanned = sum(s["self_s"] for s in result["spans"].values())
    out["trace.run_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    out["trace.unspanned_s"] = traced - spanned
    return out


def print_summary(args, result: dict, setup: list, checks: list, metrics: dict):
    print(f"workload={args.workload} seed={args.seed} input_seed={result['input_seed']} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    for kind in ("batches", "traced"):
        for i, b in enumerate(result[kind]):
            print(f"{'batch' if kind == 'batches' else 'traced'} {i}: "
                  f"run_s={b['run_s']:.4f} cpu_s={b['cpu_s']:.4f} "
                  f"work={batch_work(b):.0f}")
    for kind, name, ok, reason in checks:
        if not ok:
            print(f"GATE FAIL {kind} {name}: {reason}")
    failed = sum(not ok for _, _, ok, _ in checks)
    print(f"operations attempted={len(checks)} failed={failed} "
          f"fail_rate={failed / len(checks):.4f}")
    if not args.trace:
        n = len(result["batches"])
        times = [b["run_s"] for b in result["batches"]]
        print(f"run_s: p50 over n={n} batches, max={max(times):.4f} s "
              f"(no tail percentile with ten samples beyond it below n=20)")
    else:
        traced = metrics["trace.run_s"]["value"]
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.4f} s per batch "
              f"of {traced:.4f} s traced")
        print("self time by span (per batch):")
        rows = sorted(result["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, s in rows:
            print(f"  {name:32s} calls={s['calls']:10.1f} self_s={s['self_s']:9.4f} "
                  f"({100.0 * s['self_s'] / traced:5.1f}%)")
        print(f"  {'(outside any span)':32s} {'':16s} "
              f"self_s={metrics['trace.unspanned_s']['value']:9.4f}")
        slow = sorted(result["cert_s"].items(), key=lambda kv: -kv[1])[:5]
        if slow:
            print("five slowest certificates: "
                  + ", ".join(f"{name} {s:.4f} s" for name, s in slow))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="pshcert benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pshcert", "__init__.py")):
        return die(f"no pshcert sources under {src}; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)[args.workload]
    out_dir = os.path.join(root, ".perfbench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(result_path)
    env = child_env(src)

    try:
        setup = time_imports(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return die(f"set-up failed: {exc}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--out-dir", out_dir, "--result", result_path]
    budget = RUN_DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=budget)
    except subprocess.TimeoutExpired:
        return die(f"worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        return die(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    checks = gate(result, pins.get(str(result["input_seed"]), {}))
    values = per_layer(result) if args.trace else end_to_end(result, setup, checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print_summary(args, result, setup, checks, metrics)
    failed = sum(not ok for _, _, ok, _ in checks)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
