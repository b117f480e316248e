#!/usr/bin/env python3
"""One closed-loop client: runs a workload's batches back to back in this
process through ``pshcert.cli.main`` and writes the timings as JSON.

Started by ``run.py``; not meant to be run by hand. It starts batches
while the next one, as long as the last, would end within ``--seconds``. Traced, it installs the spans of
``spans.py`` and alternates untraced and traced batches, so that the
untraced ones give the reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_batch(cli, spec, out_dir: str) -> dict:
    """Run one batch; time it, then hash and inspect its outputs."""
    codes = []
    for name, _, _ in spec:  # no stale file may pass for this batch's output
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        c0 = time.process_time()
        for _, argv, _ in spec:
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # a crash is a failed operation, not a lost run
                codes.append(f"{type(exc).__name__}: {exc}")
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
    outputs = []
    for (name, _, cells), code in zip(spec, codes):
        path = os.path.join(out_dir, name)
        out = {"name": name, "code": code, "cells": cells, "sha256": None,
               "status": None, "samples": 0}
        if code == 0 and os.path.exists(path):
            out["sha256"] = sha256_file(path)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                out["status"] = report["status"]
                out["samples"] = sum(c["samples"] for c in report["certificates"])
        outputs.append(out)
    return {"run_s": run_s, "cpu_s": cpu_s, "outputs": outputs}


def environment(pshcert) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "backend": pshcert.BACKEND_NAME,
        "thread_limits": {k: os.environ.get(k) for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import pshcert
    from pshcert import cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(pshcert.__file__).startswith(src + os.sep):
        print(f"pshcert imported from {pshcert.__file__}, not from {src}", file=sys.stderr)
        return 2

    iseed = workloads.input_seed(args.seed)
    spec = workloads.batch(args.workload, iseed, args.out_dir)
    result = {"input_seed": iseed, "env": environment(pshcert),
              "batches": [], "traced": []}

    tr = spans.Tracer()
    if args.trace:
        spans.install(tr)
    start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced batches, at least one each
        tr.enabled = bool(args.trace) and len(result["batches"]) > len(result["traced"])
        t0 = time.perf_counter()
        result["traced" if tr.enabled else "batches"].append(
            run_batch(cli, spec, args.out_dir))
        now = time.perf_counter()
        # stop before a batch that would likely end past the time budget
        if (now - start) + (now - t0) > args.seconds and (not args.trace or result["traced"]):
            break
    if args.trace:
        nops = len(result["traced"])
        result["layers"] = spans.layer_metrics(tr, nops)
        result["spans"] = {name: {"calls": tr.calls[name] / nops,
                                  "s": tr.total_s[name] / nops,
                                  "self_s": tr.self_s[name] / nops}
                           for name in tr.calls}
        result["cert_s"] = {name: s / nops for name, s in tr.cert_s.items() if s > 0}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
