#!/usr/bin/env python3
"""Record the reference sha256 of every workload output into pins.json.

Run it against the source tree whose outputs are the reference (the
parent commit of a change), one workload at a time:

    python3 perfbench/pin.py --workload certify-default --src path/to/src

It runs each pinned input seed once, prints the report status of the
certify workloads, and merges the hashes into ``perfbench/pins.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import sha256_file  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--src", required=True, help="source tree holding pshcert/")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from pshcert import cli

    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    table = pins.setdefault(args.workload, {})
    with tempfile.TemporaryDirectory() as out_dir:
        for k in range(workloads.PIN_COUNT):
            iseed = workloads.PIN_BASE + k
            entry = {}
            for name, argv, _ in workloads.batch(args.workload, iseed, out_dir):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
                if code != 0:
                    print(f"seed {iseed}: {name} exited {code}", file=sys.stderr)
                    return 1
                path = os.path.join(out_dir, name)
                if name.endswith(".json"):
                    with open(path, encoding="utf-8") as fh:
                        status = json.load(fh)["status"]
                    print(f"seed {iseed}: {name} status={status}")
                entry[name] = sha256_file(path)
            table[str(iseed)] = entry
            print(f"seed {iseed}: {entry}", flush=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
