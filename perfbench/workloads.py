"""Workload definitions shared by the benchmark, its worker and the pin tool.

A workload is a batch job: one batch is a list of ``pshcert`` command
lines that the worker runs back to back through ``pshcert.cli.main`` in
one process. Each command writes one output file, whose sha256 the gate
compares against ``pins.json``.

The benchmark's ``--seed`` picks one of ``PIN_COUNT`` pinned inputs, so every
seed has recorded reference bytes: the certify workloads pass the input
seed to ``pshcert certify --seed``, and ``grid-deep`` shifts its grid
rectangles by a seed-dependent offset (grid exports do not use the seed).
"""

from __future__ import annotations

PIN_BASE = 42  # input seed of --seed 0: the shipped default config
PIN_COUNT = 16

WORKLOADS = ("certify-default", "certify-n3", "grid-deep")

GRID_TRUNC = 400

# (function id, slice, half-width of the square region, resolution)
_GRID_EXPORTS = (
    ("sigma", "none", 1.6, 400),
    ("u", "none", 1.6, 400),
    ("d2", "w=0.5", 2.0, 400),
    ("levi_thm1", "w=0", 0.95, 150),
    ("levi_thm2", "w=0", 0.9, 150),
)


def input_seed(seed: int) -> int:
    """Map a benchmark seed onto one of the pinned inputs."""
    return PIN_BASE + seed % PIN_COUNT


def _fmt(v: float) -> str:
    return format(v, ".6g")


def batch(workload: str, iseed: int, out_dir: str) -> list:
    """The batch of one workload at one input seed.

    Returns ``[(output_name, argv, cells)]``: the output's file name in
    ``out_dir``, the ``pshcert`` argv that writes it, and the number of
    grid cells it holds (0 for a report).
    """
    if workload in ("certify-default", "certify-n3"):
        n = "2" if workload == "certify-default" else "3"
        name = "report.json"
        argv = ["certify", "all", "--n", n, "--seed", str(iseed),
                "--report", f"{out_dir}/{name}"]
        return [(name, argv, 0)]
    if workload == "grid-deep":
        shift = 1e-3 * (iseed - PIN_BASE)
        out = []
        for fid, slice_spec, half, res in _GRID_EXPORTS:
            lo, hi = _fmt(-half + shift), _fmt(half + shift)
            name = f"{fid}.csv"
            argv = ["grid", fid, "--slice", slice_spec,
                    f"--region={lo}:{hi},{lo}:{hi}", "--res", f"{res}x{res}",
                    "--trunc", str(GRID_TRUNC), "--seed", str(iseed),
                    "--out", f"{out_dir}/{name}"]
            out.append((name, argv, res * res))
        return out
    raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
