"""Suite orchestration: named certificate bundles, bit-stable reports,
grid exports for plotting, and the schedule fingerprint.

Reports serialize to canonical JSON (sorted keys, fixed 17-significant-
digit floats, nonfinite values as strings), so two runs with the same
suite, configuration and seed produce byte-identical files. Wall-clock
time and the schedule text are kept on the in-memory Report only and
never serialized; the report carries the text's sha256.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .calculus import Certificate, levi_floors
from .geometry import product_points
from .kernels import _BLOCK, BACKEND_NAME
from .config import MAX_GRID_CELLS, CertifyConfig, ConfigError
from .constructions import (
    build_plateau,
    build_tapered_form,
    build_thm1,
    build_thm2,
    example1_check,
    example_defining,
    plateau_properties,
    tapered_form_properties,
    thm1_properties,
    thm2_properties,
)
from .logpoles import render_schedule, series_values


@dataclass(frozen=True)
class Report:
    suite: str
    config_echo: dict
    certificates: list
    schedule_text: str
    seed: int
    elapsed_ms: int
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def schedule_fingerprint(self) -> str:
        return "sha256:" + hashlib.sha256(self.schedule_text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if np.isnan(x):
        return '"nan"'
    if np.isposinf(x):
        return '"inf"'
    if np.isneginf(x):
        return '"-inf"'
    return format(float(x), ".16e")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed-format floats, no whitespace."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_report(report: Report) -> str:
    """Canonical report text; excludes elapsed_ms and the schedule text."""
    payload = {
        "suite": report.suite,
        "config_echo": report.config_echo,
        "certificates": [asdict(c) for c in report.certificates],
        "schedule_fingerprint": report.schedule_fingerprint,
        "seed": report.seed,
        "status": report.status,
    }
    return canonical_json(payload) + "\n"


# ---------------------------------------------------------------------------
# suite construction
# ---------------------------------------------------------------------------

@dataclass
class SuiteBuilder:
    """The constructed objects of one run, each built on first use. thm2 takes
    only the form's constant C, so only the suites that report on the form
    build it."""

    cfg: CertifyConfig

    @cached_property
    def plateau(self):
        return build_plateau(self.cfg.j_max)

    @cached_property
    def form(self):
        return build_tapered_form(self.cfg.n)

    @cached_property
    def thm1(self):
        return build_thm1(self.cfg)

    @cached_property
    def thm2(self):
        return build_thm2(self.cfg, self.plateau)


# schedule exports: the text each suite's fingerprint hashes

def _form_constants(form) -> dict:
    return {
        "taper_radius": form.radius,
        "growth_const": form.growth_const,
        "mix_const": form.mix_const,
        "quad_weight": form.quad_weight,
        "epsilon_out": form.epsilon_out,
    }


def _thm1_text(built: SuiteBuilder) -> str:
    return render_schedule(built.thm1.schedule, {"w0_modulus": 2.0, "n": built.cfg.n})


def _thm2_text(built: SuiteBuilder, with_form: bool = False) -> str:
    extras = {"w0_modulus": 4.0, "n": built.cfg.n}
    if with_form:
        extras.update(_form_constants(built.form), small_c=built.form.small_c)
    return render_schedule(built.plateau.thm2_schedule, extras)


def _lemma3_text(built: SuiteBuilder) -> str:
    constants = sorted(_form_constants(built.form).items())
    return "# tapered form constants\n" + "".join(f"# {k}={v!r}\n" for k, v in constants)


#: suite name -> (its certificates, its schedule text), both of a builder
SUITES = {
    "example1": (lambda b: example1_check(b.cfg),
                 lambda b: "# no pole schedule used by this suite\n"),
    "thm1": (lambda b: thm1_properties(b.thm1, b.cfg), _thm1_text),
    "lemma21": (lambda b: plateau_properties(b.plateau, b.cfg), _thm2_text),
    "lemma3": (lambda b: tapered_form_properties(b.form, b.cfg), _lemma3_text),
    "thm2": (lambda b: thm2_properties(b.thm2, b.cfg),
             lambda b: _thm2_text(b, with_form=True)),
    "all": (lambda b: [cert for name, (certs, _) in SUITES.items() if name != "all"
                       for cert in certs(b)],  # every other suite, in this order
            lambda b: _thm1_text(b) + _thm2_text(b, with_form=True)),
}


def run_suite(name: str, cfg: CertifyConfig) -> Report:
    """Run one named suite and aggregate its certificates into a Report."""
    cfg.validate()
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r} (choose from {tuple(SUITES)})")
    certificates, schedule = SUITES[name]
    t0 = time.perf_counter()
    built = SuiteBuilder(cfg)
    try:
        certs = certificates(built)
        schedule_text = schedule(built)
    except RuntimeError as exc:
        # construction failures (no positive sampled form floor,
        # starved rejection sampler) become a failing report, not a crash
        certs = [
            Certificate(
                "construction-failure", "fail", 0, float("nan"), 0.0,
                [{"coords": [], "margin": float("nan"), "error": str(exc)}],
            )
        ]
        schedule_text = "# construction failed\n"
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    status = "pass" if all(c.passed for c in certs) else "fail"
    echo = cfg.echo()
    echo["backend"] = BACKEND_NAME
    return Report(
        suite=name,
        config_echo=echo,
        certificates=certs,
        schedule_text=schedule_text,
        seed=cfg.seed,
        elapsed_ms=elapsed_ms,
        status=status,
    )


# ---------------------------------------------------------------------------
# grid exports
# ---------------------------------------------------------------------------

#: grid id -> (kind, evaluator of a builder and a batch): "z-plane" ids
#: take the complex z plane, "point" ids full C^n points from the slice
GRID_FUNCTIONS = {
    "sigma": ("z-plane", lambda b, z: series_values(b.thm1.schedule, z, b.cfg.trunc)),
    "sigma_thm2": ("z-plane", lambda b, z: series_values(
        b.plateau.thm2_schedule, z, b.cfg.trunc)),
    "u": ("z-plane", lambda b, z: b.plateau.values(z)),
    "d1": ("point", lambda b, pts: b.thm1.defining_values(pts)),
    "d2": ("point", lambda b, pts: b.thm2.defining_values(pts)),
    "phi_thm1": ("point", lambda b, pts: b.thm1.witness_values(pts)),
    "phi_thm2": ("point", lambda b, pts: b.thm2.witness_values(pts)),
    "example1": ("point", lambda b, pts: example_defining(pts)),
    "levi_thm1": ("point", lambda b, pts: levi_floors(
        b.thm1.witness_smooth_values, pts, b.cfg.fd_step)),
    "levi_thm2": ("point", lambda b, pts: levi_floors(
        b.thm2.witness_values, pts, b.cfg.fd_step)),
}


def parse_region_spec(spec: str):
    try:
        xs, ys = spec.split(",")
        x0, x1 = (float(v) for v in xs.split(":"))
        y0, y1 = (float(v) for v in ys.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad region spec {spec!r}, want xmin:xmax,ymin:ymax") from exc
    if not (np.all(np.isfinite([x0, x1, y0, y1])) and x0 < x1 and y0 < y1):
        raise ConfigError(f"region bounds must be finite and increasing, got {spec!r}")
    return x0, x1, y0, y1


def parse_slice_spec(spec: str, n: int):
    """Parse "none", "w=<c>[;<c>...]" or "z=<c>" into (varying, fixed)."""
    spec = spec.strip()
    if spec == "none":
        return "z", None
    if "=" not in spec:
        raise ConfigError(f"bad slice spec {spec!r}")
    which, _, rest = spec.partition("=")
    which = which.strip()
    try:
        vals = [complex(v.strip().replace(" ", "")) for v in rest.split(";")
                if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad slice spec {spec!r}: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"bad slice spec {spec!r}: values must be finite")
    if which == "w":
        if len(vals) != n - 1:
            raise ConfigError(f"slice w needs {n - 1} complex value(s)")
        return "z", np.asarray(vals, dtype=np.complex128)
    if which == "z":
        if len(vals) != 1:
            raise ConfigError("slice z needs exactly 1 complex value")
        if n != 2:
            raise ConfigError("z-slices (grid over w) need ambient dimension 2")
        return "w", np.asarray(vals, dtype=np.complex128)
    raise ConfigError(f"bad slice spec {spec!r}")


def emit_grid(
    function_id: str,
    slice_spec: str,
    region_spec: str,
    resolution: tuple,
    out_path: str,
    cfg: CertifyConfig,
) -> np.ndarray:
    """Evaluate a registered function on a 2-D slice, write CSV and
    return the values (row-major, y outer).

    The CSV starts with a header comment describing axes and slice, then
    "x,y,value" rows in row-major order (y outer, x inner). Numbers are
    written with ``.17g`` (exact round trip); nonfinite values appear as
    "-inf", "inf" and "nan".

    The grid is evaluated in blocks of whole rows, about ``_BLOCK`` cells
    each and at least one row, into the returned array; the file is then
    written one grid row at a time. The working set is one block plus the
    returned values (8 bytes per cell) at any resolution. Every grid
    function maps each point on its own, so the values and the bytes do not
    depend on the block size. The file is opened only after the last
    block, so an error in any block leaves ``out_path`` as it was.
    """
    cfg.validate()
    if function_id not in GRID_FUNCTIONS:
        raise ConfigError(
            f"unknown function id {function_id!r} (choose from {tuple(GRID_FUNCTIONS)})"
        )
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ConfigError("resolution must be at least 2x2")
    if nx * ny > MAX_GRID_CELLS:
        raise ConfigError(f"resolution {nx}x{ny} exceeds {MAX_GRID_CELLS} cells")
    x0, x1, y0, y1 = parse_region_spec(region_spec)
    built = SuiteBuilder(cfg)
    kind, fn = GRID_FUNCTIONS[function_id]
    varying, fixed = parse_slice_spec(slice_spec, cfg.n)
    if kind == "z-plane" and fixed is not None:
        raise ConfigError(f"function {function_id!r} of z alone takes the slice none")
    if kind == "point" and fixed is None:
        raise ConfigError(f"function {function_id!r} needs a w= or z= slice")

    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    axes = "re(w),im(w)" if varying == "w" else "re(z),im(z)"
    rows = max(1, _BLOCK // nx)
    vals = np.empty(nx * ny)
    for r0 in range(0, ny, rows):
        gx, gy = np.meshgrid(xs, ys[r0 : r0 + rows])
        plane = (gx + 1j * gy).ravel()
        if kind == "z-plane":
            batch = plane
        elif varying == "z":
            batch = product_points(plane, fixed)
        else:
            batch = product_points(np.full(plane.size, fixed[0]), plane[:, None])
        vals[r0 * nx : r0 * nx + plane.size] = fn(built, batch)

    # one %-format per row, on a template that holds every column's x text:
    # "%.17g" renders a float as format(float, ".17g") does, including -inf,
    # inf, nan (of either sign), -0 and subnormals
    template = "".join([f"{format(x, '.17g')},%s,%.17g\n" for x in xs.tolist()])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"# axes={axes} slice={slice_spec} region={region_spec} "
                 f"res={nx}x{ny} function={function_id}\nx,y,value\n")
        for iy, y in enumerate(ys.tolist()):
            args = [format(y, ".17g"), 0.0] * nx
            args[1::2] = vals[iy * nx : (iy + 1) * nx].tolist()
            fh.write(template % tuple(args))
    return vals
