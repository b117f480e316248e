"""Suite orchestration: named certificate bundles, bit-stable reports,
grid exports for plotting, and the schedule fingerprint.

Reports serialize to canonical JSON (sorted keys, fixed 17-significant-
digit floats, nonfinite values as strings), so two runs with the same
suite, configuration and seed produce byte-identical files. Wall-clock
time is kept on the in-memory Report only and never serialized.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import Certificate, min_eigs_batch, wirtinger_hessian_batch
from .geometry import EmptyRegionError
from .kernels import BACKEND_NAME
from .config import CertifyConfig, ConfigError
from .constructions import (
    PlateauFunction,
    TaperedForm,
    Thm1Scenario,
    Thm2Scenario,
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
from .logpoles import make_schedule, render_schedule, series_values

SUITES = ("example1", "thm1", "lemma21", "lemma3", "thm2", "all")


@dataclass(frozen=True)
class Report:
    suite: str
    config_echo: dict
    certificates: list
    schedule_fingerprint: str
    seed: int
    elapsed_ms: int
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class GridExport:
    function_id: str
    region: str
    resolution: tuple
    slice_spec: str
    values: np.ndarray


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
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _certificate_dict(cert: Certificate) -> dict:
    return {
        "name": cert.name,
        "status": cert.status,
        "samples": cert.samples,
        "worst_margin": cert.worst_margin,
        "tolerance": cert.tolerance,
        "witnesses": cert.witnesses,
    }


def serialize_report(report: Report) -> str:
    """Canonical report text; excludes elapsed_ms so bytes are stable."""
    payload = {
        "suite": report.suite,
        "config_echo": report.config_echo,
        "certificates": [_certificate_dict(c) for c in report.certificates],
        "schedule_fingerprint": report.schedule_fingerprint,
        "seed": report.seed,
        "status": report.status,
    }
    return canonical_json(payload) + "\n"


def _fingerprint(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# suite construction
# ---------------------------------------------------------------------------

@dataclass
class SuiteBuilder:
    """Constructed objects shared across the suites of one run."""

    cfg: CertifyConfig
    plateau: Optional[PlateauFunction] = None
    form: Optional[TaperedForm] = None
    thm1: Optional[Thm1Scenario] = None
    thm2: Optional[Thm2Scenario] = None

    def get_plateau(self):
        if self.plateau is None:
            self.plateau = build_plateau(self.cfg.j_max)
        return self.plateau

    def get_form(self):
        if self.form is None:
            self.form = build_tapered_form(self.cfg.taper_radius, self.cfg.n)
        return self.form

    def get_thm1(self):
        if self.thm1 is None:
            self.thm1 = build_thm1(self.cfg)
        return self.thm1

    def get_thm2(self):
        if self.thm2 is None:
            self.thm2 = build_thm2(self.cfg, self.get_plateau(), self.get_form())
        return self.thm2


def _suite_certs(name: str, built: SuiteBuilder) -> list:
    cfg = built.cfg
    if name == "example1":
        return example1_check(cfg)
    if name == "thm1":
        return thm1_properties(built.get_thm1(), cfg)
    if name == "lemma21":
        plateau = built.get_plateau()
        schedule = make_schedule("thm2", cfg.j_max, plateau.log_rho)
        return plateau_properties(plateau, schedule, cfg)
    if name == "lemma3":
        return tapered_form_properties(built.get_form(), cfg)
    if name == "thm2":
        return thm2_properties(built.get_thm2(), cfg)
    if name == "all":
        out = []
        for sub in ("example1", "thm1", "lemma21", "lemma3", "thm2"):
            out.extend(_suite_certs(sub, built))
        return out
    raise ConfigError(f"unknown suite {name!r} (choose from {SUITES})")


def render_schedules(name: str, built: SuiteBuilder) -> str:
    """Schedule export text for the fingerprint (and --dump-schedule)."""
    cfg = built.cfg
    parts = []
    if name in ("thm1", "all"):
        sc = built.get_thm1()
        parts.append(render_schedule(sc.schedule, {"w0_modulus": 2.0, "n": cfg.n}))
    if name in ("lemma21", "thm2", "all"):
        plateau = built.get_plateau()
        schedule = make_schedule("thm2", cfg.j_max, plateau.log_rho)
        extras = {"w0_modulus": 4.0, "n": cfg.n}
        if name in ("thm2", "all"):
            form = built.get_form()
            extras.update(
                {
                    "taper_radius": form.radius,
                    "growth_const": form.growth_const,
                    "mix_const": form.mix_const,
                    "quad_weight": form.quad_weight,
                    "small_c": form.small_c,
                    "epsilon_out": form.epsilon_out,
                }
            )
        parts.append(render_schedule(schedule, extras))
    if name == "lemma3":
        form = built.get_form()
        parts.append(
            "# tapered form constants\n"
            + "".join(
                f"# {k}={v!r}\n"
                for k, v in sorted(
                    {
                        "taper_radius": form.radius,
                        "growth_const": form.growth_const,
                        "mix_const": form.mix_const,
                        "quad_weight": form.quad_weight,
                        "epsilon_out": form.epsilon_out,
                    }.items()
                )
            )
        )
    if not parts:
        parts.append("# no pole schedule used by this suite\n")
    return "".join(parts)


def run_suite(name: str, cfg: CertifyConfig) -> Report:
    """Run one named suite and aggregate its certificates into a Report."""
    cfg.validate()
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r} (choose from {SUITES})")
    t0 = time.perf_counter()
    built = SuiteBuilder(cfg)
    try:
        certs = _suite_certs(name, built)
        schedule_text = render_schedules(name, built)
    except (RuntimeError, EmptyRegionError) as exc:
        # construction failures (no positive form floor after retries,
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
        schedule_fingerprint=_fingerprint(schedule_text),
        seed=cfg.seed,
        elapsed_ms=elapsed_ms,
        status=status,
    )


# ---------------------------------------------------------------------------
# grid exports
# ---------------------------------------------------------------------------

def _grid_functions(cfg: CertifyConfig, built: SuiteBuilder) -> dict:
    """Registered grid ids mapped to plane evaluators.

    One-variable ids take a complex z plane; two-variable ids take full
    C^n points assembled from the slice.
    """

    def sigma_plane(z):
        sc = built.get_thm1()
        return series_values(sc.schedule, z, cfg.trunc)[0]

    def sigma2_plane(z):
        sc = built.get_thm2()
        return series_values(sc.schedule, z, cfg.trunc)[0]

    def u_plane(z):
        return built.get_plateau().values(z)

    def levi_plane(fn):
        def eval_pts(pts):
            H, ok = wirtinger_hessian_batch(fn, pts, cfg.fd_step)
            eigs = min_eigs_batch(H)
            return np.where(ok, eigs, -np.inf)

        return eval_pts

    return {
        "sigma": ("z-plane", sigma_plane),
        "sigma_thm2": ("z-plane", sigma2_plane),
        "u": ("z-plane", u_plane),
        "d1": ("point", lambda pts: built.get_thm1().defining_values(pts)),
        "d2": ("point", lambda pts: built.get_thm2().defining_values(pts)),
        "phi_thm1": ("point", lambda pts: built.get_thm1().witness_values(pts)),
        "phi_thm2": ("point", lambda pts: built.get_thm2().witness_values(pts)),
        "example1": ("point", example_defining(cfg.c_level)),
        "levi_thm1": (
            "point",
            levi_plane(lambda pts: built.get_thm1().witness_smooth_values(pts)),
        ),
        "levi_thm2": (
            "point",
            levi_plane(lambda pts: built.get_thm2().witness_values(pts)),
        ),
    }


GRID_FUNCTION_IDS = (
    "sigma", "sigma_thm2", "u", "d1", "d2", "phi_thm1", "phi_thm2",
    "example1", "levi_thm1", "levi_thm2",
)


def parse_region_spec(spec: str):
    try:
        xs, ys = spec.split(",")
        x0, x1 = (float(v) for v in xs.split(":"))
        y0, y1 = (float(v) for v in ys.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad region spec {spec!r}, want xmin:xmax,ymin:ymax") from exc
    if not (x0 < x1 and y0 < y1):
        raise ConfigError("region bounds must be increasing")
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
    vals = [complex(v.strip().replace(" ", "")) for v in rest.split(";") if v.strip()]
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
) -> GridExport:
    """Evaluate a registered function on a 2-D slice and write CSV.

    The CSV starts with a header comment describing axes and slice, then
    "x,y,value" rows in row-major order (y outer, x inner). Numbers are
    written with ``.17g`` (exact round trip); nonfinite values appear as
    "-inf", "inf" and "nan". The file is written one grid row at a time.
    """
    cfg.validate()
    if function_id not in GRID_FUNCTION_IDS:
        raise ConfigError(
            f"unknown function id {function_id!r} (choose from {GRID_FUNCTION_IDS})"
        )
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ConfigError("resolution must be at least 2x2")
    x0, x1, y0, y1 = parse_region_spec(region_spec)
    built = SuiteBuilder(cfg)
    kind, fn = _grid_functions(cfg, built)[function_id]
    varying, fixed = parse_slice_spec(slice_spec, cfg.n)

    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys)
    plane = (gx + 1j * gy).ravel()

    if kind == "z-plane":
        vals = np.asarray(fn(plane), dtype=np.float64)
        axes = "re(z),im(z)"
    else:
        if fixed is None:
            raise ConfigError(f"function {function_id!r} needs a w= or z= slice")
        if varying == "z":
            pts = np.concatenate(
                [plane[:, None], np.repeat(fixed[None, :], plane.size, axis=0)], axis=1
            )
            axes = "re(z),im(z)"
        else:
            pts = np.concatenate(
                [np.full((plane.size, 1), fixed[0]), plane[:, None]], axis=1
            )
            axes = "re(w),im(w)"
        vals = np.asarray(fn(pts), dtype=np.float64)

    # format(float, ".17g") renders -inf, inf, nan (of either sign) and -0
    xtext = [format(x, ".17g") for x in xs.tolist()]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"# axes={axes} slice={slice_spec} region={region_spec} "
                 f"res={nx}x{ny} function={function_id}\nx,y,value\n")
        for iy, y in enumerate(ys.tolist()):
            mid = f",{y:.17g},"
            row = vals[iy * nx : (iy + 1) * nx].tolist()
            fh.write("".join([f"{xt}{mid}{v:.17g}\n" for xt, v in zip(xtext, row)]))
    return GridExport(function_id, region_spec, (nx, ny), slice_spec, vals)
