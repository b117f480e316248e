"""Spans and counters around pshcert's public functions, from outside.

``install(tracer)`` replaces every module-level reference to the traced
functions inside the ``pshcert`` package with a timing wrapper. Several
modules bind names by value at import (``constructions`` and
``calculus`` hold their own ``sample``, ``series_values``,
``circle_mean_test`` and ``certify_psh``), so each reference is replaced
where it is looked up, not only in the defining module.

A span records its name, its duration and, through the span stack, its
parent; a span's self time is its duration minus that of its child
spans. Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# region labels of every SublevelRegion that the certify suites sample
REGION_LABELS = ("Omega1", "Omega2", "Omega2-slab", "Omega2-zdisk", "example1-domain")

BUNDLES = ("example1_check", "thm1_properties", "plateau_properties",
           "tapered_form_properties", "thm2_properties")
MIXTURES = ("thm1_member_mixture", "thm2_member_mixture")

# the 43 certificates of ``pshcert certify all``, in report order
CERT_NAMES = (
    "example1-strict-psh", "example1-floor-near-one",
    "thm1-series-bound-disk", "thm1-series-submean", "thm1-line-membership",
    "thm1-w0-line-membership", "thm1-closure-membership", "thm1-window-strict-psh",
    "thm1-window-above-floor", "thm1-decay-beyond-w4", "thm1-majorant",
    "thm1-witness-bounds", "thm1-coefficient-sum", "thm1-connectivity",
    "plateau-value-at-poles", "plateau-disc-geometry", "plateau-equals-square-on-disk",
    "plateau-branch-continuity", "plateau-laplacian-floor", "plateau-squeeze-outside",
    "plateau-submean", "plateau-disc-separation",
    "taper-profile-shape", "taper-growth-bound", "taper-completion",
    "taper-levi-fd-agreement", "taper-levi-floor-positive", "taper-plateau-identity",
    "thm2-series-bound-disk", "thm2-series-lower-bound", "thm2-bounded-slab",
    "thm2-closure-membership", "thm2-band-in-plateau-discs", "thm2-lines-membership",
    "thm2-branch-agreement", "thm2-bump-interface-clear", "thm2-window-psd-fd",
    "thm2-window-strict-floor", "thm2-witness-nonnegative", "thm2-witness-sup",
    "thm2-global-psd-fd", "thm2-coefficient-sum", "thm2-connectivity",
)


class Tracer:
    """In-memory spans and counters of one process.

    While ``enabled`` is false the wrappers call straight through, so one
    process can alternate untraced and traced batches.
    """

    def __init__(self):
        self.enabled = False
        self.stack = []  # open spans: [name, seconds covered by children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.cert_s = defaultdict(float)
        self._cert_clock = None

    def parent(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, fn, name, enter=None, done=None, prepare=None):
        """Wrap ``fn`` in a span; ``name`` is a string or ``f(args)``.

        ``prepare(args, kwargs)`` may substitute arguments (to count
        callbacks), ``enter()`` runs when the span opens and
        ``done(name, args, kwargs, result)`` after it closes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = [label, 0.0]
            tracer.stack.append(frame)
            if enter is not None:
                enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.calls[label] += 1
                tracer.total_s[label] += dt
                tracer.self_s[label] += dt - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if done is not None:
                done(label, args, kwargs, result)
            return result

        return wrapper

    # per-certificate time: the interval since the previous certificate
    # of the same bundle completed (or since the bundle started)

    def start_bundle(self):
        self._cert_clock = time.perf_counter()

    def cert_done(self, cert):
        if self._cert_clock is None:
            return
        now = time.perf_counter()
        self.cert_s[cert.name] += now - self._cert_clock
        self._cert_clock = now


def _replace_everywhere(orig, wrapper) -> int:
    """Point every pshcert module attribute bound to ``orig`` at ``wrapper``."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "pshcert" or modname.startswith("pshcert.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


def install(tr: Tracer) -> None:
    """Trace the kernels, series, samplers, calculus, constructions and
    certify entry points of the imported ``pshcert`` package."""
    import pshcert.cli  # noqa: F401  (binds run_suite/emit_grid by value)
    from pshcert import calculus, certify, constructions, geometry, kernels, logpoles

    c = tr.counts

    def wrap(orig, name, **hooks):
        wrapper = tr.span(orig, name, **hooks)
        if _replace_everywhere(orig, wrapper) == 0:
            raise RuntimeError(f"no reference to {name} found in pshcert")

    # kernels: pole_terms = points x poles
    def pole_terms(label, args, kwargs, result):
        c[label + ".pole_terms"] += np.size(args[0]) * np.size(args[2])

    wrap(kernels.sigma_many, "sigma_many", done=pole_terms)
    wrap(kernels.u_many, "u_many", done=pole_terms)
    wrap(kernels.taper_many, "taper_many")
    wrap(kernels.min_eig_2x2_many, "min_eig")
    wrap(kernels.jacobi_min_eig_many, "min_eig")

    # logpoles
    def series_points(label, args, kwargs, result):
        c["series_values.points"] += np.size(args[1] if len(args) > 1 else kwargs["z"])

    wrap(logpoles.series_values, "series_values", done=series_points)

    # geometry: a sample() on a SublevelRegion is a rejection span; the
    # sample() calls on its window nested inside it are the proposals
    def sample_name(args):
        region = args[0]
        if isinstance(region, geometry.SublevelRegion):
            return "rejection." + region.label
        if tr.parent().startswith("rejection."):
            return "sample.proposal"
        return "sample"

    def sample_done(label, args, kwargs, result):
        if label == "sample.proposal":
            c[tr.parent() + ".proposed"] += len(result)
        elif label.startswith("rejection."):
            c[label + ".delivered"] += len(result)

    wrap(geometry.sample, sample_name, done=sample_done)

    contains = geometry.SublevelRegion.contains

    def counted_contains(self, pts):
        keep = contains(self, pts)
        if tr.enabled and tr.parent().startswith("rejection."):
            c[tr.parent() + ".accepted"] += int(np.count_nonzero(keep))
        return keep

    geometry.SublevelRegion.contains = counted_contains

    # calculus
    wrap(calculus.circle_mean_test, "circle_mean_test")

    def counted_f(args, kwargs):
        f = args[0]

        def f_counted(pts):
            c["wirtinger_hessian_batch.stencil_evals"] += len(pts)
            return f(pts)

        return (f_counted,) + tuple(args[1:]), kwargs

    def hessian_done(label, args, kwargs, result):
        _, ok = result
        c[label + ".points"] += ok.size
        c[label + ".nonfinite"] += int(np.count_nonzero(~ok))

    wrap(calculus.wirtinger_hessian_batch, "wirtinger_hessian_batch",
         prepare=counted_f, done=hessian_done)
    wrap(calculus.min_eigs_batch, "min_eigs_batch")

    def psh_done(label, args, kwargs, cert):
        sampler = args[2] if len(args) > 2 else kwargs["sampler"]
        c["certify_psh.requested"] += sampler.count
        c["certify_psh.delivered"] += cert.samples
        tr.cert_done(cert)

    wrap(calculus.certify_psh, "certify_psh", done=psh_done)

    def cert_done(label, args, kwargs, cert):
        if not tr.inside("certify_psh"):
            tr.cert_done(cert)

    wrap(calculus.make_certificate, "make_certificate", done=cert_done)

    # constructions
    for name in ("build_plateau", "build_tapered_form", "build_thm1", "build_thm2") + MIXTURES:
        wrap(getattr(constructions, name), name)
    for name in BUNDLES:
        wrap(getattr(constructions, name), name, enter=tr.start_bundle)

    levi_matrix = constructions.TaperedForm.levi_matrix

    def counted_levi_matrix(self, z):
        if tr.enabled:
            c["TaperedForm.levi_matrix.calls"] += 1
        return levi_matrix(self, z)

    constructions.TaperedForm.levi_matrix = counted_levi_matrix

    # certify
    for name in ("run_suite", "serialize_report", "emit_grid"):
        wrap(getattr(certify, name), name)


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-operation values of the per-layer metrics named in BENCHMARK.json."""
    k = float(ops)
    c = tr.counts
    out = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for kern in ("sigma_many", "u_many"):
        out[kern + ".calls"] = tr.calls[kern] / k
        out[kern + ".pole_terms"] = c[kern + ".pole_terms"] / k
        out[kern + ".s"] = tr.total_s[kern] / k
    out["taper_many.calls"] = tr.calls["taper_many"] / k
    out["taper_many.s"] = tr.total_s["taper_many"] / k
    out["min_eig.s"] = tr.total_s["min_eig"] / k

    out["series_values.calls"] = tr.calls["series_values"] / k
    out["series_values.points"] = c["series_values.points"] / k
    out["series_values.points_per_call"] = ratio(c["series_values.points"],
                                                 tr.calls["series_values"])
    out["series_values.s"] = tr.total_s["series_values"] / k

    for label in REGION_LABELS:
        key = "rejection." + label
        proposed, accepted = c[key + ".proposed"], c[key + ".accepted"]
        out[key + ".proposed"] = proposed / k
        out[key + ".accepted"] = accepted / k
        out[key + ".acceptance"] = ratio(accepted, proposed)
        out[key + ".overdraw"] = ratio(proposed, c[key + ".delivered"])
        out[key + ".s"] = tr.total_s[key] / k
    out["sample.s"] = tr.total_s["sample"] / k

    out["circle_mean_test.calls"] = tr.calls["circle_mean_test"] / k
    out["circle_mean_test.s"] = tr.total_s["circle_mean_test"] / k
    for field in ("points", "stencil_evals", "nonfinite"):
        key = "wirtinger_hessian_batch." + field
        out[key] = c[key] / k
    out["wirtinger_hessian_batch.s"] = tr.total_s["wirtinger_hessian_batch"] / k
    out["min_eigs_batch.s"] = tr.total_s["min_eigs_batch"] / k
    out["certify_psh.requested"] = c["certify_psh.requested"] / k
    out["certify_psh.delivered"] = c["certify_psh.delivered"] / k
    out["certify_psh.s"] = tr.total_s["certify_psh"] / k

    out["build_plateau.s"] = tr.total_s["build_plateau"] / k
    out["build_tapered_form.s"] = tr.total_s["build_tapered_form"] / k
    for name in BUNDLES + MIXTURES:
        out[name + ".self_s"] = tr.self_s[name] / k
    out["TaperedForm.levi_matrix.calls"] = c["TaperedForm.levi_matrix.calls"] / k

    out["run_suite.s"] = tr.total_s["run_suite"] / k
    out["serialize_report.s"] = tr.total_s["serialize_report"] / k
    out["emit_grid.self_s"] = tr.self_s["emit_grid"] / k

    for name in CERT_NAMES:
        out[f"cert.{name}.s"] = tr.cert_s[name] / k
    return out
