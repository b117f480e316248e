"""Acceptance gate: every headline criterion at default configuration.

Each test prints one PASS/FAIL line. The default configuration is
n = 2, truncation 60, 10^4 samples per certificate (10^5 for the
whole-domain bound checks and the tapered-form floor), seed 42,
FD step 1e-4.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from pshcert.certify import run_suite, serialize_report
from pshcert.config import CertifyConfig


@pytest.fixture(scope="module")
def full_report():
    return run_suite("all", CertifyConfig())


def _cert(report, name):
    for c in report.certificates:
        if c.name == name:
            return c
    raise AssertionError(f"certificate {name} missing from report")


def _announce(k, label, ok):
    print(f"\ncriterion {k} [{'PASS' if ok else 'FAIL'}]: {label}")
    assert ok


def test_criterion_1_series_conditions_first_variant(full_report):
    bound = _cert(full_report, "thm1-series-bound-disk")
    mean = _cert(full_report, "thm1-series-submean")
    ok = (
        bound.passed and bound.samples == 10_000 and bound.worst_margin > 0.0
        and mean.passed and mean.samples == 1000
        and mean.worst_margin >= -1e-9 and mean.tolerance == 1e-9
    )
    _announce(1, "|series| + tail < 1 on the closed disk; circle-mean "
                 "margins >= -1e-9 at 1000 pole-avoiding probes", ok)


def test_criterion_2_series_conditions_second_variant(full_report):
    bound = _cert(full_report, "thm2-series-bound-disk")
    lower = _cert(full_report, "thm2-series-lower-bound")
    ok = (
        bound.passed and bound.samples == 10_000 and bound.worst_margin > 0.0
        and lower.passed and lower.samples >= 1000 and lower.worst_margin >= 0.0
    )
    _announce(2, "series + tail < 1/4 on the closed disk; certified lower "
                 "bound >= -1 off the plateau discs", ok)


def test_criterion_3_plateau_function(full_report):
    poles = _cert(full_report, "plateau-value-at-poles")
    geom = _cert(full_report, "plateau-disc-geometry")
    square = _cert(full_report, "plateau-equals-square-on-disk")
    branch = _cert(full_report, "plateau-branch-continuity")
    submean = _cert(full_report, "plateau-submean")
    ok = (
        poles.passed and poles.samples == 50 and poles.worst_margin == 0.0
        and geom.passed
        and square.passed and square.samples == 1000
        and square.worst_margin == 0.0
        and branch.passed and branch.samples == 50
        and submean.passed and submean.samples == 1000
        and submean.worst_margin >= -1e-6
    )
    _announce(3, "glued function: 1 at all 50 pole centers and on their "
                 "plateau discs, |z|^2 on the disk exactly, branch "
                 "continuity <= 1e-12, sub-mean margins >= -1e-6", ok)


def test_criterion_4_tapered_form(full_report):
    agree = _cert(full_report, "taper-levi-fd-agreement")
    growth = _cert(full_report, "taper-growth-bound")
    completion = _cert(full_report, "taper-completion")
    floor = _cert(full_report, "taper-levi-floor-positive")
    ok = (
        agree.passed and agree.samples == 1000 and agree.worst_margin > 0.0
        and growth.passed and growth.samples == 10_000
        and growth.worst_margin >= -1e-10
        and completion.passed and completion.samples == 10_000
        and completion.worst_margin >= -1e-10
        and floor.passed and floor.worst_margin > 0.0
    )
    _announce(4, "analytic vs FD Levi matrices within 1e-5 at 1000 points; "
                 "growth and completion inequalities on 10^4 samples; "
                 "positive sampled floor over 10^5 draws at radius 5/2", ok)


def test_criterion_5_first_scenario(full_report):
    strict = _cert(full_report, "thm1-window-strict-psh")
    above = _cert(full_report, "thm1-window-above-floor")
    bounds = _cert(full_report, "thm1-witness-bounds")
    names = (
        "thm1-line-membership", "thm1-w0-line-membership",
        "thm1-closure-membership", "thm1-decay-beyond-w4", "thm1-majorant",
    )
    props = [_cert(full_report, n) for n in names]
    ok = (
        strict.passed and strict.samples == 10_000 and strict.worst_margin > 0.0
        and above.passed and above.worst_margin > 0.0
        and bounds.passed and bounds.samples == 100_000
        and all(p.passed for p in props)
    )
    _announce(5, "first scenario: strict Levi floor > 0 on 10^4 window "
                 "samples, witness above -2 there, witness in [-2, 4] on "
                 "10^5 domain samples, membership and decay certificates", ok)


def test_criterion_6_second_scenario(full_report):
    names = (
        "thm2-bounded-slab", "thm2-closure-membership",
        "thm2-band-in-plateau-discs", "thm2-window-psd-fd",
        "thm2-witness-nonnegative", "thm2-witness-sup",
        "thm2-branch-agreement", "thm2-bump-interface-clear",
    )
    props = [_cert(full_report, n) for n in names]
    strict = _cert(full_report, "thm2-window-strict-floor")
    ok = (
        all(p.passed for p in props)
        and strict.passed and strict.samples == 10_000
        and strict.worst_margin > 0.0
    )
    _announce(6, "second scenario: boundedness, closure and band "
                 "certificates, witness bounded, strict Levi floor > 0 on "
                 "10^4 window samples, branch agreement at |w| = 5/2", ok)


def test_criterion_7_warmup_example(full_report):
    floor = _cert(full_report, "example1-strict-psh")
    near = _cert(full_report, "example1-floor-near-one")
    ok = (
        floor.passed and floor.samples == 10_000
        and abs(floor.worst_margin - 1.0) <= 1e-3
        and near.passed
    )
    _announce(7, "warm-up witness: sampled Levi floor within 1e-3 of 1 on "
                 "10^4 pole-excluded sublevel samples", ok)


# sha256 of `pshcert certify all --seed 42 --report PATH`; a change that
# moves these bytes on purpose says why and updates the pin
DEFAULT_REPORT_SHA256 = (
    "4b250b0d6d9734ad46e3500cc6395cfa9334d6e5035d513934c00dfbeb7e03f5"
)


def test_default_report_bytes_pinned(full_report):
    text = serialize_report(full_report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256


def test_criterion_8_reproducibility(tmp_path):
    outs = []
    for run in range(2):
        path = tmp_path / f"report{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pshcert.cli", "certify", "all",
             "--seed", "42", "--report", str(path)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    _announce(8, "two `certify all --seed 42` runs produce byte-identical "
                 "reports", ok)
