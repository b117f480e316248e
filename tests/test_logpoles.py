"""Pole schedules, certified series evaluation, and tail bounds."""

import math

import numpy as np
import pytest

from pshcert.config import MAX_TRUNC
from pshcert.constructions import build_plateau
from pshcert.geometry import golden_angles
from pshcert.logpoles import (
    disc_separation_margins,
    make_schedule,
    render_schedule,
    schedule_condition_margin,
    series_lower_bounds_off_discs,
    series_values,
    tail_error_radius,
)


@pytest.fixture(scope="module")
def sch1():
    return make_schedule("thm1", 60)


@pytest.fixture(scope="module")
def sch2(plateau):
    return make_schedule("thm2", plateau.j_max, plateau.log_rho)


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule("thm3", 10)
    with pytest.raises(ValueError):
        make_schedule("thm1", 0)
    with pytest.raises(ValueError):
        make_schedule("thm2", 10)  # missing plateau-disc logs
    with pytest.raises(ValueError):
        make_schedule("thm1", 10, log_rho=np.full(10, -1.0))
    with pytest.raises(ValueError):
        make_schedule("thm2", 10, log_rho=np.zeros(10))


def test_pole_positions_and_radii(sch1):
    j = np.arange(1, 61, dtype=float)
    np.testing.assert_allclose(np.abs(sch1.a), 1.0 + 1.0 / j, rtol=1e-15)
    np.testing.assert_array_equal(
        sch1.a, (1.0 + 1.0 / j) * np.exp(1j * golden_angles(60))
    )
    np.testing.assert_allclose(sch1.r, 1.0 / (4 * j * (j + 1)), rtol=0)


def test_first_coefficient_value(sch1):
    # 2^-2 / log 6, evaluated directly
    assert sch1.delta[0] == pytest.approx(0.25 / math.log(6.0), rel=1e-15)
    assert sch1.delta[0] == pytest.approx(0.1395276566378118, abs=1e-15)


def test_coefficient_sum_conditions(sch1, sch2):
    # thm1: sum delta_j log(3j) <= 1/2 because log(3j) < log(3j+3) termwise
    j = np.arange(1, 61, dtype=float)
    assert np.sum(sch1.delta * np.log(3 * j)) <= 0.5
    assert schedule_condition_margin(sch1) > 0.0
    assert schedule_condition_margin(sch2) > 0.0


def test_disc_disjointness_brute_force():
    # r_j + r_k <= |a_j - a_k| / 2 for all pairs up to 1000
    j = np.arange(1, 1001, dtype=np.float64)
    a = (1 + 1 / j) * np.exp(1j * golden_angles(1000))
    r = 1.0 / (4 * j * (j + 1))
    worst = np.inf
    for k in range(0, 1000, 100):
        blk = slice(k, k + 100)
        diff = np.abs(a[blk, None] - a[None, :])
        rsum = r[blk, None] + r[None, :]
        mask = np.ones_like(diff, dtype=bool)
        mask[np.arange(100), np.arange(k, k + 100)] = False
        worst = min(worst, np.min((0.5 * diff - rsum)[mask]))
    assert worst > 0.0


def test_disc_separation_margins_positive(sch1):
    pairwise, unit = disc_separation_margins(sch1)
    assert pairwise.size == 60 * 59 // 2
    assert np.min(pairwise) > 0.0
    assert np.min(unit) > 0.0


def test_series_at_pole_is_neg_inf(sch1):
    vals, errs = series_values(sch1, sch1.a[:1])
    assert vals[0] == -np.inf
    assert np.isfinite(errs[0])


def test_series_at_origin_matches_direct_sum(sch1):
    want = sum(
        d * math.log(abs(a)) for d, a in zip(sch1.delta, sch1.a)
    )
    vals, errs = series_values(sch1, np.asarray([0j]))
    assert vals[0] == pytest.approx(want, rel=1e-12)
    assert vals[0] > 0.0
    assert errs[0] < 2.0**-60


def test_series_bounded_on_closed_disk(sch1):
    rng = np.random.default_rng(0)
    z = np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
    vals, errs = series_values(sch1, z)
    assert np.max(np.abs(vals) + errs) < 1.0


def test_error_radius_monotone_in_truncation(sch1):
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, 1000) + 1j * rng.uniform(-1, 1, 1000)
    z = z[np.abs(z) <= 1.0]
    e40 = series_values(sch1, z, trunc=40)[1]
    e60 = series_values(sch1, z, trunc=60)[1]
    assert np.all(e40 >= e60)


def test_error_radius_infinite_in_tail_annulus(sch1):
    err = tail_error_radius(sch1, np.asarray([1.01]), 60)
    assert err[0] == np.inf
    err = tail_error_radius(sch1, np.asarray([1.0, 1.0 + 2.0 / 60 + 1e-6]), 60)
    assert np.all(np.isfinite(err))


def test_truncation_validation(sch1):
    with pytest.raises(ValueError):
        series_values(sch1, np.asarray([0j]), trunc=61)
    with pytest.raises(ValueError):
        series_values(sch1, np.asarray([0j]), trunc=0)


def test_lower_bound_examples(sch2):
    # all poles have modulus > 1, so every term is positive at 0; just
    # off a pole is outside its plateau disc and still bounded
    z = np.asarray([0j, 3.0 + 0j, complex(sch2.a[4]) + 1e-12])
    at_zero, at_three, off_pole = series_lower_bounds_off_discs(sch2, z)
    assert at_zero > 0.0
    assert at_three > -1.0
    assert off_pole >= -1.0


def test_lower_bound_rejects_disc_interior(sch2):
    with pytest.raises(ValueError):
        series_lower_bounds_off_discs(sch2, np.asarray([complex(sch2.a[4])]))


def test_coefficients_positive_up_to_max_trunc():
    # MAX_TRUNC is the last index at which both schedules have delta_j > 0;
    # the thm2 coefficients underflow to exactly 0 at the next one
    plateau = build_plateau(MAX_TRUNC + 1)
    sch2 = make_schedule("thm2", MAX_TRUNC + 1, plateau.log_rho)
    assert np.all(sch2.delta[:MAX_TRUNC] > 0.0)
    assert sch2.delta[MAX_TRUNC] == 0.0
    assert np.all(make_schedule("thm1", MAX_TRUNC).delta > 0.0)


def test_lower_bound_requires_thm2(sch1):
    with pytest.raises(ValueError):
        series_lower_bounds_off_discs(sch1, np.asarray([0j]))


def test_lower_bound_is_actually_below_series(sch2):
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)
    z = z[sch2.outside_all_discs(z)]
    lows = series_lower_bounds_off_discs(sch2, z)
    vals, _ = series_values(sch2, z)
    assert np.all(lows <= vals + 1e-15)


def test_plateau_disc_membership_log_space(sch2):
    inside = sch2.disc_log_memberships(np.asarray([complex(sch2.a[2])]))
    assert inside[0, 2]
    assert not np.any(inside[0, :2])
    off = sch2.disc_log_memberships(np.asarray([complex(sch2.a[2]) + 1e-14]))
    assert not np.any(off)


def test_render_schedule_roundtrip(sch2):
    text = render_schedule(sch2, {"w0_modulus": 4.0})
    lines = text.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == sch2.j_max
    j, theta, delta, r, log_rho = data[9].split()
    assert int(j) == 10
    assert float(theta) == sch2.theta[9]
    assert float(delta) == sch2.delta[9]
    assert float(r) == sch2.r[9]
    assert float(log_rho) == sch2.log_rho[9]
    assert render_schedule(sch2, {"w0_modulus": 4.0}) == text
