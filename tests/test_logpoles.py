"""Pole schedules, certified series evaluation, and tail bounds."""

import math

import numpy as np
import pytest

from pshcert import kernels
from pshcert.config import MAX_TRUNC
from pshcert.constructions import build_plateau
from pshcert.geometry import golden_angles
from pshcert.logpoles import (
    disc_separation_margins,
    make_schedule,
    render_schedule,
    ring_bound_table,
    ring_cells,
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
    pairwise, unit = disc_separation_margins(sch1.a, sch1.r)
    assert pairwise.size == 60 * 59 // 2
    assert np.min(pairwise) > 0.0
    assert np.min(unit) > 0.0


@pytest.mark.parametrize("j_max", [1, MAX_TRUNC])
def test_disc_separation_margins_match_triu_oracle(j_max):
    # filled row by row, the pairwise margins are the upper triangle of the
    # whole J x J expression in triu_indices order, bit for bit
    sch = make_schedule("thm1", j_max)
    a, r = sch.a, sch.r
    iu = np.triu_indices(a.size, k=1)
    want = (np.abs(a[:, None] - a[None, :]) - (r[:, None] + r[None, :]))[iu]
    pairwise, unit = disc_separation_margins(a, r)
    assert pairwise.tobytes() == want.tobytes()
    assert unit.tobytes() == ((np.abs(a) - r) - 1.0).tobytes()


def test_series_at_pole_is_neg_inf(sch1):
    assert series_values(sch1, sch1.a[:1], sch1.j_max)[0] == -np.inf
    assert np.isfinite(tail_error_radius(sch1, np.abs(sch1.a[:1]), sch1.j_max)[0])


def test_series_at_origin_matches_direct_sum(sch1):
    want = sum(
        d * math.log(abs(a)) for d, a in zip(sch1.delta, sch1.a)
    )
    vals = series_values(sch1, np.asarray([0j]), sch1.j_max)
    assert vals[0] == pytest.approx(want, rel=1e-12)
    assert vals[0] > 0.0
    assert tail_error_radius(sch1, np.asarray([0.0]), sch1.j_max)[0] < 2.0**-60


def test_series_bounded_on_closed_disk(sch1):
    rng = np.random.default_rng(0)
    z = np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
    errs = tail_error_radius(sch1, np.abs(z), sch1.j_max)
    assert np.max(np.abs(series_values(sch1, z, sch1.j_max)) + errs) < 1.0


def test_error_radius_monotone_in_truncation(sch1):
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, 1000) + 1j * rng.uniform(-1, 1, 1000)
    z = z[np.abs(z) <= 1.0]
    e40 = tail_error_radius(sch1, np.abs(z), 40)
    e60 = tail_error_radius(sch1, np.abs(z), 60)
    assert np.all(e40 >= e60)


def test_error_radius_infinite_in_tail_annulus(sch1):
    err = tail_error_radius(sch1, np.asarray([1.01]), 60)
    assert err[0] == np.inf
    err = tail_error_radius(sch1, np.asarray([1.0, 1.0 + 2.0 / 60 + 1e-6]), 60)
    assert np.all(np.isfinite(err))


def _bit_runs(z):
    # the number of runs of adjacent z with equal (real, imag) bits
    bits = [tuple(np.asarray([c]).view(np.uint64)) for c in z]
    return sum(1 for i, b in enumerate(bits) if i == 0 or b != bits[i - 1])


def test_series_runs_match_per_point_evaluation(sch1, monkeypatch):
    # runs of one z are evaluated once and repeated; the result must be
    # bit for bit that of evaluating every point on its own
    nan, inf = np.nan, np.inf
    z = np.array(
        [0.3 + 0.2j] * 4 + [0.5] + [-0.4j] * 3
        + [0.3 - 0.2j, 0.3 + 0.2j, -0.3 + 0.2j]  # equal real or imaginary part
        + [complex(0.0, 0.0), complex(-0.0, 0.0), complex(-0.0, 0.0),
           complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0)]
        + [complex(nan, 0.0)] * 3 + [complex(0.0, nan)] * 2 + [complex(nan, nan)]
        + [complex(inf, 0.0), complex(inf, 0.0), complex(-inf, 1.0),
           complex(0.0, inf), complex(0.0, -inf)]
        + [sch1.a[0]] * 3 + [sch1.a[3], sch1.a[0]]
        + [1.01, 1.01, 2.5 + 0.1j], dtype=np.complex128)
    kernel_points = []
    real_sigma = kernels.sigma_many

    def counted(zr, *args):
        kernel_points.append(zr.size)
        return real_sigma(zr, *args)

    monkeypatch.setattr(kernels, "sigma_many", counted)
    with np.errstate(invalid="ignore"):
        for arr in (z, np.stack([z, z], axis=1)[:, 0], z[:0], z[:1], z[-1:]):
            kernel_points.clear()
            vals = series_values(sch1, arr, sch1.j_max)
            assert kernel_points == [_bit_runs(arr)]
            want = np.concatenate([series_values(sch1, arr[i:i + 1], sch1.j_max)
                                   for i in range(arr.size)] + [np.empty(0)])
            assert vals.tobytes() == want.tobytes()
        assert np.sum(series_values(sch1, z, sch1.j_max) == -np.inf) == 5


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
    assert np.all(lows <= series_values(sch2, z, sch2.j_max) + 1e-15)


def _pointwise_ring_bound(schedule, absz, trunc):
    """The ring bound at each |z| itself: the per-point reference of the table."""
    moduli = np.sort(np.abs(schedule.a[:trunc]))
    idx = np.searchsorted(moduli, absz)
    below = moduli.take(idx - 1, mode="clip")
    above = moduli.take(idx, mode="clip")
    gap = np.minimum(np.abs(absz - below), np.abs(above - absz)) - 1e-12
    with np.errstate(divide="ignore"):
        return np.sum(schedule.delta[:trunc]) * np.log(np.clip(gap, 0.0, 1.0))


def test_ring_cells_index_is_exact():
    # 2^12 is a power of two: a cell edge maps to its own cell, one ulp
    # below it to the previous one; NaN, inf and |z|^2 >= 16 to the last
    edges = np.arange(0, 2**16) / 2.0**12
    np.testing.assert_array_equal(ring_cells(edges), np.arange(2**16))
    np.testing.assert_array_equal(ring_cells(np.nextafter(edges[1:], 0.0)),
                                  np.arange(2**16 - 1))
    last = ring_cells(np.array([16.0, np.nextafter(16.0, 0.0), 1e300, np.inf, np.nan]))
    assert last.tolist() == [2**16 - 1] * 5


@pytest.mark.parametrize("trunc", [1, 60, MAX_TRUNC])
def test_ring_table_below_pointwise_ring_bound(trunc):
    # every |z| of a cell, edges and their ulp neighbours included, has a
    # per-point ring bound at least the cell's entry; the cells that hold
    # a pole modulus are -inf, and far out the entry is S * log 1 = 0
    sch = make_schedule("thm1", trunc)
    table = ring_bound_table(sch, sch.j_max)
    assert table.shape == (2**16,)
    moduli = np.abs(sch.a)
    np.testing.assert_array_equal(table[ring_cells(moduli**2)], -np.inf)
    assert table[-1] == 0.0
    rng = np.random.default_rng(trunc)
    edges = np.arange(0, 2**16) / 2.0**12
    nz2 = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 99.0),
        rng.uniform(0.0, 16.0, 50_000), rng.uniform(0.9, 4.1, 50_000),
        moduli**2, [16.0, 17.0, 1e6],
    ])
    want = _pointwise_ring_bound(sch, np.sqrt(nz2), trunc)
    assert not np.any(table[ring_cells(nz2)] > want)


def test_plateau_disc_membership_log_space(sch2):
    # only a pole hit lies inside its plateau disc; 1e-14 off it is far outside
    m = sch2.disc_margins(np.asarray([complex(sch2.a[2]), complex(sch2.a[2]) + 1e-14]))
    assert m[0] == np.inf
    assert m[1] < -1e3
    assert sch2.outside_all_discs(sch2.a[2:3] + 1e-14)[0]
    assert not sch2.outside_all_discs(sch2.a[2:3])[0]
    with pytest.raises(ValueError):
        make_schedule("thm1", 5).disc_margins(np.asarray([0j]))


def test_disc_margins_match_log_membership_oracle(sch2):
    # disc_margins > 0 exactly where some log|z - a_j| < log rho_j, over row
    # blocks, with exact pole hits, NaN and inf at the block edges
    rows = 16 * kernels._BLOCK // sch2.a.size
    rng = np.random.default_rng(5)
    z = rng.uniform(-2.5, 2.5, 2 * rows + 9) + 1j * rng.uniform(-2.5, 2.5, 2 * rows + 9)
    for i, v in zip((0, rows - 1, rows, rows + 1, 2 * rows, 2 * rows + 8),
                    (sch2.a[0], sch2.a[-1], np.nan, sch2.a[7] + 1e-15,
                     complex(np.inf, 0.0), sch2.a[3])):
        z[i] = v
    with np.errstate(divide="ignore"):
        logd = np.log(np.abs(z[:, None] - sch2.a[None, :]))
    inside = np.any(logd < sch2.log_rho[None, :], axis=1)
    m = sch2.disc_margins(z)
    np.testing.assert_array_equal(m > 0.0, inside)
    np.testing.assert_array_equal(sch2.outside_all_discs(z), ~inside)
    assert np.flatnonzero(inside).tolist() == [0, rows - 1, 2 * rows + 8]
    assert m[0] == m[rows - 1] == np.inf and np.isnan(m[rows])
    assert m[2 * rows] == -np.inf
    assert np.all(np.isfinite(np.delete(m, [0, rows - 1, rows, 2 * rows, 2 * rows + 8])))


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
