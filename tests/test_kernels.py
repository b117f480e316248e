"""Kernel correctness against independent oracles and pinned bytes."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert import kernels
from pshcert.calculus import min_eigs_batch, wirtinger_hessian_batch
from pshcert.config import MAX_TRUNC, CertifyConfig
from pshcert.constructions import build_plateau, build_thm2
from pshcert.geometry import Sampler, sample
from pshcert.logpoles import make_schedule

finite = st.floats(-10.0, 10.0, allow_nan=False)


# --- cutoff profile ---------------------------------------------------------

def test_chi_plateau_and_support():
    s = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 5.0])
    v = kernels.chi_many(s)
    assert v[0] == v[1] == v[2] == 1.0
    assert v[3] == pytest.approx(0.5, abs=1e-15)
    assert v[4] == v[5] == v[6] == 0.0


def test_chi_monotone_on_transition():
    s = np.linspace(0.25, 0.75, 2001)
    v = kernels.chi_many(s)
    assert np.all(np.diff(v) <= 0.0)
    assert np.all((v >= 0.0) & (v <= 1.0))


# --- taper profile ----------------------------------------------------------

def test_taper_plateau_and_tail():
    t = np.array([0.0, 0.3, 0.5, 1.0, 2.0])
    lam, d1, d2 = kernels.taper_many(t)
    np.testing.assert_array_equal(lam, [1.0, 1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(d1, 0.0)
    np.testing.assert_array_equal(d2, 0.0)


def test_taper_derivatives_match_finite_differences():
    # sample where the profile is not exponentially flat, so the central
    # difference is above float64 rounding noise
    t = np.linspace(0.6, 0.97, 75)
    lam, d1, d2 = kernels.taper_many(t)
    h = 1e-6
    lp = kernels.taper_many(t + h)[0]
    lm = kernels.taper_many(t - h)[0]
    np.testing.assert_allclose((lp - lm) / (2 * h), d1, rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose((lp - 2 * lam + lm) / h**2, d2, rtol=1e-3, atol=1e-2)


def test_taper_square_structure():
    # the profile is a square, so (lam')^2 <= 4 * (1.05 * max g'^2) * lam
    # holds with the max taken by finite differences on the same grid
    t = np.linspace(0.0, 1.0, 20001)[:-1]
    lam, d1, _ = kernels.taper_many(t)
    h = 1e-7
    gp = (np.sqrt(kernels.taper_many(t + h)[0]) - np.sqrt(
        np.clip(kernels.taper_many(t - h)[0], 0, None))) / (2 * h)
    bound = 4.0 * 1.05 * np.max(gp**2)
    assert np.all(d1**2 <= bound * lam + 1e-12)


# --- runs of equal z ---------------------------------------------------------

def _runs_case():
    nan, inf = np.nan, np.inf
    neg_nan = complex(-np.float64(nan), 0.0)  # a NaN of other bits
    return np.array(
        [0.3 + 0.2j] * 4 + [0.5] + [-0.4j] * 3
        + [0.3 - 0.2j, 0.3 + 0.2j, -0.3 + 0.2j]  # equal real or imaginary part
        + [complex(0.0, 0.0), complex(-0.0, 0.0), complex(-0.0, 0.0),
           complex(0.0, -0.0), complex(-0.0, -0.0), complex(0.0, 0.0)]
        + [complex(nan, 0.0)] * 3 + [neg_nan] * 2 + [complex(0.0, nan)] * 2
        + [complex(nan, nan), complex(inf, 0.0), complex(inf, 0.0), 1.01],
        dtype=np.complex128)


def _bit_runs(z):
    """Index of the first point of each run of adjacent z with equal bits."""
    bits = [np.asarray([c]).tobytes() for c in z]
    return [i for i in range(len(bits)) if i == 0 or bits[i] != bits[i - 1]]


def _per_point(z):
    # a z-only function that tells its points apart by their bits
    with np.errstate(invalid="ignore"):
        return np.stack((np.copysign(1.0, z.real) * (z.real**2 + 3.0 * z.imag),
                         np.copysign(2.0, z.imag) + np.isnan(z.real)))


@pytest.mark.parametrize("part", ["whole", "strided", "empty", "one", "distinct"])
def test_per_distinct_z_evaluates_each_run_once(part):
    z = _runs_case()
    z = {"whole": z, "strided": np.stack([z, -z], axis=1)[:, 0], "empty": z[:0],
         "one": z[-1:], "distinct": z[_bit_runs(z)]}[part]
    seen = []

    def fn(zs):
        seen.append(zs.copy())
        return _per_point(zs)

    got = kernels.per_distinct_z(fn, z)
    assert len(seen) == 1
    assert seen[0].tobytes() == z[_bit_runs(z)].tobytes()
    assert got.shape == (2, z.size)
    want = np.concatenate([_per_point(z[i:i + 1]) for i in range(z.size)]
                          + [np.empty((2, 0))], axis=1)
    assert got.tobytes() == want.tobytes()
    # a one-dimensional result is repeated as well
    assert kernels.per_distinct_z(lambda zs: _per_point(zs)[0], z).tobytes() == (
        want[0].tobytes())


def test_per_distinct_z_keeps_signed_zeros_and_nan_bits_apart():
    # +0 and -0 are other points, and so is a NaN of other bits; equal NaNs merge
    z = _runs_case()
    sizes = []

    def fn(zs):
        sizes.append(zs.size)
        return zs.real

    for part in (z, z[11:17], z[17:24]):
        kernels.per_distinct_z(fn, part)
    assert sizes == [17, 5, 3]


# --- pole series ------------------------------------------------------------

def _sigma_oracle(z, a, delta):
    # plain-python reimplementation, term order matched
    out = []
    for zz in z:
        acc = 0.0
        for aa, dd in zip(a, delta):
            d2 = (zz.real - aa.real) ** 2 + (zz.imag - aa.imag) ** 2
            acc += dd * (0.5 * math.log(d2)) if d2 > 0 else -math.inf
        out.append(acc)
    return np.asarray(out)


def test_sigma_matches_python_oracle():
    rng = np.random.default_rng(5)
    a = (1 + 1 / np.arange(1, 13)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    delta = rng.uniform(0.01, 0.2, 12)
    z = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
    got = kernels.sigma_many(z, a, delta)
    np.testing.assert_allclose(got, _sigma_oracle(z, a, delta), rtol=1e-12)


def test_sigma_pole_hit_is_neg_inf():
    a = np.array([2.0 + 0j])
    got = kernels.sigma_many(np.array([2.0 + 0j]), a, np.array([0.5]))
    assert got[0] == -np.inf


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("trunc", [60, 400])
def test_sigma_finite_where_squares_overflow(sign, trunc):
    # |z - a_j|^2 overflows above |z| ~ 1.34e154; there sigma is
    # log|z| * sum(delta) to within the poles' relative size 2/|z|. Points
    # whose squares stay finite (1e154), hit a pole, or underflow (a pole at 0
    # missed by 1e-170, read as a hit) keep the bits of 0.5 * log(d2)
    sch = make_schedule("thm1", trunc)
    delta = sign * sch.delta
    big = np.array([1e160, 1.5e160 + 1j, -1e200j, 3e250 - 4e250j, 1e300 + 1e300j,
                    -1.7e308, 2e154])
    kept = np.array([1e154, 1e154j, sch.a[3]])
    z = np.concatenate([big, kept])
    args = (z, sch.a, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.sigma_many(*args)
    np.testing.assert_allclose(got[:big.size], np.log(np.abs(big)) * np.sum(delta),
                               rtol=1e-14)
    assert got.tobytes() == _sigma_unblocked(*args).tobytes()
    plain = np.zeros(kept.size)
    with np.errstate(divide="ignore"):
        for j in range(trunc):
            dx, dy = kept.real - sch.a.real[j], kept.imag - sch.a.imag[j]
            plain = plain + delta[j] * (0.5 * np.log(dx * dx + dy * dy))
    assert got[big.size:].tobytes() == plain.tobytes()
    assert got[-1] == -sign * np.inf
    tiny = kernels.sigma_many(np.array([1e-170 + 0j, 1e160]), np.array([0j, 1j]),
                              np.array([sign, sign]))
    assert tiny[0] == -sign * np.inf
    assert tiny[1] == pytest.approx(2.0 * sign * np.log(1e160), rel=1e-15)


@pytest.mark.parametrize("trunc", [60, 400])
def test_resum_takes_only_points_whose_squares_can_overflow(trunc, monkeypatch):
    # the hypot re-sum sees only finite z with max(|x|, |y|) + max pole
    # coordinate >= 2^510 (~3.4e153): exact pole hits sum to -inf and skip
    # it, and overflows from max(|x|, |y|) ~ 9.5e153 on are still taken
    resummed = []
    real = kernels._hypot_sums

    def spy(x, y, *rest):
        resummed.append(x.size)
        return real(x, y, *rest)

    monkeypatch.setattr(kernels, "_hypot_sums", spy)
    sch = make_schedule("thm1", trunc)
    hits = np.tile(sch.a, 3)
    got = kernels.sigma_many(hits, sch.a, sch.delta)
    assert np.all(got == -np.inf) and resummed == []
    z = np.array([1e154 + 1e154j, 9.5e153 + 9.5e153j, 1e154, sch.a[5], complex(np.nan, 0)])
    args = (z, sch.a, sch.delta)
    got = kernels.sigma_many(*args)
    assert resummed == [2] and np.all(np.isfinite(got[:3])) and got[3] == -np.inf
    assert got.tobytes() == _sigma_unblocked(*args).tobytes()
    # a pole hit at 1e154 passes the magnitude test, is re-summed, stays -inf
    resummed.clear()
    args = (np.array([1e154 + 0j, 1.0]), np.array([1e154 + 0j, 0.5]), np.ones(2))
    got = kernels.sigma_many(*args)
    assert resummed == [1] and got[0] == -np.inf
    assert got.tobytes() == _sigma_unblocked(*args).tobytes()


def _sigma_unblocked(z, a, delta):
    # the per-pole formula over the whole batch at once; a finite point where
    # some squared distance overflows takes the sum of log(hypot(dx, dy))
    zr, zi, ar, ai = z.real, z.imag, a.real, a.imag
    out = np.zeros_like(zr)
    scaled = np.zeros_like(zr)
    over = np.zeros(zr.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(ar.shape[0]):
            dx = zr - ar[j]
            dy = zi - ai[j]
            d2 = dx * dx + dy * dy
            over |= np.isinf(d2) & np.isfinite(dx) & np.isfinite(dy)
            out = out + delta[j] * (0.5 * np.log(d2))
            scaled = scaled + delta[j] * np.log(np.hypot(dx, dy))
    return np.where(over, scaled, out)


def _u_unblocked(z, a, rad, eps):
    # the per-pole formula over the whole batch at once
    zr, zi, ar, ai = z.real, z.imag, a.real, a.imag
    m2 = zr * zr + zi * zi
    out = m2.copy()
    claimed = np.zeros(zr.shape[0], dtype=bool)
    for j in range(ar.shape[0]):
        dx = zr - ar[j]
        dy = zi - ai[j]
        d2 = dx * dx + dy * dy
        mask = (~claimed) & (d2 < rad[j] * rad[j])
        if not np.any(mask):
            continue
        claimed |= mask
        d2m = d2[mask]
        c = kernels.chi_many(np.sqrt(d2m) / rad[j])
        val = m2[mask]
        inner = c > 0.0
        if np.any(inner):
            with np.errstate(divide="ignore"):
                half_log = 0.5 * np.log(d2m[inner])
            val = val.copy()
            val[inner] = m2[mask][inner] + (eps[j] * c[inner]) * half_log
        out[mask] = np.maximum(val, 1.0)
    return out


def test_blocked_kernels_equal_unblocked_formula(plateau):
    rng = np.random.default_rng(9)
    npts = 2 * kernels._BLOCK + 17
    z = rng.uniform(-3, 3, npts) + 1j * rng.uniform(-3, 3, npts)
    # inside the discs: plateau core, chi transition and outer ring, in
    # every block, plus exact pole hits in the second block
    step = npts // 64
    for k, frac in enumerate([0.1, 0.4, 0.6, 0.9] * 16):
        j = k % plateau.j_max
        z[k * step] = plateau.a[j] + frac * plateau.r[j] * np.exp(1j * k)
    hits = kernels._BLOCK + np.arange(5) * 1000
    z[hits] = plateau.a[:5]
    delta = 2.0 ** -(np.arange(1, plateau.j_max + 1) + 1.0)

    got = kernels.sigma_many(z, plateau.a, delta)
    assert np.array_equal(got, _sigma_unblocked(z, plateau.a, delta))
    assert np.all(got[hits] == -np.inf)

    args = (z, plateau.a, plateau.r, plateau.eps)
    got = kernels.u_many(*args)
    assert np.array_equal(got, _u_unblocked(*args))
    assert np.all(got[hits] == 1.0)


# --- the tail cutoff of sigma_many --------------------------------------------

HEAD = kernels._HEAD_POLES


@pytest.fixture(scope="module")
def schedules():
    # both coefficient schedules at the largest trunc; thm2 reads the discs
    return {"thm1": make_schedule("thm1", MAX_TRUNC),
            "thm2": build_plateau(MAX_TRUNC).thm2_schedule}


def _zero_crossings(a, delta):
    """Points on the zero set of sigma, where the head sum is tiny: sign
    changes between neighbours of a 120 x 120 grid on [-2.2, 2.2]^2, each
    bisected to two adjacent floats of its segment. Also the largest |sigma|
    on the grid."""
    x = np.linspace(-2.2, 2.2, 120)
    grid = x[None, :] + 1j * x[:, None]
    v = _sigma_unblocked(grid.ravel(), a, delta).reshape(grid.shape)
    rows, cols = np.nonzero((v[:, :-1] > 0) & (v[:, 1:] < 0))
    pick = np.linspace(0, rows.size - 1, 32).astype(int)
    p, q = grid[rows[pick], cols[pick]], grid[rows[pick], cols[pick] + 1]
    lo, hi = np.zeros(p.size), np.ones(p.size)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        z = p + mid * (q - p)
        pos = _sigma_unblocked(z, a, delta) > 0.0
        lo, hi = np.where(pos, mid, lo), np.where(pos, hi, mid)
    return np.concatenate([p + lo * (q - p), p + hi * (q - p)]), np.max(np.abs(v))


def _adversarial_points(a, trunc):
    """Pole hits in the head and the tail, the poles plus 1e-14, every tail
    modulus +-1 ulp, times (1 +- 1e-15) and within 1e-12, the annulus
    1 < |z| < 1 + 1/64, 0, NaN, +-inf, 1e154, 1e200 and a uniform cloud."""
    rng = np.random.default_rng(trunc)
    tail = a[HEAD:trunc]
    mods = np.abs(tail)
    unit = tail / mods
    turn = np.exp(1j * rng.uniform(0, 2 * np.pi, mods.size))
    pts = [a[:trunc], a[:trunc] + 1e-14, a[:trunc] + 1e-14j]
    for r in (np.nextafter(mods, 0.0), np.nextafter(mods, 3.0), mods * (1 - 1e-15),
              mods * (1 + 1e-15)):
        pts += [r * unit, r * turn, r + 0j]
    for k in (-8, -4, -2, -1, 1, 2, 4, 8):
        pts += [(mods + k * 1.25e-13) * unit, (mods + k * 1.25e-13) * turn]
    ann = 1.0 + rng.uniform(0.0, 1.0 / 64, 4000)
    pts.append(ann * np.exp(1j * rng.uniform(0, 2 * np.pi, ann.size)))
    special = (0.0, np.nan, np.inf, -np.inf, 1e154, -1e154, 1e200, 1.3)
    pts.append(np.array([complex(x, y) for x in special for y in special]))
    pts.append(rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000))
    return np.concatenate(pts)


def _check_sigma_bits(z, a, delta):
    with np.errstate(invalid="ignore", over="ignore"):
        got = kernels.sigma_many(z, a, delta)
        want = _sigma_unblocked(z, a, delta)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("trunc", [65, 100, 400, MAX_TRUNC])
@pytest.mark.parametrize("variant", ["thm1", "thm2"])
def test_sigma_tail_cutoff_keeps_every_bit(schedules, variant, trunc):
    sch = schedules[variant]
    a, delta = sch.a[:trunc], sch.delta[:trunc]
    zeros, scale = _zero_crossings(a, delta)
    z = np.concatenate([_adversarial_points(sch.a, trunc), zeros])
    got = _check_sigma_bits(z, a, delta)
    assert np.all(got[:trunc] == -np.inf)
    # the zero set was reached: there acc is tiny and its tail is summed
    assert np.sum(np.abs(got[-zeros.size:]) < 1e-12 * scale) >= 32


def _tail_takers(monkeypatch, z, a, delta):
    # the points whose tail the bound sends to the full loop
    taken = []
    orig = kernels._tail_points

    def spy(*args):
        idx = orig(*args)
        taken.append(idx)
        return idx

    monkeypatch.setattr(kernels, "_tail_points", spy)
    _check_sigma_bits(z, a, delta)
    monkeypatch.undo()
    return np.concatenate(taken)


def test_sigma_tail_cutoff_arbitrary_poles():
    # poles anywhere in the unit disk, in no order; some points on them
    rng = np.random.default_rng(11)
    J = 300
    a = np.sqrt(rng.uniform(0, 1, J)) * np.exp(1j * rng.uniform(0, 2 * np.pi, J))
    delta = 2.0 ** -rng.uniform(1, 60, J)
    z = np.concatenate([_adversarial_points(a, J),
                        rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)])
    _check_sigma_bits(z, a, delta)
    # one pole in the middle of a tail of large moduli
    a2 = 1.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, J))
    a2[200] = 0.25
    _check_sigma_bits(z, a2, delta)


@pytest.mark.parametrize("kind", ["negative", "negative-tail", "alternating", "nan-head",
                                  "nan-tail", "inf-tail", "unsorted", "late-peak",
                                  "zero-tail"])
def test_sigma_tail_cutoff_odd_coefficients(schedules, kind):
    sch = schedules["thm1"]
    J = 400
    a, delta = sch.a[:J], sch.delta[:J].copy()
    if kind == "negative":
        delta = -delta
    elif kind == "negative-tail":
        delta[HEAD:] *= -1.0  # an infinite head sum meets -inf tail terms
    elif kind == "alternating":
        delta[1::2] *= -1.0
    elif kind == "nan-head":
        delta[3] = np.nan
    elif kind == "nan-tail":
        delta[J - 5] = np.nan
    elif kind == "inf-tail":
        delta[HEAD + 7] = np.inf
    elif kind == "unsorted":
        delta = np.random.default_rng(2).permutation(delta)
    elif kind == "late-peak":
        delta[J - 1] = 1e-3
    else:
        delta[HEAD:] = 0.0
    z = _adversarial_points(sch.a, J)
    _check_sigma_bits(z, a, delta)


@pytest.mark.parametrize("tail", [
    # the first tail term lies between half an ulp of acc (about 1.9, ulp
    # 2^-52) and |acc| * 2^-53, so it changes acc: a threshold above a
    # quarter ulp would skip it
    [1.6e-16] + [0.0] * 9,
    # the largest |delta| comes last, or is negative: the bound must take it
    [1e-30] * 9 + [1.6e-16],
    [1e-30] * 4 + [-1.6e-16] + [1e-30] * 5,
])
def test_sigma_tail_term_above_quarter_ulp_is_added(tail):
    # every pole at 0, so each term is delta_j * log|z| as the bound states
    # it: at |z| = e the head sums to about 1.9
    z = np.array([np.e + 0j, -np.e + 0j, 1j * np.e])
    a = np.zeros(HEAD + len(tail), dtype=np.complex128)
    delta = np.concatenate([np.full(HEAD, 1.9 / HEAD), tail])
    got = _check_sigma_bits(z, a, delta)
    head = _sigma_unblocked(z, a[:HEAD], delta[:HEAD])
    assert np.all(got != head)


@pytest.mark.parametrize("edge", ["relative-slack", "absolute-slack", "guard", "floor"])
def test_sigma_tail_bound_edges_take_the_tail(edge, monkeypatch):
    # every pole at 0 except, for the guard, the tail's at 1; the tail's
    # largest delta is set so that |acc| * 2^-55 lies just above the bound
    # without one of its slacks, and the point must still take the tail
    x = 1.0 + 5e-13 if edge == "guard" else np.e
    z = np.array([x + 0j])
    a = np.zeros(HEAD + 10, dtype=np.complex128)
    head = np.full(HEAD, (1e-290 if edge == "floor" else 1.0) / HEAD)
    acc = _sigma_unblocked(z, a[:HEAD], head)
    lim = abs(acc[0]) * 2.0**-55
    log_q = np.log(np.sqrt(x * x))
    if edge == "relative-slack":
        big = lim / (log_q * (1.0 + 0.5e-9))
    elif edge == "absolute-slack":
        big = lim / ((1.0 + 1e-9) * log_q + 2.5e-13)
    elif edge == "guard":
        a[HEAD:] = 1.0  # z is 5e-13 off the tail's circle, inside the guard
        big = 1e-40
    else:
        big = 1e-320  # a subnormal term next to |acc| = 1e-290
    delta = np.concatenate([head, [big], np.zeros(9)])
    taken = _tail_takers(monkeypatch, z, a, delta)
    assert taken.tolist() == [0]


def test_sigma_tail_bound_is_the_stated_formula(schedules):
    # the points that _tail_points sends to the full loop, against the bound
    # of the sigma_many docstring written out, away from its rounding edge
    for variant, trunc in (("thm1", 400), ("thm2", MAX_TRUNC), ("thm1", 100)):
        sch = schedules[variant]
        a, delta = sch.a[:trunc], sch.delta[:trunc]
        z = _adversarial_points(sch.a, trunc)
        zr, zi = z.real.copy(), z.imag.copy()
        with np.errstate(all="ignore"):
            acc = _sigma_unblocked(z, a[:HEAD], delta[:HEAD])
            mods = np.hypot(a.real[HEAD:], a.imag[HEAD:])
            m, big_m = mods.min(), mods.max()
            d = np.max(np.abs(delta[HEAD:]))
            absz = np.sqrt(zr * zr + zi * zi)
            gap = np.maximum(m - absz, absz - big_m) - 1e-12 * (1.0 + absz + big_m)
            q = np.maximum(absz + big_m, np.where(gap > 0, 1.0 / gap, np.inf))
            bound = d * (1.0 + 1e-9) * np.log(q) + d * 5e-13 + 1e-300
            lim = np.abs(acc) * 2.0**-55
            want = ~(bound < lim) | (q >= 1e150)
            clear = ~(np.abs(bound - lim) <= 1e-6 * lim)
        n = zr.size
        got = np.zeros(n, dtype=bool)
        got[kernels._tail_points(zr, zi, acc, m, big_m, d * (1.0 + kernels._TAIL_REL),
                                 d * kernels._TAIL_ABS + kernels._TAIL_FLOOR,
                                 np.empty(n), np.empty(n))] = True
        assert np.array_equal(got[clear], want[clear])
        assert np.sum(clear) > 0.99 * n
        assert 0 < np.sum(want) < n


def test_sigma_tail_is_skipped_on_the_grid_plane(schedules, monkeypatch):
    # the grid-deep sigma plane: 400 x 400 points of [-1.6, 1.6]^2 at trunc
    # 400. A bound that never skips keeps every byte and only costs time, so
    # the share of points that take the tail is what shows it (0.82%)
    x = np.linspace(-1.6, 1.6, 400)
    z = (x[None, :] + 1j * x[:, None]).ravel()
    sch = schedules["thm1"]
    taken = _tail_takers(monkeypatch, z, sch.a[:400], sch.delta[:400])
    assert 0 < taken.size < 0.05 * z.size


def _disc_edge_points(a, r):
    # per disc: the pole, points in the chi core, transition and outer
    # ring, and x exactly at re a_j +- r_j and +- 2 r_j (with one-ulp
    # neighbours) on the line y = im a_j
    pts = [a]
    for k, s in enumerate((0.1, 0.25, 0.26, 0.5, 0.74, 0.75, 0.999, 1.0, 1.5)):
        pts.append(a + s * r * np.exp(1j * (0.7 + k)))
    for f in (-2.0, -1.0, 1.0, 2.0):
        x = a.real + f * r
        for xx in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)):
            pts.append(xx + 1j * a.imag)
    return np.concatenate(pts)


def _nonfinite_points(a):
    finite = (0.0, a.real[0], a.imag[0], 2.5)
    bad = (np.nan, np.inf, -np.inf)
    pts = [complex(x, y) for x in bad for y in bad + finite]
    pts += [complex(x, y) for x in finite for y in bad]
    return np.asarray(pts)


def _check_u_windowed(z, a, r, eps):
    got = kernels.u_many(z, a, r, eps)
    assert np.array_equal(got, _u_unblocked(z, a, r, eps), equal_nan=True)
    return got


def test_windowed_u_many_on_disc_edges(plateau):
    a, r, eps = plateau.a, plateau.r, plateau.eps
    z = np.concatenate([_disc_edge_points(a, r), _nonfinite_points(a)])
    got = _check_u_windowed(z, a, r, eps)
    assert np.all(got[: a.size] == 1.0)  # pole hits
    m2 = z.real * z.real + z.imag * z.imag
    assert np.count_nonzero(got[a.size :] != m2[a.size :]) > a.size  # disc hits
    assert np.all(np.isnan(got[np.isnan(z.real) | np.isnan(z.imag)]))


def test_windowed_u_many_block_far_from_discs(plateau):
    # the first block has no point within any disc's x-window
    rng = np.random.default_rng(11)
    n = kernels._BLOCK
    far = rng.uniform(5.0, 9.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    z = np.concatenate([far, _disc_edge_points(plateau.a, plateau.r)])
    got = _check_u_windowed(z, plateau.a, plateau.r, plateau.eps)
    m2 = far.real * far.real + far.imag * far.imag
    np.testing.assert_array_equal(got[:n], m2)


def test_windowed_u_many_tiny_discs():
    # synthetic disjoint discs on the unit circle, radii down to 1e-13
    j = np.arange(1, 41)
    a = np.exp(2j * np.pi * np.mod(j * 0.6180339887498949, 1.0))
    r = np.logspace(-2, -13, j.size)
    eps = np.full(j.size, 0.3)
    got = _check_u_windowed(_disc_edge_points(a, r), a, r, eps)
    assert np.all(got[: a.size] == 1.0)


# --- plateau glue -----------------------------------------------------------

def _u_oracle(z, a, r, eps):
    out = []
    for zz in z:
        m2 = abs(zz) ** 2
        val = m2
        for aa, rr, ee in zip(a, r, eps):
            d = abs(zz - aa)
            if d < rr:
                s = d / rr
                if s <= 0.25:
                    c = 1.0
                elif s >= 0.75:
                    c = 0.0
                else:
                    uu = (s - 0.25) / 0.5
                    c = math.exp(-1 / (1 - uu)) / (
                        math.exp(-1 / (1 - uu)) + math.exp(-1 / uu)
                    )
                if c > 0:
                    val = m2 + ee * c * math.log(d) if d > 0 else -math.inf
                val = max(val, 1.0)
                break
        out.append(val)
    return np.asarray(out)


def test_u_matches_python_oracle(plateau):
    rng = np.random.default_rng(7)
    z = rng.uniform(-3, 3, 500) + 1j * rng.uniform(-3, 3, 500)
    # force some points into the first few discs
    for j in range(4):
        z[j] = plateau.a[j] + 0.5 * plateau.r[j]
    got = plateau.values(z)
    want = _u_oracle(z, plateau.a, plateau.r, plateau.eps)
    np.testing.assert_allclose(got, want, rtol=1e-10)


# --- eigenvalues ------------------------------------------------------------

def test_min_eig_2x2_char_poly_example():
    # [[2, i], [-i, 2]] has eigenvalues 2 +- 1
    got = kernels.min_eig_2x2_many(np.array([2.0]), np.array([2.0]), np.array([1j]))
    assert got[0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(a=finite, c=finite, br=finite, bi=finite)
def test_min_eig_2x2_matches_eigvalsh(a, c, br, bi):
    H = np.array([[a, br + 1j * bi], [br - 1j * bi, c]])
    got = kernels.min_eig_2x2_many(np.array([a]), np.array([c]),
                                   np.array([complex(br, bi)]))[0]
    want = np.linalg.eigvalsh(H)[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_min_eig_2x2_matches_char_poly_roots():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, c = rng.uniform(-5, 5, 2)
        br, bi = rng.uniform(-5, 5, 2)
        got = kernels.min_eig_2x2_many(np.array([a]), np.array([c]),
                                       np.array([complex(br, bi)]))[0]
        roots = np.roots([1.0, -(a + c), a * c - (br * br + bi * bi)])
        assert got == pytest.approx(float(np.min(roots.real)), abs=1e-12)


def test_min_eig_2x2_tiny_eigenvalue_accuracy():
    # det / lambda_max keeps relative accuracy when eigenvalues are far apart
    a, c, b = 3.5e3, 7.27e-90, 1.3e-50
    got = kernels.min_eig_2x2_many(np.array([a]), np.array([c]), np.array([b]))[0]
    want = c - b * b / a  # first-order expansion, corrections are O(1e-193)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_jacobi_matches_eigvalsh(n):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    H = A + np.conj(np.transpose(A, (0, 2, 1)))
    want = np.array([np.linalg.eigvalsh(h)[0] for h in H])
    got = kernels.jacobi_min_eig_many(H)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_jacobi_matrix_that_never_converges_leaves_after_the_last_sweep():
    # a NaN entry fails every convergence test: that matrix leaves after
    # _JACOBI_SWEEPS sweeps with its diagonal minimum, the other at sweep 0
    H = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([3.0, -1.0, 2.0])], dtype=complex)
    H[0, 0, 1] = H[0, 1, 0] = np.nan
    assert min_eigs_batch(H).tolist() == [1.0, -1.0]


def _hermitian_batches(n):
    # generic, diagonal, singular (a repeated column) and near-singular
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((16, n, n)) + 1j * rng.standard_normal((16, n, n))
    generic = a + np.conj(np.transpose(a, (0, 2, 1)))
    diagonal = np.zeros((4, n, n), dtype=np.complex128)
    diagonal[:, np.arange(n), np.arange(n)] = rng.uniform(-3.0, 3.0, (4, n))
    b = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
    b[:, :, -1] = b[:, :, 0]
    # b b^H by elementwise products, so no BLAS rounding enters the input
    singular = np.sum(b[:, :, None, :] * np.conj(b[:, None, :, :]), axis=-1)
    near = singular + 1e-12 * np.eye(n)
    return np.concatenate([generic, diagonal, singular, near])


def test_min_eigs_batch_bytes_pinned():
    # the n >= 3 (Jacobi) path, bit for bit: its eigenvalues feed the
    # margins of every n >= 3 report. Each value is that of its matrix
    # alone; a batch-wide stop test changes 16 of them
    h = hashlib.sha256()
    for n in range(3, 9):
        h.update(min_eigs_batch(_hermitian_batches(n)).tobytes())
    assert h.hexdigest() == (
        "f5772f49e41560962d67c1a0dad6e84bfa8ba47eea495837c8eec3763c40a26d"
    )


def _thm2_window_block(n):
    # the Hessians of the first _BLOCK // 5 = 3276 points of seed-42
    # thm2-window-psd-fd, in one batch (levi_floors takes them in blocks of
    # calculus._stencil_block(n) points, 724 at n = 5; the floors are the same)
    cfg = CertifyConfig(n=n, seed=42)
    sc = build_thm2(cfg, build_plateau(cfg.j_max))
    pts = sample(sc.strict_window_resolvable(), Sampler(42, cfg.samples, stream=208))
    H, ok = wirtinger_hessian_batch(sc.witness_values, pts[: kernels._BLOCK // 5],
                                    cfg.fd_step)
    assert ok.all()
    return H


def test_min_eigs_batch_is_per_matrix():
    # each matrix leaves the Jacobi sweeps at its own convergence test, so
    # its eigenvalue is the one it gets alone, bit for bit; a batch-wide stop
    # test changes 16 synthetic values and 165 of the 3276 real ones. In the
    # last batch, pair (0, 1) rotates the second matrix only, and the first
    # keeps its -0.0 diagonal minimum
    signed = np.array([[[1, 0, 1], [0, -0.0, 0], [1, 0, 2]],
                       [[1, 1, 0], [1, 2, 0], [0, 0, 3]]], dtype=complex)
    for H in [_hermitian_batches(n) for n in range(3, 9)] + [_thm2_window_block(5),
                                                            signed]:
        alone = np.concatenate([min_eigs_batch(H[i : i + 1]) for i in range(len(H))])
        assert min_eigs_batch(H).tobytes() == alone.tobytes()


# --- the layout of the kernel inputs -------------------------------------------

def _column(x):
    # column 0 of an (N, 3) batch: a strided view of the values of x
    batch = np.full((x.size, 3), np.nan, dtype=x.dtype)
    batch[:, 0] = x
    view = batch[:, 0]
    assert not view.flags.c_contiguous
    return view


def _layout_case(kernel, case, plateau):
    # the kernel and its arguments, each a 1-D array or an (N, n, n) batch
    if kernel == "sigma":
        sch = make_schedule("thm1", case)
        # pole hits, the tail's circles, points past 1.34e154 (the re-sum)
        z = np.concatenate([_adversarial_points(sch.a, case), [2e154 + 1j, -3e160j]])
        return kernels.sigma_many, (z, sch.a, sch.delta)
    if kernel == "u":
        z = np.concatenate([_disc_edge_points(plateau.a, plateau.r),
                            _nonfinite_points(plateau.a)])
        return kernels.u_many, (z, plateau.a, plateau.r, plateau.eps)
    if kernel == "jacobi":
        return kernels.jacobi_min_eig_many, (_hermitian_batches(case),)
    H = _hermitian_batches(2)
    b = H[:, 0, 1] if case == "complex" else np.random.default_rng(21).uniform(-3, 3, len(H))
    return kernels.min_eig_2x2_many, (H[:, 0, 0].real, H[:, 1, 1].real, b)


@pytest.mark.parametrize("kernel, case", [("sigma", 60), ("sigma", 400), ("u", "discs"),
                                          ("min_eig_2x2", "real"),
                                          ("min_eig_2x2", "complex"), ("jacobi", 3),
                                          ("jacobi", 8)])
def test_kernels_give_strided_views_the_bits_of_copies(kernel, case, plateau):
    # the kernels take complex arrays as they are: a strided view of every
    # argument (column 0 of an (N, 3) batch, every second matrix of a batch)
    # and a contiguous copy of it give the same bytes, and neither is written
    fn, args = _layout_case(kernel, case, plateau)
    if kernel == "jacobi":
        views = (args[0][::2],)
    else:
        views = tuple(_column(np.asarray(v)) for v in args)
    before = [v.tobytes() for v in views]
    with np.errstate(all="ignore"):
        got = fn(*views)
        want = fn(*(np.ascontiguousarray(v) for v in views))
    assert got.tobytes() == want.tobytes()
    assert [v.tobytes() for v in views] == before


@pytest.mark.parametrize("n", range(2, 9))
def test_min_eigs_batch_leaves_its_input_unchanged(n):
    # the kernels read H's real and imaginary parts as views and rotate
    # copies: H and the batch it is a view of keep every bit. Cases: every
    # matrix but the diagonal ones with one NaN matrix that never converges,
    # so none leaves at sweep 0; all of them; the diagonal ones alone, which
    # all leave at sweep 0
    nan = np.diag(np.arange(1.0, n + 1.0)).astype(np.complex128)
    nan[0, 1] = nan[1, 0] = np.nan
    batch = _hermitian_batches(n)
    rotated = np.concatenate([batch[:16], batch[20:], nan[None]])
    for H in (rotated, np.concatenate([batch, nan[None]]), batch[16:20]):
        outer = np.stack([H, -H], axis=1)
        view = outer[:, 0]
        before, outer_before = H.tobytes(), outer.tobytes()
        min_eigs_batch(H)
        min_eigs_batch(view)
        assert H.tobytes() == before and outer.tobytes() == outer_before
