"""Kernel correctness against independent oracles and pinned bytes."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert import kernels
from pshcert.calculus import min_eigs_batch

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
    got = kernels.sigma_many(z.real.copy(), z.imag.copy(), a.real.copy(),
                             a.imag.copy(), delta)
    np.testing.assert_allclose(got, _sigma_oracle(z, a, delta), rtol=1e-12)


def test_sigma_pole_hit_is_neg_inf():
    a = np.array([2.0 + 0j])
    got = kernels.sigma_many(np.array([2.0]), np.array([0.0]),
                             a.real, a.imag, np.array([0.5]))
    assert got[0] == -np.inf


def _sigma_unblocked(zr, zi, ar, ai, delta):
    # the per-pole formula over the whole batch at once
    out = np.zeros_like(zr)
    with np.errstate(divide="ignore"):
        for j in range(ar.shape[0]):
            dx = zr - ar[j]
            dy = zi - ai[j]
            out = out + delta[j] * (0.5 * np.log(dx * dx + dy * dy))
    return out


def _u_unblocked(zr, zi, ar, ai, rad, eps):
    # the per-pole formula over the whole batch at once
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
    zr, zi = z.real.copy(), z.imag.copy()
    ar, ai = plateau.a.real.copy(), plateau.a.imag.copy()
    delta = 2.0 ** -(np.arange(1, plateau.j_max + 1) + 1.0)

    got = kernels.sigma_many(zr, zi, ar, ai, delta)
    assert np.array_equal(got, _sigma_unblocked(zr, zi, ar, ai, delta))
    assert np.all(got[hits] == -np.inf)

    args = (zr, zi, ar, ai, plateau.r.copy(), plateau.eps.copy())
    got = kernels.u_many(*args)
    assert np.array_equal(got, _u_unblocked(*args))
    assert np.all(got[hits] == 1.0)


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
    args = (z.real.copy(), z.imag.copy(), a.real.copy(), a.imag.copy(),
            r.copy(), eps.copy())
    got = kernels.u_many(*args)
    assert np.array_equal(got, _u_unblocked(*args), equal_nan=True)
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
    got = kernels.min_eig_2x2_many(
        np.array([2.0]), np.array([2.0]), np.array([0.0]), np.array([1.0])
    )
    assert got[0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(a=finite, c=finite, br=finite, bi=finite)
def test_min_eig_2x2_matches_eigvalsh(a, c, br, bi):
    H = np.array([[a, br + 1j * bi], [br - 1j * bi, c]])
    got = kernels.min_eig_2x2_many(
        np.array([a]), np.array([c]), np.array([br]), np.array([bi])
    )[0]
    want = np.linalg.eigvalsh(H)[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_min_eig_2x2_matches_char_poly_roots():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, c = rng.uniform(-5, 5, 2)
        br, bi = rng.uniform(-5, 5, 2)
        got = kernels.min_eig_2x2_many(
            np.array([a]), np.array([c]), np.array([br]), np.array([bi])
        )[0]
        roots = np.roots([1.0, -(a + c), a * c - (br * br + bi * bi)])
        assert got == pytest.approx(float(np.min(roots.real)), abs=1e-12)


def test_min_eig_2x2_tiny_eigenvalue_accuracy():
    # det / lambda_max keeps relative accuracy when eigenvalues are far apart
    a, c, b = 3.5e3, 7.27e-90, 1.3e-50
    got = kernels.min_eig_2x2_many(
        np.array([a]), np.array([c]), np.array([b]), np.array([0.0])
    )[0]
    want = c - b * b / a  # first-order expansion, corrections are O(1e-193)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_jacobi_matches_eigvalsh(n):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    H = A + np.conj(np.transpose(A, (0, 2, 1)))
    want = np.array([np.linalg.eigvalsh(h)[0] for h in H])
    got = kernels.jacobi_min_eig_many(H.real.copy(), H.imag.copy())
    np.testing.assert_allclose(got, want, atol=1e-12)


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
    # margins of every n >= 3 report
    h = hashlib.sha256()
    for n in range(3, 9):
        h.update(min_eigs_batch(_hermitian_batches(n)).tobytes())
    assert h.hexdigest() == (
        "d90e939e9cc1f3113a389c401ca2fbf2adfd36340a4dce231b6d9dfba6a07837"
    )
