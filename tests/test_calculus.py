"""FD Wirtinger Hessians, eigenvalue wrapper, circle means, certify_psh."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert.calculus import (
    certify_psh,
    circle_mean_test,
    make_certificate,
    min_eigs_batch,
    wirtinger_hessian_batch,
)
from pshcert.geometry import (
    Ball,
    Disk,
    EmptyRegionError,
    ProductRegion,
    Sampler,
)

H_STEP = 1e-4


def _sq_first(Z):
    Z = np.atleast_2d(Z)
    return np.abs(Z[:, 0]) ** 2


def _sq_all(Z):
    Z = np.atleast_2d(Z)
    return np.sum(np.abs(Z) ** 2, axis=1)


# --- Wirtinger Hessians -----------------------------------------------------

def test_hessian_of_first_coordinate_square():
    H, ok = wirtinger_hessian_batch(_sq_first, np.array([[0.3 + 1j, -2.0 + 0.5j]]),
                                    H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.diag([1.0, 0.0]), atol=1e-7)


def test_hessian_of_norm_square_is_identity():
    H, ok = wirtinger_hessian_batch(_sq_all, np.array([[0.2 + 0.1j, 1.5j]]), H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.eye(2), atol=1e-7)
    assert min_eigs_batch(H)[0] == pytest.approx(1.0, abs=1e-7)


def test_hessian_of_pluriharmonic_vanishes():
    def f(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] ** 2).real + (Z[:, 1] ** 3).real

    H, ok = wirtinger_hessian_batch(f, np.array([[0.7 - 0.2j, 0.4 + 0.9j]]), H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.zeros((2, 2)), atol=1e-6)


def test_hessian_mixed_entries_match_analytic():
    # f = Re(z conj(w)) has constant mixed entry 1/2; f = Im(z conj(w))
    # has entry -i/2; f = |z|^2 |w|^2 has entry conj(z) w
    z0 = np.array([[0.8 + 0.3j, -0.6 + 1.1j]])

    def f_re(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] * np.conj(Z[:, 1])).real

    def f_im(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] * np.conj(Z[:, 1])).imag

    def f_prod(Z):
        Z = np.atleast_2d(Z)
        return (np.abs(Z[:, 0]) * np.abs(Z[:, 1])) ** 2

    for f, want in [
        (f_re, 0.5),
        (f_im, -0.5j),
        (f_prod, np.conj(z0[0, 0]) * z0[0, 1]),
    ]:
        H, _ = wirtinger_hessian_batch(f, z0, H_STEP)
        assert H[0, 0, 1] == pytest.approx(want, abs=1e-6)
        assert H[0, 1, 0] == pytest.approx(np.conj(want), abs=1e-6)


def test_hessian_hermitian_by_construction():
    rng = np.random.default_rng(0)

    def f(Z):
        Z = np.atleast_2d(Z)
        return np.abs(Z[:, 0]) ** 2 * (1 + (Z[:, 1]).real) + np.abs(Z[:, 1]) ** 4

    pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
    assert np.all(ok)
    np.testing.assert_allclose(H, np.conj(np.transpose(H, (0, 2, 1))), rtol=0,
                               atol=0)


def test_stencil_error_at_log_pole():
    def f(Z):
        Z = np.atleast_2d(Z)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(Z[:, 1])) + np.sum(np.abs(Z) ** 2, axis=1)

    # the stencil around a pole point is flagged and its row zeroed, not raised
    H, ok = wirtinger_hessian_batch(f, np.array([[0.5, 0j], [0.5, 1.0]]), H_STEP)
    assert not ok[0] and ok[1]
    np.testing.assert_array_equal(H[0], np.zeros((2, 2)))
    assert np.all(np.isfinite(H[1]))
    assert np.all(np.isfinite(min_eigs_batch(H)))


# --- minimal eigenvalues ----------------------------------------------------

def test_hermitian_min_eig_examples():
    H = np.array([np.eye(2), np.diag([50.0, 1.0]), [[2.0, 1j], [-1j, 2.0]]])
    got = min_eigs_batch(H)
    assert got[0] == pytest.approx(1.0, abs=1e-15)
    assert got[1] == pytest.approx(1.0, abs=1e-13)
    assert got[2] == pytest.approx(1.0, abs=1e-12)


def test_hermitian_min_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        min_eigs_batch(np.eye(9))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_min_eigs_batch_matches_eigvalsh(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    H = A + np.conj(np.transpose(A, (0, 2, 1)))
    got = min_eigs_batch(H)
    want = np.array([np.linalg.eigvalsh(h)[0] for h in H])
    np.testing.assert_allclose(got, want, atol=1e-12)


# --- circle means -----------------------------------------------------------

def _f_re(z):
    return np.asarray(z).real


def _f_sq(z):
    return np.abs(np.asarray(z)) ** 2


def _f_log(z):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(z)))


def test_circle_mean_harmonic_is_exact():
    assert abs(circle_mean_test(_f_re, 0.3 + 0.4j, 0.5, 64)) < 1e-10
    assert abs(circle_mean_test(_f_log, 2.0 + 0j, 1.0, 64)) < 1e-12


def test_circle_mean_subharmonic_margin():
    assert circle_mean_test(_f_sq, 0j, 1.0, 64) == pytest.approx(1.0, abs=1e-12)


def test_circle_mean_neg_inf_center_passes_vacuously():
    assert circle_mean_test(_f_log, 0j, 0.5, 64) == np.inf


def test_circle_mean_validation():
    with pytest.raises(ValueError):
        circle_mean_test(_f_re, 0j, 1.0, 8)
    with pytest.raises(ValueError):
        circle_mean_test(_f_re, 0j, -1.0, 64)

    def f_shifted(z):  # pole exactly on the first circle node
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(z) - 1.0))

    with pytest.raises(ValueError):
        circle_mean_test(f_shifted, 0j, 1.0, 64)


def _probes(pole, count=200, seed=11):
    # random probes plus one centred exactly on a pole
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-3, 3, count) + 1j * rng.uniform(-3, 3, count)
    z0[count // 2] = pole
    return z0, rng.uniform(1e-4, 0.05, count)


def _circle_mean_one_probe(f, z0, radius, m):
    # one probe per call: the reference the batched form must reproduce
    center = float(np.asarray(f(np.asarray([z0], dtype=np.complex128)))[0])
    if center == -np.inf:
        return np.inf
    pts = z0 + radius * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.mean(np.asarray(f(pts), dtype=np.float64)) - center)


@pytest.mark.parametrize("target", ["thm1-series", "plateau"])
def test_circle_mean_batch_equals_scalar_loop(target, thm1, plateau):
    if target == "thm1-series":
        f, pole = (lambda z: thm1.sigma(z)[0]), thm1.schedule.a[0]
    else:
        f, pole = plateau.values, plateau.a[0]
    z0, rad = _probes(pole)
    batch = circle_mean_test(f, z0, rad, 64)
    loop = np.array([_circle_mean_one_probe(f, z, r, 64) for z, r in zip(z0, rad)])
    scalar = [circle_mean_test(f, z, r, 64) for z, r in zip(z0[:20], rad[:20])]
    assert all(isinstance(v, float) for v in scalar)
    assert np.array_equal(batch, loop)
    assert np.array_equal(batch[:20], scalar)
    if target == "thm1-series":
        assert batch[z0.size // 2] == np.inf


def test_circle_mean_batch_rejects_any_nonfinite_value():
    def f_shifted(z):  # pole exactly on the first node of probe 150's circle
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(z) - 1.0))

    z0, rad = _probes(5.0 + 5.0j)
    z0[150], rad[150] = 0j, 1.0
    with pytest.raises(ValueError, match="circle"):
        circle_mean_test(f_shifted, z0, rad, 64)
    z0[150] = np.nan
    with pytest.raises(ValueError, match="center"):
        circle_mean_test(f_shifted, z0, rad, 64)
    rad[150] = 0.0
    with pytest.raises(ValueError, match="radius"):
        circle_mean_test(f_shifted, z0, rad, 64)


# --- certificates -----------------------------------------------------------

def test_make_certificate_pass_fail_threshold():
    c = make_certificate("x", np.array([0.5, -1e-7]), 1e-6)
    assert c.passed and c.worst_margin == pytest.approx(-1e-7)
    c = make_certificate("x", np.array([0.5, -1e-5]), 1e-6,
                         points=np.array([1j, 2j]))
    assert not c.passed
    assert len(c.witnesses) == 1
    assert c.witnesses[0]["coords"] == [0.0, 2.0]
    c = make_certificate("x", np.array([np.nan]), 1e-6)
    assert not c.passed


def test_make_certificate_caps_witnesses():
    c = make_certificate("x", -np.ones(50), 0.0, points=np.arange(50).astype(complex))
    assert len(c.witnesses) == 10


def test_certify_psh_positive_case():
    region = ProductRegion(Disk(0j, 1.0), Ball((0j,), 1.0))
    cert = certify_psh(_sq_all, region, Sampler(1, 500), H_STEP,
                       strict_floor=0.5, tolerance=1e-6, name="sq")
    assert cert.passed
    assert cert.samples == 500
    assert cert.worst_margin == pytest.approx(0.5, abs=1e-6)


def test_certify_psh_negative_case_with_witnesses():
    def f(Z):
        return -_sq_all(Z)

    region = ProductRegion(Disk(0j, 1.0), Ball((0j,), 1.0))
    cert = certify_psh(f, region, Sampler(1, 200), H_STEP, name="neg")
    assert not cert.passed
    assert cert.worst_margin == pytest.approx(-1.0, abs=1e-6)
    assert 0 < len(cert.witnesses) <= 10


def test_certify_psh_exclusion_refills_to_count():
    region = ProductRegion(Disk(0j, 1.0), Ball((0j,), 1.0))
    cert = certify_psh(
        _sq_all, region, Sampler(1, 300), H_STEP,
        exclude=lambda pts: np.abs(np.atleast_2d(pts)[:, 0]) < 0.5,
        name="excl",
    )
    assert cert.samples == 300
    assert cert.passed


def test_certify_psh_shortfall_raises():
    # an exclusion that rejects every point used to certify an empty set
    region = ProductRegion(Disk(0j, 1.0), Ball((0j,), 1.0))
    with pytest.raises(EmptyRegionError, match="excl-all: delivered 0/300 points"):
        certify_psh(_sq_all, region, Sampler(1, 300), H_STEP,
                    exclude=lambda pts: np.ones(len(pts), dtype=bool),
                    name="excl-all")
