"""Plateau function, tapered form, scenarios, and the warm-up example."""

import numpy as np
import pytest

from pshcert.calculus import circle_mean_test, wirtinger_hessian_batch
from pshcert.config import CertifyConfig
from pshcert.constructions import (
    _fd_laplacian,
    _perturbation_values,
    build_thm2,
    example1_check,
    example_defining,
    plateau_eps,
    plateau_log_rho,
    plateau_properties,
    tapered_form_properties,
    thm1_properties,
    thm2_properties,
)
from pshcert.geometry import Sampler, sample
from pshcert.logpoles import make_schedule, series_values


# --- plateau function -------------------------------------------------------

def test_plateau_value_examples(plateau):
    assert plateau.value(0j) == 0.0
    assert plateau.value(3.0 + 0j) == 9.0  # verified off-disc below
    d = np.abs((3.0 + 0j) - plateau.a)
    assert np.all(d > plateau.r)
    for j in range(10):
        assert plateau.value(complex(plateau.a[j])) == 1.0


def test_plateau_offset_inside_saturated_disc_collapses(plateau):
    # the saturated radius is below one ulp, so the offset point rounds
    # onto the pole itself and the value is exactly 1
    rho_half = np.exp(plateau.log_rho[:50] - np.log(2.0))
    np.testing.assert_array_equal(rho_half, 0.0)
    for j in range(min(50, plateau.j_max)):
        z = complex(plateau.a[j] + rho_half[j] / 2)
        assert z == complex(plateau.a[j])
        assert plateau.value(z) == 1.0


def test_plateau_eps_positive_and_laplacian_margin(plateau):
    assert np.all(plateau.eps > 0.0)
    # outside the cutoff support the Laplacian of the glued branch is 4
    j = 0
    z = plateau.a[j] + 0.9 * plateau.r[j] * np.exp(
        2j * np.pi * np.arange(16) / 16
    )

    def branch(zz):
        return (zz.real**2 + zz.imag**2) + plateau.eps[j] * _perturbation_values(
            plateau.a[j], plateau.r[j], zz
        )

    lap = _fd_laplacian(branch, z, plateau.r[j] * 1e-3)
    np.testing.assert_allclose(lap, 4.0, atol=1e-6)
    # on the inner plateau the log perturbation is harmonic: again 4
    z = plateau.a[j] + 0.2 * plateau.r[j] * np.exp(
        2j * np.pi * np.arange(16) / 16
    )
    lap = _fd_laplacian(branch, z, plateau.r[j] * 1e-3)
    np.testing.assert_allclose(lap, 4.0, atol=1e-3)


def test_plateau_log_rho_formula():
    assert plateau_log_rho(0.125, 1e-4) == -5.0 / 1e-4
    assert plateau_log_rho(0.125, 1e6) == np.log(0.125 / 4)
    with pytest.raises(ValueError):
        plateau_log_rho(0.125, 0.0)


def test_plateau_saturation_arithmetic(plateau):
    # |a_j| + rho_j <= 2.25 and eps_j * log(rho_j) <= -5 give the branch
    # bound 2.25^2 - 5 < 1 inside the saturated disc
    assert np.all(np.abs(plateau.a) <= 2.25)
    # the product -5/eps * eps rounds at the last ulp
    assert np.all(plateau.eps * plateau.log_rho <= -5.0 + 1e-9)
    assert 2.25**2 - 5.0 + 1e-9 < 1.0


def test_plateau_submean_at_pole_center(plateau):
    margin = circle_mean_test(plateau.values, complex(plateau.a[0]), 0.01, 64)
    assert margin > 0.0


def test_plateau_eps_deterministic(plateau):
    again = plateau_eps(plateau.a[3], plateau.r[3], stream=4)
    assert again == plateau.eps[3]


def test_plateau_property_bundle(plateau, small_cfg):
    schedule = make_schedule("thm2", plateau.j_max, plateau.log_rho)
    certs = plateau_properties(plateau, schedule, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


# --- tapered form -----------------------------------------------------------

def test_tapered_form_constants(tapered):
    # the quadratic weight must beat the pencil threshold R^2 (B + L/2)
    R = tapered.radius
    assert tapered.quad_weight > R * R * (tapered.mix_const
                                          + tapered.growth_const / 2)
    assert tapered.epsilon_out > 0.0
    assert tapered.small_c == 1.0 / tapered.quad_weight


def test_tapered_levi_matrix_plateau(tapered):
    H = tapered.levi_matrix(np.array([0.25 + 0.25j, 1.0 + 1.0j]))
    np.testing.assert_allclose(H, np.diag([tapered.quad_weight, 1.0]), atol=1e-15)
    # contraction with the first basis vector gives the quadratic weight
    val = tapered.levi_contract(
        np.array([[0.1, 0.5 + 0.5j]]), np.array([[1.0, 0.0]])
    )
    assert val[0] == pytest.approx(tapered.quad_weight, rel=1e-15)


def test_tapered_contract_matches_matrix(tapered):
    rng = np.random.default_rng(11)
    z = np.concatenate(
        [
            (rng.uniform(0.5, 0.99, 50) * np.exp(2j * np.pi * rng.random(50)))[
                :, None
            ],
            (rng.standard_normal((50, 1)) + 1j * rng.standard_normal((50, 1))),
        ],
        axis=1,
    )
    xi = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    # the form pairs xi_j with conj(xi_k), i.e. the quadratic form of the
    # Hermitian matrix evaluated at the conjugate vector
    want = np.array(
        [
            float(np.real(x @ (tapered.levi_matrix(p) @ np.conj(x))))
            for p, x in zip(z, xi)
        ]
    )
    got = tapered.levi_contract(z, xi)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_tapered_completion_inequality_expansion(tapered):
    # 0 <= (R sqrt(L) x - sqrt(lam) y)^2 / 2 rearranges to the bound used
    # for the cross term; verify at random triples against the raw form
    rng = np.random.default_rng(12)
    from pshcert import kernels

    t = rng.uniform(0, 1, 4000)
    x = rng.uniform(0, 1, 4000)
    y = rng.uniform(0, 1, 4000)
    lam, lamp, _ = kernels.taper_many(t)
    R, L = tapered.radius, tapered.growth_const
    lhs = R * np.abs(lamp) * x * y
    rhs = 0.5 * R * R * L * x**2 + 0.5 * lam * y**2
    assert np.min(rhs - lhs) >= -1e-10


def test_tapered_form_property_bundle(tapered, small_cfg):
    certs = tapered_form_properties(tapered, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


# --- scenario 1 -------------------------------------------------------------

def test_thm1_scenario_basics(thm1, small_cfg):
    assert np.array_equal(thm1.w0, np.array([2.0 + 0j]))
    # the log pole of the first coordinate puts the origin inside
    assert thm1.defining_values(np.array([[0j, 0j]]))[0] == -np.inf
    # pole lines and the w0 line are inside for any w
    pts = np.array([[thm1.schedule.a[0], 5.0 + 5j], [7.0 - 2j, 2.0 + 0j]])
    assert np.all(thm1.defining_values(pts) == -np.inf)


def test_thm1_witness_majorant_identity(thm1):
    rng = np.random.default_rng(13)
    pts = np.concatenate(
        [
            (rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300))[:, None],
            (rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300))[:, None],
        ],
        axis=1,
    )
    d1 = thm1.defining_values(pts)
    smooth = thm1.witness_smooth_values(pts)
    nw2 = np.abs(pts[:, 1]) ** 2
    np.testing.assert_allclose(smooth - d1, 4.0 - 0.5 * nw2, atol=1e-12)


def test_thm1_closure_margin_bound(thm1):
    # on the closed polydisk: series < 1/2, log|z| <= 0, half-log term
    # <= log(3)/2, squares <= 2, so the defining value stays below
    # 1/2 + log(3)/2 - 2 < 0
    pts = sample(thm1.strict_window(), Sampler(3, 2000))
    d = thm1.defining_values(pts)
    assert np.max(d) < 0.5 + np.log(3.0) / 2 - 2.0 + 1e-12


def test_thm1_window_floor_is_half(thm1, small_cfg):
    # Levi form of the smooth witness on the window: diag(1, 1/2) from
    # the squares, log terms are harmonic in each variable
    pts = sample(thm1.strict_window(), Sampler(5, 50))
    H, ok = wirtinger_hessian_batch(
        thm1.witness_smooth_values, pts, small_cfg.fd_step
    )
    assert np.all(ok)
    np.testing.assert_allclose(H[:, 0, 0], 1.0, atol=1e-5)
    np.testing.assert_allclose(H[:, 1, 1], 0.5, atol=1e-5)


def test_thm1_property_bundle(thm1, small_cfg):
    certs = thm1_properties(thm1, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


# --- scenario 2 -------------------------------------------------------------

def test_thm2_scenario_basics(thm2):
    assert np.array_equal(thm2.w0, np.array([4.0 + 0j]))
    assert thm2.defining_values(np.array([[0j, 4.0 + 0j]]))[0] == -np.inf
    # decimal log keeps the closed polydisk inside: worst case bound
    # 1/8 + log10(5) + 2 - 3 < 0
    assert 0.125 + np.log10(5.0) + 2.0 - 3.0 < 0.0


def test_thm2_witness_on_window_is_scaled_form(thm2):
    rng = np.random.default_rng(14)
    z = (np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200)))[:, None]
    w = (np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200)))[:, None]
    pts = np.concatenate([z, w], axis=1)
    from pshcert import kernels

    lam = kernels.taper_many(np.abs(z[:, 0]) ** 2)[0]
    want = np.abs(z[:, 0]) ** 2 + thm2.form.small_c * lam * np.abs(w[:, 0]) ** 2
    np.testing.assert_allclose(thm2.witness_values(pts), want, rtol=1e-14)


def test_thm2_window_min_eigs_positive_and_match_fd(thm2, small_cfg):
    pts = sample(thm2.strict_window_resolvable(small_cfg.flat_margin),
                 Sampler(6, 200))
    eigs = thm2.witness_min_eigs_on_window(pts)
    assert np.all(eigs > 0.0)
    H, ok = wirtinger_hessian_batch(thm2.witness_values, pts, small_cfg.fd_step)
    from pshcert.calculus import min_eigs_batch

    fd = min_eigs_batch(H)
    assert np.all(ok)
    np.testing.assert_allclose(fd, eigs, atol=5e-6)


def test_thm2_branch_values(thm2):
    # below the switching radius the witness uses the plateau function,
    # above it the constant 1 (and the bump vanishes)
    a0 = complex(thm2.schedule.a[0])
    lo = np.array([[a0, 2.0 + 0j]])
    hi = np.array([[a0, 3.0 + 0j]])
    assert thm2.witness_smooth_values(lo)[0] == thm2.plateau.value(a0) == 1.0
    assert thm2.witness_smooth_values(hi)[0] == 1.0
    assert thm2.bump_values(hi)[0] == 0.0


def test_thm2_property_bundle(thm2, small_cfg):
    certs = thm2_properties(thm2, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


def test_thm2_line_slice_path(thm2):
    # within the w0 slice the defining function is -inf everywhere, so a
    # straight segment from the basepoint to the first pole stays inside
    from pshcert.geometry import path_connected_probe

    p = np.concatenate([[0.0], thm2.w0])
    q = np.concatenate([[thm2.schedule.a[0]], thm2.w0])
    ok, t = path_connected_probe(thm2.defining_values, 0.0, p, q, steps=256)
    assert ok and t is None


def test_dimension_three_smoke():
    from pshcert.calculus import min_eigs_batch
    from pshcert.constructions import build_thm1

    cfg = CertifyConfig(n=3, samples=200, submean_probes=40, plateau_checks=8)
    sc = build_thm2(cfg)
    pts = sample(sc.strict_window_resolvable(cfg.flat_margin), Sampler(7, 100))
    assert pts.shape == (100, 3)
    eigs = sc.witness_min_eigs_on_window(pts)
    assert np.all(eigs > 0.0)
    H, ok = wirtinger_hessian_batch(sc.witness_values, pts, cfg.fd_step)
    assert np.all(ok)
    assert np.all(min_eigs_batch(H) > -cfg.psd_tol)
    # first scenario: the smooth witness keeps floor 1/2 plus a
    # positive-semidefinite log contribution in the extra w coordinates
    sc1 = build_thm1(cfg)
    pts = sample(sc1.strict_window(), Sampler(8, 100))
    H, ok = wirtinger_hessian_batch(sc1.witness_smooth_values, pts, cfg.fd_step)
    assert np.all(ok)
    assert np.all(min_eigs_batch(H) > 0.5 - 1e-5)


def test_domain_region_survives_scenario_of_other_dimension():
    # each region holds its own defining function, so building an n=3
    # scenario leaves an earlier n=2 region's samples unchanged
    from pshcert.constructions import build_thm1

    small = dict(samples=200, submean_probes=40, plateau_checks=8)
    region2 = build_thm1(CertifyConfig(**small)).domain_region()
    before = sample(region2, Sampler(3, 100))
    region3 = build_thm1(CertifyConfig(n=3, **small)).domain_region()
    after = sample(region2, Sampler(3, 100))
    assert after.shape == (100, 2)
    np.testing.assert_array_equal(before, after)
    assert sample(region3, Sampler(3, 100)).shape == (100, 3)


# --- warm-up example --------------------------------------------------------

def test_example_defining_levi_structure(small_cfg):
    psi = example_defining(small_cfg.c_level)
    pts = np.array([[0.5 + 0.2j, 0.3 - 0.4j]])
    H, ok = wirtinger_hessian_batch(psi, pts, small_cfg.fd_step)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.eye(2), atol=1e-5)


def test_example1_certificates(small_cfg):
    certs = example1_check(small_cfg)
    assert all(c.passed for c in certs)
    floor = certs[0].worst_margin
    assert abs(floor - 1.0) <= 1e-3
