"""Plateau function, tapered form, scenarios, and the warm-up example."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from pshcert import constructions, kernels
from pshcert.calculus import circle_mean_test, wirtinger_hessian_batch
from pshcert.certify import run_suite
from pshcert.config import MAX_TRUNC, PSD_TOL, CertifyConfig
from pshcert.constructions import (
    _SCREEN_SLACK,
    _fd_laplacian,
    _frobenius,
    _perturbation_values,
    build_plateau,
    build_tapered_form,
    build_thm1,
    build_thm2,
    closed_polydisk_samples,
    example1_check,
    example_defining,
    plateau_properties,
    tapered_form_properties,
    thm1_properties,
    thm2_properties,
)
from pshcert.geometry import (
    Sampler,
    Window,
    _ball_rows,
    _disk_rows,
    _draw_ball,
    _draw_disk,
    _sample_ball,
    _sample_disk,
    _unit_directions,
    philox,
    product_points,
    sample,
)
from pshcert.logpoles import pole_discs, pole_rows, ring_bound_table, ring_cells


# --- plateau function -------------------------------------------------------

def test_plateau_value_examples(plateau):
    # 3 lies off every disc, so the value there is |3|^2
    assert plateau.values([0j, 3.0 + 0j]).tolist() == [0.0, 9.0]
    d = np.abs((3.0 + 0j) - plateau.a)
    assert np.all(d > plateau.r)
    np.testing.assert_array_equal(plateau.values(plateau.a[:10]), 1.0)


def test_plateau_offset_inside_saturated_disc_collapses(plateau):
    # the saturated radius is below one ulp, so the offset point rounds
    # onto the pole itself and the value is exactly 1
    rho_half = np.exp(plateau.log_rho[:50] - np.log(2.0))
    np.testing.assert_array_equal(rho_half, 0.0)
    for j in range(min(50, plateau.j_max)):
        z = complex(plateau.a[j] + rho_half[j] / 2)
        assert z == complex(plateau.a[j])
        assert plateau.values([z])[0] == 1.0


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


def test_plateau_log_rho_formula(plateau):
    # log_rho_j = min(log(r_j / 4), -5 / eps_j), one disc at a time
    want = [min(np.log(0.25 * r), -5.0 / e) for r, e in zip(plateau.r, plateau.eps)]
    assert np.asarray(want).tobytes() == plateau.log_rho.tobytes()
    # every eps_j is at most 2, so -5/eps_j <= -2.5 < log(r_j / 4) takes the min
    assert np.all(plateau.eps <= 2.0)
    np.testing.assert_array_equal(plateau.log_rho, -5.0 / plateau.eps)


def test_plateau_saturation_arithmetic(plateau):
    # |a_j| + rho_j <= 2.25 and eps_j * log(rho_j) <= -5 give the branch
    # bound 2.25^2 - 5 < 1 inside the saturated disc
    assert np.all(np.abs(plateau.a) <= 2.25)
    # the product -5/eps * eps rounds at the last ulp
    assert np.all(plateau.eps * plateau.log_rho <= -5.0 + 1e-9)
    assert 2.25**2 - 5.0 + 1e-9 < 1.0


def test_plateau_submean_at_pole_center(plateau):
    margin = circle_mean_test(plateau.values, plateau.a[:1], np.array([0.01]))
    assert margin[0] > 0.0


def test_plateau_eps_deterministic(plateau):
    # eps_j depends on j alone: a second build and a shorter one agree
    assert build_plateau(plateau.j_max).eps.tobytes() == plateau.eps.tobytes()
    assert build_plateau(4).eps.tobytes() == plateau.eps[:4].tobytes()


def _plateau_eps_per_disc(a_j, r_j, j):
    """eps_j of one disc with scalar (a_j, r_j), written out in full: the
    annulus draws of stream 11_001 + j, the five-point Laplacian of the
    perturbation and eps_j = 2 / max(1, 2 max |Laplacian|)."""
    rng = np.random.Generator(np.random.Philox(key=[77003, 11_001 + j]))
    s2 = rng.uniform(0.25**2, 0.75**2, 1000)
    ang = rng.uniform(0.0, 2.0 * np.pi, 1000)
    z = a_j + r_j * np.sqrt(s2) * np.exp(1j * ang)
    h = r_j * 1e-3

    def perturbation(zz):
        d = np.abs(zz - a_j)
        with np.errstate(divide="ignore"):
            logd = np.log(d)
        c = kernels.chi_many(d / r_j)
        return np.where(c > 0.0, c * logd, 0.0)

    lap = (perturbation(z + h) + perturbation(z - h) + perturbation(z + 1j * h)
           + perturbation(z - 1j * h) - 4.0 * perturbation(z)) / (h * h)
    assert np.all(np.isfinite(lap))
    return 2.0 / max(1.0, 2.0 * float(np.max(np.abs(lap))))


@pytest.mark.parametrize("j_max", [1, 2, 3, 4, 60, 400])
def test_plateau_eps_match_per_disc_oracle(j_max):
    # the probes against one disc at a time, bit for bit, on block edges
    # (``eps`` probes kernels._BLOCK // 5000 = 3 discs per call) and at trunc
    # 400, whatever the order of the reads, each on a fresh build: every disc
    # at once; one disc at a time in reverse; a random subset one at a time,
    # then the rest at once
    want = None
    subset = np.random.default_rng(j_max).permutation(j_max)[: (j_max + 1) // 2].tolist()
    for read in ([], list(range(j_max))[::-1], subset):
        plateau = build_plateau(j_max)
        if want is None:
            want = np.asarray([_plateau_eps_per_disc(plateau.a[j], plateau.r[j], j)
                               for j in range(j_max)])
        got = [plateau.disc_eps[j] for j in read]
        assert np.asarray(got).tobytes() == want[read].tobytes()
        assert want.tobytes() == plateau.eps.tobytes()


def test_plateau_build_blocks(monkeypatch):
    # across any sequence of reads every disc is probed at most once, in calls
    # of at most _BLOCK points; ``eps`` probes the discs not yet read in calls
    # each but the last as full as whole discs (5 stencils x 1000 points) allow
    calls = []
    real = constructions._perturbation_values

    def counted(a, r, z):
        calls.append((a.ravel().tolist(), z.size))
        return real(a, r, z)

    monkeypatch.setattr(constructions, "_perturbation_values", counted)
    for j_max in (1, 7, 60):
        calls.clear()
        build_plateau(j_max).eps
        sizes = [size for _, size in calls]
        assert sum(sizes) == 5000 * j_max
        assert max(sizes) <= kernels._BLOCK
        assert all(s > kernels._BLOCK - 5000 for s in sizes[:-1])

    calls.clear()
    plateau = build_plateau(60)
    assert calls == []
    for j in (5, 5, 0, 59):
        plateau.disc_eps[j]
    plateau.values(plateau.a[[5, 7, 7]])
    assert [a for a, _ in calls] == [[plateau.a[j]] for j in (5, 0, 59, 7)]
    plateau.eps
    rest = calls[4:]
    assert all(size > kernels._BLOCK - 5000 for _, size in rest[:-1])
    plateau.log_rho
    plateau.thm2_schedule
    plateau.values(plateau.a)
    plateau.disc_eps[7]
    probed = [a for discs, _ in calls for a in discs]
    assert len(probed) == 60 and set(probed) == set(plateau.a.tolist())
    assert max(size for _, size in calls) <= kernels._BLOCK


def test_plateau_nonfinite_laplacian_raises(monkeypatch):
    # a NaN perturbation on disc 4 only: the build returns, every read that
    # needs disc 4 raises, at each attempt, and reads of other discs do not
    a4 = pole_discs(5)[1][4]

    def nan_at_disc_4(a, r, z):
        return np.where(a == a4, np.nan, 0.0) + 0.0 * z.real

    monkeypatch.setattr(constructions, "_perturbation_values", nan_at_disc_4)
    build_plateau(4).eps
    plateau = build_plateau(5)
    with np.errstate(divide="ignore"):
        assert plateau.values([0j, plateau.a[3]]).tolist() == [0.0, 1.0]
    inside_4 = [plateau.a[4] + 0.5 * plateau.r[4]]
    for read in (lambda: plateau.eps, lambda: plateau.log_rho,
                 lambda: plateau.thm2_schedule, lambda: plateau.values(inside_4),
                 lambda: plateau.disc_eps[4]):
        for _ in range(2):
            with pytest.raises(RuntimeError, match="nonfinite Laplacian"):
                read()
    report = run_suite("lemma21", CertifyConfig(samples=100))
    [cert] = report.certificates
    assert cert.name == "construction-failure"
    assert "nonfinite Laplacian" in cert.witnesses[0]["error"]


def test_plateau_runs_match_per_point_evaluation(plateau, thm2, monkeypatch):
    # u at runs of one z equals u at every point on its own, bit for bit; the
    # thm2 witness (grouped FD stencils) sends each run of z to u_many and to
    # the taper of its bump once, with the values of a per-point evaluation
    a = plateau.a
    z = np.array(
        [0.3 + 0.2j] * 4 + [a[0]] * 3 + [a[0] + 1e-3] * 2 + [a[1], a[0]]
        + [complex(0.0, 0.0), complex(-0.0, 0.0), complex(-0.0, 0.0)]
        + [complex(np.nan, 0.0)] * 2 + [complex(np.inf, 1.0)] * 2
        + [a[5] + 0.25 * plateau.r[5]] * 5, dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        for arr in (z, np.stack([z, z], axis=1)[:, 0], z[:0], z[:1]):
            want = np.concatenate([plateau.values(arr[i:i + 1])
                                   for i in range(arr.size)] + [np.empty(0)])
            assert plateau.values(arr).tobytes() == want.tobytes()

    u_points, taper_points = [], []
    real_u, real_taper = kernels.u_many, kernels.taper_many

    def counted_u(zr, *args):
        u_points.append(zr.size)
        return real_u(zr, *args)

    def counted_taper(t):
        taper_points.append(t.size)
        return real_taper(t)

    zt = np.concatenate([z, [0.8 + 0.1j] * 3 + [0.9j, 0.75 + 0j]])
    w = 0.5 * np.cos(np.arange(zt.size)) * (1 + np.arange(zt.size) % 7)
    pts = np.stack([zt, w], axis=1)  # a strided z column, as in the stencils
    with np.errstate(invalid="ignore"):
        want = np.concatenate([thm2.witness_values(pts[i:i + 1])
                               for i in range(zt.size)])
        monkeypatch.setattr(kernels, "u_many", counted_u)
        monkeypatch.setattr(kernels, "taper_many", counted_taper)
        phi = thm2.witness_values(pts)
        monkeypatch.undo()
        bits = [np.asarray([c]).tobytes() for c in zt]
        runs = sum(1 for i, b in enumerate(bits) if i == 0 or b != bits[i - 1])
        assert u_points == taper_points == [runs]
        assert runs < zt.size
        bump = phi - np.where(w**2 < 2.5**2, plateau.values(zt), 1.0)
    assert phi.tobytes() == want.tobytes()
    assert np.any(bump[-5:] > 0.0) and np.any(w**2 >= 2.5**2)


def test_plateau_bytes_pinned():
    # the 400-disc plateau of the grid exports at trunc 400
    plateau = build_plateau(400)
    assert hashlib.sha256(plateau.eps.tobytes()).hexdigest() == (
        "4b310d76c4dc44e3f249a646aa7a840f01363dab9c13779a0a5c2a18f690e456")
    assert hashlib.sha256(plateau.log_rho.tobytes()).hexdigest() == (
        "9eded436d7e2a06b9fe146a87ba594c6b4dfc32a6bc1b51e98af502de52c3e34")


def test_plateau_property_bundle(plateau, small_cfg):
    certs = plateau_properties(plateau, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


def test_plateau_disc_margins_match_per_disc_loops(plateau, monkeypatch):
    # the branch-continuity and Laplacian-floor margins, one disc at a
    # time as separate loops, against the rows of the bundle's one batch
    cfg = CertifyConfig(seed=7)
    seen = {}
    make = constructions.make_certificate

    def record(name, margins, *args, **kwargs):
        seen[name] = np.asarray(margins)
        return make(name, margins, *args, **kwargs)

    monkeypatch.setattr(constructions, "make_certificate", record)
    plateau_properties(plateau, cfg)
    continuity, floor = [], []
    for j in range(50):
        a, r, eps = plateau.a[j], plateau.r[j], plateau.eps[j]
        bd = a + r * np.exp(2j * np.pi * np.arange(1000) / 1000.0)
        m2 = bd.real**2 + bd.imag**2
        inner = np.maximum(m2 + eps * _perturbation_values(a, r, bd), 1.0)
        continuity.append(1e-12 - np.max(np.abs(inner - m2)))

        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 301_000 + j]))
        s2 = rng.uniform(0.25**2, 0.75**2, 1000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 1000)
        z = a + r * np.sqrt(s2) * np.exp(1j * ang)

        def branch(zz):
            return zz.real**2 + zz.imag**2 + eps * _perturbation_values(a, r, zz)

        floor.append(np.min(_fd_laplacian(branch, z, r * 1e-3)) - 2.0)
    np.testing.assert_array_equal(seen["plateau-branch-continuity"], continuity)
    np.testing.assert_array_equal(seen["plateau-laplacian-floor"], floor)


@pytest.mark.parametrize("checks", [1, 2, 3, 4, 7, 50])
def test_plateau_laplacian_chunks_equal_one_stack(plateau, checks, monkeypatch):
    # the Laplacian floors run over chunks of _EPS_DISCS discs; their margins
    # and those of branch continuity equal one stack of every checked disc
    monkeypatch.setattr(constructions, "PLATEAU_CHECKS", checks)
    cfg = CertifyConfig(seed=7)
    seen, chunks = {}, []
    make, annulus = constructions.make_certificate, constructions._annulus_laplacians

    def record(name, margins, *args, **kwargs):
        seen[name] = np.asarray(margins)
        return make(name, margins, *args, **kwargs)

    def spy(f, a, r, seed, streams):
        if seed == cfg.seed:  # not an eps probe of the plateau build
            chunks.append(list(streams))
        return annulus(f, a, r, seed, streams)

    monkeypatch.setattr(constructions, "make_certificate", record)
    monkeypatch.setattr(constructions, "_annulus_laplacians", spy)
    plateau_properties(plateau, cfg)

    a, r = plateau.a[:checks, None], plateau.r[:checks, None]
    eps = plateau.eps[:checks, None]

    def branch(zz):
        return zz.real**2 + zz.imag**2 + eps * _perturbation_values(a, r, zz)

    bd = a + r * np.exp(2j * np.pi * np.arange(1000) / 1000.0)
    worst = np.max(np.abs(np.maximum(branch(bd), 1.0) - (bd.real**2 + bd.imag**2)), axis=1)
    lap = annulus(branch, a, r, cfg.seed, range(301_000, 301_000 + checks))
    np.testing.assert_array_equal(seen["plateau-branch-continuity"], 1e-12 - worst)
    np.testing.assert_array_equal(seen["plateau-laplacian-floor"], np.min(lap, axis=1) - 2.0)
    step = constructions._EPS_DISCS
    assert chunks == [list(range(301_000 + lo, 301_000 + min(lo + step, checks)))
                      for lo in range(0, checks, step)]



# --- tapered form -----------------------------------------------------------

def test_tapered_form_constants(tapered):
    # the quadratic weight must beat the pencil threshold R^2 (B + L/2)
    R = tapered.radius
    assert tapered.quad_weight > R * R * (tapered.mix_const
                                          + tapered.growth_const / 2)
    assert tapered.epsilon_out > 0.0
    assert tapered.small_c == 1.0 / tapered.quad_weight


def test_thm2_small_c_is_form_small_c(plateau):
    # the witness takes 1/C from the form's constant scan, not from a built
    # form, with the bits of TaperedForm.small_c at every accepted n
    for n in range(2, 9):
        got = build_thm2(CertifyConfig(n=n), plateau).small_c
        assert got.hex() == build_tapered_form(n).small_c.hex(), n


@pytest.mark.parametrize("floor", [0.0, -1e-3, float("nan")])
def test_tapered_form_non_positive_floor_raises(floor, monkeypatch):
    # one try: a sampled floor that is not positive ends the build
    monkeypatch.setattr(constructions.TaperedForm, "sampled_epsilon",
                        lambda self, n, count, seed: floor)
    with pytest.raises(RuntimeError, match="not positive"):
        build_tapered_form(2)


def _sampled_epsilon_whole(form, n, count, seed):
    """``TaperedForm.sampled_epsilon`` as one whole-sample evaluation: the same
    draws, with the ball radii as ``radius * U ** (1/2k)``."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 23]))
    z1 = _sample_disk(rng, count)
    g = rng.standard_normal((count, 2 * (n - 1)))
    r = form.radius * rng.random(count) ** (1.0 / (2 * (n - 1)))
    z = np.empty((count, n), dtype=np.complex128)
    z[:, 0] = z1
    _ball_rows(g, r, z[:, 1:])
    xi = rng.standard_normal((count, 2 * n))
    xi = xi / np.linalg.norm(xi, axis=1)[:, None]
    xi = xi[:, :n] + 1j * xi[:, n:]
    t = np.abs(z1) ** 2
    taper = kernels.taper_many(t)
    denom = np.abs(xi[:, 0]) ** 2 + taper[0] * constructions._norm2(xi[:, 1:])
    return float(np.min(form._contract(z, xi, t, taper) / denom))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sampled_epsilon_blocks_keep_the_floor(tapered, n):
    # the directions are drawn and the quotients formed one _BLOCK of rows
    # at a time from the generator of the whole draws: the same floor, bit
    # for bit, on either side of each block edge
    B = kernels._BLOCK
    for count in (1, 2, B - 1, B, B + 1, 3 * B + 7):
        got = tapered.sampled_epsilon(n, count, 5)
        assert got.hex() == _sampled_epsilon_whole(tapered, n, count, 5).hex(), count


def test_sampled_epsilon_memory_grows_by_its_draws(tapered):
    # at n = 2 the draws and rows of a point hold at most 72 bytes: the
    # radius uniform u, the angle, two normals and the ball radius (5
    # float64), and the row z (2 complex128); z is formed before the w draws,
    # so 56 of them are live at once. The directions xi and the quotients are
    # block-sized, so from 10^5 to 4 * 10^5 points the peak grows by at most
    # 72 B per added point (plus 1 MiB); the whole-sample evaluation held
    # xi three times over (normals, normalised, complex) besides z
    def peak(count):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tapered.sampled_epsilon(2, count, 42)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = peak(100_000), peak(400_000)
    assert large - small <= 300_000 * 72 + 2**20, (small, large)


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_epsilon_holds_z_and_the_w_draws(n):
    # the rows z (n complex128) are formed column by column: z first, then
    # the w draws (2k normals and the ball radius, float64), with the z draws
    # freed before them. So 10^5 points peak at z, the w draws and one block
    # of temporaries (four complex128 columns of _BLOCK rows); holding the z
    # draws until the w draws are made (16 B more per point) fails
    form = build_tapered_form(n)
    count, k = 100_000, n - 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        form.sampled_epsilon(n, count, 42)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 16 * n * count + 8 * (2 * k + 1) * count + 4 * 16 * kernels._BLOCK
    assert peak <= bound, (peak, bound)


def _closed_polydisk_concatenated(n, count, seed, stream):
    """``closed_polydisk_samples`` as it was composed before ``window_rows``:
    the unit-disk z, then the unit-ball w, concatenated with the faces."""
    rng = philox(seed, stream)
    k = n - 1
    m = min(max(count // 16, 8), 256)
    z_in = _sample_disk(rng, count - 2 * m)
    w_in = _sample_ball(rng, count - 2 * m, k, 1.0)
    z_bd = np.exp(2j * np.pi * rng.random(m))
    w_for_zbd = _sample_ball(rng, m, k, 1.0)
    z_for_wbd = _sample_disk(rng, m)
    w_bd = _unit_directions(rng, m, k)
    return product_points(np.concatenate([z_in, z_bd, z_for_wbd]),
                          np.concatenate([w_in, w_for_zbd, w_bd]))


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_polydisk_interior_keeps_its_bits(n):
    # the interior is window_rows of the unit polydisk, drawn from the
    # generator the faces continue: the same rows as the concatenation
    for seed in (0, 7, 42):
        for count in (100, 10_000):
            got = closed_polydisk_samples(n, count, seed, 103)
            want = _closed_polydisk_concatenated(n, count, seed, 103)
            assert got.tobytes() == want.tobytes(), (seed, count)


@pytest.mark.parametrize("k", range(1, 8))
def test_draw_ball_radius_in_place_keeps_bits(k):
    # the radii are formed in the uniforms' array with the bits of
    # radius * U ** (1/2k); k = 1 takes numpy's square-root path
    g, r = _draw_ball(np.random.Generator(np.random.Philox(key=[3, 9])), 5000, k, 2.5)
    rng = np.random.Generator(np.random.Philox(key=[3, 9]))
    np.testing.assert_array_equal(g, rng.standard_normal((5000, 2 * k)))
    np.testing.assert_array_equal(r, 2.5 * rng.random(5000) ** (1.0 / (2 * k)))


def _contract(form, z, xi):
    """The Levi form of S at z contracted with xi, from the taper at |z_1|^2."""
    t = np.abs(z[:, 0]) ** 2
    return form._contract(z, xi.astype(np.complex128), t, kernels.taper_many(t))


def test_tapered_levi_matrix_plateau(tapered):
    H = tapered.levi_matrix(np.array([[0.25 + 0.25j, 1.0 + 1.0j],
                                      [0.5, -2.0j]]))
    assert H.shape == (2, 2, 2)
    for h in H:
        np.testing.assert_allclose(h, np.diag([tapered.quad_weight, 1.0]), atol=1e-15)
    # contraction with the first basis vector gives the quadratic weight
    val = _contract(tapered, np.array([[0.1, 0.5 + 0.5j]]), np.array([[1.0, 0.0]]))
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
    H = tapered.levi_matrix(z)
    assert H.shape == (50, 2, 2)
    want = np.real(np.einsum("ij,ijk,ik->i", xi, H, np.conj(xi)))
    got = _contract(tapered, z, xi)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _levi_matrix_per_point(form, z):
    """The Levi matrix of S at one point, with scalar arithmetic."""
    n = z.size
    t = abs(z[0]) ** 2
    lam, lamp, lampp = (float(v[0]) for v in kernels.taper_many(np.asarray([t])))
    H = np.zeros((n, n), dtype=np.complex128)
    zp2 = float(np.sum(np.abs(z[1:]) ** 2))
    H[0, 0] = (lampp * t + lamp) * zp2 + form.quad_weight
    for k in range(1, n):
        H[0, k] = lamp * np.conj(z[0]) * z[k]
        H[k, 0] = np.conj(H[0, k])
        H[k, k] = lam
    return H


@pytest.mark.parametrize("n", [2, 3])
def test_levi_matrix_bits_match_per_point_formula(n):
    # the reports pin these bits: the batch must round like the scalar
    # formula at every point, also across the taper's transition annulus
    form = build_tapered_form(n)
    rng = np.random.Generator(np.random.Philox(key=[42, 401]))
    z1 = _sample_disk(rng, 4000)
    pts = np.concatenate([z1[:, None], _sample_ball(rng, 4000, n - 1, form.radius)],
                         axis=1)
    got = form.levi_matrix(pts)
    want = np.stack([_levi_matrix_per_point(form, p) for p in pts])
    assert got.shape == (4000, n, n)
    np.testing.assert_array_equal(got.real, want.real)
    np.testing.assert_array_equal(got.imag, want.imag)


def test_frobenius_matches_matrix_norm():
    # a fixed einsum order in place of the BLAS dot of np.linalg.norm:
    # each sums at most 9 squares, so they agree to 8 ulp before the sqrt
    rng = np.random.default_rng(5)
    for n in (2, 3):
        H = rng.standard_normal((500, n, n)) + 1j * rng.standard_normal((500, n, n))
        H *= 10.0 ** rng.uniform(-8, 4, (500, 1, 1))
        want = [np.linalg.norm(h) for h in H]
        np.testing.assert_allclose(_frobenius(H), want, rtol=2e-15, atol=0)


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
    want = np.abs(z[:, 0]) ** 2 + thm2.small_c * lam * np.abs(w[:, 0]) ** 2
    np.testing.assert_allclose(thm2.witness_values(pts), want, rtol=1e-14)


def test_thm2_window_min_eigs_positive_and_match_fd(thm2, small_cfg):
    pts = sample(thm2.strict_window_resolvable(), Sampler(6, 200))
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
    lo = np.array([[a0, 2.0 + 0j], [0.5, 2.0 + 0j]])
    hi = np.array([[a0, 3.0 + 0j], [0.5, 3.0 + 0j]])
    # off the unit disk the taper is 0: the plateau value 1 at the pole
    assert thm2.witness_values(lo)[0] == thm2.plateau.values([a0])[0] == 1.0
    # on |z|^2 <= 1/4 the taper is 1: |z|^2 + small_c |w|^2
    assert thm2.witness_values(lo)[1] == 0.25 + thm2.small_c * 4.0
    assert thm2.witness_values(hi).tolist() == [1.0, 1.0]


def test_thm2_property_bundle(thm2, small_cfg):
    certs = thm2_properties(thm2, small_cfg)
    assert all(c.passed for c in certs), [c.name for c in certs if not c.passed]


def test_closure_certificates_add_the_series_tail(thm1, thm2, small_cfg, monkeypatch):
    # both closure memberships certify Omega, not its truncation: a tail
    # radius of 2, above either closure margin at these 100 points (1.41
    # for thm1, 0.40 for thm2), pushes the closed polydisk out of both
    monkeypatch.setattr(constructions, "tail_error_radius",
                        lambda schedule, absz, trunc: np.full_like(absz, 2.0))
    cfg = dataclasses.replace(small_cfg, samples=100)
    for name, certs in (("thm1-closure-membership", thm1_properties(thm1, cfg)),
                        ("thm2-closure-membership", thm2_properties(thm2, cfg))):
        [cert] = [c for c in certs if c.name == name]
        assert not cert.passed, name


def test_thm2_line_slice_path(thm2):
    # within the w0 slice the defining function is -inf everywhere, so a
    # straight segment from the basepoint to the first pole stays inside
    from pshcert.geometry import path_connected_probe

    p = np.concatenate([[0.0], thm2.w0])
    q = np.concatenate([[thm2.schedule.a[0]], thm2.w0])
    assert path_connected_probe(thm2.defining_values, p, q)


def test_dimension_three_smoke():
    from pshcert.calculus import min_eigs_batch

    cfg = CertifyConfig(n=3, samples=200)
    sc = build_thm2(cfg, build_plateau(cfg.j_max))
    pts = sample(sc.strict_window_resolvable(), Sampler(7, 100))
    assert pts.shape == (100, 3)
    eigs = sc.witness_min_eigs_on_window(pts)
    assert np.all(eigs > 0.0)
    H, ok = wirtinger_hessian_batch(sc.witness_values, pts, cfg.fd_step)
    assert np.all(ok)
    assert np.all(min_eigs_batch(H) > -PSD_TOL)
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
    small = dict(samples=200)
    region2 = build_thm1(CertifyConfig(**small)).domain_region()
    before = sample(region2, Sampler(3, 100))
    region3 = build_thm1(CertifyConfig(n=3, **small)).domain_region()
    after = sample(region2, Sampler(3, 100))
    assert after.shape == (100, 2)
    np.testing.assert_array_equal(before, after)
    assert sample(region3, Sampler(3, 100)).shape == (100, 3)


def test_norm2_bits_match_reduction_oracle():
    # the column sums equal the old reductions, inlined as the oracle, for
    # every w width of an accepted n, with and without the w0 shift, on
    # strided w blocks and on rows of +-0, +-inf, NaN and subnormals
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 4.0, 2.0])
    for k in range(1, 8):
        pts = np.empty((5000, k + 1), dtype=np.complex128)
        pts.real = 3.0 * rng.standard_normal(pts.shape)
        pts.imag = 3.0 * rng.standard_normal(pts.shape)
        pts.real[:1000] = special[rng.integers(0, special.size, (1000, k + 1))]
        pts.imag[:1000] = special[rng.integers(0, special.size, (1000, k + 1))]
        w = pts[:, 1:]
        for shift in (0.0, 2.0, 4.0):
            w0 = np.zeros(k, dtype=np.complex128)
            w0[0] = shift
            q = w - w0[None, :]
            want = np.sum(q.real**2 + q.imag**2, axis=1)
            got = constructions._norm2(w, shift)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                          err_msg=f"k={k} shift={shift}")
        want = np.sum(w.real**2 + w.imag**2, axis=1)
        np.testing.assert_array_equal(constructions._norm2(w).view(np.int64),
                                      want.view(np.int64), err_msg=f"k={k}")


# --- screened rejection sampling --------------------------------------------

@pytest.fixture(scope="module")
def scenarios_by_n(plateau):
    # the default config: trunc = j_max = 60, the poles the report uses
    out = {}
    for n in (2, 3, 5):
        cfg = CertifyConfig(n=n)
        assert cfg.j_max == plateau.j_max
        out[n] = (build_thm1(cfg), build_thm2(cfg, plateau))
    return out


@pytest.fixture(scope="module")
def deep_scenarios_by_n():
    # trunc = MAX_TRUNC, where the rounding budget of the screen is largest
    plateau = build_plateau(MAX_TRUNC)
    out = {}
    for n in (2, 3):
        cfg = CertifyConfig(n=n, trunc=MAX_TRUNC)
        out[n] = (build_thm1(cfg), build_thm2(cfg, plateau))
    return out


def _cell_edge_z(sc) -> np.ndarray:
    """First coordinates whose |z|^2 is an edge of a ring-table cell next to
    a pole modulus, or one ulp either side of it: the points of a cell
    closest to the modulus."""
    cells = np.floor(np.abs(sc.schedule.a[: sc.trunc]) ** 2 * 2.0**12)
    edges = np.unique(np.concatenate([cells + k for k in (-1, 0, 1, 2)])) / 2.0**12
    nz2 = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 99.0)])
    phi = np.exp(2j * np.pi * np.arange(4) / 4 + 0.7j)
    return (np.sqrt(nz2)[:, None] * phi[None, :]).ravel()


def _adversarial_z(sc) -> np.ndarray:
    """First coordinates where a ring bound is most likely to overshoot
    the series."""
    a = sc.schedule.a[: sc.trunc]
    moduli = np.abs(a)
    phi = np.exp(2j * np.pi * np.arange(8) / 8 + 0.3j)
    circle = np.concatenate([
        r[:, None] * phi[None, :]
        for r in (moduli, np.nextafter(moduli, 0.0), np.nextafter(moduli, 9.0))
    ]).ravel()
    return np.concatenate([
        a,  # the float poles themselves
        (a[:, None] + 1e-6 * phi[None, :]).ravel(),
        circle,
        _cell_edge_z(sc),
        [0j, np.nan, np.inf, -np.inf, complex(np.inf, np.nan), 1e200],
    ])


def _adversarial_points(sc) -> np.ndarray:
    """Points where a ring bound is most likely to overshoot the series."""
    z = _adversarial_z(sc)
    k = sc.n - 1
    w0 = sc.w0
    nan_w = np.full(k, np.nan, dtype=np.complex128)
    inf_w = np.full(k, np.inf, dtype=np.complex128)
    # w = w0 kills the w-log term; |w| = 2.9 makes the non-series terms
    # positive, so only the series can make such a point a member
    ws = np.stack([np.zeros(k, dtype=np.complex128), w0, w0 + 1e-9,
                   np.full(k, 2.9 / np.sqrt(k), dtype=np.complex128), nan_w, inf_w])
    # z-major, so that the series runs once per z (``series_values`` merges
    # runs of equal z)
    return np.concatenate([np.repeat(z, len(ws))[:, None], np.tile(ws, (z.size, 1))],
                          axis=1)


def _screen_points(sc, count=200_000) -> np.ndarray:
    window = sample(sc.bulk_window(), Sampler(5, count, stream=11))
    return np.concatenate([window, _adversarial_points(sc)])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _ring_bound(sc, pts):
    """``defining_values`` with the series replaced by the ring table entry."""
    _, terms = sc._terms(pts)
    return sc._sum(sc._ring_table.take(ring_cells(terms[-2])), terms)


def _check_screened_values(sc, pts):
    """``screened_values`` has the bits of ``defining_values`` at every member
    and every row it computes, is never larger, and gives the same mask."""
    with np.errstate(invalid="ignore", over="ignore"):
        screened = sc.screened_values(pts)
        values = sc.defining_values(pts)
    member = values < 0.0
    np.testing.assert_array_equal(screened < 0.0, member)
    np.testing.assert_array_equal(_bits(screened[member]), _bits(values[member]))
    # a NaN value stays NaN or is a bound >= 0; a number is never exceeded
    assert not np.any(screened > values)
    differs = _bits(screened) != _bits(values)
    assert np.all(screened[differs] >= 0.0)
    return screened, values


@pytest.mark.parametrize("n", [2, 3])
def test_screened_values_never_exceed_defining(scenarios_by_n, deep_scenarios_by_n, n):
    for sc, count in ([(sc, 200_000) for sc in scenarios_by_n[n]]
                      + [(sc, 20_000) for sc in deep_scenarios_by_n[n]]):
        pts = _screen_points(sc, count)
        screened, values = _check_screened_values(sc, pts)
        # the float poles (a pole modulus in the cell) and a NaN coordinate
        # are evaluated, with the bits of defining_values
        poles = np.isin(pts[:, 0], sc.schedule.a[: sc.trunc])
        assert poles.any() and np.any(values[poles] == -np.inf)
        np.testing.assert_array_equal(_bits(screened[poles]), _bits(values[poles]))
        nan_z = np.zeros((1, n), dtype=np.complex128)
        nan_z[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(sc.screened_values(nan_z)[0])
        # and the ring bound keeps most window proposals from the series,
        # which is the point of the screen
        screened = np.mean(_ring_bound(sc, pts[:count]) >= 0.0)
        assert screened > 0.9, screened


@pytest.mark.parametrize("n", [2, 3])
def test_screened_values_send_only_candidates_to_the_series(scenarios_by_n, n,
                                                            monkeypatch):
    # one series call, on exactly the rows whose ring bound is not >= 0
    # (NaN included), in their order
    for sc in scenarios_by_n[n]:
        pts = _screen_points(sc, 20_000)
        with np.errstate(invalid="ignore", over="ignore"):
            candidate = ~(_ring_bound(sc, pts) >= 0.0)
        calls = []
        series = constructions.series_values

        def counted(schedule, z, trunc):
            calls.append(np.array(z))
            return series(schedule, z, trunc)

        monkeypatch.setattr(constructions, "series_values", counted)
        with np.errstate(invalid="ignore", over="ignore"):
            sc.screened_values(pts)
        monkeypatch.undo()
        assert len(calls) == 1 and 0 < candidate.sum() < len(pts)
        np.testing.assert_array_equal(_bits(calls[0]), _bits(pts[candidate, 0]))


def test_ring_bound_slack_covers_series_rounding(scenarios_by_n, deep_scenarios_by_n):
    # within the window the table entry (the ring bound minus the slack)
    # stays below the computed series, also right next to the poles and at
    # the cell edges; and at MAX_TRUNC, where the rounding budget is
    # largest, on fewer window points
    for sc, count in ([(sc, 200_000) for sc in scenarios_by_n[2]]
                      + [(sc, 20_000) for sc in deep_scenarios_by_n[2]]):
        window = sample(sc.bulk_window(), Sampler(5, count, stream=11))
        z = np.concatenate([window[:, 0], _adversarial_z(sc)])
        z = z[np.isfinite(z) & (np.abs(z) < 3.2)]
        np.testing.assert_array_equal(
            sc._ring_table, ring_bound_table(sc.schedule, sc.trunc) - _SCREEN_SLACK)
        ring = sc._ring_table.take(ring_cells(z.real**2 + z.imag**2))
        sig = sc.sigma(z)
        assert not np.any(ring > sig)


def _screened_regions(pair):
    sc1, sc2 = pair
    return [sc1.domain_region(), sc2.domain_region(), sc2.slab_region(),
            sc2.zdisk_region()]


@pytest.mark.parametrize("n", [2, 3])
def test_screened_mask_equals_unscreened(scenarios_by_n, n):
    pair = scenarios_by_n[n]
    pts = {id(sc): _screen_points(sc) for sc in pair}
    labels = []
    for region, sc in zip(_screened_regions(pair), (pair[0],) + (pair[1],) * 3):
        assert region.defining == sc.screened_values
        labels.append(region.label)
        p = pts[id(sc)]
        with np.errstate(invalid="ignore", over="ignore"):
            screened = region.contains(p)
            plain = dataclasses.replace(region, defining=sc.defining_values).contains(p)
        np.testing.assert_array_equal(screened, plain)
        assert np.any(screened)
    assert labels == ["Omega1", "Omega2", "Omega2-slab", "Omega2-zdisk"]


@pytest.mark.parametrize("size", [0, 1, kernels._BLOCK, kernels._BLOCK + 1,
                                  3 * kernels._BLOCK - 7])
def test_blocked_contains_equals_unblocked(scenarios_by_n, size):
    # ``screened_values`` is elementwise: ``contains`` on blocks of _BLOCK
    # points is ``contains`` on the whole batch, and both are the mask of
    # ``defining_values``
    sc = scenarios_by_n[2][0]
    region = sc.domain_region()
    pts = sample(region.window, Sampler(9, max(size, 1), stream=5))[:size]
    # NaN and +-inf rows, in z and in w, at both ends of the first blocks,
    # then a pole hit and w = w0
    for i, v in zip((0, kernels._BLOCK - 1, kernels._BLOCK, size - 1),
                    (np.nan, np.inf, -np.inf, complex(np.inf, np.nan))):
        if 0 <= i < size:
            pts[i, i % 2] = v
    if size > 2:
        pts[1, 0], pts[2, 1:] = sc.schedule.a[0], sc.w0
    with np.errstate(invalid="ignore", over="ignore"):
        _, values = _check_screened_values(sc, pts)
        blocked = [region.contains(pts[lo : lo + kernels._BLOCK])
                   for lo in range(0, size, kernels._BLOCK)]
        whole = region.contains(pts)
    np.testing.assert_array_equal(whole, values < 0.0)
    np.testing.assert_array_equal(np.concatenate(blocked or [whole]), whole)
    assert size < 100 or np.any(whole)


# sha256 of sample(region, Sampler(42, 2000, stream=107)) before the screen
_REJECTION_PINS = {
    (2, "Omega1"): "5e24cc95c62f425dd1ec4b1cc0f913594d20cde13786a539da8f200fb46f7a2e",
    (2, "Omega2"): "dab907049c33f9b0992c962b2c30b61d26aa6ae0611eea6b014918b50acb9451",
    (2, "Omega2-slab"): "dab907049c33f9b0992c962b2c30b61d26aa6ae0611eea6b014918b50acb9451",
    (3, "Omega1"): "a02096f8a088ff1d300ccecabde865266d579447fd17ec8625dc9f93a57c3716",
    (3, "Omega2"): "f375af14d89f7aa71c4ca0c29196975e9f44b888237dcedabc92811ba42a0df1",
    (3, "Omega2-slab"): "f375af14d89f7aa71c4ca0c29196975e9f44b888237dcedabc92811ba42a0df1",
}


@pytest.mark.parametrize("n", [2, 3])
def test_rejection_sample_bytes_pinned(scenarios_by_n, n):
    for region in _screened_regions(scenarios_by_n[n])[:3]:
        pts = sample(region, Sampler(42, 2000, stream=107))
        assert pts.shape == (2000, n)
        digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()
        assert digest == _REJECTION_PINS[n, region.label], region.label


def test_pole_rows_match_whole_array_reductions(deep_scenarios_by_n):
    # the row-blocked pole distances of thm1-series-submean,
    # thm2-band-in-plateau-discs, thm2-series-lower-bound and
    # thm2-global-psd-fd equal the (N, J) expressions they replace, bit for
    # bit, at trunc = MAX_TRUNC
    sch = deep_scenarios_by_n[2][1].schedule
    a, log_rho, delta = sch.a, sch.log_rho, sch.delta
    assert a.size == MAX_TRUNC
    rows = 16 * kernels._BLOCK // a.size
    pts = sample(deep_scenarios_by_n[2][1].bulk_window(), Sampler(7, 3 * rows + 7))
    # pole hits, NaN and inf on both sides of the block edges
    for i, v in zip((0, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 6),
                    (a[0], a[-1], np.nan, a[5], np.inf, a[99])):
        pts[i, 0] = v
    z = pts[:, 0]  # a strided column, as the certificates pass it
    d = np.abs(z[:, None] - a[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.max(log_rho[None, :] - np.log(d), axis=1)
        got = pole_rows(z, a, lambda d: np.max(log_rho[None, :] - np.log(d), axis=1))
        assert got.tobytes() == want.tobytes()
        assert sch.disc_margins(z).tobytes() == want.tobytes()
        assert got[0] == got[rows - 1] == np.inf and np.isnan(got[rows])
        # the row-sum reduce of the thm2 lower bound, floored at log rho
        want = np.sum(delta[None, :] * np.maximum(np.log(d), log_rho[None, :]), axis=1)
        got = pole_rows(z, a, lambda d: np.sum(
            delta * np.maximum(np.log(d), log_rho), axis=1))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[rows]) and np.isfinite(got[rows + 1])
    want = np.min(d, axis=1)
    got = pole_rows(z, a, lambda d: np.min(d, axis=1))
    assert got.tobytes() == want.tobytes()
    assert got[0] == got[3 * rows + 6] == 0.0


def test_rejection_sample_working_set(scenarios_by_n):
    # one Omega1 sample at n = 3 draws P = 4 * want proposals per batch, about
    # 13 batches. The bound counts, at most: the result (want * n complex), the
    # draws of one batch (P * (2k + 3) float64: u, theta, the normals and the
    # radii; the sampler holds only the normals whole, which
    # test_screened_batch_holds_only_the_normals_whole checks), a mask (P
    # bools), the block temporaries of the radial screen (4 float64 columns of
    # _BLOCK rows) and the candidates it keeps, under P / 8 rows (6.7% here):
    # each a formed row (n complex), its index and two gathered draws. The
    # unscreened batch alone, P * n complex rows, would exceed the bound: the
    # sampler that formed every row peaked at 11.6 MB
    region = scenarios_by_n[3][0].domain_region()
    want, n, k = 25_000, 3, 2
    P = 4 * want
    bound = (want * n * 16 + P * (2 * k + 3) * 8 + P + (P // 8) * (n * 16 + 3 * 8)
             + 4 * kernels._BLOCK * 8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pts = sample(region, Sampler(42, want, stream=107))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pts.shape == (want, n)
    assert peak < bound, (peak, bound)


# --- the radial screen on the raw draws --------------------------------------

def _radial_regions(pair):
    """(scenario, region) for every radially screened region: the domains in
    the bulk window and Omega2 in the z-disk window (Omega2-slab is the
    Omega2 region under another label)."""
    sc1, sc2 = pair
    return [(sc1, sc1.domain_region()), (sc2, sc2.domain_region()),
            (sc2, sc2.zdisk_region())]


def _screen(region, u, g, r):
    """``not radial(t, s) >= 0`` on the draws, as the sampler screens them:
    the rows it forms."""
    with np.errstate(invalid="ignore"):
        kept = ~(region.radial(region.window.z_radius**2 * u, r * r) >= 0.0)
    return kept | (g[:, 0] == 0.0)


def _kept_rows(region, sampler):
    rng = sampler.generator()
    u, _ = _draw_disk(rng, sampler.count)
    g, r = _draw_ball(rng, sampler.count, region.window.n - 1, region.window.w_radius)
    return _screen(region, u, g, r)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_screen_keeps_every_member(scenarios_by_n, n):
    # 4 * 10^5 window proposals (not a multiple of _BLOCK) of the bulk and
    # z-disk windows: every member is among the rows the screen keeps, the
    # kept rows are those of the unscreened sample bit for bit, and the
    # screen passes few rows: 1.1-13% of the bulk window, 0.3-23% of the
    # z-disk window, where up to 21% are members (measured at n = 2, 3, 5)
    for sc, region in _radial_regions(scenarios_by_n[n]):
        sampler = Sampler(5, 400_000, stream=11)
        full = sample(region.window, sampler)
        batch = sample(region.window, sampler, screen=region.radial)
        kept = _kept_rows(region, sampler)
        assert len(batch) == sampler.count
        np.testing.assert_array_equal(_bits(batch.points), _bits(full[kept]))
        members = region.contains(full)
        assert members.any(), region.label
        assert not np.any(members & ~kept), region.label
        most = 0.15 if region.window.z_radius > 1.0 else 0.25
        assert np.mean(kept) < most, (region.label, np.mean(kept))


def _check_screened_rows(pair, size):
    """The screened batch of ``size`` proposals holds the kept rows of the
    unscreened sample, bit for bit, in every radially screened region."""
    for sc, region in _radial_regions(pair):
        sampler = Sampler(8, size, stream=3)
        batch = sample(region.window, sampler, screen=region.radial)
        kept = _kept_rows(region, sampler)
        assert len(batch) == size and batch.points.shape == (np.sum(kept), sc.n)
        np.testing.assert_array_equal(_bits(batch.points),
                                      _bits(sample(region.window, sampler)[kept]))


@pytest.mark.parametrize("size", [1, kernels._BLOCK + 1, 3 * kernels._BLOCK - 7])
def test_screened_rows_equal_unscreened_rows(scenarios_by_n, size):
    _check_screened_rows(scenarios_by_n[3], size)


@pytest.mark.parametrize("size", [2, 3, kernels._BLOCK + 2, kernels._BLOCK + 3,
                                  4 * kernels._BLOCK])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_screened_draws_skip_to_their_words(scenarios_by_n, n, size):
    # the screened sampler reads theta from word C and the normals from word
    # 2C of a batch of C proposals, skipping whole Philox steps of 4 words and
    # then C % 4 (or 2C % 4) single words: sizes of every residue mod 4
    _check_screened_rows(scenarios_by_n[n], size)


def test_screened_batch_holds_only_the_normals_whole(scenarios_by_n):
    # one thm1-majorant proposal batch at n = 2: C = 380,000 proposals, of
    # which the screen keeps 13%. The normals (2k * 8 * C bytes) are the only
    # draws held whole, and each _BLOCK of them is freed once it is screened;
    # u, theta and r are drawn a _BLOCK at a time. Drawing any one of them
    # whole adds 8 * C bytes (2.9 MiB), and holding the normals in one array
    # keeps all of them live next to the kept rows' draws
    sc = scenarios_by_n[2][0]
    region = sc.domain_region()
    count, k = 380_000, 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch = sample(region.window, Sampler(42, count, stream=107_000),
                       screen=region.radial)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(batch) == count and len(batch.points) > count // 10
    bound = 2 * k * 8 * count + 2 * 2**20
    assert peak < bound, (peak, bound)


def test_screened_sample_needs_a_disk_window(scenarios_by_n):
    region = scenarios_by_n[2][0].domain_region()
    annulus = Window(2, 3.2, 3.0, z_inner=0.5)
    with pytest.raises(ValueError, match="disk window"):
        sample(annulus, Sampler(1, 10), screen=region.radial)
    with pytest.raises(ValueError, match="disk window"):
        sample(dataclasses.replace(region, window=annulus), Sampler(1, 10))


def _adversarial_draws(sc, window):
    """Raw draws (u, theta, g, r) on the edges of the radial bound: z at the
    float poles, |z|^2 on ring-cell edges and one ulp either side, z = 0 and
    a fine |z|^2 grid (so that the bound crosses 0); |w| at |w0| = 2 or 4
    and one ulp either side, within a few guards of it, w = w0 itself, and
    w = 0, on the w0 axis, opposite to it and on a generic direction."""
    zr2 = window.z_radius**2
    a = sc.schedule.a[: sc.trunc]
    t = np.concatenate([np.abs(a) ** 2,
                        np.unique(np.abs(_cell_edge_z(sc)) ** 2),
                        np.linspace(0.0, zr2, 4001)])
    t = t[t < zr2]
    u = np.concatenate([t / zr2, np.nextafter(t / zr2, 0.0), np.nextafter(t / zr2, 1.0),
                        [0.0]])
    th = np.concatenate([np.angle(a) % (2.0 * np.pi),
                         np.full(u.size - a.size, 0.7)])
    k = sc.n - 1
    w0 = sc.w0[0].real
    r = np.array([0.0, 1.0, w0, np.nextafter(w0, 0.0), np.nextafter(w0, 9.0),
                  w0 - 5e-13, w0 + 5e-13, w0 - 3e-12, w0 + 3e-12, w0 - 1e-10,
                  w0 + 1e-10, 2.0, 4.0, 2.9])
    dirs = np.zeros((3, 2 * k))
    dirs[0, 0], dirs[1, 0] = 1.0, -1.0
    dirs[2] = np.linspace(0.3, 1.0, 2 * k)
    g = np.repeat(dirs, r.size, axis=0)
    r = np.tile(r, len(dirs))
    # every z row with every w row
    return (np.repeat(u, r.size), np.repeat(th, r.size),
            np.tile(g, (u.size, 1)), np.tile(r, u.size))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_screen_adversarial_draws(scenarios_by_n, n):
    # rows formed from the adversarial draws by the sampler's own row
    # functions: the screen never drops a member of the region
    for sc, region in _radial_regions(scenarios_by_n[n]):
        window = region.window
        u, th, g, r = _adversarial_draws(sc, window)
        pts = np.empty((u.size, n), dtype=np.complex128)
        _disk_rows(u, th, window.z_radius, pts[:, 0])
        _ball_rows(g.copy(), r, pts[:, 1:])
        kept = _screen(region, u, g, r)
        with np.errstate(invalid="ignore", over="ignore"):
            members = region.contains(pts)
        assert members.any() and not kept.all(), region.label
        assert not np.any(members & ~kept), (region.label, pts[members & ~kept][:3])
        # w = w0 (r = |w0| on the w0 axis) is always kept, and so is z = 0
        # in Omega1 (log|z| = -inf)
        at_w0 = (r == sc.w0[0].real) & (g[:, 0] == 1.0)
        assert at_w0.any() and kept[at_w0].all()
        assert region.label != "Omega1" or kept[u == 0.0].all()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_radial_bound_is_the_stated_formula(scenarios_by_n, n):
    # the bound, inlined: the ring table minimised over each cell and its two
    # neighbours, at t and s lowered by a relative 1e-13; the w-pole term at
    # ||w| - |w0|| less a 1e-12 guard; and a 1e-9 slack below it all
    rng = np.random.default_rng(n)
    for sc in scenarios_by_n[n]:
        w0 = sc.w0[0].real
        t = np.concatenate([rng.uniform(0.0, 10.24, 200_000),
                            np.abs(_cell_edge_z(sc)) ** 2, [0.0]])
        s = np.concatenate([rng.uniform(0.0, 9.0, t.size - 200),
                            (w0 + rng.uniform(-1e-9, 1e-9, 200)) ** 2])
        s[:7] = [w0**2, 0.0, (w0 - 5e-13) ** 2, (w0 + 5e-13) ** 2,
                 (w0 - 1e-11) ** 2, 1.0, 16.0]
        ring = sc._ring_table
        table = np.minimum(np.minimum(np.concatenate([ring[:1], ring[:-1]]), ring),
                           np.concatenate([ring[1:], ring[-1:]]))
        tl, sl = t * (1.0 - 1e-13), s * (1.0 - 1e-13)
        gap = np.maximum(np.abs(np.sqrt(sl) - w0) - 1e-12, 0.0)
        with np.errstate(divide="ignore"):
            if sc._BOUND == 4.0:
                terms = 0.5 * np.log(tl) + 0.5 * np.log(gap)
            else:
                terms = np.log10(gap)
            got = sc.radial_lower(t, s)
        want = table[ring_cells(tl)] + terms + tl + sl - sc._BOUND - 1e-9
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        assert np.all(got[~finite] == -np.inf)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12
        # a w-pole gap inside the guard makes the bound -inf
        assert np.all(got[2:4] == -np.inf) and np.isfinite(got[4])


# --- warm-up example --------------------------------------------------------

def test_example_defining_levi_structure(small_cfg):
    pts = np.array([[0.5 + 0.2j, 0.3 - 0.4j]])
    H, ok = wirtinger_hessian_batch(example_defining, pts, small_cfg.fd_step)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.eye(2), atol=1e-5)


def test_example1_certificates(small_cfg):
    certs = example1_check(small_cfg)
    assert all(c.passed for c in certs)
    floor = certs[0].worst_margin
    assert abs(floor - 1.0) <= 1e-3
