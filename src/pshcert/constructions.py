"""The certified objects: plateau function, tapered form, two domain
scenarios, and the strictly pseudoconvex warm-up example.

Everything here evaluates in batches ((N,) or (N, n) complex in, (N,)
float out) and is immutable after construction, so property checks can
run concurrently. The property operations at the bottom return lists of
Certificates; windows, margins and sample mixtures are deterministic
functions of the run configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernels
from .calculus import (
    Certificate,
    certify_psh,
    circle_mean_test,
    make_certificate,
    min_eigs_batch,
    wirtinger_hessian_batch,
)
from .config import CertifyConfig
from .geometry import (
    Annulus,
    Ball,
    Disk,
    ProductRegion,
    Sampler,
    SublevelRegion,
    _sample_ball,
    _sample_disk,
    _unit_directions,
    path_connected_probe,
    sample,
)
from .logpoles import (
    PoleSchedule,
    disc_separation_margins,
    make_schedule,
    schedule_condition_margin,
    series_ring_lower_bounds,
    series_values,
)

# fixed internal seed: schedule constants are part of the constructed
# objects and must not depend on the report seed
_BUILD_SEED = 77003

_W0_THM1 = 2.0  # |w0| for the first scenario
_W0_THM2 = 4.0  # |w0| for the second scenario
_THETA_CUT = 2.5  # |w| switching radius of the second scenario's witness

#: subtracted from the ring bound in ``defining_lower``; it covers the
#: rounding of the computed series against its exact value (see there)
_SCREEN_SLACK = 1e-9


def _axis_point(modulus: float, k: int) -> np.ndarray:
    w = np.zeros(k, dtype=np.complex128)
    w[0] = modulus
    return w


def _norm2(pts: np.ndarray) -> np.ndarray:
    return np.sum(pts.real**2 + pts.imag**2, axis=1)


# ---------------------------------------------------------------------------
# plateau-glued subharmonic function (continuous, == |z|^2 on the unit disk,
# == 1 on a tiny disc around every pole)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauFunction:
    """Continuous subharmonic glue of |z|^2 with log wells at the poles.

    Inside the disc D(a_j, r_j) the value is
    ``max(|z|^2 + eps_j * chi(|z-a_j|/r_j) * log|z-a_j|, 1)`` and |z|^2
    elsewhere; eps_j is small enough (sampled Laplacian certificate with
    safety factor 2) to keep the glued function subharmonic. The
    saturated plateau around a_j has radius exp(log_rho_j), far below
    float64 resolution, so plateau membership is tested in log space.
    """

    a: np.ndarray
    r: np.ndarray
    eps: np.ndarray
    log_rho: np.ndarray

    @property
    def j_max(self) -> int:
        return self.a.size

    def values(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128).ravel()
        return kernels.u_many(
            np.ascontiguousarray(z.real),
            np.ascontiguousarray(z.imag),
            np.ascontiguousarray(self.a.real),
            np.ascontiguousarray(self.a.imag),
            np.ascontiguousarray(self.r),
            np.ascontiguousarray(self.eps),
        )

    def value(self, z: complex) -> float:
        return float(self.values(np.asarray([z]))[0])


def _perturbation_values(a_j: complex, r_j: float, z: np.ndarray) -> np.ndarray:
    d = np.abs(z - a_j)
    with np.errstate(divide="ignore"):
        logd = np.log(d)
    c = kernels.chi_many(d / r_j)
    out = np.where(c > 0.0, c * logd, 0.0)
    return out


def _fd_laplacian(f, z: np.ndarray, h: float) -> np.ndarray:
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)) / (h * h)


def _annulus_sample(a_j: complex, r_j: float, count: int, rng) -> np.ndarray:
    s2 = rng.uniform(0.25**2, 0.75**2, count)
    ang = rng.uniform(0.0, 2.0 * np.pi, count)
    return a_j + r_j * np.sqrt(s2) * np.exp(1j * ang)


def plateau_eps(a_j: complex, r_j: float, probes: int = 1000,
                stream: int = 0) -> float:
    """Perturbation size for one disc: eps_j = 2 / K_j.

    K_j doubles the sampled sup of |Laplacian(chi(|.|/r_j) log|.|)| over
    the transition annulus (floored at 1), so the finite-difference
    Laplacian of |z|^2 + eps_j * perturbation stays >= 2 on the disc.
    """
    rng = np.random.Generator(np.random.Philox(key=[_BUILD_SEED, 11_000 + stream]))
    z = _annulus_sample(a_j, r_j, probes, rng)
    lap = _fd_laplacian(lambda zz: _perturbation_values(a_j, r_j, zz), z, r_j * 1e-3)
    if not np.all(np.isfinite(lap)):
        raise RuntimeError("nonfinite Laplacian probe in plateau construction")
    k = max(1.0, 2.0 * float(np.max(np.abs(lap))))
    return 2.0 / k


def plateau_log_rho(r_j: float, eps_j: float) -> float:
    """Log of the saturated-plateau radius: min(log(r_j/4), -5/eps_j).

    Within that radius the cutoff equals 1 and
    ``|z|^2 + eps_j log|z-a_j| <= 2.25^2 - 5 < 1``, so the glued value
    saturates at 1. The radius always underflows float64; only its log
    is meaningful.
    """
    if eps_j <= 0:
        raise ValueError("eps must be positive")
    return min(np.log(0.25 * r_j), -5.0 / eps_j)


def build_plateau(j_max: int) -> PlateauFunction:
    theta = make_schedule("thm1", j_max).theta  # same angles for both variants
    j = np.arange(1, j_max + 1, dtype=np.float64)
    a = (1.0 + 1.0 / j) * np.exp(1j * theta)
    r = 1.0 / (4.0 * j * (j + 1.0))
    eps = np.array([plateau_eps(a[i], r[i], stream=i + 1) for i in range(j_max)])
    log_rho = np.array([plateau_log_rho(r[i], eps[i]) for i in range(j_max)])
    return PlateauFunction(a, r, eps, log_rho)


# ---------------------------------------------------------------------------
# tapered quadratic form  S(z1, z') = taper(|z1|^2)|z'|^2 + C|z1|^2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaperedForm:
    """The taper-weighted form with its certified constants.

    ``growth_const`` (L) bounds (taper')^2 <= L * taper, ``mix_const``
    (B) bounds |taper''(t) t + taper'(t)| on [0, 1], and the quadratic
    weight C = 2(B + R^2 L) + 1 makes the Levi form of S positive
    semidefinite on C x B(0, R) and definite on D x B(0, R);
    ``epsilon_out`` is the measured floor of
    H_S(z, xi) / (|xi_1|^2 + taper |xi'|^2) over the sampled product.
    """

    radius: float
    growth_const: float
    mix_const: float
    quad_weight: float
    epsilon_out: float

    @property
    def small_c(self) -> float:
        return 1.0 / self.quad_weight

    def levi_contract(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The displayed Levi form of S contracted with xi, per point."""
        z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
        xi = np.atleast_2d(np.asarray(xi, dtype=np.complex128))
        t = np.abs(z[:, 0]) ** 2
        lam, lamp, lampp = kernels.taper_many(t)
        zp2 = _norm2(z[:, 1:])
        pair = np.sum(z[:, 1:] * np.conj(xi[:, 1:]), axis=1)
        first = ((lampp * t + lamp) * zp2 + self.quad_weight) * np.abs(xi[:, 0]) ** 2
        cross = 2.0 * np.real(lamp * np.conj(z[:, 0]) * xi[:, 0] * pair)
        return first + cross + lam * _norm2(xi[:, 1:])

    def levi_matrix(self, z: np.ndarray) -> np.ndarray:
        """Analytic Levi matrix of S at one point."""
        z = np.asarray(z, dtype=np.complex128).ravel()
        n = z.size
        t = abs(z[0]) ** 2
        lam, lamp, lampp = (float(v[0]) for v in kernels.taper_many(np.asarray([t])))
        H = np.zeros((n, n), dtype=np.complex128)
        zp2 = float(np.sum(np.abs(z[1:]) ** 2))
        H[0, 0] = (lampp * t + lamp) * zp2 + self.quad_weight
        for k in range(1, n):
            H[0, k] = lamp * np.conj(z[0]) * z[k]
            H[k, 0] = np.conj(H[0, k])
            H[k, k] = lam
        return H

    def sampled_epsilon(self, n: int, count: int, seed: int) -> float:
        """Min of H_S(z, xi)/(|xi_1|^2 + taper |xi'|^2), z in D x B(0,R)."""
        rng = np.random.Generator(np.random.Philox(key=[seed, 23]))
        z1 = _sample_disk(rng, count)
        zp = _sample_ball(rng, count, n - 1, self.radius)
        z = np.concatenate([z1[:, None], zp], axis=1)
        xi = rng.standard_normal((count, 2 * n))
        xi = xi / np.linalg.norm(xi, axis=1)[:, None]
        xi = xi[:, :n] + 1j * xi[:, n:]
        lam = kernels.taper_many(np.abs(z1) ** 2)[0]
        denom = np.abs(xi[:, 0]) ** 2 + lam * _norm2(xi[:, 1:])
        return float(np.min(self.levi_contract(z, xi) / denom))


def build_tapered_form(
    radius: float, n: int = 2, grid: int = 10_000, epsilon_samples: int = 100_000,
    seed: int = _BUILD_SEED, retries: int = 6,
) -> TaperedForm:
    """Fix the form's constants and certify a positive sampled floor.

    The growth constant comes from a finite-difference scan of the
    taper's square root on a uniform grid (5% safety), the mixed bound
    from the analytic derivatives, and the quadratic weight from the
    explicit formula 2(B + R^2 L) + 1, doubled up to ``retries`` times
    if the sampled floor fails to come out positive.
    """
    t = (np.arange(grid, dtype=np.float64) + 0.5) / grid
    h = 1e-6
    lam_p, _, _ = kernels.taper_many(t + h)
    lam_m, _, _ = kernels.taper_many(t - h)
    g_p = np.sqrt(lam_p)
    g_m = np.sqrt(lam_m)
    gp_fd = (g_p - g_m) / (2.0 * h)
    growth = 4.0 * float(np.max(gp_fd**2)) * 1.05
    lam, lamp, lampp = kernels.taper_many(t)
    mix = float(np.max(np.abs(lampp * t + lamp)))
    quad = 2.0 * (mix + radius * radius * growth) + 1.0
    for _ in range(retries + 1):
        form = TaperedForm(radius, growth, mix, quad, 0.0)
        eps_out = form.sampled_epsilon(n, epsilon_samples, seed)
        if eps_out > 0.0:
            return TaperedForm(radius, growth, mix, quad, eps_out)
        quad *= 2.0
    raise RuntimeError("tapered form: no positive floor after doubling retries")


# ---------------------------------------------------------------------------
# scenario 1: locally bounded strictly-psh witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm1Scenario:
    """Sublevel domain of ``series + log|z| + (1/2)log|w-w0| + |z|^2 + |w|^2 < 4``.

    The witness is ``max(smooth_witness, -2)`` where the smooth witness
    replaces |w|^2 by |w|^2/2; the strictness window is the product of
    the annulus 1/2 < |z| < 1 with the unit ball.
    """

    n: int
    schedule: PoleSchedule
    trunc: int
    w0: np.ndarray

    def sigma(self, z):
        return series_values(self.schedule, z, self.trunc)

    def _parts(self, pts):
        """z and the non-series terms of the defining function."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        z = pts[:, 0]
        w = pts[:, 1:]
        nz2 = z.real**2 + z.imag**2
        with np.errstate(divide="ignore"):
            half_log_z = 0.5 * np.log(nz2)
            dw2 = _norm2(w - self.w0[None, :])
            quarter_log_w = 0.25 * np.log(dw2)
        return z, half_log_z, quarter_log_w, nz2, _norm2(w)

    def defining_values(self, pts):
        z, hlz, qlw, nz2, nw2 = self._parts(pts)
        sig, _ = self.sigma(z)
        return sig + hlz + qlw + nz2 + nw2 - 4.0

    def defining_lower(self, pts):
        """``defining_values`` with the series replaced by its ring bound.

        Contract: ``defining_lower(p) <= defining_values(p)`` at every p
        where neither is NaN, so ``domain_region`` may use it as its
        screen. Error budget: the ring bound R is below the exact series
        of the float poles a_j. Where R is finite, every |z - a_j|
        exceeds the 1e-12 ring guard less rounding, so each
        |log|z - a_j|| is below 710; with S = sum delta_j < 1/4 the
        computed series fl(sigma) and R itself err by less than
        (trunc + 3) * 2^-53 * S * 710 < 1e-11 at trunc <= 400, far
        inside ``_SCREEN_SLACK`` = 1e-9. The other terms are the same
        arrays as in ``defining_values``, added in the same order, and
        rounding is monotone: a smaller first summand cannot give a
        larger sum, so the sums add no error to the budget.
        """
        z, hlz, qlw, nz2, nw2 = self._parts(pts)
        low = series_ring_lower_bounds(self.schedule, z, self.trunc) - _SCREEN_SLACK
        return low + hlz + qlw + nz2 + nw2 - 4.0

    def defining_error_radii(self, pts):
        _, err = self.sigma(self._parts(pts)[0])
        return err

    def witness_smooth_values(self, pts):
        z, hlz, qlw, nz2, nw2 = self._parts(pts)
        sig, _ = self.sigma(z)
        return sig + hlz + qlw + nz2 + 0.5 * nw2

    def witness_values(self, pts):
        return np.maximum(self.witness_smooth_values(pts), -2.0)

    def strict_window(self) -> ProductRegion:
        return ProductRegion(
            Annulus(0.5, 1.0), Ball((0j,) * (self.n - 1), 1.0), label="omega1"
        )

    def bulk_window(self) -> ProductRegion:
        return ProductRegion(
            Disk(0j, 3.2), Ball((0j,) * (self.n - 1), 3.0), label="omega1-window"
        )

    def domain_region(self) -> SublevelRegion:
        return SublevelRegion(
            self.defining_values, 0.0, self.bulk_window(), label="Omega1",
            lower=self.defining_lower,
        )


def build_thm1(cfg: CertifyConfig) -> Thm1Scenario:
    schedule = make_schedule("thm1", cfg.j_max)
    return Thm1Scenario(cfg.n, schedule, cfg.trunc, _axis_point(_W0_THM1, cfg.n - 1))


# ---------------------------------------------------------------------------
# scenario 2: continuous strictly-psh witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm2Scenario:
    """Sublevel domain of ``series + log10|w-w0| + |z|^2 + |w|^2 < 3``.

    The w-pole term uses the decimal log: with the natural log the
    closed unit polydisk would stick out of the domain (log 5 > 3/4),
    while every membership chain below needs log|w - w0| <= log 5 < 3/4
    on the unit ball. The witness glues the plateau function (for
    |w| < 5/2) with the constant 1, plus small_c times the tapered
    |w|^2 bump.
    """

    n: int
    schedule: PoleSchedule
    plateau: PlateauFunction
    form: TaperedForm
    trunc: int
    w0: np.ndarray

    def sigma(self, z):
        return series_values(self.schedule, z, self.trunc)

    def _parts(self, pts):
        """z and the non-series terms of the defining function."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        z = pts[:, 0]
        w = pts[:, 1:]
        nz2 = z.real**2 + z.imag**2
        with np.errstate(divide="ignore"):
            log10_w = 0.5 * np.log10(_norm2(w - self.w0[None, :]))
        return z, log10_w, nz2, _norm2(w)

    def defining_values(self, pts):
        z, log10_w, nz2, nw2 = self._parts(pts)
        sig, _ = self.sigma(z)
        return sig + log10_w + nz2 + nw2 - 3.0

    def defining_lower(self, pts):
        """``defining_values`` with the series replaced by its ring bound.

        Same contract and error budget as ``Thm1Scenario.defining_lower``
        (the thm2 coefficients are smaller, so the series terms are too).
        """
        z, log10_w, nz2, nw2 = self._parts(pts)
        low = series_ring_lower_bounds(self.schedule, z, self.trunc) - _SCREEN_SLACK
        return low + log10_w + nz2 + nw2 - 3.0

    def witness_smooth_values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        u = self.plateau.values(pts[:, 0])
        return np.where(_norm2(pts[:, 1:]) < _THETA_CUT**2, u, 1.0)

    def bump_values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        nz2 = pts[:, 0].real ** 2 + pts[:, 0].imag ** 2
        lam = kernels.taper_many(nz2)[0]
        nw2 = _norm2(pts[:, 1:])
        return np.where(nw2 < _THETA_CUT**2, lam * nw2, 0.0)

    def witness_values(self, pts):
        return self.witness_smooth_values(pts) + self.form.small_c * self.bump_values(
            pts
        )

    def strict_window(self) -> ProductRegion:
        return ProductRegion(
            Disk(0j, 1.0), Ball((0j,) * (self.n - 1), 1.0), label="omega2"
        )

    def strict_window_resolvable(self, flat_margin: float) -> ProductRegion:
        """Strictness window minus the collar where the taper underflows.

        Within ``flat_margin`` of |z| = 1 the taper is below the float64
        subnormal range, so no arithmetic can distinguish the witness's
        Levi floor from zero there; the window keeps |z| <= 1 - margin.
        """
        return ProductRegion(
            Disk(0j, 1.0 - flat_margin),
            Ball((0j,) * (self.n - 1), 1.0),
            label="omega2-resolvable",
        )

    def bulk_window(self) -> ProductRegion:
        return ProductRegion(
            Disk(0j, 3.2), Ball((0j,) * (self.n - 1), 3.0), label="omega2-window"
        )

    def domain_region(self) -> SublevelRegion:
        return SublevelRegion(
            self.defining_values, 0.0, self.bulk_window(), label="Omega2",
            lower=self.defining_lower,
        )

    def slab_region(self) -> SublevelRegion:
        """The domain in the bulk window, for the boundedness surrogate."""
        return replace(self.domain_region(), label="Omega2-slab")

    def zdisk_region(self) -> SublevelRegion:
        """Members over the closed unit z-disk with |w| < 3."""
        window = ProductRegion(Disk(0j, 1.0, closed=True),
                               Ball((0j,) * (self.n - 1), 3.0), label="zdisk-window")
        return replace(self.domain_region(), window=window, label="Omega2-zdisk")

    def witness_min_eigs_on_window(self, pts) -> np.ndarray:
        """Exact Levi floor of the witness on the strictness window.

        There the witness is ``|z|^2 + small_c * taper(|z|^2) |w|^2``
        (the plateau function reduces to |z|^2 and the bump is active),
        which is small_c times the tapered form. Its Levi matrix has an
        arrow structure whose minimal eigenvalue lives in the plane
        spanned by the z-axis and the w-direction; the 2x2 closed form
        there stays accurate down to subnormal taper values.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        z = pts[:, 0]
        w = pts[:, 1:]
        t = z.real**2 + z.imag**2
        lam, lamp, lampp = kernels.taper_many(t)
        c = self.form.small_c
        nw2 = _norm2(w)
        a11 = 1.0 + c * (lampp * t + lamp) * nw2
        off = c * np.abs(lamp) * np.abs(z) * np.sqrt(nw2)
        a22 = c * lam
        return kernels.min_eig_2x2_many(
            np.ascontiguousarray(a11),
            np.ascontiguousarray(a22),
            np.ascontiguousarray(off),
            np.zeros_like(off),
        )


def build_thm2(cfg: CertifyConfig,
               plateau: Optional[PlateauFunction] = None,
               form: Optional[TaperedForm] = None) -> Thm2Scenario:
    plateau = plateau if plateau is not None else build_plateau(cfg.j_max)
    schedule = make_schedule("thm2", cfg.j_max, plateau.log_rho)
    form = form if form is not None else build_tapered_form(cfg.taper_radius, cfg.n)
    return Thm2Scenario(
        cfg.n, schedule, plateau, form, cfg.trunc, _axis_point(_W0_THM2, cfg.n - 1)
    )


# ---------------------------------------------------------------------------
# warm-up example: log|w| + |z|^2 + |w|^2 < level
# ---------------------------------------------------------------------------

def example_defining(level: float):
    def psi(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        nw2 = _norm2(pts[:, 1:])
        nz2 = pts[:, 0].real ** 2 + pts[:, 0].imag ** 2
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(nw2) + nz2 + nw2 - level

    return psi


def example1_check(cfg: CertifyConfig, stream: int = 900) -> list[Certificate]:
    """Certify the warm-up witness is strictly psh off the w-pole.

    The quadratic part contributes the identity to the Levi form and the
    log term is positive semidefinite with the radial direction in its
    kernel, so the sampled floor must come out at 1 (within FD error).
    Samples keep |w| >= cfg.example1_exclusion: closer to the pole the
    h^2-error of the stencil on the log term exceeds the floor tolerance.
    """
    psi = example_defining(cfg.c_level)
    window = ProductRegion(
        Disk(0j, 2.2), Ball((0j,) * (cfg.n - 1), 1.3), label="example1-window"
    )
    excl = cfg.example1_exclusion
    region = SublevelRegion(psi, 0.0, window, label="example1-domain")

    def too_close(pts):
        return _norm2(np.atleast_2d(pts)[:, 1:]) < excl * excl

    cert_floor = certify_psh(
        psi,
        region,
        Sampler(cfg.seed, cfg.samples, stream=stream),
        cfg.fd_step,
        strict_floor=0.0,
        tolerance=cfg.tol,
        exclude=too_close,
        name="example1-strict-psh",
    )
    floor = cert_floor.worst_margin
    cert_value = make_certificate(
        "example1-floor-near-one", np.asarray([1e-3 - abs(floor - 1.0)]), 0.0
    )
    return [cert_floor, cert_value]


# ---------------------------------------------------------------------------
# deterministic domain-member mixtures
# ---------------------------------------------------------------------------

def _member_filter(defining, pts):
    return pts[defining(pts) < 0.0]


def thm1_decay_members(sc: Thm1Scenario, count: int, seed: int,
                       stream: int) -> np.ndarray:
    """Members of the domain with |w| > 4, mixing exact pole-line points
    with log-uniform offsets from the z = 0 line (the only float-scale
    routes into the far-|w| part of the domain)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    k = sc.n - 1
    half = count // 2
    w_mod = rng.uniform(4.0 + 1e-6, 6.0, count)
    w = _unit_directions(rng, count, k) * w_mod[:, None]
    idx = rng.integers(0, sc.trunc + 1, half)
    z_line = np.where(idx == 0, 0j, sc.schedule.a[np.maximum(idx - 1, 0)])
    s = rng.uniform(-60.0, -34.0, count - half)
    z_off = np.exp(s) * np.exp(2j * np.pi * rng.random(count - half))
    pts = np.concatenate(
        [
            np.concatenate([z_line[:, None], w[:half]], axis=1),
            np.concatenate([z_off[:, None], w[half:]], axis=1),
        ]
    )
    return _member_filter(sc.defining_values, pts)


def thm1_member_mixture(sc: Thm1Scenario, count: int, seed: int,
                        stream: int) -> np.ndarray:
    """Domain members: bulk rejection samples plus thin-tube samples near
    the w0 line (log-uniform radii), capped at ``count``."""
    n_tube = count // 20
    bulk = sample(sc.domain_region(), Sampler(seed, count - n_tube, stream=stream))
    rng = np.random.Generator(np.random.Philox(key=[seed, stream + 1]))
    k = sc.n - 1
    z = _sample_disk(rng, 2 * n_tube) * 2.5
    rho = np.exp(rng.uniform(-60.0, -16.0, 2 * n_tube))
    w = sc.w0[None, :] + _unit_directions(rng, 2 * n_tube, k) * rho[:, None]
    tube = _member_filter(sc.defining_values,
                          np.concatenate([z[:, None], w], axis=1))[:n_tube]
    return np.concatenate([bulk, tube], axis=0)


def thm2_member_mixture(sc: Thm2Scenario, count: int, seed: int,
                        stream: int) -> np.ndarray:
    """Domain members: bulk samples plus points in the thin tube around
    the w0 line (these exercise the |w| >= 5/2 witness branch)."""
    n_tube = count // 20
    bulk = sample(sc.domain_region(), Sampler(seed, count - n_tube, stream=stream))
    rng = np.random.Generator(np.random.Philox(key=[seed, stream + 1]))
    k = sc.n - 1
    z = _sample_disk(rng, 2 * n_tube) * 1.5
    rho = 10.0 ** rng.uniform(-25.0, -16.0, 2 * n_tube)
    w = sc.w0[None, :] + _unit_directions(rng, 2 * n_tube, k) * rho[:, None]
    tube = _member_filter(sc.defining_values,
                          np.concatenate([z[:, None], w], axis=1))[:n_tube]
    return np.concatenate([bulk, tube], axis=0)


def closed_polydisk_samples(n: int, count: int, seed: int, stream: int) -> np.ndarray:
    """Samples of the closed product D-bar x B-bar including boundary faces."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    k = n - 1
    m = min(max(count // 16, 8), 256)
    z_in = _sample_disk(rng, count - 2 * m)
    w_in = _sample_ball(rng, count - 2 * m, k, 1.0)
    z_bd = np.exp(2j * np.pi * rng.random(m))
    w_for_zbd = _sample_ball(rng, m, k, 1.0)
    z_for_wbd = _sample_disk(rng, m)
    w_bd = _unit_directions(rng, m, k)
    return np.concatenate(
        [
            np.concatenate([z_in[:, None], w_in], axis=1),
            np.concatenate([z_bd[:, None], w_for_zbd], axis=1),
            np.concatenate([z_for_wbd[:, None], w_bd], axis=1),
        ]
    )


def closed_disk_samples(count: int, seed: int, stream: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    m = min(max(count // 16, 8), 256)
    inner = _sample_disk(rng, count - m)
    return np.concatenate([inner, np.exp(2j * np.pi * rng.random(m))])


# ---------------------------------------------------------------------------
# property certificate bundles
# ---------------------------------------------------------------------------

def _submean_pairs(schedule: PoleSchedule, count: int, seed: int, stream: int):
    """(z, radius) probes avoiding every constructed pole by 2 * radius."""
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    zs = []
    rs = []
    while len(zs) < count:
        z = _sample_disk(rng, 4 * count) * 2.5
        r = rng.uniform(1e-3, 0.1, 4 * count)
        dmin = np.min(np.abs(z[:, None] - schedule.a[None, :]), axis=1)
        keep = dmin >= 2.0 * r
        zk, rk = z[keep], r[keep]
        take = min(count - len(zs), zk.size)
        zs.extend(zk[:take])
        rs.extend(rk[:take])
    return np.asarray(zs), np.asarray(rs)


def thm1_properties(sc: Thm1Scenario, cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed

    # series bound |sigma| + tail < 1 on the closed unit disk
    zd = closed_disk_samples(cfg.samples, seed, 100)
    vals, errs = sc.sigma(zd)
    certs.append(
        make_certificate("thm1-series-bound-disk",
                         1.0 - (np.abs(vals) + errs), 0.0, zd)
    )

    # sub-mean-value margins of the truncated series
    zs, rs = _submean_pairs(sc.schedule, cfg.submean_probes, seed, 101)
    margins = circle_mean_test(lambda z: sc.sigma(z)[0], zs, rs, 64)
    certs.append(make_certificate("thm1-series-submean", margins, 1e-9, zs))

    # pole lines and the origin line stay inside the domain
    rng = np.random.Generator(np.random.Philox(key=[seed, 102]))
    k = sc.n - 1
    idx = rng.integers(0, sc.trunc + 1, cfg.samples)
    z_line = np.where(idx == 0, 0j, sc.schedule.a[np.maximum(idx - 1, 0)])
    w_line = _sample_ball(rng, cfg.samples, k, 10.0)
    pts = np.concatenate([z_line[:, None], w_line], axis=1)
    certs.append(
        make_certificate("thm1-line-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # the w0 line stays inside the domain
    z_any = _sample_disk(rng, cfg.samples) * 10.0
    pts = np.concatenate(
        [z_any[:, None], np.repeat(sc.w0[None, :], cfg.samples, axis=0)], axis=1
    )
    certs.append(
        make_certificate("thm1-w0-line-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # closed polydisk inside the domain (with certified series tail)
    pts = closed_polydisk_samples(sc.n, cfg.samples, seed, 103)
    d = sc.defining_values(pts) + sc.defining_error_radii(pts)
    certs.append(make_certificate("thm1-closure-membership", -d, 0.0, pts))

    # strict plurisubharmonicity of the smooth witness on the window
    certs.append(
        certify_psh(
            sc.witness_smooth_values,
            sc.strict_window(),
            Sampler(seed, cfg.samples, stream=104),
            cfg.fd_step,
            strict_floor=0.0,
            tolerance=cfg.tol,
            name="thm1-window-strict-psh",
        )
    )

    # smooth witness stays above -2 on the window (so the max is inactive)
    wpts = sample(sc.strict_window(), Sampler(seed, cfg.samples, stream=105))
    certs.append(
        make_certificate(
            "thm1-window-above-floor", sc.witness_smooth_values(wpts) + 2.0, 0.0, wpts
        )
    )

    # decay: witness below -2 once |w| > 4 inside the domain
    pts = thm1_decay_members(sc, cfg.samples, seed, 106)
    certs.append(
        make_certificate(
            "thm1-decay-beyond-w4", -2.0 - sc.witness_smooth_values(pts), 0.0, pts
        )
    )

    # majorant identity on domain members and witness bounds
    pts = thm1_member_mixture(sc, cfg.big_samples, seed, 107)
    smooth = sc.witness_smooth_values(pts)
    nw2 = _norm2(pts[:, 1:])
    certs.append(
        make_certificate(
            "thm1-majorant", (4.0 - 0.5 * nw2) - smooth, 1e-9, pts
        )
    )
    phi = np.maximum(smooth, -2.0)
    certs.append(
        make_certificate(
            "thm1-witness-bounds",
            np.minimum(phi + 2.0, 4.0 - phi), 0.0, pts,
        )
    )

    # schedule inequality
    certs.append(
        make_certificate(
            "thm1-coefficient-sum",
            np.asarray([schedule_condition_margin(sc.schedule)]), 0.0,
        )
    )

    # sampled path connectivity from the basepoint (0, 0)
    base = np.zeros(sc.n, dtype=np.complex128)
    targets = [
        np.asarray([0.75] + [0.0] * (sc.n - 1), dtype=np.complex128),
        np.asarray([0.9] + [0.8] + [0.0] * (sc.n - 2), dtype=np.complex128),
        np.concatenate([[1.5], sc.w0]),
    ]
    waypoints = [None, None, [np.concatenate([[0.0], sc.w0])]]
    margins = []
    for tgt, wp in zip(targets, waypoints):
        ok, _ = path_connected_probe(sc.defining_values, 0.0, base, tgt,
                                     steps=512, waypoints=wp)
        margins.append(1.0 if ok else -1.0)
    certs.append(make_certificate("thm1-connectivity", np.asarray(margins), 0.0))
    return certs


def plateau_properties(plateau: PlateauFunction, schedule: PoleSchedule,
                       cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed
    jc = min(cfg.plateau_checks, plateau.j_max)

    # value 1 exactly at every pole
    vals = plateau.values(plateau.a[:jc])
    certs.append(
        make_certificate("plateau-value-at-poles", -np.abs(vals - 1.0), 0.0,
                         plateau.a[:jc])
    )

    # saturated plateau: radius positive in log space, below r_j/4, and
    # deep enough that the glued branch cannot exceed 1 there
    lr = plateau.log_rho[:jc]
    fin = np.where(np.isfinite(lr), 1.0, -1.0)
    below = np.log(0.25 * plateau.r[:jc]) - lr
    depth = 1.0 - (2.25**2 + plateau.eps[:jc] * lr)
    certs.append(
        make_certificate(
            "plateau-disc-geometry", np.concatenate([fin, below, depth]), 0.0
        )
    )

    # equals |z|^2 on the closed unit disk, exactly
    zd = closed_disk_samples(1000, seed, 300)
    diff = plateau.values(zd) - (zd.real**2 + zd.imag**2)
    certs.append(make_certificate("plateau-equals-square-on-disk", -np.abs(diff),
                                  0.0, zd))

    # branch continuity across every disc boundary
    worst = []
    for j in range(jc):
        bd = plateau.a[j] + plateau.r[j] * np.exp(
            2j * np.pi * np.arange(1000) / 1000.0
        )
        m2 = bd.real**2 + bd.imag**2
        inner = np.maximum(
            m2 + plateau.eps[j]
            * _perturbation_values(plateau.a[j], plateau.r[j], bd),
            1.0,
        )
        worst.append(np.max(np.abs(inner - m2)))
    certs.append(
        make_certificate("plateau-branch-continuity",
                         1e-12 - np.asarray(worst), 0.0, plateau.a[:jc])
    )

    # sampled Laplacian floor of the glued branch inside each disc
    margins = []
    for j in range(jc):
        rng = np.random.Generator(np.random.Philox(key=[seed, 301_000 + j]))
        z = _annulus_sample(plateau.a[j], plateau.r[j], 1000, rng)

        def branch(zz, j=j):
            m2 = zz.real**2 + zz.imag**2
            return m2 + plateau.eps[j] * _perturbation_values(
                plateau.a[j], plateau.r[j], zz
            )

        lap = _fd_laplacian(branch, z, plateau.r[j] * 1e-3)
        margins.append(np.min(lap) - 2.0)
    certs.append(
        make_certificate("plateau-laplacian-floor", np.asarray(margins), 0.0,
                         plateau.a[:jc])
    )

    # 1 <= u <= |z|^2 outside the unit disk
    rng = np.random.Generator(np.random.Philox(key=[seed, 302]))
    r = np.sqrt(rng.uniform(1.0, 9.0, cfg.samples))
    z = r * np.exp(2j * np.pi * rng.random(cfg.samples))
    u = plateau.values(z)
    m2 = z.real**2 + z.imag**2
    certs.append(
        make_certificate(
            "plateau-squeeze-outside",
            np.minimum(u - 1.0, m2 - u), 0.0, z,
        )
    )

    # sub-mean-value property
    rng = np.random.Generator(np.random.Philox(key=[seed, 303]))
    z0 = _sample_disk(rng, cfg.submean_probes) * 3.0
    rad = rng.uniform(1e-4, 0.05, cfg.submean_probes)
    margins = circle_mean_test(plateau.values, z0, rad, 64)
    certs.append(make_certificate("plateau-submean", margins, 1e-6, z0))

    # disjointness of the glue discs, pairwise and from the unit disk
    pairwise, unit = disc_separation_margins(schedule)
    certs.append(
        make_certificate("plateau-disc-separation",
                         np.concatenate([pairwise, unit]), 0.0)
    )
    return certs


def tapered_form_properties(form: TaperedForm, cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed
    n = cfg.n

    # profile shape: range in [0, 1], exact plateau and tail, positivity
    # where float64 can resolve it, junction smoothness of the derivative
    t = np.linspace(0.0, 1.5, 4001)
    lam, lamp, lampp = kernels.taper_many(t)
    shape = [
        float(np.min(lam)),
        float(np.min(1.0 - lam)),
        -float(np.max(np.abs(1.0 - lam[t <= 0.25]))),
        -float(np.max(np.abs(lam[t >= 1.0]))),
        float(np.min(lam[t <= 0.99])),
    ]
    h = 1e-5
    for t0 in (0.5, 1.0):
        tt = np.asarray([t0 - 2 * h, t0 + 2 * h])
        l_p = kernels.taper_many(tt + h)[0]
        l_m = kernels.taper_many(tt - h)[0]
        fd = (l_p - l_m) / (2 * h)
        an = kernels.taper_many(tt)[1]
        shape.append(1e-6 - float(np.max(np.abs(fd - an))))
    certs.append(make_certificate("taper-profile-shape", np.asarray(shape), 1e-12))

    # growth inequality (taper')^2 <= L * taper on the unit grid
    tg = (np.arange(10_000, dtype=np.float64) + 0.5) / 10_000
    lam, lamp, _ = kernels.taper_many(tg)
    certs.append(
        make_certificate(
            "taper-growth-bound", form.growth_const * lam - lamp**2, 1e-10, tg
        )
    )

    # quadratic completion inequality at random triples
    rng = np.random.Generator(np.random.Philox(key=[seed, 400]))
    tt = rng.uniform(0.0, 1.0, cfg.samples)
    x1 = rng.uniform(0.0, 1.0, cfg.samples)
    xp = rng.uniform(0.0, 1.0, cfg.samples)
    lam, lamp, _ = kernels.taper_many(tt)
    R = form.radius
    L = form.growth_const
    expr = 0.5 * R * R * L * x1**2 - R * np.abs(lamp) * x1 * xp + 0.5 * lam * xp**2
    certs.append(make_certificate("taper-completion", expr, 1e-10))

    # analytic Levi matrix vs finite differences, matrix-norm relative
    rng = np.random.Generator(np.random.Philox(key=[seed, 401]))
    count = cfg.submean_probes
    z1 = _sample_disk(rng, 4 * count)
    margin10h = 10 * cfg.fd_step
    keep = (np.abs(np.abs(z1) - np.sqrt(0.5)) > margin10h) & (
        np.abs(z1) < 1.0 - margin10h
    )
    z1 = z1[keep][:count]
    zp = _sample_ball(rng, z1.size, n - 1, form.radius)
    pts = np.concatenate([z1[:, None], zp], axis=1)

    def s_values(Z):
        Z = np.atleast_2d(Z)
        lamv = kernels.taper_many(Z[:, 0].real ** 2 + Z[:, 0].imag ** 2)[0]
        return lamv * _norm2(Z[:, 1:]) + form.quad_weight * (
            Z[:, 0].real ** 2 + Z[:, 0].imag ** 2
        )

    H_fd, ok = wirtinger_hessian_batch(s_values, pts, cfg.fd_step)
    rel = []
    for i in range(pts.shape[0]):
        H_an = form.levi_matrix(pts[i])
        rel.append(
            np.linalg.norm(H_fd[i] - H_an) / np.linalg.norm(H_an)
        )
    rel = np.asarray(rel)
    certs.append(
        make_certificate("taper-levi-fd-agreement", 1e-5 - rel, 0.0, pts)
    )

    # sampled lower-bound floor of the Levi form
    eps_out = form.sampled_epsilon(n, cfg.big_samples, seed)
    certs.append(
        make_certificate("taper-levi-floor-positive", np.asarray([eps_out]), 0.0)
    )

    # plateau identity: on |z1|^2 <= 1/4 the form's Levi matrix is
    # diag(C, 1, ..., 1)
    rng = np.random.Generator(np.random.Philox(key=[seed, 402]))
    z1 = _sample_disk(rng, 200) * 0.5
    zp = _sample_ball(rng, 200, n - 1, form.radius)
    pts = np.concatenate([z1[:, None], zp], axis=1)
    worst = 0.0
    for i in range(pts.shape[0]):
        H = form.levi_matrix(pts[i])
        D = np.diag([form.quad_weight] + [1.0] * (n - 1)).astype(np.complex128)
        worst = max(worst, float(np.max(np.abs(H - D))))
    certs.append(
        make_certificate("taper-plateau-identity", np.asarray([1e-12 - worst]), 0.0)
    )
    return certs


def thm2_properties(sc: Thm2Scenario, cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed
    k = sc.n - 1

    # series below 1/4 on the closed unit disk (tail included)
    zd = closed_disk_samples(cfg.samples, seed, 200)
    vals, errs = sc.sigma(zd)
    certs.append(
        make_certificate("thm2-series-bound-disk", 0.25 - (vals + errs), 0.0, zd)
    )

    # certified lower bound >= -1 off the plateau discs
    rng = np.random.Generator(np.random.Philox(key=[seed, 201]))
    z = _sample_disk(rng, cfg.submean_probes) * 3.0
    near = sc.schedule.a[:10] + 1e-12 * np.exp(2j * np.pi * rng.random(10))
    z = np.concatenate([z, near])
    z = z[sc.schedule.outside_all_discs(z)]
    from .logpoles import series_lower_bounds_off_discs

    lows = series_lower_bounds_off_discs(sc.schedule, z)
    certs.append(make_certificate("thm2-series-lower-bound", lows + 1.0, 0.0, z))

    # boundedness surrogate: members with |w| <= 3 have |z| <= 3
    pts = sample(sc.slab_region(), Sampler(seed, cfg.samples, stream=202))
    certs.append(
        make_certificate("thm2-bounded-slab", 3.0 - np.abs(pts[:, 0]), 0.0, pts)
    )

    # closed polydisk inside the domain
    pts = closed_polydisk_samples(sc.n, cfg.samples, seed, 203)
    certs.append(
        make_certificate("thm2-closure-membership", -sc.defining_values(pts),
                         0.0, pts)
    )

    # the 2 <= |w| <= 3 band meets the domain only over the plateau discs
    rng = np.random.Generator(np.random.Philox(key=[seed, 204]))
    half = cfg.samples // 2
    idx = rng.integers(0, sc.schedule.j_max, half)
    wmod = rng.uniform(2.0, 3.0, half)
    w = _unit_directions(rng, half, k) * wmod[:, None]
    band_line = np.concatenate([sc.schedule.a[idx][:, None], w], axis=1)
    z_rand = _sample_disk(rng, cfg.samples - half) * 3.2
    wmod = rng.uniform(2.0, 3.0, cfg.samples - half)
    w = _unit_directions(rng, cfg.samples - half, k) * wmod[:, None]
    band_rand = np.concatenate([z_rand[:, None], w], axis=1)
    pts = np.concatenate([band_line, band_rand])
    member = sc.defining_values(pts) < 0.0
    with np.errstate(divide="ignore"):
        logd = np.log(np.abs(pts[:, 0][:, None] - sc.schedule.a[None, :]))
    disc_margin = np.max(sc.schedule.log_rho[None, :] - logd, axis=1)
    margins = np.where(member, disc_margin, np.inf)
    certs.append(make_certificate("thm2-band-in-plateau-discs", margins, 0.0, pts))

    # the union of lines E lies inside the domain; the truncated series
    # has poles only at the first sc.trunc schedule points
    rng = np.random.Generator(np.random.Philox(key=[seed, 205]))
    half = cfg.samples // 2
    idx = rng.integers(0, sc.trunc, half)
    w = _sample_ball(rng, half, k, 6.0)
    e1 = np.concatenate([sc.schedule.a[idx][:, None], w], axis=1)
    z = _sample_disk(rng, cfg.samples - half) * 6.0
    e2 = np.concatenate(
        [z[:, None], np.repeat(sc.w0[None, :], cfg.samples - half, axis=0)], axis=1
    )
    pts = np.concatenate([e1, e2])
    certs.append(
        make_certificate("thm2-lines-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # witness branch agreement on domain members near |w| = 5/2
    rng = np.random.Generator(np.random.Philox(key=[seed, 206]))
    idx = rng.integers(0, sc.schedule.j_max, cfg.samples)
    wmod = rng.uniform(2.4, 2.6, cfg.samples)
    w = _unit_directions(rng, cfg.samples, k) * wmod[:, None]
    pts = np.concatenate([sc.schedule.a[idx][:, None], w], axis=1)
    u = sc.plateau.values(pts[:, 0])
    certs.append(
        make_certificate("thm2-branch-agreement", -np.abs(u - 1.0), 1e-12, pts)
    )

    # no members with z in the closed unit disk near the |w| = 5/2 sphere
    pts = sample(sc.zdisk_region(), Sampler(seed, cfg.samples, stream=207))
    gap = np.abs(np.sqrt(_norm2(pts[:, 1:])) - _THETA_CUT) - cfg.band_margin
    certs.append(make_certificate("thm2-bump-interface-clear", gap, 0.0, pts))

    # witness positivity on the strictness window: FD check within the
    # discretization tolerance plus the exact strict floor
    window = sc.strict_window_resolvable(cfg.flat_margin)
    certs.append(
        certify_psh(
            sc.witness_values,
            window,
            Sampler(seed, cfg.samples, stream=208),
            cfg.fd_step,
            strict_floor=0.0,
            tolerance=cfg.psd_tol,
            name="thm2-window-psd-fd",
        )
    )
    wpts = sample(window, Sampler(seed, cfg.samples, stream=209))
    eigs = sc.witness_min_eigs_on_window(wpts)
    certs.append(
        make_certificate("thm2-window-strict-floor", eigs - 1e-300, 0.0, wpts)
    )

    # witness bounds over domain members; the sampled supremum is
    # recoverable from the report as bound - worst_margin
    pts = thm2_member_mixture(sc, cfg.samples, seed, 210)
    phi = sc.witness_values(pts)
    bound = 9.0 + sc.form.small_c * _THETA_CUT**2
    certs.append(make_certificate("thm2-witness-nonnegative", phi, 0.0, pts))
    certs.append(make_certificate("thm2-witness-sup", bound - phi, 0.0, pts))

    # global plausibility: FD Levi form psd over the domain, away from
    # poles and the switching sphere
    pts = thm2_member_mixture(sc, cfg.samples, seed, 211)
    dmin = np.min(np.abs(pts[:, 0][:, None] - sc.schedule.a[None, :]), axis=1)
    wmod = np.sqrt(_norm2(pts[:, 1:]))
    keep = (dmin >= cfg.pole_margin) & (np.abs(wmod - _THETA_CUT) >= cfg.band_margin)
    pts = pts[keep]
    H, ok = wirtinger_hessian_batch(sc.witness_values, pts, cfg.fd_step)
    eigs = min_eigs_batch(H)
    margins = np.where(ok, eigs, -np.inf)
    certs.append(make_certificate("thm2-global-psd-fd", margins, cfg.psd_tol, pts))

    # schedule inequality
    certs.append(
        make_certificate(
            "thm2-coefficient-sum",
            np.asarray([schedule_condition_margin(sc.schedule)]), 0.0,
        )
    )

    # sampled path connectivity: bulk paths from (0, 0), line path along w0
    base = np.zeros(sc.n, dtype=np.complex128)
    line_base = np.concatenate([[0.0], sc.w0])
    margins = []
    for p, q, wp in [
        (base, np.asarray([0.7, 0.5] + [0.0] * (sc.n - 2), dtype=np.complex128), None),
        (base, np.asarray([0.95, 0.9] + [0.0] * (sc.n - 2), dtype=np.complex128),
         None),
        (line_base, np.concatenate([[2.5], sc.w0]), None),
    ]:
        ok, _ = path_connected_probe(sc.defining_values, 0.0, p, q, steps=512,
                                     waypoints=wp)
        margins.append(1.0 if ok else -1.0)
    certs.append(make_certificate("thm2-connectivity", np.asarray(margins), 0.0))
    return certs
