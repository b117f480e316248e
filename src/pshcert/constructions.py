"""The certified objects: plateau function, tapered form, two domain
scenarios, and the strictly pseudoconvex warm-up example.

Everything here evaluates in batches ((N,) or (N, n) complex in, (N,)
float out) and is immutable after construction, so property checks can
run concurrently. The property operations at the bottom return lists of
Certificates; windows, margins and sample mixtures are deterministic
functions of the run configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import kernels
from .calculus import (
    Certificate,
    certify_psh,
    circle_mean_test,
    levi_floors,
    make_certificate,
    wirtinger_hessian_batch,
)
from .config import (
    BAND_MARGIN,
    C_LEVEL,
    EXAMPLE1_EXCLUSION,
    FLAT_MARGIN,
    PLATEAU_CHECKS,
    POLE_MARGIN,
    PSD_TOL,
    SUBMEAN_PROBES,
    TAPER_RADIUS,
    CertifyConfig,
)
from .geometry import (
    Sampler,
    SublevelRegion,
    Window,
    _row_sum,
    _sample_annulus,
    _sample_ball,
    _sample_disk,
    _sample_shell,
    _unit_directions,
    path_connected_probe,
    philox,
    product_points,
    sample,
    window_rows,
)
from .logpoles import (
    PoleSchedule,
    disc_separation_margins,
    make_schedule,
    pole_discs,
    pole_rows,
    ring_bound_table,
    ring_cells,
    schedule_condition_margin,
    series_lower_bounds_off_discs,
    series_values,
    tail_error_radius,
)

# fixed internal seed: schedule constants are part of the constructed
# objects and must not depend on the report seed
_BUILD_SEED = 77003

_W0_THM1 = 2.0  # |w0| for the first scenario
_W0_THM2 = 4.0  # |w0| for the second scenario
_THETA_CUT = 2.5  # |w| switching radius of the second scenario's witness

#: subtracted from every entry of the ring-bound table in ``screened_values``;
#: it covers the rounding of the computed series against its exact value
_SCREEN_SLACK = 1e-9

#: the radial screen's t and s are lowered by this relative amount, far more
#: than the ~10 ulps between them and the formed row's computed |z|^2, |w|^2
_RADIAL_LOWERING = 1e-13

#: subtracted from ||w| - |w0|| in ``radial_lower``; it covers the lowering of
#: s (at most 2e-13 in |w| for |w| <= 4) and the rounding of the formed w
_RADIAL_GUARD = 1e-12

#: subtracted from ``radial_lower``; it covers the rounding of its own terms
#: and sums against those of ``defining_values`` (below 1e-12)
_RADIAL_SLACK = 1e-9


def _axis_point(modulus: float, k: int) -> np.ndarray:
    w = np.zeros(k, dtype=np.complex128)
    w[0] = modulus
    return w


def _norm2(pts: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """``np.sum(q.real**2 + q.imag**2, axis=1)`` for q = pts - shift * e_1, bit for bit
    (``_row_sum`` keeps its order; x - 0.0 is x) and without allocating q."""
    re, im = pts.real, pts.imag
    return _row_sum(lambda j: (re[:, j] - shift if j == 0 else re[:, j]) ** 2
                    + im[:, j] ** 2, pts.shape[1])


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

    eps_j is computed the first time something reads disc j
    (``disc_eps``): ``values`` probes only the discs that hold one of its
    points, and ``eps``, ``log_rho`` and ``thm2_schedule`` probe every disc.
    """

    a: np.ndarray
    r: np.ndarray
    disc_eps: _DiscEps = field(repr=False, compare=False)

    @property
    def j_max(self) -> int:
        return self.a.size

    @cached_property
    def eps(self) -> np.ndarray:
        return self.disc_eps.all()

    @cached_property
    def log_rho(self) -> np.ndarray:
        return np.minimum(np.log(0.25 * self.r), -5.0 / self.eps)

    @cached_property
    def thm2_schedule(self) -> PoleSchedule:
        """The thm2 pole schedule: its coefficients depend on these discs."""
        return make_schedule("thm2", self.j_max, self.log_rho)

    def values(self, z) -> np.ndarray:
        """u at each complex z. ``u_many`` reads eps_j only at the discs that
        hold a point, so only those are probed."""
        return kernels.u_many(z, self.a, self.r, self.disc_eps)


def _perturbation_values(a_j: complex, r_j: float, z: np.ndarray) -> np.ndarray:
    d = np.abs(z - a_j)
    with np.errstate(divide="ignore"):
        logd = np.log(d)
    c = kernels.chi_many(d / r_j)
    return np.where(c > 0.0, c * logd, 0.0)


def _fd_laplacian(f, z: np.ndarray, h: float) -> np.ndarray:
    v = f(np.stack([z + h, z - h, z + 1j * h, z - 1j * h, z]))
    return (v[0] + v[1] + v[2] + v[3] - 4.0 * v[4]) / (h * h)


def _annulus_laplacians(f, a, r, seed: int, streams) -> np.ndarray:
    """FD Laplacians (step r/1000) of ``f`` at 1000 uniform draws of
    r/4 < |z - a| < 3r/4 per disc, one row each, for discs given as (B, 1)
    columns a and r; disc i is drawn by ``philox(seed, streams[i])``."""
    rngs = [philox(seed, s) for s in streams]
    # each disc draws its squared radii, then its angles; neither outlives z
    z = a + r * np.sqrt([rng.uniform(0.25**2, 0.75**2, 1000) for rng in rngs]) * np.exp(
        1j * np.array([rng.uniform(0.0, 2.0 * np.pi, 1000) for rng in rngs]))
    return _fd_laplacian(f, z, r * 1e-3)


#: discs per probe of ``_DiscEps.all`` and per chunk of the
#: plateau-laplacian-floor certificate: their five stacked 1000-point
#: stencils fill at most one ``_BLOCK``. Larger blocks raised the peak RSS
#: of the grid exports (glibc heap layout)
_EPS_DISCS = kernels._BLOCK // 5000


class _DiscEps:
    """eps_j of each plateau disc, computed the first time disc j is read.

    eps_j = 2 / K_j, where K_j doubles the sup of
    |Laplacian(chi(|.|/r_j) log|.|)| over 1000 samples of the transition
    annulus (floored at 1), so the finite-difference Laplacian of
    |z|^2 + eps_j * perturbation stays >= 2 on the disc. Disc j draws its
    annulus from stream 11_001 + j of ``_BUILD_SEED``, so eps_j depends on j
    alone and every order or grouping of reads gives the same bits. A probe
    runs the ``_annulus_laplacians`` of the ``plateau-laplacian-floor``
    certificate: ``self[j]`` probes disc j alone, ``all()`` every disc not
    yet probed, ``_EPS_DISCS`` at a time. Each disc is probed once; a
    nonfinite Laplacian raises ``RuntimeError`` at every read that needs it.
    """

    def __init__(self, a: np.ndarray, r: np.ndarray):
        self._a, self._r = a, r
        self._eps = np.full(a.size, np.nan)  # NaN until the disc is probed

    def __getitem__(self, j: int) -> float:
        if np.isnan(self._eps[j]):
            self._probe(np.array([j]))
        return self._eps[j]

    def all(self) -> np.ndarray:
        todo = np.flatnonzero(np.isnan(self._eps))
        for lo in range(0, todo.size, _EPS_DISCS):
            self._probe(todo[lo : lo + _EPS_DISCS])
        return self._eps

    def _probe(self, discs: np.ndarray) -> None:
        aj, rj = self._a[discs, None], self._r[discs, None]
        lap = _annulus_laplacians(lambda zz: _perturbation_values(aj, rj, zz), aj, rj,
                                  _BUILD_SEED, (11_001 + discs).tolist())
        if not np.all(np.isfinite(lap)):
            raise RuntimeError("nonfinite Laplacian probe in plateau construction")
        self._eps[discs] = 2.0 / np.maximum(1.0, 2.0 * np.max(np.abs(lap), axis=1))


def build_plateau(j_max: int) -> PlateauFunction:
    """The plateau function on the first ``j_max`` pole discs.

    Only the disc geometry is built here; each eps_j is probed the first
    time it is read (``_DiscEps``), so a grid of the plateau away from the
    poles probes no disc.

    log_rho_j = min(log(r_j/4), -5/eps_j) is the log of the saturated
    plateau's radius: within it the cutoff equals 1 and
    ``|z|^2 + eps_j log|z-a_j| <= 2.25^2 - 5 < 1``, so the glued value
    saturates at 1. The radius always underflows float64; only its log
    is meaningful.
    """
    _, a, r = pole_discs(j_max)
    return PlateauFunction(a, r, _DiscEps(a, r))


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

    def _contract(self, z, xi, t, taper):
        """The displayed Levi form of S at the points z (N, n) contracted with
        xi (N, n), per point, given t = |z_1|^2 and ``taper_many(t)``."""
        lam, lamp, lampp = taper
        zp2 = _norm2(z[:, 1:])
        pair = np.sum(z[:, 1:] * np.conj(xi[:, 1:]), axis=1)
        first = ((lampp * t + lamp) * zp2 + self.quad_weight) * np.abs(xi[:, 0]) ** 2
        cross = 2.0 * np.real(lamp * np.conj(z[:, 0]) * xi[:, 0] * pair)
        return first + cross + lam * _norm2(xi[:, 1:])

    def levi_matrix(self, z: np.ndarray) -> np.ndarray:
        """Analytic Levi matrices of S, (N, n) -> (N, n, n). ``hypot``,
        ``float_power`` and the real products round like the per-point
        scalar formula did, bit for bit, which the reports pin."""
        z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
        n = z.shape[1]
        x, y = z[:, 0].real, z[:, 0].imag
        t = np.float_power(np.hypot(x, y), 2.0)
        lam, lamp, lampp = kernels.taper_many(t)
        zp2 = np.sum(np.abs(z[:, 1:]) ** 2, axis=1)
        H = np.zeros((z.shape[0], n, n), dtype=np.complex128)
        H[:, 0, 0] = (lampp * t + lamp) * zp2 + self.quad_weight
        a, b = (lamp * x)[:, None], (lamp * -y)[:, None]  # lam' conj(z1)
        c, d = z[:, 1:].real, z[:, 1:].imag
        row = H[:, 0, 1:]
        row.real = a * c - b * d
        row.imag = a * d + b * c
        H[:, 1:, 0] = np.conj(row)
        k = np.arange(1, n)
        H[:, k, k] = lam[:, None]
        return H

    def sampled_epsilon(self, n: int, count: int, seed: int) -> float:
        """Min of H_S(z, xi)/(|xi_1|^2 + taper |xi'|^2), z in D x B(0,R).

        One generator, ``philox(seed, 23)``, draws the rows z whole through
        ``window_rows``, which forms their z column before it draws their w
        block. The directions xi are then drawn from the same generator one
        ``_BLOCK`` of rows at a time, and each block's quotients are formed
        and reduced to their minimum. Philox continues one stream across the
        blocks and every quotient is computed per row, so the floor is the
        same float as that of one whole-sample evaluation; the working set is
        z, the w draws and block-sized temporaries.
        """
        rng = philox(seed, 23)
        z = window_rows(rng, Window(n, 1.0, self.radius), count)
        mins = []
        for lo in range(0, count, kernels._BLOCK):
            zb = z[lo : lo + kernels._BLOCK]
            xi = rng.standard_normal((len(zb), 2 * n))
            xi /= np.linalg.norm(xi, axis=1)[:, None]
            xi = xi[:, :n] + 1j * xi[:, n:]
            # one taper evaluation for the form and the denominator
            t = np.abs(zb[:, 0]) ** 2
            taper = kernels.taper_many(t)
            denom = np.abs(xi[:, 0]) ** 2 + taper[0] * _norm2(xi[:, 1:])
            mins.append(np.min(self._contract(zb, xi, t, taper) / denom))
        return float(np.min(mins))


def _taper_constants() -> tuple[float, float, float]:
    """The form's constants (L, B, C) on C x B(0, TAPER_RADIUS), for every n:
    L from a finite-difference scan of the taper's square root on a uniform
    10^4-point grid (5% safety), B from the analytic derivatives, and the
    quadratic weight from the explicit formula C = 2(B + R^2 L) + 1."""
    t = (np.arange(10_000, dtype=np.float64) + 0.5) / 10_000
    h = 1e-6
    lam_p, _, _ = kernels.taper_many(t + h)
    lam_m, _, _ = kernels.taper_many(t - h)
    g_p = np.sqrt(lam_p)
    g_m = np.sqrt(lam_m)
    gp_fd = (g_p - g_m) / (2.0 * h)
    growth = 4.0 * float(np.max(gp_fd**2)) * 1.05
    lam, lamp, lampp = kernels.taper_many(t)
    mix = float(np.max(np.abs(lampp * t + lamp)))
    quad = 2.0 * (mix + TAPER_RADIUS * TAPER_RADIUS * growth) + 1.0
    return growth, mix, quad


def build_tapered_form(n: int) -> TaperedForm:
    """The form in C^n with the constants of ``_taper_constants``. Its floor
    sampled at 10^5 points must come out positive (for every accepted n it
    is near 1), else the build raises ``RuntimeError``."""
    form = TaperedForm(TAPER_RADIUS, *_taper_constants(), 0.0)
    eps_out = form.sampled_epsilon(n, 100_000, _BUILD_SEED)
    if not eps_out > 0.0:
        raise RuntimeError(f"tapered form: sampled Levi floor {eps_out!r} is not positive")
    return replace(form, epsilon_out=eps_out)


# ---------------------------------------------------------------------------
# the two sublevel-domain scenarios
# ---------------------------------------------------------------------------

def _split(pts):
    """(z, w, |z|^2) of a batch of points of C x C^{n-1}."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
    z = pts[:, 0]
    return z, pts[:, 1:], z.real**2 + z.imag**2


@dataclass(frozen=True)
class _Scenario:
    """Sublevel domain ``series(z) + terms(z, w) - _BOUND < 0`` in C x C^{n-1}.

    A scenario supplies its pole ``schedule``, its non-series terms
    (``_terms``, in summation order, the last two |z|^2 and |w|^2),
    ``_BOUND`` and the label of its domain region. Rejection sampling of
    the domain proposes from the window |z| < 3.2, |w| < 3.
    """

    n: int
    trunc: int
    w0: np.ndarray  # on the first w axis (``_axis_point``): ``_terms`` shifts by w0[0]

    def sigma(self, z):
        return series_values(self.schedule, z, self.trunc)

    def sigma_tail(self, z):
        """The certified bound on the series tail beyond ``trunc`` at each z."""
        return tail_error_radius(self.schedule, np.abs(z), self.trunc)

    def _sum(self, series, terms):
        for term in terms:
            series = series + term
        return series - self._BOUND

    def defining_values(self, pts):
        z, terms = self._terms(pts)
        return self._sum(self.sigma(z), terms)

    @cached_property
    def _ring_table(self) -> np.ndarray:
        """The screen's ring bounds minus ``_SCREEN_SLACK``, per |z|^2 cell.

        ``domain_region`` builds it before the first proposal batch. Built
        inside a batch, the long-lived table lands above the batch's large
        temporaries in the heap, which then cannot shrink: that raised the
        peak RSS of ``certify all --n 3`` by about 3% (glibc malloc).
        """
        return ring_bound_table(self.schedule, self.trunc) - _SCREEN_SLACK

    def screened_values(self, pts):
        """``defining_values`` where the ring bound is ``not >= 0``, and that
        bound elsewhere: the ``defining`` of ``domain_region``, with the
        ``< 0`` mask of ``defining_values`` and its bits at every member.

        The ring bound replaces the series by one lookup in a table built
        once per scenario (``logpoles.ring_bound_table``), indexed by the
        |z|^2 term that ``_terms`` already holds: the index ``floor(|z|^2 *
        2^12)`` is exact, and the 1e-12 ring guard covers the rounding of
        |z|^2, of the cell edges and of the moduli. A NaN |z|^2 falls in the
        last cell, and its NaN terms send the point to the series.

        Error budget: each entry R is below the exact series of the float
        poles a_j on its whole cell. Where R is finite, every |z - a_j|
        exceeds the ring guard less rounding, so each |log|z - a_j|| is
        below 710; with S = sum delta_j < 1/4 the computed series
        fl(sigma) and R itself err by less than
        (trunc + 3) * 2^-53 * S * 710, about 2.0e-11 at the largest
        accepted trunc, ``MAX_TRUNC`` = 1015: far inside
        ``_SCREEN_SLACK`` = 1e-9 (the thm2 coefficients are
        smaller, so its series terms are too). The other terms are the
        same arrays as in ``defining_values``, added in the same order,
        and rounding is monotone: a smaller first summand cannot give a
        larger sum, so the bound stays below ``defining_values``.
        """
        z, terms = self._terms(pts)
        out = self._sum(self._ring_table.take(ring_cells(terms[-2])), terms)
        todo = np.flatnonzero(~(out >= 0.0))
        out[todo] = self._sum(self.sigma(z[todo]), [t[todo] for t in terms])
        return out

    @cached_property
    def _radial_table(self) -> np.ndarray:
        """``_ring_table`` lowered at each cell to the least entry of the cell
        and its two neighbours, so that it bounds the series at every |z|^2
        of the cell or within a cell width of it."""
        ring = self._ring_table
        table = ring.copy()
        np.minimum(table[1:], ring[:-1], out=table[1:])
        np.minimum(table[:-1], ring[1:], out=table[:-1])
        return table

    def radial_lower(self, t, s):
        """A lower bound of ``defining_values`` from t ~ |z|^2 and s ~ |w|^2
        alone: the ``SublevelRegion.radial`` screen of ``domain_region``.

        The series is replaced by ``_radial_table`` at the cell of t, and
        |w - w0| by its lower bound ||w| - |w0||, less ``_RADIAL_GUARD``.
        Contract: at a formed proposal row p whose computed |z|^2 and |w|^2
        are within 1e-14 (relative) of t and s, ``radial_lower(t, s) <=
        defining_values(p)`` wherever neither is NaN.

        Error budget: t and s are lowered by the relative ``_RADIAL_LOWERING``
        = 1e-13, so they lie below the computed |z|^2 and |w|^2 of p and below
        the exact moduli of its float coordinates. The computed |z|^2 then
        lies in the cell of t or the next one, where the neighbour minimum
        still bounds the series (with ``_SCREEN_SLACK`` for its rounding, as
        in ``screened_values``). Lowering s raises |w0| - |w| by at most
        2e-13 where |w| < |w0| <= 4, and the formed w's modulus differs
        from r = sqrt(s) by a few ulps of 4; the guard 1e-12 covers both, so
        the w-pole term is below that of p as well. Each remaining term is
        monotone in t or s, and their logs and sums round by less than
        1e-12 (terms below 40 in modulus), inside ``_RADIAL_SLACK`` = 1e-9.
        """
        t = t * (1.0 - _RADIAL_LOWERING)
        s = s * (1.0 - _RADIAL_LOWERING)
        # max(||w| - |w0|| - guard, 0), in place
        gap = np.sqrt(s)
        gap -= self.w0[0].real
        np.abs(gap, out=gap)
        gap -= _RADIAL_GUARD
        np.maximum(gap, 0.0, out=gap)
        with np.errstate(divide="ignore"):
            bound = self._radial_terms(t, gap)
        bound += self._radial_table.take(ring_cells(t))
        bound += t
        bound += s
        bound -= self._BOUND + _RADIAL_SLACK
        return bound

    def bulk_window(self) -> Window:
        return Window(self.n, 3.2, 3.0)

    def domain_region(self) -> SublevelRegion:
        self._radial_table  # noqa: B018 (built now, before any proposal)
        return SublevelRegion(self.screened_values, self.bulk_window(),
                              label=self._LABEL, radial=self.radial_lower)


@dataclass(frozen=True)
class Thm1Scenario(_Scenario):
    """Sublevel domain of ``series + log|z| + (1/2)log|w-w0| + |z|^2 + |w|^2 < 4``.

    The witness is ``max(smooth_witness, -2)`` where the smooth witness
    replaces |w|^2 by |w|^2/2; the strictness window is the product of
    the annulus 1/2 < |z| < 1 with the unit ball.
    """

    schedule: PoleSchedule

    _BOUND = 4.0
    _LABEL = "Omega1"

    def _terms(self, pts):
        z, w, nz2 = _split(pts)
        with np.errstate(divide="ignore"):
            half_log_z = 0.5 * np.log(nz2)
            quarter_log_w = 0.25 * np.log(_norm2(w, self.w0[0].real))
        return z, (half_log_z, quarter_log_w, nz2, _norm2(w))

    def _radial_terms(self, t, gap):
        """log|z| + (1/2) log||w| - |w0||, as one log of the product."""
        return 0.5 * np.log(t * gap)

    def witness_smooth_values(self, pts):
        z, (hlz, qlw, nz2, nw2) = self._terms(pts)
        return self.sigma(z) + hlz + qlw + nz2 + 0.5 * nw2

    def witness_values(self, pts):
        return np.maximum(self.witness_smooth_values(pts), -2.0)

    def strict_window(self) -> Window:
        return Window(self.n, 1.0, 1.0, z_inner=0.5)


def build_thm1(cfg: CertifyConfig) -> Thm1Scenario:
    schedule = make_schedule("thm1", cfg.j_max)
    return Thm1Scenario(cfg.n, cfg.trunc, _axis_point(_W0_THM1, cfg.n - 1), schedule)


@dataclass(frozen=True)
class Thm2Scenario(_Scenario):
    """Sublevel domain of ``series + log10|w-w0| + |z|^2 + |w|^2 < 3``.

    The w-pole term uses the decimal log: with the natural log the
    closed unit polydisk would stick out of the domain (log 5 > 3/4),
    while every membership chain below needs log|w - w0| <= log 5 < 3/4
    on the unit ball. The witness glues the plateau function (for
    |w| < 5/2) with the constant 1, plus small_c = 1/C (the tapered form's
    ``small_c``) times the tapered |w|^2 bump. It never reads the form's
    sampled floor or the schedule, which is built on first use, so a
    witness grid away from the poles probes no plateau disc.
    """

    plateau: PlateauFunction
    small_c: float

    @property
    def schedule(self) -> PoleSchedule:
        return self.plateau.thm2_schedule

    _BOUND = 3.0
    _LABEL = "Omega2"

    def _terms(self, pts):
        z, w, nz2 = _split(pts)
        with np.errstate(divide="ignore"):
            log10_w = 0.5 * np.log10(_norm2(w, self.w0[0].real))
        return z, (log10_w, nz2, _norm2(w))

    def _radial_terms(self, t, gap):
        """log10(|w0| - |w|), with ||w| - |w0|| for |w0| - |w| (the same
        inside the window |w| < 3)."""
        return np.log10(gap)

    def witness_values(self, pts):
        """The plateau function (|w| < 5/2) or 1 (|w| >= 5/2), plus small_c
        times the bump taper(|z|^2)|w|^2 (|w| < 5/2) or 0. The taper is
        evaluated, with u, once per run of equal z (grouped FD stencils), same
        bits."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
        z, w = pts[:, 0], pts[:, 1:]
        u, lam = kernels.per_distinct_z(lambda zs: np.stack((
            self.plateau.values(zs),
            kernels.taper_many(zs.real**2 + zs.imag**2)[0])), z)
        nw2 = _norm2(w)
        inner = nw2 < _THETA_CUT**2
        return np.where(inner, u, 1.0) + self.small_c * np.where(inner, lam * nw2, 0.0)

    def strict_window_resolvable(self) -> Window:
        """Strictness window minus the collar where the taper underflows.

        Within ``FLAT_MARGIN`` of |z| = 1 the taper is below the float64
        subnormal range, so no arithmetic can distinguish the witness's
        Levi floor from zero there; the window keeps |z| <= 1 - margin.
        """
        return Window(self.n, 1.0 - FLAT_MARGIN, 1.0)

    def slab_region(self) -> SublevelRegion:
        """The domain in the bulk window, for the boundedness surrogate."""
        return replace(self.domain_region(), label="Omega2-slab")

    def zdisk_region(self) -> SublevelRegion:
        """Members with |z| < 1 and |w| < 3 (draws from the open unit z-disk)."""
        return replace(self.domain_region(), window=Window(self.n, 1.0, 3.0),
                       label="Omega2-zdisk")

    def witness_min_eigs_on_window(self, pts) -> np.ndarray:
        """Exact Levi floor of the witness on the strictness window.

        There the witness is ``|z|^2 + small_c * taper(|z|^2) |w|^2``
        (the plateau function reduces to |z|^2 and the bump is active),
        which is small_c times the tapered form. Its Levi matrix has an
        arrow structure whose minimal eigenvalue lives in the plane
        spanned by the z-axis and the w-direction; the 2x2 closed form
        there stays accurate down to subnormal taper values.
        """
        z, w, t = _split(pts)
        lam, lamp, lampp = kernels.taper_many(t)
        c = self.small_c
        nw2 = _norm2(w)
        a11 = 1.0 + c * (lampp * t + lamp) * nw2
        off = c * np.abs(lamp) * np.abs(z) * np.sqrt(nw2)
        a22 = c * lam
        return kernels.min_eig_2x2_many(a11, a22, off)


def build_thm2(cfg: CertifyConfig, plateau: PlateauFunction) -> Thm2Scenario:
    return Thm2Scenario(cfg.n, cfg.trunc, _axis_point(_W0_THM2, cfg.n - 1), plateau,
                        1.0 / _taper_constants()[2])  # TaperedForm.small_c's bits


# ---------------------------------------------------------------------------
# warm-up example: log|w| + |z|^2 + |w|^2 < C_LEVEL
# ---------------------------------------------------------------------------

def example_defining(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=np.complex128))
    nw2 = _norm2(pts[:, 1:])
    nz2 = pts[:, 0].real ** 2 + pts[:, 0].imag ** 2
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(nw2) + nz2 + nw2 - C_LEVEL


def example1_check(cfg: CertifyConfig) -> list[Certificate]:
    """Certify the warm-up witness is strictly psh off the w-pole.

    The quadratic part contributes the identity to the Levi form and the
    log term is positive semidefinite with the radial direction in its
    kernel, so the sampled floor must come out at 1 (within FD error).
    Samples keep |w| >= EXAMPLE1_EXCLUSION: closer to the pole the
    h^2-error of the stencil on the log term exceeds the floor tolerance.
    """
    window = Window(cfg.n, 2.2, 1.3)
    region = SublevelRegion(example_defining, window, label="example1-domain")

    def too_close(pts):
        return _norm2(np.atleast_2d(pts)[:, 1:]) < EXAMPLE1_EXCLUSION * EXAMPLE1_EXCLUSION

    cert_floor = certify_psh(
        example_defining,
        region,
        Sampler(cfg.seed, cfg.samples, stream=900),
        cfg.fd_step,
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


def _pole_line_z(rng, sc: Thm1Scenario, count: int) -> np.ndarray:
    """z on the origin line or on one of the first ``sc.trunc`` pole lines,
    uniform over the trunc + 1 lines."""
    idx = rng.integers(0, sc.trunc + 1, count)
    return np.where(idx == 0, 0j, sc.schedule.a[np.maximum(idx - 1, 0)])


def thm1_decay_members(sc: Thm1Scenario, count: int, seed: int,
                       stream: int) -> np.ndarray:
    """Members of the domain with |w| > 4, mixing exact pole-line points
    with log-uniform offsets from the z = 0 line (the only float-scale
    routes into the far-|w| part of the domain)."""
    rng = philox(seed, stream)
    half = count // 2
    w = _sample_shell(rng, count, sc.n - 1, 4.0 + 1e-6, 6.0)
    z_line = _pole_line_z(rng, sc, half)
    s = rng.uniform(-60.0, -34.0, count - half)
    z_off = np.exp(s) * np.exp(2j * np.pi * rng.random(count - half))
    return _member_filter(sc.defining_values,
                          product_points(np.concatenate([z_line, z_off]), w))


def _member_mixture(sc: _Scenario, count: int, seed: int, stream: int,
                    z_radius: float, tube_radii) -> np.ndarray:
    """Domain members: bulk rejection samples plus samples of the thin tube
    around the w0 line (|z| < z_radius, distance ``tube_radii(rng,
    m)`` from w0), capped at ``count``."""
    n_tube = count // 20
    bulk = sample(sc.domain_region(), Sampler(seed, count - n_tube, stream=stream))
    rng = philox(seed, stream + 1)
    z = _sample_disk(rng, 2 * n_tube) * z_radius
    rho = tube_radii(rng, 2 * n_tube)
    w = sc.w0[None, :] + _unit_directions(rng, 2 * n_tube, sc.n - 1) * rho[:, None]
    tube = _member_filter(sc.defining_values, product_points(z, w))[:n_tube]
    return np.concatenate([bulk, tube], axis=0)


def thm1_member_mixture(sc: Thm1Scenario, count: int, seed: int,
                        stream: int) -> np.ndarray:
    """Members of the first domain; tube radii log-uniform in [e^-60, e^-16]."""
    return _member_mixture(sc, count, seed, stream, 2.5,
                           lambda rng, m: np.exp(rng.uniform(-60.0, -16.0, m)))


def thm2_member_mixture(sc: Thm2Scenario, count: int, seed: int,
                        stream: int) -> np.ndarray:
    """Members of the second domain; the tube radii, log-uniform in
    [1e-25, 1e-16], exercise the |w| >= 5/2 witness branch."""
    return _member_mixture(sc, count, seed, stream, 1.5,
                           lambda rng, m: 10.0 ** rng.uniform(-25.0, -16.0, m))


def closed_polydisk_samples(n: int, count: int, seed: int, stream: int) -> np.ndarray:
    """Samples of the closed product D-bar x B-bar including boundary faces."""
    rng = philox(seed, stream)
    k = n - 1
    m = min(max(count // 16, 8), 256)
    inner = window_rows(rng, Window(n, 1.0, 1.0), count - 2 * m)
    z_bd = np.exp(2j * np.pi * rng.random(m))
    w_for_zbd = _sample_ball(rng, m, k, 1.0)
    z_for_wbd = _sample_disk(rng, m)
    w_bd = _unit_directions(rng, m, k)
    faces = product_points(np.concatenate([z_bd, z_for_wbd]),
                           np.concatenate([w_for_zbd, w_bd]))
    return np.concatenate([inner, faces])


def closed_disk_samples(count: int, seed: int, stream: int) -> np.ndarray:
    rng = philox(seed, stream)
    m = min(max(count // 16, 8), 256)
    inner = _sample_disk(rng, count - m)
    return np.concatenate([inner, np.exp(2j * np.pi * rng.random(m))])


# ---------------------------------------------------------------------------
# property certificate bundles
# ---------------------------------------------------------------------------

def _submean_pairs(schedule: PoleSchedule, count: int, seed: int, stream: int):
    """(z, radius) probes avoiding every constructed pole by 2 * radius."""
    rng = philox(seed, stream)
    zs = np.empty(0, dtype=np.complex128)
    rs = np.empty(0)
    while zs.size < count:
        z = _sample_disk(rng, 4 * count) * 2.5
        r = rng.uniform(1e-3, 0.1, 4 * count)
        dmin = pole_rows(z, schedule.a, lambda d: np.min(d, axis=1))
        keep = dmin >= 2.0 * r
        zs = np.concatenate([zs, z[keep]])
        rs = np.concatenate([rs, r[keep]])
    return zs[:count], rs[:count]


def _connectivity(name: str, sc: _Scenario, paths) -> Certificate:
    """Margin +1 per (start, end, waypoints) polyline whose 512 samples all
    lie in the domain, -1 per other path."""
    margins = [
        1.0 if path_connected_probe(sc.defining_values, p, q, waypoints=wp) else -1.0
        for p, q, wp in paths
    ]
    return make_certificate(name, np.asarray(margins), 0.0)


def thm1_properties(sc: Thm1Scenario, cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed

    # series bound |sigma| + tail < 1 on the closed unit disk
    zd = closed_disk_samples(cfg.samples, seed, 100)
    certs.append(make_certificate(
        "thm1-series-bound-disk", 1.0 - (np.abs(sc.sigma(zd)) + sc.sigma_tail(zd)), 0.0, zd))

    # sub-mean-value margins of the truncated series
    zs, rs = _submean_pairs(sc.schedule, SUBMEAN_PROBES, seed, 101)
    margins = circle_mean_test(sc.sigma, zs, rs)
    certs.append(make_certificate("thm1-series-submean", margins, 1e-9, zs))

    # pole lines and the origin line stay inside the domain
    rng = philox(seed, 102)
    z_line = _pole_line_z(rng, sc, cfg.samples)
    pts = product_points(z_line, _sample_ball(rng, cfg.samples, sc.n - 1, 10.0))
    certs.append(
        make_certificate("thm1-line-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # the w0 line stays inside the domain
    pts = product_points(_sample_disk(rng, cfg.samples) * 10.0, sc.w0)
    certs.append(
        make_certificate("thm1-w0-line-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # closed polydisk inside the domain (with certified series tail)
    pts = closed_polydisk_samples(sc.n, cfg.samples, seed, 103)
    d = sc.defining_values(pts) + sc.sigma_tail(pts[:, 0])
    certs.append(make_certificate("thm1-closure-membership", -d, 0.0, pts))

    # strict plurisubharmonicity of the smooth witness on the window
    certs.append(
        certify_psh(
            sc.witness_smooth_values,
            sc.strict_window(),
            Sampler(seed, cfg.samples, stream=104),
            cfg.fd_step,
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
    certs.append(_connectivity("thm1-connectivity", sc, [
        (base, np.asarray([0.75] + [0.0] * (sc.n - 1), dtype=np.complex128), None),
        (base, np.asarray([0.9, 0.8] + [0.0] * (sc.n - 2), dtype=np.complex128), None),
        (base, np.concatenate([[1.5], sc.w0]), [np.concatenate([[0.0], sc.w0])]),
    ]))
    return certs


def plateau_properties(plateau: PlateauFunction,
                       cfg: CertifyConfig) -> list[Certificate]:
    certs = []
    seed = cfg.seed
    jc = min(PLATEAU_CHECKS, plateau.j_max)

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

    # the glued branch of each checked disc, evaluated on one row per disc
    a, r, eps = plateau.a[:jc, None], plateau.r[:jc, None], plateau.eps[:jc, None]

    def branch(zz, rows=slice(None)):
        pert = _perturbation_values(a[rows], r[rows], zz)
        return zz.real**2 + zz.imag**2 + eps[rows] * pert

    # branch continuity across every disc boundary
    bd = a + r * np.exp(2j * np.pi * np.arange(1000) / 1000.0)
    m2 = bd.real**2 + bd.imag**2
    worst = np.max(np.abs(np.maximum(branch(bd), 1.0) - m2), axis=1)
    certs.append(
        make_certificate("plateau-branch-continuity", 1e-12 - worst, 0.0,
                         plateau.a[:jc])
    )

    # sampled Laplacian floor of the glued branch inside each disc, _EPS_DISCS
    # discs at a time so the five stacked stencils stay block-sized; disc j
    # keeps stream 301_000 + j and each floor is the min of its own row, so
    # the chunks keep every bit
    streams = np.arange(301_000, 301_000 + jc)
    floor = np.empty(jc)
    for lo in range(0, jc, _EPS_DISCS):
        rows = slice(lo, lo + _EPS_DISCS)
        lap = _annulus_laplacians(lambda zz: branch(zz, rows), a[rows], r[rows], seed,
                                  streams[rows].tolist())
        floor[rows] = np.min(lap, axis=1)
    certs.append(
        make_certificate("plateau-laplacian-floor", floor - 2.0, 0.0, plateau.a[:jc])
    )

    # 1 <= u <= |z|^2 outside the unit disk
    z = _sample_annulus(philox(seed, 302), cfg.samples, 1.0, 3.0)
    u = plateau.values(z)
    m2 = z.real**2 + z.imag**2
    certs.append(
        make_certificate(
            "plateau-squeeze-outside",
            np.minimum(u - 1.0, m2 - u), 0.0, z,
        )
    )

    # sub-mean-value property
    rng = philox(seed, 303)
    z0 = _sample_disk(rng, SUBMEAN_PROBES) * 3.0
    rad = rng.uniform(1e-4, 0.05, SUBMEAN_PROBES)
    margins = circle_mean_test(plateau.values, z0, rad)
    certs.append(make_certificate("plateau-submean", margins, 1e-6, z0))

    # disjointness of the glue discs, pairwise and from the unit disk
    pairwise, unit = disc_separation_margins(plateau.a, plateau.r)
    certs.append(
        make_certificate("plateau-disc-separation",
                         np.concatenate([pairwise, unit]), 0.0)
    )
    return certs


def _frobenius(H: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex (N, n, n) batch, with no
    BLAS call; einsum sums contiguous rows (strided ones in another order)."""
    re = np.ascontiguousarray(H.real).reshape(H.shape[0], -1)
    im = np.ascontiguousarray(H.imag).reshape(H.shape[0], -1)
    return np.sqrt(np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im))


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
    rng = philox(seed, 400)
    tt = rng.uniform(0.0, 1.0, cfg.samples)
    x1 = rng.uniform(0.0, 1.0, cfg.samples)
    xp = rng.uniform(0.0, 1.0, cfg.samples)
    lam, lamp, _ = kernels.taper_many(tt)
    R = form.radius
    L = form.growth_const
    expr = 0.5 * R * R * L * x1**2 - R * np.abs(lamp) * x1 * xp + 0.5 * lam * xp**2
    certs.append(make_certificate("taper-completion", expr, 1e-10))

    # analytic Levi matrix vs finite differences, matrix-norm relative
    rng = philox(seed, 401)
    count = SUBMEAN_PROBES
    z1 = _sample_disk(rng, 4 * count)
    margin10h = 10 * cfg.fd_step
    keep = (np.abs(np.abs(z1) - np.sqrt(0.5)) > margin10h) & (
        np.abs(z1) < 1.0 - margin10h
    )
    z1 = z1[keep][:count]
    pts = product_points(z1, _sample_ball(rng, z1.size, n - 1, form.radius))

    def s_values(Z):
        Z = np.atleast_2d(Z)
        lamv = kernels.taper_many(Z[:, 0].real ** 2 + Z[:, 0].imag ** 2)[0]
        return lamv * _norm2(Z[:, 1:]) + form.quad_weight * (
            Z[:, 0].real ** 2 + Z[:, 0].imag ** 2
        )

    H_fd, ok = wirtinger_hessian_batch(s_values, pts, cfg.fd_step)
    H_an = form.levi_matrix(pts)
    rel = _frobenius(H_fd - H_an) / _frobenius(H_an)
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
    pts = window_rows(philox(seed, 402), Window(n, 0.5, form.radius), 200)
    D = np.diag([form.quad_weight] + [1.0] * (n - 1)).astype(np.complex128)
    worst = float(np.max(np.abs(form.levi_matrix(pts) - D)))
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
    certs.append(make_certificate(
        "thm2-series-bound-disk", 0.25 - (sc.sigma(zd) + sc.sigma_tail(zd)), 0.0, zd))

    # certified lower bound >= -1 off the plateau discs
    rng = philox(seed, 201)
    z = _sample_disk(rng, SUBMEAN_PROBES) * 3.0
    near = sc.schedule.a[:10] + 1e-12 * np.exp(2j * np.pi * rng.random(10))
    z = np.concatenate([z, near])
    z = z[sc.schedule.outside_all_discs(z)]
    lows = series_lower_bounds_off_discs(sc.schedule, z)
    certs.append(make_certificate("thm2-series-lower-bound", lows + 1.0, 0.0, z))

    # boundedness surrogate: members with |w| <= 3 have |z| <= 3
    pts = sample(sc.slab_region(), Sampler(seed, cfg.samples, stream=202))
    certs.append(
        make_certificate("thm2-bounded-slab", 3.0 - np.abs(pts[:, 0]), 0.0, pts)
    )

    # closed polydisk inside the domain (with certified series tail)
    pts = closed_polydisk_samples(sc.n, cfg.samples, seed, 203)
    d = sc.defining_values(pts) + sc.sigma_tail(pts[:, 0])
    certs.append(make_certificate("thm2-closure-membership", -d, 0.0, pts))

    # the 2 <= |w| <= 3 band meets the domain only over the plateau discs
    rng = philox(seed, 204)
    half = cfg.samples // 2
    idx = rng.integers(0, sc.schedule.j_max, half)
    w_line = _sample_shell(rng, half, k, 2.0, 3.0)
    z_rand = _sample_disk(rng, cfg.samples - half) * 3.2
    w_rand = _sample_shell(rng, cfg.samples - half, k, 2.0, 3.0)
    pts = product_points(np.concatenate([sc.schedule.a[idx], z_rand]),
                         np.concatenate([w_line, w_rand]))
    member = sc.defining_values(pts) < 0.0
    margins = np.where(member, sc.schedule.disc_margins(pts[:, 0]), np.inf)
    certs.append(make_certificate("thm2-band-in-plateau-discs", margins, 0.0, pts))

    # the union of lines E lies inside the domain; the truncated series
    # has poles only at the first sc.trunc schedule points
    rng = philox(seed, 205)
    half = cfg.samples // 2
    idx = rng.integers(0, sc.trunc, half)
    e1 = product_points(sc.schedule.a[idx], _sample_ball(rng, half, k, 6.0))
    e2 = product_points(_sample_disk(rng, cfg.samples - half) * 6.0, sc.w0)
    pts = np.concatenate([e1, e2])
    certs.append(
        make_certificate("thm2-lines-membership", -sc.defining_values(pts), 0.0, pts)
    )

    # witness branch agreement on domain members near |w| = 5/2
    rng = philox(seed, 206)
    idx = rng.integers(0, sc.schedule.j_max, cfg.samples)
    pts = product_points(sc.schedule.a[idx], _sample_shell(rng, cfg.samples, k, 2.4, 2.6))
    u = sc.plateau.values(pts[:, 0])
    certs.append(
        make_certificate("thm2-branch-agreement", -np.abs(u - 1.0), 1e-12, pts)
    )

    # no members with z in the open unit disk near the |w| = 5/2 sphere
    pts = sample(sc.zdisk_region(), Sampler(seed, cfg.samples, stream=207))
    gap = np.abs(np.sqrt(_norm2(pts[:, 1:])) - _THETA_CUT) - BAND_MARGIN
    certs.append(make_certificate("thm2-bump-interface-clear", gap, 0.0, pts))

    # witness positivity on the strictness window: FD check within the
    # discretization tolerance plus the exact strict floor
    window = sc.strict_window_resolvable()
    certs.append(
        certify_psh(
            sc.witness_values,
            window,
            Sampler(seed, cfg.samples, stream=208),
            cfg.fd_step,
            tolerance=PSD_TOL,
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
    bound = 9.0 + sc.small_c * _THETA_CUT**2
    certs.append(make_certificate("thm2-witness-nonnegative", phi, 0.0, pts))
    certs.append(make_certificate("thm2-witness-sup", bound - phi, 0.0, pts))

    # global plausibility: FD Levi form psd over the domain, away from
    # poles and the switching sphere
    pts = thm2_member_mixture(sc, cfg.samples, seed, 211)
    dmin = pole_rows(pts[:, 0], sc.schedule.a, lambda d: np.min(d, axis=1))
    wmod = np.sqrt(_norm2(pts[:, 1:]))
    keep = (dmin >= POLE_MARGIN) & (np.abs(wmod - _THETA_CUT) >= BAND_MARGIN)
    pts = pts[keep]
    margins = levi_floors(sc.witness_values, pts, cfg.fd_step)
    certs.append(make_certificate("thm2-global-psd-fd", margins, PSD_TOL, pts))

    # schedule inequality
    certs.append(
        make_certificate(
            "thm2-coefficient-sum",
            np.asarray([schedule_condition_margin(sc.schedule)]), 0.0,
        )
    )

    # sampled path connectivity: bulk paths from (0, 0), line path along w0
    base = np.zeros(sc.n, dtype=np.complex128)
    certs.append(_connectivity("thm2-connectivity", sc, [
        (base, np.asarray([0.7, 0.5] + [0.0] * (sc.n - 2), dtype=np.complex128), None),
        (base, np.asarray([0.95, 0.9] + [0.0] * (sc.n - 2), dtype=np.complex128), None),
        (np.concatenate([[0.0], sc.w0]), np.concatenate([[2.5], sc.w0]), None),
    ]))
    return certs
