"""Pole/coefficient schedules and the truncated log-pole series.

The series is ``sum_j delta_j * log|z - a_j|`` with poles
``a_j = (1 + 1/j) e^{i theta_j}`` on the golden angle sequence. The two
coefficient schedules are explicit closed forms with geometric tails:

* ``thm1``:  delta_j = 2^(-j-1) / log(3j+3), which forces
  ``sum_j delta_j * log(3j) <= 1/2`` and hence |series| < 1 on the
  closed unit disk.
* ``thm2``:  delta_j = 2^(-j-4) / max(log(3j+3), |log rho_j|), which
  forces the series below 1/4 on the closed unit disk and above -1/8
  off the plateau discs D(a_j, rho_j).

The plateau radii rho_j are far below the double-precision underflow
threshold (their logs are of order -1e4 .. -1e11), so the schedule
stores ``log_rho`` and every disc membership test compares
``log|z - a_j|`` against it; rho_j itself is never materialized.

``series_values`` sums the first J = trunc poles only; the tail beyond J
is certified apart by ``tail_error_radius``: for |z| <= 1 or |z| >= 1 + 2/J
it is bounded termwise by ``delta_j * max(log j, log(|z|+3))`` and summed
via the geometric majorant; inside the thin annulus ``1 < |z| < 1 + 2/J``
tail poles can come arbitrarily close to z and the error radius is +inf.
The terms past pole 64 that ``kernels.sigma_many`` skips are inside trunc,
and each is proved to round away in float64, so the value keeps every bit.

A cheap certified lower bound screens points before the series runs.
By the reverse triangle inequality |z - a_j| >= ||z| - |a_j||, and
every delta_j is positive, so the truncated series is at least
``S * log(min(1, gap(|z|)))`` with ``S = sum_{j <= trunc} delta_j`` and
``gap`` the distance from |z| to the nearest pole modulus (the "ring
bound"). ``ring_bound_table`` tabulates it once per schedule over cells
of |z|^2: cell c is [c, c + 1) * 2^-12 for c < 2^16 - 1, and the last
cell takes every |z|^2 >= 16 - 2^-12. Each entry uses the distance from
the cell's whole |z| interval [sqrt(c 2^-12), sqrt((c + 1) 2^-12)] to
the nearest float modulus |a_j| (0 when a modulus lies inside), so it
bounds the series at every z of the cell. ``ring_cells`` maps a computed
|z|^2 to its cell with one table lookup per point: 2^12 is a power of
two, so ``floor(|z|^2 * 2^12)`` is exact and the index needs no
widening. The only rounding left is that of the computed |z|^2, of the
cell-edge square roots and of the moduli, a few ulps of 4, and the
1e-12 guard subtracted from every gap covers it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .geometry import golden_angles

VARIANTS = ("thm1", "thm2")

#: geometric tail exponent per variant: tail beyond J is <= 2^(-J-_TAIL_EXP)
_TAIL_EXP = {"thm1": 1, "thm2": 4}


@dataclass(frozen=True)
class PoleSchedule:
    """Immutable pole/coefficient schedule for one series variant."""

    variant: str
    j_max: int
    theta: np.ndarray
    a: np.ndarray
    delta: np.ndarray
    r: np.ndarray
    log_rho: Optional[np.ndarray] = None

    @property
    def tail_exp(self) -> int:
        return _TAIL_EXP[self.variant]

    def tail_bound(self, trunc: int) -> float:
        """Geometric bound on ``sum_{j > trunc} 2^(-j-tail_exp)``."""
        return 2.0 ** (-(trunc + self.tail_exp))

    def disc_margins(self, z: np.ndarray) -> np.ndarray:
        """``max_j (log rho_j - log|z - a_j|)`` at each z: positive exactly when
        z lies inside a plateau disc D(a_j, rho_j), +inf on a pole hit, NaN at
        a NaN z. At double precision only pole hits themselves are inside.
        """
        if self.log_rho is None:
            raise ValueError("plateau discs exist only for the thm2 variant")
        z = np.asarray(z, dtype=np.complex128).ravel()
        with np.errstate(divide="ignore"):
            return pole_rows(z, self.a, lambda d: np.max(self.log_rho - np.log(d), axis=1))

    def outside_all_discs(self, z: np.ndarray) -> np.ndarray:
        return ~(self.disc_margins(z) > 0.0)


def pole_rows(z, a, reduce):
    """``reduce(|z[:, None] - a[None, :]|)`` for z (N,) and poles a (J,), over
    row blocks of about ``16 * _BLOCK`` distances (4 MiB of complex
    differences) whatever J is. ``reduce`` must map each row on its own (a row
    min, max or sum), so the result is that of the whole (N, J) array, bit for
    bit."""
    out = np.empty(z.shape[0])
    rows = max(1, 16 * kernels._BLOCK // a.size)
    for lo in range(0, z.shape[0], rows):
        out[lo : lo + rows] = reduce(np.abs(z[lo : lo + rows, None] - a[None, :]))
    return out


def pole_discs(j_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta_j, a_j, r_j) for j = 1..j_max: the golden angles, the poles
    a_j = (1 + 1/j) e^{i theta_j} and the plateau-disc radii 1/(4j(j+1)).

    The thm2 schedule and the plateau function both take their discs from
    here, so ``plateau-disc-separation`` sees one set of poles.
    """
    j = np.arange(1, j_max + 1, dtype=np.float64)
    theta = golden_angles(j_max)
    a = (1.0 + 1.0 / j) * np.exp(1j * theta)
    return theta, a, 1.0 / (4.0 * j * (j + 1.0))


def make_schedule(
    variant: str, j_max: int, log_rho: Optional[np.ndarray] = None
) -> PoleSchedule:
    """Build a schedule; the thm2 variant needs the plateau-disc logs.

    ``log_rho`` comes from the plateau construction (cutoff certificates
    fix eps_j first, then log rho_j = min(log(r_j/4), -5/eps_j)).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    j = np.arange(1, j_max + 1, dtype=np.float64)
    theta, a, r = pole_discs(j_max)
    if variant == "thm1":
        if log_rho is not None:
            raise ValueError("thm1 takes no plateau-disc input")
        delta = 2.0 ** (-(j + 1)) / np.log(3.0 * j + 3.0)
        return PoleSchedule(variant, j_max, theta, a, delta, r)
    if log_rho is None:
        raise ValueError("thm2 requires the plateau-disc log-radii")
    log_rho = np.asarray(log_rho, dtype=np.float64)
    if log_rho.shape != (j_max,):
        raise ValueError(f"log_rho must have shape ({j_max},)")
    if not np.all(np.isfinite(log_rho)) or np.any(log_rho >= 0.0):
        raise ValueError("log_rho entries must be finite and negative")
    delta = 2.0 ** (-(j + 4)) / np.maximum(np.log(3.0 * j + 3.0), np.abs(log_rho))
    return PoleSchedule(variant, j_max, theta, a, delta, r, log_rho=log_rho)


# ---------------------------------------------------------------------------
# series evaluation with certified tails
# ---------------------------------------------------------------------------

def _checked_trunc(schedule: PoleSchedule, trunc: int) -> int:
    if not 1 <= trunc <= schedule.j_max:
        raise ValueError(f"trunc must be in [1, {schedule.j_max}], got {trunc}")
    return trunc


def series_values(schedule: PoleSchedule, z, trunc: int):
    """The series over the first ``trunc`` poles at each point, float64: -inf
    exactly when z hits one of them. ``tail_error_radius`` bounds the rest.

    A run of adjacent z with equal bits (grouped FD stencils) is evaluated
    once (``kernels.per_distinct_z``), which equals a per-point evaluation.
    """
    trunc = _checked_trunc(schedule, trunc)
    a, delta = schedule.a[:trunc], schedule.delta[:trunc]
    return kernels.per_distinct_z(lambda zs: kernels.sigma_many(zs, a, delta), z)


#: subtracted from every ring gap before its log; it dominates the rounding
#: of the computed |z|^2, of the cell edges and of |a_j|, a few ulps of 4
_RING_GUARD = 1e-12

#: cells per unit of |z|^2 in the ring-bound table; a power of two, so the
#: cell index ``floor(|z|^2 * _RING_SCALE)`` is exact
_RING_SCALE = 2.0**12

#: cells of the ring-bound table: |z|^2 in [0, 16), the last cell open above
_RING_CELLS = 2**16


def ring_bound_table(schedule: PoleSchedule, trunc: int) -> np.ndarray:
    """Lower bounds ``S * log(min(1, gap_c - 1e-12))`` of the truncated series, per cell.

    ``S`` is the sum of the first ``trunc`` coefficients and ``gap_c`` the
    distance from the |z| interval of cell c (see ``ring_cells``) to the
    nearest of the moduli |a_1|, ..., |a_trunc|, or at most 0 when one lies
    inside it. Every term obeys ``delta_j log|z - a_j| >= delta_j
    log(min(1, gap_c))`` for the float poles a_j and every z of the cell,
    so entry c is below the exact series of those poles there; it is -inf
    for a cell on (or within the guard of) a pole circle.
    """
    trunc = _checked_trunc(schedule, trunc)
    moduli = np.sort(np.abs(schedule.a[:trunc]))
    edges = np.sqrt(np.arange(_RING_CELLS + 1) / _RING_SCALE)
    lo, hi = edges[:-1], edges[1:]
    hi[-1] = np.inf
    padded = np.concatenate(([-np.inf], moduli, [np.inf]))
    i = np.searchsorted(moduli, lo)  # moduli[i - 1] < lo <= moduli[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a modulus inside [lo, hi] makes the second distance <= 0; fmin
        # skips the NaN of inf - inf in the last cell
        gap = np.fmin(lo - padded[i], padded[i + 1] - hi) - _RING_GUARD
        return np.sum(schedule.delta[:trunc]) * np.log(np.clip(gap, 0.0, 1.0))


def ring_cells(nz2: np.ndarray) -> np.ndarray:
    """Index into ``ring_bound_table`` of each computed |z|^2.

    Cell c holds |z|^2 in [c, c + 1) * 2^-12, and the last cell holds
    every larger |z|^2, inf and NaN (``fmin`` drops the NaN; a NaN |z|^2
    makes the caller's own terms NaN).
    """
    idx = np.multiply(nz2, _RING_SCALE)
    np.fmin(idx, _RING_CELLS - 1, out=idx)
    return idx.astype(np.intp)


def tail_error_radius(schedule: PoleSchedule, absz, trunc: int) -> np.ndarray:
    """Certified bound on the dropped tail ``sum_{j > trunc}``.

    Termwise ``delta_j |log|z-a_j|| <= 2^(-j-tail_exp) *
    max(1, log(|z|+3)/log(3*trunc+6))`` whenever the distance from z to
    every tail pole is at least 1/(2j) resp. 1/trunc; that holds for
    |z| <= 1 + 1e-9 (the edge allowance keeps 1/j - 1e-9 >= 1/(2j) for
    every index that matters, and log(2j) <= log(3j+3) preserves the
    geometric majorant) and for |z| >= 1 + 2/trunc. In the remaining
    annulus the radius is +inf: tail poles may be arbitrarily close.
    """
    absz = np.asarray(absz, dtype=np.float64)
    base = schedule.tail_bound(trunc)
    factor = np.maximum(1.0, np.log(absz + 3.0) / np.log(3.0 * trunc + 6.0))
    err = base * factor
    hole = (absz > 1.0 + 1e-9) & (absz < 1.0 + 2.0 / trunc)
    return np.where(hole, np.inf, err)


def series_lower_bounds_off_discs(schedule: PoleSchedule, z) -> np.ndarray:
    """Certified lower bounds for the full series off the plateau discs.

    Preconditions: thm2 schedule; every z outside all D(a_j, rho_j)
    (checked in log space). For the constructed poles the actual
    distances are used, floored at log rho_j; the dropped tail is
    bounded below by -2^(-J-4) because the schedule caps each term's
    plateau-log contribution at 2^(-j-4).
    """
    if schedule.variant != "thm2":
        raise ValueError("lower bound is defined for the thm2 variant")
    z = np.asarray(z, dtype=np.complex128).ravel()
    inside = np.flatnonzero(schedule.disc_margins(z) > 0.0)
    if inside.size:
        raise ValueError(f"point {z[inside[0]]} lies inside a plateau disc")
    with np.errstate(divide="ignore"):
        bound = pole_rows(z, schedule.a, lambda d: np.sum(
            schedule.delta * np.maximum(np.log(d), schedule.log_rho), axis=1))
    return bound - schedule.tail_bound(schedule.j_max)


# ---------------------------------------------------------------------------
# schedule geometry certificates (used by suites and tests)
# ---------------------------------------------------------------------------

def disc_separation_margins(a: np.ndarray, r: np.ndarray):
    """Margins of pairwise disc disjointness and disjointness from D-bar.

    For the discs D(a_j, r_j) returns ``(pairwise, unit)``:
    pairwise[i] = |a_j - a_k| - (r_j + r_k) over all j < k, in
    ``np.triu_indices`` order, formed row by row with no J x J temporary;
    unit[j] = (|a_j| - r_j) - 1. All must be positive.
    """
    pairwise = np.concatenate([np.abs(a[j] - a[j + 1 :]) - (r[j] + r[j + 1 :])
                               for j in range(a.size - 1)] + [np.empty(0)])
    unit = (np.abs(a) - r) - 1.0
    return pairwise, unit


def schedule_condition_margin(schedule: PoleSchedule) -> float:
    """Margin of the defining coefficient inequality of the variant.

    thm1: 1/2 - sum delta_j log(3j); thm2: 1/8 - sum delta_j *
    max(log(3j), |log rho_j|). Positive margins certify the series
    bounds used throughout.
    """
    j = np.arange(1, schedule.j_max + 1, dtype=np.float64)
    if schedule.variant == "thm1":
        return 0.5 - float(np.sum(schedule.delta * np.log(3.0 * j)))
    weight = np.maximum(np.log(3.0 * j), np.abs(schedule.log_rho))
    return 0.125 - float(np.sum(schedule.delta * weight))


def render_schedule(schedule: PoleSchedule, extras: Optional[dict] = None) -> str:
    """Full-precision text export of the schedule (plus scenario constants).

    Columns: j, theta_j, delta_j, r_j, log_rho_j (nan when absent).
    The log of rho is exported because rho itself underflows float64.
    """
    buf = io.StringIO()
    buf.write(f"# pole schedule variant={schedule.variant} j_max={schedule.j_max}\n")
    for key in sorted((extras or {})):
        buf.write(f"# {key}={extras[key]!r}\n")
    buf.write("# columns: j theta delta r log_rho\n")
    for i in range(schedule.j_max):
        lr = float("nan") if schedule.log_rho is None else schedule.log_rho[i]
        buf.write(
            f"{i + 1} {schedule.theta[i]:.17g} {schedule.delta[i]:.17g} "
            f"{schedule.r[i]:.17g} {lr:.17g}\n"
        )
    return buf.getvalue()
