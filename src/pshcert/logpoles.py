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

Truncation errors are certified: for |z| <= 1 or |z| >= 1 + 2/J the
tail of the series beyond J is bounded termwise by
``delta_j * max(log j, log(|z|+3))`` and summed via the geometric
majorant; inside the thin annulus ``1 < |z| < 1 + 2/J`` tail poles can
come arbitrarily close to z and the error radius is +inf.

A cheap certified lower bound screens points before the series runs.
By the reverse triangle inequality |z - a_j| >= ||z| - |a_j||, and
every delta_j is positive, so the truncated series is at least
``S * log(min(1, gap(|z|)))`` with ``S = sum_{j <= trunc} delta_j`` and
``gap`` the distance from |z| to the nearest pole modulus (the "ring
bound", ``series_ring_lower_bounds``). Finding that modulus is a binary
search over the sorted moduli, O(log J) per point instead of J logs.
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
    eps: Optional[np.ndarray] = None
    log_rho: Optional[np.ndarray] = None

    @property
    def tail_exp(self) -> int:
        return _TAIL_EXP[self.variant]

    def tail_bound(self, trunc: int) -> float:
        """Geometric bound on ``sum_{j > trunc} 2^(-j-tail_exp)``."""
        return 2.0 ** (-(trunc + self.tail_exp))

    def disc_log_memberships(self, z: np.ndarray) -> np.ndarray:
        """(N, J) boolean: is z inside the plateau disc D(a_j, rho_j)?

        Compared in log space: ``log|z - a_j| < log_rho_j``. At double
        precision only pole hits themselves can be members.
        """
        if self.log_rho is None:
            raise ValueError("plateau discs exist only for the thm2 variant")
        z = np.asarray(z, dtype=np.complex128).ravel()
        with np.errstate(divide="ignore"):
            logd = np.log(np.abs(z[:, None] - self.a[None, :]))
        return logd < self.log_rho[None, :]

    def outside_all_discs(self, z: np.ndarray) -> np.ndarray:
        return ~np.any(self.disc_log_memberships(z), axis=1)


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
    theta = golden_angles(j_max)
    a = (1.0 + 1.0 / j) * np.exp(1j * theta)
    r = 1.0 / (4.0 * j * (j + 1.0))
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

def _checked_trunc(schedule: PoleSchedule, trunc: Optional[int]) -> int:
    trunc = schedule.j_max if trunc is None else trunc
    if not 1 <= trunc <= schedule.j_max:
        raise ValueError(f"trunc must be in [1, {schedule.j_max}], got {trunc}")
    return trunc


def series_values(schedule: PoleSchedule, z, trunc: Optional[int] = None):
    """Truncated series and certified tail radii at each point.

    Returns ``(values, error_radii)`` float64 arrays; a value is -inf
    exactly when z hits one of the first ``trunc`` poles.
    """
    trunc = _checked_trunc(schedule, trunc)
    z = np.asarray(z, dtype=np.complex128).ravel()
    vals = kernels.sigma_many(
        np.ascontiguousarray(z.real),
        np.ascontiguousarray(z.imag),
        np.ascontiguousarray(schedule.a.real[:trunc]),
        np.ascontiguousarray(schedule.a.imag[:trunc]),
        np.ascontiguousarray(schedule.delta[:trunc]),
    )
    errs = tail_error_radius(schedule, np.abs(z), trunc)
    return vals, errs


#: subtracted from every ring gap before its log; it dominates the
#: rounding of |z| and |a_j|, a few ulps of 3 (a gap below 1 needs |z| < 3)
_RING_GUARD = 1e-12


def series_ring_lower_bounds(schedule: PoleSchedule, z,
                             trunc: Optional[int] = None) -> np.ndarray:
    """Lower bounds ``S * log(min(1, gap(|z|) - 1e-12))`` of the truncated series.

    ``S`` is the sum of the first ``trunc`` coefficients and ``gap`` the
    distance from |z| to the nearest of the moduli |a_1|, ..., |a_trunc|.
    Every term obeys ``delta_j log|z - a_j| >= delta_j log(min(1, gap))``
    for the float poles a_j, so the result is below the exact series of
    those poles; on (or within the guard of) a pole circle it is -inf,
    and it is NaN where |z| is NaN.
    """
    trunc = _checked_trunc(schedule, trunc)
    moduli = np.sort(np.abs(schedule.a[:trunc]))
    absz = np.abs(np.asarray(z, dtype=np.complex128).ravel())
    idx = np.searchsorted(moduli, absz)
    below = moduli.take(idx - 1, mode="clip")
    above = moduli.take(idx, mode="clip")
    gap = np.minimum(np.abs(absz - below), np.abs(above - absz)) - _RING_GUARD
    with np.errstate(divide="ignore"):
        return np.sum(schedule.delta[:trunc]) * np.log(np.clip(gap, 0.0, 1.0))


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
    inside = schedule.disc_log_memberships(z)
    if np.any(inside):
        bad = int(np.flatnonzero(np.any(inside, axis=1))[0])
        raise ValueError(f"point {z[bad]} lies inside a plateau disc")
    with np.errstate(divide="ignore"):
        logd = np.log(np.abs(z[:, None] - schedule.a[None, :]))
    logd = np.maximum(logd, schedule.log_rho[None, :])
    bound = np.sum(schedule.delta[None, :] * logd, axis=1)
    return bound - schedule.tail_bound(schedule.j_max)


# ---------------------------------------------------------------------------
# schedule geometry certificates (used by suites and tests)
# ---------------------------------------------------------------------------

def disc_separation_margins(schedule: PoleSchedule):
    """Margins of pairwise disc disjointness and disjointness from D-bar.

    Returns ``(pairwise, unit)``: pairwise[i] = |a_j - a_k| - (r_j + r_k)
    over all j < k, unit[j] = (|a_j| - r_j) - 1. All must be positive.
    """
    a = schedule.a
    r = schedule.r
    diff = np.abs(a[:, None] - a[None, :])
    rsum = r[:, None] + r[None, :]
    iu = np.triu_indices(schedule.j_max, k=1)
    pairwise = (diff - rsum)[iu]
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
