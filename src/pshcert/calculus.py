"""Finite-difference Levi forms and sampled positivity certificates.

All target functions are batch callables mapping an (M, n) complex128
array of points to an (M,) float64 array of values (-inf allowed at
poles). The Wirtinger Hessian at p has entries

    H_jk = 1/4 * [ (f_{x_j x_k} + f_{y_j y_k}) + i (f_{x_j y_k} - f_{y_j x_k}) ]

computed from central differences of step h; for C^4 functions the
entrywise error is O(h^2). Certification draws deterministic samples
from a region, evaluates the whole stencil batch in one call, and
reduces the minimal eigenvalues into a Certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .geometry import EmptyRegionError, Region, Sampler, sample

MAX_EIG_DIM = 8


@dataclass(frozen=True)
class Certificate:
    """Outcome of one named sampled check.

    ``status`` is "pass" exactly when ``worst_margin >= -tolerance``;
    margins are oriented so that larger is better.
    """

    name: str
    status: str
    samples: int
    worst_margin: float
    tolerance: float
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def make_certificate(name, margins, tolerance, points=None, max_witnesses=10):
    """Reduce per-sample margins into a Certificate with worst offenders."""
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        return Certificate(name, "fail", 0, float("nan"), tolerance,
                           [{"coords": [], "margin": float("nan")}])
    worst = float(np.min(margins))
    bad = np.isnan(margins)
    status = "pass" if (worst >= -tolerance and not bad.any()) else "fail"
    witnesses = []
    if status == "fail":
        order = np.argsort(np.where(bad, -np.inf, margins))
        for idx in order[:max_witnesses]:
            m = float(margins[idx])
            if m >= -tolerance and not bad[idx]:
                break
            coords = []
            if points is not None:
                pt = np.atleast_1d(np.asarray(points)[idx])
                for c in np.ravel(pt):
                    c = complex(c)
                    coords.extend([c.real, c.imag])
            witnesses.append({"coords": coords, "margin": m})
    return Certificate(name, status, int(margins.size), worst, tolerance, witnesses)


# ---------------------------------------------------------------------------
# Wirtinger Hessian stencils
# ---------------------------------------------------------------------------

def _stencil_offsets(n: int, h: float):
    """Offsets (S, n) complex and index maps for Hessian assembly."""
    offsets = [np.zeros(n, dtype=np.complex128)]

    def unit(axis):
        e = np.zeros(n, dtype=np.complex128)
        e[axis // 2] = 1.0 if axis % 2 == 0 else 1.0j
        return e

    plus = np.empty(2 * n, dtype=np.intp)
    minus = np.empty(2 * n, dtype=np.intp)
    for a in range(2 * n):
        plus[a] = len(offsets)
        offsets.append(h * unit(a))
        minus[a] = len(offsets)
        offsets.append(-h * unit(a))

    pair_axes = []
    pair_idx = []
    for j in range(n):
        for k in range(j + 1, n):
            for aj, ak in ((2 * j, 2 * k), (2 * j + 1, 2 * k + 1),
                           (2 * j, 2 * k + 1), (2 * j + 1, 2 * k)):
                quad = []
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    quad.append(len(offsets))
                    offsets.append(sa * h * unit(aj) + sb * h * unit(ak))
                pair_axes.append((j, k, aj % 2, ak % 2))
                pair_idx.append(quad)
    return np.stack(offsets), plus, minus, pair_axes, pair_idx


def wirtinger_hessian_batch(f, points, h: float):
    """Wirtinger Hessians at many points with a single batched evaluation.

    Returns ``(H, ok)`` where H is (N, n, n) complex128 Hermitian by
    construction and ok[i] is False when any stencil value at point i
    was nonfinite (those H rows are zeroed).
    """
    points = np.asarray(points, dtype=np.complex128)
    if points.ndim == 1:
        points = points[:, None]
    npts, n = points.shape
    offsets, plus, minus, pair_axes, pair_idx = _stencil_offsets(n, h)
    nst = offsets.shape[0]
    grid = points[:, None, :] + offsets[None, :, :]
    vals = np.asarray(f(grid.reshape(npts * nst, n)), dtype=np.float64)
    vals = vals.reshape(npts, nst)
    ok = np.all(np.isfinite(vals), axis=1)

    h2 = h * h
    f0 = vals[:, 0]
    H = np.zeros((npts, n, n), dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        # rows with nonfinite stencil values are zeroed below via ok
        for j in range(n):
            sxx = (vals[:, plus[2 * j]] + vals[:, minus[2 * j]] - 2.0 * f0) / h2
            syy = (vals[:, plus[2 * j + 1]] + vals[:, minus[2 * j + 1]]
                   - 2.0 * f0) / h2
            H[:, j, j] = 0.25 * (sxx + syy)
        mixed = {}
        for (j, k, pj, pk), quad in zip(pair_axes, pair_idx):
            m = (vals[:, quad[0]] - vals[:, quad[1]] - vals[:, quad[2]]
                 + vals[:, quad[3]]) / (4.0 * h2)
            mixed[(j, k, pj, pk)] = m
    for j in range(n):
        for k in range(j + 1, n):
            re = mixed[(j, k, 0, 0)] + mixed[(j, k, 1, 1)]
            im = mixed[(j, k, 0, 1)] - mixed[(j, k, 1, 0)]
            H[:, j, k] = 0.25 * (re + 1j * im)
            H[:, k, j] = np.conj(H[:, j, k])
    H[~ok] = 0.0
    return H, ok


# ---------------------------------------------------------------------------
# Hermitian minimal eigenvalues
# ---------------------------------------------------------------------------

def min_eigs_batch(H: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of a batch of Hermitian matrices (n <= 8).

    2x2 matrices use the closed form (det/lambda_max when positive,
    which stays accurate for tiny minimal eigenvalues); larger sizes use
    cyclic Jacobi.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim == 2:
        H = H[None]
    n = H.shape[1]
    if n > MAX_EIG_DIM:
        raise ValueError(f"matrix dimension {n} exceeds {MAX_EIG_DIM}")
    if n == 1:
        return H[:, 0, 0].real.copy()
    if n == 2:
        return kernels.min_eig_2x2_many(
            np.ascontiguousarray(H[:, 0, 0].real),
            np.ascontiguousarray(H[:, 1, 1].real),
            np.ascontiguousarray(H[:, 0, 1].real),
            np.ascontiguousarray(H[:, 0, 1].imag),
        )
    return kernels.jacobi_min_eig_many(
        np.ascontiguousarray(H.real), np.ascontiguousarray(H.imag)
    )


# ---------------------------------------------------------------------------
# circle means (sub-mean-value test)
# ---------------------------------------------------------------------------

def circle_mean_test(f, z0, radius, m: int = 64):
    """Mean of f on the circle around z0 minus f(z0).

    Subharmonic functions must give a nonnegative margin up to
    quadrature error. A -inf center value passes vacuously (+inf).

    ``z0`` and ``radius`` may be arrays of P probes (broadcast against
    each other): f is then called once on the P centers and once on the
    (P, m) ring, and an array of P margins is returned. Scalar inputs
    return a float. Every value is elementwise or a row mean over m
    contiguous ring values, so a probe's margin does not depend on the
    batch it is evaluated in.
    """
    scalar = np.ndim(z0) == 0 and np.ndim(radius) == 0
    z0, radius = np.broadcast_arrays(np.asarray(z0, dtype=np.complex128),
                                     np.asarray(radius, dtype=np.float64))
    z0 = z0.ravel()
    radius = radius.ravel()
    if m < 16:
        raise ValueError("need at least 16 circle points")
    if np.any(radius <= 0):
        raise ValueError("radius must be positive")
    center = np.asarray(f(z0), dtype=np.float64)
    pole = center == -np.inf
    bad = ~pole & ~np.isfinite(center)
    if np.any(bad):
        raise ValueError(f"function not finite at center {z0[np.argmax(bad)]}")
    ring = np.exp(2j * np.pi * np.arange(m) / m)
    pts = z0[:, None] + radius[:, None] * ring[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=np.float64).reshape(z0.size, m)
    if not np.all(np.isfinite(vals[~pole])):
        raise ValueError("function must be finite on the circle")
    with np.errstate(invalid="ignore"):
        # rows centered on a pole are replaced by +inf below
        margins = np.mean(vals, axis=1) - center
    margins[pole] = np.inf
    return float(margins[0]) if scalar else margins


# ---------------------------------------------------------------------------
# region-wide strict plurisubharmonicity certification
# ---------------------------------------------------------------------------

def certify_psh(
    f,
    region: Region,
    sampler: Sampler,
    h: float,
    strict_floor: float = 0.0,
    tolerance: float = 1e-6,
    exclude: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    name: str = "psh",
) -> Certificate:
    """Sampled Levi-form positivity certificate on a region.

    Draws ``sampler.count`` points (skipping any for which ``exclude``
    returns True, refilling deterministically), computes FD Levi forms
    in one batch, and passes when every smallest eigenvalue is at least
    ``strict_floor - tolerance``. Stencil failures appear as -inf
    margins with witnesses. Raises ``EmptyRegionError`` when 50 draws
    still leave fewer than ``sampler.count`` points.
    """
    want = sampler.count
    chunks = []
    total = 0
    for attempt in range(50):
        s = Sampler(sampler.seed, want, sampler.stream + 7919 * attempt)
        pts = sample(region, s)
        if pts.ndim == 1:
            pts = pts[:, None]
        if exclude is not None:
            pts = pts[~np.asarray(exclude(pts), dtype=bool)]
        chunks.append(pts)
        total += pts.shape[0]
        if total >= want:
            break
    else:
        raise EmptyRegionError(f"{name}: delivered {total}/{want} points")
    points = np.concatenate(chunks, axis=0)[:want]
    H, ok = wirtinger_hessian_batch(f, points, h)
    eigs = min_eigs_batch(H)
    margins = np.where(ok, eigs - strict_floor, -np.inf)
    return make_certificate(name, margins, tolerance, points)
