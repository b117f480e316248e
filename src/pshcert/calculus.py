"""Finite-difference Levi forms and sampled positivity certificates.

All target functions are batch callables mapping an (M, n) complex128
array of points to an (M,) float64 array of values (-inf allowed at
poles). The Wirtinger Hessian at p has entries

    H_jk = 1/4 * [ (f_{x_j x_k} + f_{y_j y_k}) + i (f_{x_j y_k} - f_{y_j x_k}) ]

computed from central differences of step h; for C^4 functions the
entrywise error is O(h^2). Certification draws deterministic samples
from a region, evaluates the stencils in blocks of points
(``_stencil_block``: at most ``_BLOCK // 5`` points and ``_STENCIL_ROWS``
stencil rows), and reduces the minimal eigenvalues into a Certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import kernels
from .geometry import EmptyRegionError, Sampler, SublevelRegion, Window, sample

MAX_EIG_DIM = 8
MAX_WITNESSES = 10  # witnesses a failing certificate records, worst first
CIRCLE_NODES = 64  # nodes of every circle mean


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


def make_certificate(name, margins, tolerance, points=None):
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
        for idx in order[:MAX_WITNESSES]:
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

@cache
def _stencil_offsets(n: int, h: float):
    """Offsets (S, n) complex and the index maps of Hessian assembly: +h and
    -h along each real axis (x_j = 2j, y_j = 2j + 1), and ``pair_idx``
    (pairs, 4, 4): per pair j < k, in row-major order, the quads xx, yy, xy
    and yx (x_j x_k, y_j y_k, x_j y_k, y_j x_k), each over (++, +-, -+, --).

    Sorted stably by z-component, so each stencil is 5 runs of equal z for
    ``series_values``; the zero offset stays at index 0, read as the centre.
    Built once per (n, h), a few KiB, and returned read-only: ``levi_floors``
    asks for it once per stencil block.
    """
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

    pair_idx = []
    for j in range(n):
        for k in range(j + 1, n):
            for aj, ak in ((2 * j, 2 * k), (2 * j + 1, 2 * k + 1),
                           (2 * j, 2 * k + 1), (2 * j + 1, 2 * k)):
                quad = []
                for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    quad.append(len(offsets))
                    offsets.append(sa * h * unit(aj) + sb * h * unit(ak))
                pair_idx.append(quad)
    offsets = np.stack(offsets)
    order = np.lexsort((offsets[:, 0].imag, offsets[:, 0].real, offsets[:, 0] != 0))
    inverse = np.argsort(order)
    pair_idx = inverse[np.array(pair_idx, dtype=np.intp).reshape(-1, 4, 4)]
    built = offsets[order], inverse[plus], inverse[minus], pair_idx
    for a in built:
        a.flags.writeable = False
    return built


#: stencil rows per ``f`` call, at most, at every n
_STENCIL_ROWS = 8 * kernels._BLOCK


def _stencil_block(n: int) -> int:
    """Points per stencil block at dimension n: ``_BLOCK // 5`` (5 distinct z
    per stencil, so about one kernel block of distinct z for the series), or
    fewer where their S = 1 + 4n + 8n(n - 1) stencil rows each would pass
    ``_STENCIL_ROWS`` (from n = 3 on: 2148 points at n = 3, 272 at n = 8)."""
    return min(kernels._BLOCK // 5, _STENCIL_ROWS // (1 + 4 * n + 8 * n * (n - 1)))


def wirtinger_hessian_batch(f, points, h: float):
    """Wirtinger Hessians at (N, n) points from blocked stencil evaluations.

    Returns ``(H, ok)`` where H is (N, n, n) complex128 Hermitian by
    construction and ok[i] is False when any stencil value at point i
    was nonfinite (those H rows are zeroed).

    ``f`` is called on the stencils of one ``_stencil_block(n)`` of points
    at a time, so a call gives the series at most about one kernel block of
    distinct z, and the stencil grid and f's temporaries stay within one row
    budget at every n. ``f`` must be elementwise, so the values, hence H,
    are those of one call on every stencil, bit for bit.

    Each H_jk, j < k, is written in one pass from the pair's (4, 4) quads of
    ``_stencil_offsets`` (xx, yy, xy, yx, each over ++, +-, -+, --).
    """
    points = np.asarray(points, dtype=np.complex128)
    npts, n = points.shape
    offsets, plus, minus, pair_idx = _stencil_offsets(n, h)
    nst = offsets.shape[0]
    vals = np.empty((npts, nst), dtype=np.float64)
    step = _stencil_block(n)
    for lo in range(0, npts, step):
        grid = points[lo : lo + step, None, :] + offsets[None, :, :]
        vals[lo : lo + step] = np.reshape(f(grid.reshape(-1, n)), (-1, nst))
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
        for (j, k), quads in zip(combinations(range(n), 2), pair_idx):
            xx, yy, xy, yx = ((vals[:, q[0]] - vals[:, q[1]] - vals[:, q[2]]
                               + vals[:, q[3]]) / (4.0 * h2) for q in quads)
            H[:, j, k] = 0.25 * ((xx + yy) + 1j * (xy - yx))
            H[:, k, j] = np.conj(H[:, j, k])
    H[~ok] = 0.0
    return H, ok


# ---------------------------------------------------------------------------
# Hermitian minimal eigenvalues
# ---------------------------------------------------------------------------

def min_eigs_batch(H: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of an (N, n, n) batch of Hermitian matrices,
    2 <= n <= 8.

    2x2 matrices use the closed form (det/lambda_max when positive,
    which stays accurate for tiny minimal eigenvalues); larger sizes use
    cyclic Jacobi. H goes to the kernels as it is, of any strides, and
    keeps its bits: Jacobi rotates copies of its real and imaginary parts.
    """
    n = H.shape[1]
    if n > MAX_EIG_DIM:
        raise ValueError(f"matrix dimension {n} exceeds {MAX_EIG_DIM}")
    if n == 2:
        return kernels.min_eig_2x2_many(H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1])
    return kernels.jacobi_min_eig_many(H)


def levi_floors(f, points, h: float) -> np.ndarray:
    """Smallest eigenvalue of the FD Levi form of f at each point, -inf where
    a stencil value was nonfinite.

    The points are walked in blocks of ``_stencil_block(n)``, each one
    ``f`` call, one Hessian batch and one eigenvalue call, so only the N
    floors outlive a block. Both eigenvalue kernels treat each matrix on
    its own, so the floors are those of one whole-batch call, bit for bit.
    """
    points = np.asarray(points, dtype=np.complex128)
    floors = np.empty(points.shape[0])
    step = _stencil_block(points.shape[1])
    for lo in range(0, points.shape[0], step):
        H, ok = wirtinger_hessian_batch(f, points[lo : lo + step], h)
        floors[lo : lo + step] = np.where(ok, min_eigs_batch(H), -np.inf)
    return floors


# ---------------------------------------------------------------------------
# circle means (sub-mean-value test)
# ---------------------------------------------------------------------------

def circle_mean_test(f, z0, radius):
    """Mean of f on the circle around each center minus f there.

    ``z0`` and ``radius`` are arrays of P probes: f is called once on the
    P centers and once on the (P, ``CIRCLE_NODES``) ring, and an array of P
    margins is returned. Subharmonic functions must give nonnegative
    margins up to quadrature error; a -inf center value passes vacuously
    (+inf). Every value is elementwise or a row mean over contiguous ring
    values, so a probe's margin does not depend on the batch it is in.
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    radius = np.asarray(radius, dtype=np.float64)
    if np.any(radius <= 0):
        raise ValueError("radius must be positive")
    center = np.asarray(f(z0), dtype=np.float64)
    pole = center == -np.inf
    bad = ~pole & ~np.isfinite(center)
    if np.any(bad):
        raise ValueError(f"function not finite at center {z0[np.argmax(bad)]}")
    ring = np.exp(2j * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES)
    pts = z0[:, None] + radius[:, None] * ring[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=np.float64).reshape(pts.shape)
    if not np.all(np.isfinite(vals[~pole])):
        raise ValueError("function must be finite on the circle")
    with np.errstate(invalid="ignore"):
        # rows centered on a pole are replaced by +inf below
        margins = np.mean(vals, axis=1) - center
    margins[pole] = np.inf
    return margins


# ---------------------------------------------------------------------------
# region-wide strict plurisubharmonicity certification
# ---------------------------------------------------------------------------

def certify_psh(
    f,
    region: Window | SublevelRegion,
    sampler: Sampler,
    h: float,
    tolerance: float = 1e-6,
    exclude: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    name: str = "psh",
) -> Certificate:
    """Sampled Levi-form positivity certificate on a region.

    Draws ``sampler.count`` points (skipping any for which ``exclude``
    returns True, refilling deterministically), computes their FD Levi
    floors with ``levi_floors`` (one ``_stencil_block`` of points at a
    time), and passes when every smallest eigenvalue is at least
    ``-tolerance``. Stencil failures appear as -inf margins with
    witnesses. Raises ``EmptyRegionError`` when 50 draws
    still leave fewer than ``sampler.count`` points.
    """
    want = sampler.count
    chunks = []
    total = 0
    for attempt in range(50):
        s = Sampler(sampler.seed, want, sampler.stream + 7919 * attempt)
        pts = sample(region, s)
        if exclude is not None:
            pts = pts[~np.asarray(exclude(pts), dtype=bool)]
        chunks.append(pts)
        total += pts.shape[0]
        if total >= want:
            break
    else:
        raise EmptyRegionError(f"{name}: delivered {total}/{want} points")
    points = np.concatenate(chunks, axis=0)[:want]
    return make_certificate(name, levi_floors(f, points, h), tolerance, points)
