"""Points and regions of C^n = C x C^{n-1}, with deterministic samplers.

Regions know their complex dimension and expose a vectorized membership
predicate. Samplers are counter-based (Philox), so a given
(seed, stream, count, strategy, region) tuple reproduces the identical
point sequence bit for bit, independent of thread count.

The dense angle sequence that drives all pole positions is the golden
Kronecker sequence ``2*pi*frac(j*g)``; it is equidistributed, so its
gaps shrink like 1/J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

#: conjugate golden ratio, the rotation number of the angle sequence
GOLDEN_CONJUGATE = 0.6180339887498949


def golden_angle(j: int) -> float:
    """Angle number j (1-based) of the golden Kronecker sequence, in [0, 2*pi)."""
    if j < 1:
        raise ValueError(f"angle index must be >= 1, got {j}")
    return 2.0 * np.pi * ((j * GOLDEN_CONJUGATE) % 1.0)


def golden_angles(count: int) -> np.ndarray:
    """Angles for j = 1..count as a float64 array."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    j = np.arange(1, count + 1, dtype=np.float64)
    return 2.0 * np.pi * np.mod(j * GOLDEN_CONJUGATE, 1.0)


@dataclass(frozen=True)
class CPoint:
    """A point of C^n split as (z, w) with z in C and w in C^{n-1}."""

    z: complex
    w: tuple[complex, ...]

    def __post_init__(self):
        if len(self.w) < 1:
            raise ValueError("ambient dimension must be >= 2 (w must be nonempty)")

    @property
    def n(self) -> int:
        return 1 + len(self.w)

    def as_array(self) -> np.ndarray:
        return np.asarray((self.z, *self.w), dtype=np.complex128)

    @staticmethod
    def from_array(arr) -> "CPoint":
        arr = np.asarray(arr, dtype=np.complex128).ravel()
        if arr.size < 2:
            raise ValueError("point must have at least 2 complex coordinates")
        return CPoint(complex(arr[0]), tuple(complex(v) for v in arr[1:]))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class Region:
    """Base class: a named, sampleable subset of C^dim."""

    label: str
    dim: int

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Region):
    center: complex
    radius: float
    label: str = "disk"
    closed: bool = False
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    def contains(self, pts):
        d = np.abs(np.asarray(pts, dtype=np.complex128) - self.center)
        return d <= self.radius if self.closed else d < self.radius


@dataclass(frozen=True)
class Annulus(Region):
    """Open annulus ``inner < |z| < outer`` centered at the origin."""

    inner: float
    outer: float
    label: str = "annulus"
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise ValueError("need 0 < inner < outer")

    def contains(self, pts):
        d = np.abs(np.asarray(pts, dtype=np.complex128))
        return (d > self.inner) & (d < self.outer)


@dataclass(frozen=True)
class Ball(Region):
    """Ball in C^k; pts is an (N, k) complex array."""

    center: tuple[complex, ...]
    radius: float
    label: str = "ball"
    closed: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if len(self.center) < 1:
            raise ValueError("ball needs at least one complex coordinate")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        if pts.ndim == 1:
            pts = pts[:, None]
        c = np.asarray(self.center, dtype=np.complex128)
        d = np.sqrt(np.sum(np.abs(pts - c[None, :]) ** 2, axis=1))
        return d <= self.radius if self.closed else d < self.radius


@dataclass(frozen=True)
class ProductRegion(Region):
    """Product of a 1-D region (the z factor) and a region in C^{n-1}."""

    region_z: Region
    region_w: Region
    label: str = "product"

    @property
    def dim(self) -> int:
        return self.region_z.dim + self.region_w.dim

    def contains(self, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        return self.region_z.contains(pts[:, 0]) & self.region_w.contains(pts[:, 1:])


@dataclass(frozen=True)
class HalfspaceModulus(Region):
    """Constraint ``|coordinate| <cmp> bound`` on C^n points.

    coordinate is "z" (first coordinate) or "w" (euclidean norm of the
    rest); comparator is one of '<', '<=', '>', '>='.
    """

    coordinate: str
    comparator: str
    bound: float
    ambient: int
    label: str = "halfspace"

    _OPS = {
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }

    def __post_init__(self):
        if self.coordinate not in ("z", "w"):
            raise ValueError("coordinate must be 'z' or 'w'")
        if self.comparator not in self._OPS:
            raise ValueError(f"bad comparator {self.comparator!r}")

    @property
    def dim(self) -> int:
        return self.ambient

    def contains(self, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        if self.coordinate == "z":
            mod = np.abs(pts[:, 0])
        else:
            mod = np.sqrt(np.sum(np.abs(pts[:, 1:]) ** 2, axis=1))
        return self._OPS[self.comparator](mod, self.bound)


@dataclass(frozen=True)
class SublevelRegion(Region):
    """``{p : defining(p) < level}`` intersected with a bounded proposal window.

    ``defining`` evaluates a batch of points of the window's C^dim. The
    window only drives rejection sampling; membership itself is the
    sublevel inequality (and the optional extra constraints).

    ``lower``, when given, is a cheap screen: a batch function with
    ``lower(p) <= defining(p)`` wherever both are numbers (NaN is
    allowed and means "no bound"). ``contains`` evaluates ``defining``
    only at points with ``not lower(p) >= level``; every other point is
    certainly outside. ``defining`` must be elementwise (a point's value
    does not depend on the rest of its batch), so the mask is the same
    as without the screen, bit for bit.
    """

    defining: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    level: float
    window: Region
    constraints: tuple[Region, ...] = ()
    label: str = "sublevel"
    lower: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    @property
    def dim(self) -> int:
        return self.window.dim

    def contains(self, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        if self.lower is None:
            ok = self.defining(pts) < self.level
        else:
            ok = np.zeros(pts.shape[0], dtype=bool)
            maybe = ~(self.lower(pts) >= self.level)
            ok[maybe] = self.defining(pts[maybe]) < self.level
        for c in self.constraints:
            ok &= c.contains(pts)
        return ok


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sampler:
    """Deterministic point source.

    strategy: "uniform-random", "low-discrepancy-grid" or "boundary-circle".
    ``stream`` separates independent draws that share one seed.
    ``m`` is the point count of the boundary-circle strategy.
    """

    seed: int
    count: int
    strategy: str = "uniform-random"
    m: int = 64
    stream: int = 0

    def __post_init__(self):
        if self.strategy not in (
            "uniform-random",
            "low-discrepancy-grid",
            "boundary-circle",
        ):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


def _sample_disk_uniform(center, radius, count, rng):
    u = rng.random(count)
    th = 2.0 * np.pi * rng.random(count)
    return center + radius * np.sqrt(u) * np.exp(1j * th)


def _sample_annulus_uniform(inner, outer, count, rng):
    out = np.empty(count, dtype=np.complex128)
    got = 0
    while got < count:
        u = rng.random(count - got)
        th = 2.0 * np.pi * rng.random(count - got)
        r = np.sqrt(inner * inner + (outer * outer - inner * inner) * u)
        keep = (r > inner) & (r < outer)
        k = int(np.sum(keep))
        out[got : got + k] = r[keep] * np.exp(1j * th[keep])
        got += k
    return out


def _sample_ball_uniform(center, radius, k, count, rng):
    g = rng.standard_normal((count, 2 * k))
    norms = np.sqrt(np.sum(g * g, axis=1))
    norms[norms == 0.0] = 1.0
    u = rng.random(count)
    r = radius * u ** (1.0 / (2 * k))
    pts = g / norms[:, None] * r[:, None]
    w = pts[:, :k] + 1j * pts[:, k:]
    return w + np.asarray(center, dtype=np.complex128)[None, :]


def _kronecker_unit(count: int, dim: int, offset: int = 0) -> np.ndarray:
    # R_d sequence: x_k = frac(k * phi_d^{-i}), phi_d the plastic-like root
    phi = 2.0
    for _ in range(32):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(i + 1) for i in range(dim)])
    k = np.arange(offset + 1, offset + count + 1, dtype=np.float64)
    return np.mod(0.5 + k[:, None] * alpha[None, :], 1.0)


def _sample_disk_grid(center, radius, count):
    x = _kronecker_unit(count, 2)
    r = radius * np.sqrt(x[:, 0])
    th = 2.0 * np.pi * x[:, 1]
    return center + r * np.exp(1j * th)


def _sample_annulus_grid(inner, outer, count):
    x = _kronecker_unit(count, 2)
    r = np.sqrt(inner * inner + (outer * outer - inner * inner) * x[:, 0])
    r = np.clip(r, np.nextafter(inner, outer), np.nextafter(outer, inner))
    return r * np.exp(1j * 2.0 * np.pi * x[:, 1])


def _sample_ball_grid(center, radius, k, count):
    # Kronecker points pushed through Box-Muller pairs for the direction
    # and a radial power map; rejection-free, so any dimension is cheap
    x = _kronecker_unit(count, 2 * k + 1)
    u = np.clip(x[:, :k], 1e-12, 1.0)
    v = x[:, k : 2 * k]
    mag = np.sqrt(-2.0 * np.log(u))
    g = np.concatenate(
        [mag * np.cos(2 * np.pi * v), mag * np.sin(2 * np.pi * v)], axis=1
    )
    norms = np.sqrt(np.sum(g * g, axis=1))
    norms[norms == 0.0] = 1.0
    r = radius * np.clip(x[:, 2 * k], 0.0, np.nextafter(1.0, 0.0)) ** (1.0 / (2 * k))
    pts = g / norms[:, None] * r[:, None]
    w = pts[:, :k] + 1j * pts[:, k:]
    return w + np.asarray(center, dtype=np.complex128)[None, :]


def boundary_circle_points(center: complex, radius: float, m: int) -> np.ndarray:
    k = np.arange(m)
    return center + radius * np.exp(2j * np.pi * k / m)


def sample(region: Region, sampler: Sampler) -> np.ndarray:
    """Draw points of ``region``; (N,) complex for 1-D regions, (N, dim) else.

    Every returned point satisfies the region's membership predicate
    (closed regions may include boundary points by construction).
    """
    rng = sampler.generator()
    n = sampler.count

    if sampler.strategy == "boundary-circle":
        if isinstance(region, Disk):
            return boundary_circle_points(region.center, region.radius, sampler.m)
        if isinstance(region, Annulus):
            return boundary_circle_points(0.0, region.outer, sampler.m)
        raise ValueError("boundary-circle sampling needs a disk or annulus")

    grid = sampler.strategy == "low-discrepancy-grid"

    if isinstance(region, Disk):
        if grid:
            return _sample_disk_grid(region.center, region.radius, n)
        return _sample_disk_uniform(region.center, region.radius, n, rng)
    if isinstance(region, Annulus):
        if grid:
            return _sample_annulus_grid(region.inner, region.outer, n)
        return _sample_annulus_uniform(region.inner, region.outer, n, rng)
    if isinstance(region, Ball):
        k = region.dim
        if grid:
            return _sample_ball_grid(region.center, region.radius, k, n)
        return _sample_ball_uniform(region.center, region.radius, k, n, rng)
    if isinstance(region, ProductRegion):
        # one generator, fixed draw order: z block first, then w block
        if grid:
            z = _sample_disk_grid(region.region_z.center, region.region_z.radius, n) \
                if isinstance(region.region_z, Disk) else \
                _sample_annulus_grid(region.region_z.inner, region.region_z.outer, n)
            w = _sample_ball_grid(
                region.region_w.center, region.region_w.radius, region.region_w.dim, n
            )
        else:
            if isinstance(region.region_z, Disk):
                z = _sample_disk_uniform(
                    region.region_z.center, region.region_z.radius, n, rng
                )
            elif isinstance(region.region_z, Annulus):
                z = _sample_annulus_uniform(
                    region.region_z.inner, region.region_z.outer, n, rng
                )
            else:
                raise ValueError("product z-factor must be a disk or annulus")
            if not isinstance(region.region_w, Ball):
                raise ValueError("product w-factor must be a ball")
            w = _sample_ball_uniform(
                region.region_w.center, region.region_w.radius, region.region_w.dim,
                n, rng,
            )
        return np.concatenate([z[:, None], w], axis=1)
    if isinstance(region, SublevelRegion):
        return _rejection_sample(region, sampler)
    raise ValueError(f"cannot sample region of type {type(region).__name__}")


class EmptyRegionError(RuntimeError):
    """Rejection sampling found (almost) no members in the proposal window."""


def _rejection_sample(region: SublevelRegion, sampler: Sampler,
                      max_batches: int = 200) -> np.ndarray:
    want = sampler.count
    out = np.empty((want, region.dim), dtype=np.complex128)
    got = 0
    for batch in range(max_batches):
        proposal = Sampler(
            seed=sampler.seed,
            count=max(4 * want, 4096),
            strategy="uniform-random",
            stream=sampler.stream * 1000 + batch,
        )
        pts = sample(region.window, proposal)
        keep = region.contains(pts)
        k = min(int(np.sum(keep)), want - got)
        out[got : got + k] = pts[keep][:k]
        got += k
        if got == want:
            return out
    raise EmptyRegionError(
        f"rejection sampling of {region.label!r} accepted {got}/{want} points"
    )


# ---------------------------------------------------------------------------
# connectivity probe
# ---------------------------------------------------------------------------

def path_connected_probe(
    defining: Callable[[np.ndarray], np.ndarray],
    level: float,
    p,
    q,
    steps: int = 512,
    waypoints: Optional[Sequence] = None,
):
    """Check a sampled polyline from p to q stays in ``{defining < level}``.

    Returns ``(True, None)`` when every sampled point is a member, else
    ``(False, t)`` with t in [0, 1] the first violating parameter along
    the polyline. Both endpoints must be members.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")

    def to_arr(pt):
        if isinstance(pt, CPoint):
            return pt.as_array()
        return np.asarray(pt, dtype=np.complex128).ravel()

    nodes = [to_arr(p)]
    for wpt in waypoints or ():
        nodes.append(to_arr(wpt))
    nodes.append(to_arr(q))

    ends = defining(np.stack([nodes[0], nodes[-1]]))
    if not np.all(ends < level):
        raise ValueError("path endpoints must lie in the sublevel set")

    nseg = len(nodes) - 1
    t_local = np.linspace(0.0, 1.0, steps)
    for i in range(nseg):
        seg = nodes[i][None, :] + t_local[:, None] * (nodes[i + 1] - nodes[i])[None, :]
        vals = defining(seg)
        bad = np.flatnonzero(~(vals < level))
        if bad.size:
            t_global = (i + t_local[bad[0]]) / nseg
            return False, float(t_global)
    return True, None
