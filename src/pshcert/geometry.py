"""Regions of C^n = C x C^{n-1}, with deterministic uniform samplers.

Regions know their complex dimension and expose a vectorized membership
predicate. Samplers are counter-based (Philox), so a given
(seed, stream, count, region) tuple reproduces the identical
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


def golden_angles(count: int) -> np.ndarray:
    """Angles for j = 1..count as a float64 array."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    j = np.arange(1, count + 1, dtype=np.float64)
    return 2.0 * np.pi * np.mod(j * GOLDEN_CONJUGATE, 1.0)


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
    """Deterministic uniform point source.

    ``stream`` separates independent draws that share one seed.
    """

    seed: int
    count: int
    stream: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


def _sample_disk(rng, count):
    """Uniform points of the open unit disk (radius draws first)."""
    return np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def _sample_ball(rng, count, k, radius):
    """Uniform points of the ball of ``radius`` around 0 in C^k, (count, k)."""
    g = rng.standard_normal((count, 2 * k))
    nrm = np.linalg.norm(g, axis=1)
    nrm[nrm == 0] = 1.0
    r = radius * rng.random(count) ** (1.0 / (2 * k))
    pts = g / nrm[:, None] * r[:, None]
    return pts[:, :k] + 1j * pts[:, k:]


def _unit_directions(rng, count, k):
    """Uniform points of the unit sphere in C^k, (count, k)."""
    g = rng.standard_normal((count, 2 * k))
    nrm = np.linalg.norm(g, axis=1)
    nrm[nrm == 0] = 1.0
    pts = g / nrm[:, None]
    return pts[:, :k] + 1j * pts[:, k:]


def _sample_disk_uniform(disk, count, rng):
    # (radius * sqrt(u)) * e^{i theta}: not bit-equal to _sample_disk scaled
    u = rng.random(count)
    th = 2.0 * np.pi * rng.random(count)
    return disk.center + disk.radius * np.sqrt(u) * np.exp(1j * th)


def _sample_annulus_uniform(annulus, count, rng):
    inner, outer = annulus.inner, annulus.outer
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


def _sample_ball_uniform(ball, count, rng):
    center = np.asarray(ball.center, dtype=np.complex128)
    return _sample_ball(rng, count, ball.dim, ball.radius) + center[None, :]


def sample(region: Region, sampler: Sampler) -> np.ndarray:
    """Draw points of ``region``; (N,) complex for 1-D regions, (N, dim) else.

    Every returned point satisfies the region's membership predicate.
    """
    rng = sampler.generator()
    n = sampler.count

    if isinstance(region, Disk):
        return _sample_disk_uniform(region, n, rng)
    if isinstance(region, Annulus):
        return _sample_annulus_uniform(region, n, rng)
    if isinstance(region, Ball):
        return _sample_ball_uniform(region, n, rng)
    if isinstance(region, ProductRegion):
        # one generator, fixed draw order: z block first, then w block
        if isinstance(region.region_z, Disk):
            z = _sample_disk_uniform(region.region_z, n, rng)
        elif isinstance(region.region_z, Annulus):
            z = _sample_annulus_uniform(region.region_z, n, rng)
        else:
            raise ValueError("product z-factor must be a disk or annulus")
        if not isinstance(region.region_w, Ball):
            raise ValueError("product w-factor must be a ball")
        w = _sample_ball_uniform(region.region_w, n, rng)
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
