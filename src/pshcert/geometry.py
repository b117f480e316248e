"""Regions of C^n = C x C^{n-1}, with deterministic uniform samplers.

Every region is an origin-centred product window (a z-disk or z-annulus
times a w-ball) or the sublevel set of a defining function inside such a
window, sampled by rejection. Samplers are counter-based (Philox), so a
given (seed, stream, count, region) tuple reproduces the identical
point sequence bit for bit, independent of thread count. Every draw of
the package starts from ``philox``, and the point shapes that the
constructions draw (disk, ball, sphere, shell) and assemble
(``product_points``) live here. Every unscreened row of a product window
is drawn by ``window_rows``: its z column is drawn and formed before the
w block is drawn.

Rejection sampling of a ``SublevelRegion`` screens its proposals once,
on their raw draws, and the screen may not drop a member, so the members,
their order and their bits are those of the unscreened sampler.
``radial`` sees only the draws of a row and runs before the row is
formed: its z from u and theta, its w from the normals g and a radius r.
A formed row's computed |z|^2 and |w|^2 differ from z_radius^2 u and r^2
by about 10 ulps (a square root, a complex exponential and a product for
z; the norm of g, a quotient and a product per coordinate for w; then a
sum of squares), and a radial screen allows a relative 1e-13 for it
(``_Scenario.radial_lower`` in ``constructions``). The rows it keeps go to
``contains``; the scenarios' ``defining`` skips the series wherever a ring
bound proves a row outside (``_Scenario.screened_values``). A screened
batch holds only its normals whole: Philox is counter-based, so its other
draws are read from their own word positions one ``_BLOCK`` of rows at a
time (``sample``).

The dense angle sequence that drives all pole positions is the golden
Kronecker sequence ``2*pi*frac(j*g)``; it is equidistributed, so its
gaps shrink like 1/J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import _BLOCK

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

@dataclass(frozen=True)
class Window:
    """Proposal window ``{z_inner < |z| < z_radius} x {|w| < w_radius}``.

    A subset of C x C^{n-1} with both factors centred at the origin:
    the z factor is the open disk when ``z_inner`` is 0, else an open
    annulus; the w factor is the open ball. It only drives sampling.
    """

    n: int
    z_radius: float
    w_radius: float
    z_inner: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a window needs n >= 2")
        if not (0.0 <= self.z_inner < self.z_radius and self.w_radius > 0.0):
            raise ValueError("need 0 <= z_inner < z_radius and w_radius > 0")


@dataclass(frozen=True)
class SublevelRegion:
    """``{p : defining(p) < 0}`` intersected with a bounded proposal window.

    ``defining`` evaluates a batch of points of the window's C^n. The
    window only drives rejection sampling; membership itself is the
    sublevel inequality. ``defining`` must be elementwise (a point's value
    does not depend on the rest of its batch).

    ``radial``, when given, screens rejection proposals before they are
    formed (the window must be a disk, ``z_inner`` = 0). A proposal row is
    drawn as u, theta (its z) and normals g, radius r (its w); ``radial(t,
    s)`` takes t = z_radius^2 u and s = r^2, the squared moduli that the
    formed row's computed |z|^2 and |w|^2 equal to about 10 ulps, and must
    not be ``>= 0`` where the formed row p is a member (``defining(p) <
    0``), rounding of t, s and p included. The rejection sampler
    forms only rows with ``not radial(t, s) >= 0`` and passes them to
    ``contains``, so the members, their order and their bits are those of
    the unscreened sampler; ``radial`` must be elementwise too.
    """

    defining: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    window: Window
    label: str = "sublevel"
    radial: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    def contains(self, pts):
        return self.defining(np.asarray(pts, dtype=np.complex128)) < 0.0


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
        return philox(self.seed, self.stream)


def philox(seed: int, stream: int) -> np.random.Generator:
    """The generator of one (seed, stream) pair; every draw starts here."""
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def product_points(z, w) -> np.ndarray:
    """The points (z_i, w_i) of C x C^k, (m, k + 1): z has shape (m,), w (m, k)
    or (k,) for one w on every row. A copy, with the bits of z and w."""
    out = np.empty((len(z), 1 + np.shape(w)[-1]), dtype=np.complex128)
    out[:, 0], out[:, 1:] = z, w
    return out


def _sample_disk(rng, count):
    """Uniform points of the open unit disk (radius draws first)."""
    return _disk_rows(*_draw_disk(rng, count), 1.0, np.empty(count, dtype=np.complex128))


def _row_sum(term, width):
    """``np.sum(a, axis=1)`` bit for bit, where column j of ``a`` is ``term(j)`` (a
    fresh array): below 8 terms numpy adds them left to right, and so does this,
    column by column with no (N, width) array; from 8 terms on it is np.sum."""
    if width >= 8:
        return np.sum(np.stack([term(j) for j in range(width)], axis=1), axis=1)
    acc = term(0)
    for j in range(1, width):
        acc += term(j)
    return acc


def _sample_ball(rng, count, k, radius):
    """Uniform points of the ball of ``radius`` around 0 in C^k, (count, k):
    ``g / |g| * r``, |g| summed as in ``np.linalg.norm``.

    The normals g and then the radius uniforms are drawn whole
    (``_draw_ball``) and formed by ``_ball_rows``.
    """
    out = np.empty((count, k), dtype=np.complex128)
    return _ball_rows(*_draw_ball(rng, count, k, radius), out)


def _draw_ball(rng, count, k, radius):
    """The draws of ``count`` ball points in C^k: the normals g (count, 2k),
    then the radii r = radius * U^(1/2k), formed in place in the uniforms'
    array (the bits of ``radius * U ** (1/2k)``, with no second array)."""
    g = rng.standard_normal((count, 2 * k))
    r = rng.random(count)
    r **= 1.0 / (2 * k)
    r *= radius
    return g, r


def _ball_rows(g, r, out):
    """Rows ``g / |g| * r`` into ``out`` (len(r), k), normalising g in place.

    The rows are formed in blocks of ``_BLOCK``, so the complex temporary
    stays block-sized. Each row is computed on its own, so its bits depend
    neither on the blocks nor on the other rows passed with it. A row of
    zero normals forms w = 0.
    """
    k = out.shape[1]
    for lo in range(0, len(r), _BLOCK):
        b = g[lo : lo + _BLOCK]
        nrm = np.sqrt(_row_sum(lambda j: b[:, j] * b[:, j], 2 * k))
        nrm[nrm == 0] = 1.0
        b /= nrm[:, None]
        b *= r[lo : lo + _BLOCK, None]
        np.add(b[:, :k], 1j * b[:, k:], out=out[lo : lo + _BLOCK])
    return out


def _unit_directions(rng, count, k):
    """Uniform points of the unit sphere in C^k, (count, k): ``_ball_rows`` at
    r = 1, where the product by 1.0 is exact."""
    out = np.empty((count, k), dtype=np.complex128)
    return _ball_rows(rng.standard_normal((count, 2 * k)), np.ones(count), out)


def _sample_shell(rng, count, k, lo, hi):
    """Points of C^k with |w| uniform in [lo, hi) on uniform directions,
    (count, k); the moduli are drawn first, then the directions."""
    modulus = rng.uniform(lo, hi, count)
    return _unit_directions(rng, count, k) * modulus[:, None]


def _sample_annulus(rng, count, inner, outer, out=None):
    """Uniform points of the open annulus inner < |z| < outer, into ``out`` if
    given; the squared radii are uniform on [inner^2, outer^2) and drawn
    before the angles, and a point on the closed edge is drawn again."""
    if out is None:
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


def _draw_disk(rng, count):
    """The draws of ``count`` disk points: the radius uniforms u, then the
    angles theta = 2 pi U."""
    return rng.random(count), 2.0 * np.pi * rng.random(count)


def _disk_rows(u, th, outer, out):
    """Points ``(outer * sqrt(u)) * e^{i theta}`` into ``out``, in blocks of
    ``_BLOCK`` (elementwise, so the same bits whatever the blocks or the
    other rows), keeping e^{i theta} block-sized. ``_sample_disk`` scaled by
    ``outer`` has these bits only where ``outer`` is a power of two."""
    for lo in range(0, len(u), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        np.multiply(outer * np.sqrt(u[rows]), np.exp(1j * th[rows]), out=out[rows])
    return out


@dataclass(frozen=True)
class ScreenedBatch:
    """The formed rows of one screened proposal batch, in draw order: those
    the screen could not prove outside. ``len()`` is the number drawn."""

    points: np.ndarray
    drawn: int

    def __len__(self):
        return self.drawn


def window_rows(rng, window: Window, count: int) -> np.ndarray:
    """``count`` uniform rows of ``window`` from ``rng``, (count, n): z is drawn
    (radius uniforms, then angles, or the annulus loop) and formed, then w
    (normals, then radii), so the z draws are freed before w is drawn."""
    out = np.empty((count, window.n), dtype=np.complex128)
    if window.z_inner != 0.0:
        _sample_annulus(rng, count, window.z_inner, window.z_radius, out[:, 0])
    else:
        _disk_rows(*_draw_disk(rng, count), window.z_radius, out[:, 0])
    _ball_rows(*_draw_ball(rng, count, window.n - 1, window.w_radius), out[:, 1:])
    return out


def sample(region: Window | SublevelRegion, sampler: Sampler,
           screen: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
           ) -> np.ndarray | ScreenedBatch:
    """Draw ``sampler.count`` points of a ``Window`` or a ``SublevelRegion``.

    Returns an (N, n) complex array. A window is ``window_rows`` of the
    sampler's generator: the z column is drawn and formed first, then the
    w block.

    ``screen`` (a ``SublevelRegion.radial``, for a disk window) makes the
    same draws, screens them before any row is formed and returns a
    ``ScreenedBatch`` of the rows with ``not screen(t, s) >= 0``, each the
    same row of the unscreened sample, bit for bit.

    A disk-window batch of C proposals, k = n - 1, consumes the 64-bit words
    of its generator in this order: the radius uniforms u in [0, C), the
    angle uniforms theta in [C, 2C), the (C, 2k) normals g from 2C on, and
    the ball radii r directly after the last normal. The ziggurat draws
    again on about 1% of its words, so r's first word is known only once
    every normal is drawn. The screened batch therefore draws g whole, from
    a generator skipped to word 2C, and holds it in blocks of ``_BLOCK``
    rows, each freed once it is screened; r follows from the same
    generator, and u and theta from two more generators of the same (seed,
    stream), at words 0 and C. u, theta and r are drawn and screened one
    block at a time, and only the kept rows' draws are held until they are
    formed: at most the batch holds the normals (2k * 8 * C bytes), the
    draws of the rows it keeps and block-sized temporaries. Streaming the
    normals with the other draws would mean drawing them twice, once to
    find where r starts.
    """
    if isinstance(region, SublevelRegion):
        return _rejection_sample(region, sampler)
    if screen is None:
        return window_rows(sampler.generator(), region, sampler.count)
    if region.z_inner != 0.0:
        raise ValueError("a radial screen needs a disk window (z_inner = 0)")
    return _sample_screened(region, sampler, screen)


def _skip(rng, words):
    """``rng``, a fresh ``philox`` generator, moved past its first ``words``
    64-bit words: Philox4x64 emits 4 words per counter step, and each double
    of ``random()`` takes one."""
    rng.bit_generator.advance(words // 4)
    rng.random(words % 4)
    return rng


def _sample_screened(window, sampler, screen):
    """The screened branch of ``sample`` (see there for the word positions):
    the normals are drawn whole, held as ``_BLOCK``-row blocks and freed
    block by block; u, theta and r are drawn and screened one block at a
    time, and only the draws of the kept rows are held."""
    count, k = sampler.count, window.n - 1
    rng = _skip(sampler.generator(), 2 * count)  # g, then r
    normals = [rng.standard_normal((min(_BLOCK, count - lo), 2 * k))
               for lo in range(0, count, _BLOCK)]
    u_rng, th_rng = sampler.generator(), _skip(sampler.generator(), count)
    zr2 = window.z_radius * window.z_radius
    kept = []
    while normals:
        g = normals.pop(0)
        u, r = u_rng.random(len(g)), rng.random(len(g))
        r **= 1.0 / (2 * k)
        r *= window.w_radius
        outside = screen(zr2 * u, r * r) >= 0.0
        # a row of zero normals forms w = 0, not |w| = r: it stays a candidate
        keep = np.flatnonzero(~outside | (g[:, 0] == 0.0))
        kept.append((u[keep], th_rng.random(len(g))[keep], g[keep], r[keep]))
    u, th, g, r = (np.concatenate(d) for d in zip(*kept))
    del kept
    # only the kept rows are formed, z first, each factor in blocks of _BLOCK
    pts = np.empty((len(u), window.n), dtype=np.complex128)
    _disk_rows(u, 2.0 * np.pi * th, window.z_radius, pts[:, 0])
    _ball_rows(g, r, pts[:, 1:])
    return ScreenedBatch(pts, count)


class EmptyRegionError(RuntimeError):
    """Rejection sampling found (almost) no members in the proposal window."""


_MAX_BATCHES = 200  # proposal batches of one rejection sample before it gives up
_PATH_STEPS = 512  # sampled points per segment of a connectivity polyline


def _rejection_sample(region: SublevelRegion, sampler: Sampler) -> np.ndarray:
    want = sampler.count
    out = np.empty((want, region.window.n), dtype=np.complex128)
    got = 0
    for batch in range(_MAX_BATCHES):
        proposal = Sampler(
            seed=sampler.seed,
            count=max(4 * want, 4096),
            stream=sampler.stream * 1000 + batch,
        )
        # with a radial screen only the rows it cannot exclude are formed;
        # len() of what sample() returns is the number of proposals drawn
        drawn = sample(region.window, proposal, screen=region.radial)
        pts = drawn if region.radial is None else drawn.points
        keep = region.contains(pts)
        k = min(int(np.sum(keep)), want - got)
        out[got : got + k] = pts[np.flatnonzero(keep)[:k]]
        got += k
        if got == want:
            return out
        # free this batch before the next one is drawn
        del drawn, pts, keep
    raise EmptyRegionError(
        f"rejection sampling of {region.label!r} accepted {got}/{want} points"
    )


# ---------------------------------------------------------------------------
# connectivity probe
# ---------------------------------------------------------------------------

def path_connected_probe(
    defining: Callable[[np.ndarray], np.ndarray],
    p,
    q,
    waypoints: Optional[Sequence] = None,
) -> bool:
    """Whether a sampled polyline from p through ``waypoints`` to q stays in
    ``{defining < 0}``: True when all ``_PATH_STEPS`` samples of every
    segment are members. Both endpoints must be members.
    """

    def to_arr(pt):
        return np.asarray(pt, dtype=np.complex128).ravel()

    nodes = [to_arr(p)]
    for wpt in waypoints or ():
        nodes.append(to_arr(wpt))
    nodes.append(to_arr(q))

    ends = defining(np.stack([nodes[0], nodes[-1]]))
    if not np.all(ends < 0.0):
        raise ValueError("path endpoints must lie in the sublevel set")

    t = np.linspace(0.0, 1.0, _PATH_STEPS)
    return all(
        np.all(defining(a[None, :] + t[:, None] * (b - a)[None, :]) < 0.0)
        for a, b in zip(nodes[:-1], nodes[1:])
    )
