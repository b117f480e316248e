"""Hot numeric kernels, vectorized in numpy.

Each kernel performs its arithmetic in a fixed term order, so results
are bit-stable from run to run and independent of the batch a point is
evaluated in.

Conventions: points and poles in C are passed as complex arrays, and
Hermitian matrices as one complex (N, n, n) batch, of any strides; no
kernel writes to them, and the pole loops read the contiguous float64
real and imaginary parts that ``_real_imag`` makes, so a strided view
gives the bits of a contiguous copy. Log of a modulus is computed as
``0.5*log(dx*dx + dy*dy)``, which yields -inf exactly at a pole hit, and
as ``log(hypot(dx, dy))`` where that square overflows (``sigma_many``).

The pole kernels (``sigma_many``, ``u_many``) walk the points in
fixed blocks of ``_BLOCK`` so that their per-pole temporaries stay in
cache. Blocking only splits elementwise work: the per-pole term order
of each point's accumulation is unchanged, so results are bit-identical
to an unblocked evaluation and independent of the batch a point is in.
``sigma_many`` sums its first ``_HEAD_POLES`` poles at every point of a
block and the later ones only where a per-point bound cannot prove each of
their terms below a quarter ulp of the sum so far, |acc| * 2^-55: such a
term rounds away in ``acc + t``, so skipping it keeps every bit (the error
budget of the bound is in its docstring). ``u_many``
sorts each block by x and visits each disc only at the points in its
x-window (twice the disc radius either side of the centre); a point
outside that window cannot pass the disc test, so the values are those
of the all-pairs scan.
"""

from __future__ import annotations

import numpy as np

#: kernel flavor; every report records it as ``config_echo["backend"]``
BACKEND_NAME = "numpy"

# Points per block of the pole kernels: the block's coordinates,
# accumulator and two reused float64 temporaries (640 KiB in all) stay in L2
# cache across the per-pole loop, where whole 10^5-point batches spill. The
# layers above size their blocks from it too, each as its docstring says, and
# split only elementwise or row-by-row work, so every value keeps its bits.
_BLOCK = 16384

# The log-pole tail of ``sigma_many``: the first _HEAD_POLES poles are summed
# at every point, and the rest only where a per-point bound cannot prove each
# of their terms below a quarter ulp of the sum (see there).
_HEAD_POLES = 64
_TAIL_GUARD = 1e-12  # times 1 + |z| + M, off the gap to the tail moduli
_TAIL_REL = 1e-9  # relative slack of the bound
_TAIL_ABS = 5e-13  # absolute slack, in units of log|z - a_j|
_TAIL_FLOOR = 1e-300  # covers a subnormal term; no |acc| near 0 skips
_TAIL_CAP = 1e150  # q at or above it may overflow a tail |z - a_j|^2


def _real_imag(z):
    """Contiguous float64 real and imaginary parts of the complex points z."""
    z = np.asarray(z, dtype=np.complex128)
    return np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)


# ---------------------------------------------------------------------------
# runs of equal points
# ---------------------------------------------------------------------------

def per_distinct_z(fn, z):
    """``fn`` of the complex points z (flattened), evaluated once per run of
    adjacent points of equal bits and repeated along its result's last axis.
    ``fn`` must map each point on its own: the result is then ``fn(z)`` bit
    for bit. Grouped FD stencils hold such runs; +0 and -0 never merge."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    bits = z.view(np.uint64).reshape(-1, 2)
    new = np.ones(z.size, dtype=bool)
    np.not_equal(bits[1:, 0], bits[:-1, 0], out=new[1:])
    new[1:] |= bits[1:, 1] != bits[:-1, 1]
    if new.all():
        return fn(z)
    return np.repeat(fn(z[new]), np.diff(np.flatnonzero(new), append=z.size), axis=-1)


# ---------------------------------------------------------------------------
# cutoff profile chi
# ---------------------------------------------------------------------------

def chi_many(s):
    """Radial cutoff profile: 1 on [0, 1/4], 0 on [3/4, inf), exp-smoothstep
    in between (all derivatives vanish at both junctions)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s <= 0.25] = 1.0
    mid = (s > 0.25) & (s < 0.75)
    if np.any(mid):
        u = (s[mid] - 0.25) / 0.5
        a = np.exp(-1.0 / (1.0 - u))
        b = np.exp(-1.0 / u)
        out[mid] = a / (a + b)
    return out


# ---------------------------------------------------------------------------
# taper profile (value and first two derivatives of g(t)^2)
# ---------------------------------------------------------------------------

def taper_many(t):
    """(lam, lam', lam'') of the taper profile at each t >= 0: the squared
    exp-smoothstep g(t)^2 with g = 1 on [0, 1/2] and g = 0 on [1, inf).
    Squaring makes (lam')^2 <= 4*max(g'^2)*lam an algebraic identity rather
    than an asymptotic fact."""
    t = np.asarray(t, dtype=np.float64)
    lam = np.zeros_like(t)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    lam[t <= 0.5] = 1.0
    mid = (t > 0.5) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        p = 1.0 - tm
        q = tm - 0.5
        a = np.exp(-1.0 / p)
        b = np.exp(-1.0 / q)
        ap = -a / (p * p)
        bp = b / (q * q)
        app = a * (1.0 - 2.0 * p) / (p * p * p * p)
        bpp = b * (1.0 - 2.0 * q) / (q * q * q * q)
        s = a + b
        g = a / s
        gp = (ap * b - a * bp) / (s * s)
        gpp = ((app * b - a * bpp) * s - 2.0 * (ap * b - a * bp) * (ap + bp)) / (
            s * s * s
        )
        lam[mid] = g * g
        d1[mid] = 2.0 * g * gp
        d2[mid] = 2.0 * (gp * gp + g * gpp)
    return lam, d1, d2


# ---------------------------------------------------------------------------
# truncated log-pole series
# ---------------------------------------------------------------------------

def sigma_many(z, a, delta):
    """sum_j delta_j * log|z - a_j| at each point z, -inf on an exact pole hit.

    Every point adds its terms in pole order. The first ``_HEAD_POLES`` are
    added at every point, the others only at the points that ``_tail_points``
    returns: everywhere else each of their terms t_j is below
    |acc| * 2^-55, a quarter ulp of the head sum acc, so ``acc + t_j``
    rounds back to acc and skipping the tail keeps every bit.

    Error budget of the bound on t_j = fl(delta_j * fl(0.5 * fl(log d2))),
    d2 the computed |z - a_j|^2 (u = 2^-53):
    - d2 is within a relative (1 + u)^4 of the exact |z - a_j|^2, so log d2
      is within 5u of the exact log;
    - the exact |z - a_j| lies between gap, the distance from |z| to the
      tail's modulus range [m, M], and |z| + M. The computed |z| =
      sqrt(x*x + y*y) (inf where the squares overflow, off by at most 1e-154
      where they underflow), m and M (``hypot`` of the float poles) and gap
      are within 4u (|z| + M) of the exact ones, well inside the guard
      1e-12 (1 + |z| + M) subtracted from gap (gap');
    - so |log|z - a_j|| <= log q with q = max(|z| + M, 1/gap') up to a few
      u: this is ``max(-log gap', log(|z| + M), 0)`` in one log, and q > 1
      because gap' < |z| + M;
    - numpy's log is within a few ulps and every product rounds once: the
      factor 1 + 1e-9 covers the relative errors, a slack of 5e-13 in log
      units the absolute ones, and 1e-300 a subnormal delta_j * y.
    So |t_j| <= D (1 + 1e-9) log q + D 5e-13 + 1e-300 with D the largest
    |delta_j| of the tail. The bound fails, and the point sums its tail, at
    gap' <= 0, at q >= 1e150 (a tail d2 could overflow), at acc = 0 and at
    a NaN z, delta or acc. An infinite acc may skip, since every skipped
    term is finite and leaves it as it is.

    A finite z whose d2 overflows (|z| above about 1.34e154) takes every pole
    and sums an infinite term; ``_resum_overflows`` sums it again with hypot.
    """
    (zr, zi), (ar, ai) = _real_imag(z), _real_imag(a)
    out = np.zeros_like(zr)
    npts, npoles = zr.shape[0], ar.shape[0]
    head = min(_HEAD_POLES, npoles)
    if head < npoles:
        moduli = np.hypot(ar[head:], ai[head:])
        big = np.max(np.abs(delta[head:]))
        bound = (np.min(moduli), np.max(moduli), big * (1.0 + _TAIL_REL),
                 big * _TAIL_ABS + _TAIL_FLOOR)
    dx = np.empty(min(npts, _BLOCK))
    dy = np.empty_like(dx)
    # pole hits divide by 0, huge z overflow (re-summed below), inf meets -inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, npts, _BLOCK):
            hi = min(lo + _BLOCK, npts)
            bx, by, acc = dx[: hi - lo], dy[: hi - lo], out[lo:hi]
            _add_poles(zr[lo:hi], zi[lo:hi], ar[:head], ai[:head], delta[:head],
                       acc, bx, by)
            if head == npoles:
                continue
            idx = _tail_points(zr[lo:hi], zi[lo:hi], acc, *bound, bx, by)
            if idx.size:
                part = acc[idx]
                _add_poles(zr[lo:hi][idx], zi[lo:hi][idx], ar[head:], ai[head:],
                           delta[head:], part, bx[: idx.size], by[: idx.size])
                acc[idx] = part
        _resum_overflows(zr, zi, ar, ai, delta, out)
    return out


def _resum_overflows(zr, zi, ar, ai, delta, out):
    """Re-sum from log(hypot(dx, dy)) the points of finite z where some
    dx*dx + dy*dy overflowed: their sums are not finite. Every other point,
    a pole hit or an underflowed square among them, keeps its bits.

    Only a point with fl(max(|x|, |y|) + P) >= 2^510 can overflow, P the
    largest |ar_j| or |ai_j|; the others, pole hits among them, are not
    re-summed. Bound, with u = 2^-53 and s = max(|x|, |y|): below that
    threshold s + P < 2^510 / (1 - u) < 2^511. Each computed difference is
    at most (s + P)(1 + u) in magnitude, each square at most
    (s + P)^2 (1 + u)^3, and their computed sum at most
    2 (s + P)^2 (1 + u)^4 < 2^1023 (1 + u)^4, below the largest float
    2^1024 (1 - u). Rounding is monotone, so no square and no sum reaches
    inf there. The threshold is 2^510, about 3.4e153, where the squares of
    poles of modulus at most 2 overflow only from |z| of about 1.34e154 on.
    """
    finite = np.isfinite(out)
    if finite.all():
        return
    idx = np.flatnonzero(~finite)
    x, y = zr[idx], zi[idx]
    reach = max(np.max(np.abs(ar)), np.max(np.abs(ai)))
    keep = np.isfinite(x) & np.isfinite(y)
    keep &= np.maximum(np.abs(x), np.abs(y)) + reach >= 2.0**510
    if keep.any():
        idx = idx[keep]
        acc, over = _hypot_sums(x[keep], y[keep], ar, ai, delta)
        out[idx[over]] = acc[over]


def _hypot_sums(x, y, ar, ai, delta):
    """sum_j delta_j * log(hypot(dx, dy)) at each point, and whether some
    dx*dx + dy*dy of the point overflowed."""
    over = np.zeros(x.size, dtype=bool)
    acc = np.zeros(x.size)
    for j in range(ar.shape[0]):
        dx, dy = x - ar[j], y - ai[j]
        over |= np.isinf(dx * dx + dy * dy)
        acc = acc + delta[j] * np.log(np.hypot(dx, dy))
    return acc, over


def _add_poles(zr, zi, ar, ai, delta, acc, bx, by):
    """acc += delta_j * (0.5 * log(dx*dx + dy*dy)) pole by pole, op by op."""
    for j in range(ar.shape[0]):
        np.subtract(zr, ar[j], out=bx)
        np.multiply(bx, bx, out=bx)
        np.subtract(zi, ai[j], out=by)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        np.log(bx, out=bx)
        np.multiply(0.5, bx, out=bx)
        np.multiply(delta[j], bx, out=bx)
        np.add(acc, bx, out=acc)


def _tail_points(zr, zi, acc, m, big_m, c1, c0, q, s):
    """Indices of the points where the tail bound of ``sigma_many`` fails:
    not ``c1 * log(q) + c0 < |acc| * 2^-55``, or q >= 1e150, with
    q = max(|z| + M, 1/gap'). ``q`` and ``s`` are scratch arrays of the
    points' size."""
    # inf, NaN and huge z overflow, divide by 0 or subtract inf from inf on
    # the way; each of them takes the tail
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.multiply(zr, zr, out=q)
        np.multiply(zi, zi, out=s)
        q += s
        np.sqrt(q, out=q)                         # |z|, 15x faster than hypot
        np.add(q, big_m, out=s)                   # |z| + M
        inner = m - q
        np.subtract(q, big_m, out=q)
        np.maximum(q, inner, out=q)               # gap
        np.multiply(s, _TAIL_GUARD, out=inner)
        q -= _TAIL_GUARD
        q -= inner                                # gap'
        np.maximum(q, 0.0, out=q)                 # NaN stays NaN
        np.divide(1.0, q, out=q)                  # +inf where gap' <= 0
        np.maximum(s, q, out=q)
        take = q >= _TAIL_CAP
        np.log(q, out=q)
        q *= c1
        q += c0
        np.abs(acc, out=s)
        s *= 2.0**-55
        take |= ~(q < s)                          # NaN bounds take the tail
    return np.flatnonzero(take)


# ---------------------------------------------------------------------------
# plateau-glued subharmonic function u
# ---------------------------------------------------------------------------

def u_many(z, a, rad, eps):
    """max(|z|^2 + eps_j*chi(|z-a_j|/r_j)*log|z-a_j|, 1) inside the disc
    around a_j that contains z (the discs are disjoint), |z|^2 elsewhere.

    Each block sorts its points by x once and visits disc j only at the
    points with x in the window [re a_j - 2 r_j, re a_j + 2 r_j]. This is
    exact: rounding is monotone, so fl(d^2) < fl(r_j^2) forces
    |fl(x - re a_j)| < r_j, and such an x lies inside the window whenever
    r_j exceeds a few ulps of |a_j| (for r_j = 1/(4j(j+1)) and |a_j| of
    order 1, every j below about 10^7). Discs are visited in ascending j
    and each point keeps its first hit, as in an all-pairs scan. ``eps`` is
    read only as ``eps[j]`` at a disc j that holds a point, so it may be any
    indexable that computes eps_j on first read.
    """
    (zr, zi), (ar, ai) = _real_imag(z), _real_imag(a)
    out = np.empty_like(zr)
    win_lo = ar - 2.0 * rad
    win_hi = ar + 2.0 * rad
    for lo in range(0, zr.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, zr.shape[0])
        out[lo:hi] = _u_block(zr[lo:hi], zi[lo:hi], ar, ai, rad, eps, win_lo, win_hi)
    return out


def _u_block(zr, zi, ar, ai, rad, eps, win_lo, win_hi):
    m2 = zr * zr + zi * zi
    out = m2.copy()
    claimed = np.zeros(zr.shape[0], dtype=bool)
    # NaN x sorts last and -inf/+inf outside every finite window
    order = np.argsort(zr)
    xs = zr[order]
    starts = np.searchsorted(xs, win_lo, side="left")
    stops = np.searchsorted(xs, win_hi, side="right")
    for j in np.flatnonzero(starts < stops).tolist():
        win = order[starts[j] : stops[j]]
        dx = zr[win] - ar[j]
        dy = zi[win] - ai[j]
        d2 = dx * dx + dy * dy
        mask = (~claimed[win]) & (d2 < rad[j] * rad[j])
        if not np.any(mask):
            continue
        idx = win[mask]
        claimed[idx] = True
        d2m = d2[mask]
        s = np.sqrt(d2m) / rad[j]
        c = chi_many(s)
        val = m2[idx]
        inner = c > 0.0
        if np.any(inner):
            with np.errstate(divide="ignore"):
                half_log = 0.5 * np.log(d2m[inner])
            val[inner] = val[inner] + (eps[j] * c[inner]) * half_log
        out[idx] = np.maximum(val, 1.0)
    return out


# ---------------------------------------------------------------------------
# smallest eigenvalue of Hermitian 2x2 matrices [[a, b], [conj(b), c]]
# ---------------------------------------------------------------------------

def min_eig_2x2_many(a, c, b):
    """Smallest eigenvalue of each [[a, b], [conj(b), c]], b real or complex."""
    # det/lmax resolves a tiny bottom eigenvalue without cancellation,
    # but only when m >= 0 (else lmax = m + disc itself cancels); for
    # m < 0 the direct branch m - disc adds same-sign terms and is exact
    m = 0.5 * (a + c)
    d = 0.5 * (a - c)
    b2 = b.real * b.real + b.imag * b.imag
    disc = np.sqrt(d * d + b2)
    lmax = m + disc
    det = a * c - b2
    lo = m - disc
    use_quot = (m >= 0.0) & (lmax > 0.0)
    quot = np.divide(det, lmax, out=np.zeros_like(lmax), where=use_quot)
    return np.where(use_quot, quot, lo)


# ---------------------------------------------------------------------------
# smallest eigenvalue of Hermitian n x n matrices via cyclic Jacobi
# ---------------------------------------------------------------------------

_JACOBI_SWEEPS = 60
_JACOBI_TOL = 1e-14


def jacobi_min_eig_many(H):
    """Smallest eigenvalues of the complex Hermitian (N, n, n) batch H by
    cyclic-by-row complex Jacobi on its (real, imag) parts, vectorized
    across the batch and, for each pair (p, q), across the other rows.

    Each matrix leaves the sweeps on its own, at the first convergence test
    it passes or after ``_JACOBI_SWEEPS`` sweeps, with its diagonal minimum:
    its result depends on its own entries only, as when evaluated alone.
    """
    hr, hi = H.real, H.imag
    n = hr.shape[1]
    diag = np.arange(n)
    out = np.empty(hr.shape[0])
    live = np.arange(hr.shape[0])
    for sweep in range(_JACOBI_SWEEPS + 1):
        offs = np.sqrt(hr**2 + hi**2)
        offs[:, diag, diag] = 0.0
        scale = np.abs(hr[:, diag, diag]).max(axis=1)
        done = offs.max(axis=(1, 2)) <= _JACOBI_TOL * np.maximum(scale, 1.0)
        done |= sweep == _JACOBI_SWEEPS
        out[live[done]] = hr[done][:, diag, diag].min(axis=1)
        # boolean indexing copies: the rotations never touch the caller's arrays
        live, hr, hi = live[~done], hr[~done], hi[~done]
        if not live.size:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = np.sqrt(hr[:, p, q] ** 2 + hi[:, p, q] ** 2)
                act = r > 1e-300
                if not np.any(act):
                    continue
                rs = np.where(act, r, 1.0)
                wr = np.where(act, hr[:, p, q] / rs, 1.0)
                wi = np.where(act, hi[:, p, q] / rs, 0.0)
                tau = (hr[:, q, q] - hr[:, p, p]) / (2.0 * rs)
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    tt = np.where(
                        tau >= 0.0,
                        1.0 / (tau + np.sqrt(1.0 + tau * tau)),
                        -1.0 / (-tau + np.sqrt(1.0 + tau * tau)),
                    )
                tt = np.where(act, tt, 0.0)
                cc = 1.0 / np.sqrt(1.0 + tt * tt)
                ss = tt * cc
                tr = tt * r
                hr[:, p, p] -= tr
                # an inactive pair leaves its matrix as it is; -0.0 + 0.0 is +0.0
                hr[:, q, q] = np.where(act, hr[:, q, q] + tr, hr[:, q, q])
                hr[:, p, q] = np.where(act, 0.0, hr[:, p, q])
                hi[:, p, q] = np.where(act, 0.0, hi[:, p, q])
                hr[:, q, p] = hr[:, p, q]
                hi[:, q, p] = -hi[:, p, q]
                # all rows k != p, q at once, each from its own x and y
                ks = np.delete(diag, (p, q))
                act, cc, ss, wr, wi = (v[:, None] for v in (act, cc, ss, wr, wi))
                xr, xi = hr[:, ks, p], hi[:, ks, p]
                yr, yi = hr[:, ks, q], hi[:, ks, q]
                # A[k,p] <- c*x - s*conj(w)*y ; A[k,q] <- s*w*x + c*y
                cwyr = wr * yr + wi * yi
                cwyi = wr * yi - wi * yr
                nxr = cc * xr - ss * cwyr
                nxi = cc * xi - ss * cwyi
                wxr = wr * xr - wi * xi
                wxi = wr * xi + wi * xr
                nyr = ss * wxr + cc * yr
                nyi = ss * wxi + cc * yi
                hr[:, ks, p] = np.where(act, nxr, xr)
                hi[:, ks, p] = np.where(act, nxi, xi)
                hr[:, ks, q] = np.where(act, nyr, yr)
                hi[:, ks, q] = np.where(act, nyi, yi)
                hr[:, p, ks] = hr[:, ks, p]
                hi[:, p, ks] = -hi[:, ks, p]
                hr[:, q, ks] = hr[:, ks, q]
                hi[:, q, ks] = -hi[:, ks, q]
    return out
