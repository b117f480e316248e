"""Hot numeric kernels, vectorized in numpy.

Each kernel performs its arithmetic in a fixed term order, so results
are bit-stable from run to run and independent of the batch a point is
evaluated in.

Conventions: points in C are passed as separate float64 arrays of real
and imaginary parts; log of a modulus is always computed as
``0.5*log(dx*dx + dy*dy)``, which yields -inf exactly at a pole hit.

The pole kernels (``sigma_many``, ``u_many``) walk the points in
fixed blocks of ``_BLOCK`` so that their per-pole temporaries stay in
cache. Blocking only splits elementwise work: the per-pole term order
of each point's accumulation is unchanged, so results are bit-identical
to an unblocked evaluation and independent of the batch a point is in.
``sigma_many`` sums every pole at every point of a block. ``u_many``
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
# cache across the per-pole loop, where whole 10^5-point batches spill.
_BLOCK = 16384

# Radial cutoff profile: 1 on [0, CHI_PLATEAU], 0 on [CHI_SUPPORT, inf),
# exp-smoothstep in between (all derivatives vanish at both junctions).
CHI_PLATEAU = 0.25
CHI_SUPPORT = 0.75

# Taper profile: the squared exp-smoothstep g(t)^2 with g = 1 on [0, 1/2]
# and g = 0 on [1, inf). Squaring makes (taper')^2 <= 4*max(g'^2)*taper
# an algebraic identity rather than an asymptotic fact.


# ---------------------------------------------------------------------------
# cutoff profile chi
# ---------------------------------------------------------------------------

def chi_many(s):
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
    """Return (lam, lam', lam'') of the taper profile at each t >= 0."""
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

def sigma_many(zr, zi, ar, ai, delta):
    """sum_j delta_j * log|z - a_j| at each point, -inf on an exact pole hit."""
    out = np.zeros_like(zr)
    npts = zr.shape[0]
    dx = np.empty(min(npts, _BLOCK))
    dy = np.empty_like(dx)
    with np.errstate(divide="ignore"):
        for lo in range(0, npts, _BLOCK):
            hi = min(lo + _BLOCK, npts)
            bx, by, acc = dx[: hi - lo], dy[: hi - lo], out[lo:hi]
            for j in range(ar.shape[0]):
                # acc + delta_j * (0.5 * log(dx*dx + dy*dy)), op by op
                np.subtract(zr[lo:hi], ar[j], out=bx)
                np.multiply(bx, bx, out=bx)
                np.subtract(zi[lo:hi], ai[j], out=by)
                np.multiply(by, by, out=by)
                np.add(bx, by, out=bx)
                np.log(bx, out=bx)
                np.multiply(0.5, bx, out=bx)
                np.multiply(delta[j], bx, out=bx)
                np.add(acc, bx, out=acc)
    return out


# ---------------------------------------------------------------------------
# plateau-glued subharmonic function u
# ---------------------------------------------------------------------------

def u_many(zr, zi, ar, ai, rad, eps):
    """max(|z|^2 + eps_j*chi(|z-a_j|/r_j)*log|z-a_j|, 1) inside the disc
    around a_j that contains z (the discs are disjoint), |z|^2 elsewhere.

    Each block sorts its points by x once and visits disc j only at the
    points with x in the window [re a_j - 2 r_j, re a_j + 2 r_j]. This is
    exact: rounding is monotone, so fl(d^2) < fl(r_j^2) forces
    |fl(x - re a_j)| < r_j, and such an x lies inside the window whenever
    r_j exceeds a few ulps of |a_j| (for r_j = 1/(4j(j+1)) and |a_j| of
    order 1, every j below about 10^7). Discs are visited in ascending j
    and each point keeps its first hit, as in an all-pairs scan.
    """
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

def min_eig_2x2_many(a, c, br, bi):
    # det/lmax resolves a tiny bottom eigenvalue without cancellation,
    # but only when m >= 0 (else lmax = m + disc itself cancels); for
    # m < 0 the direct branch m - disc adds same-sign terms and is exact
    m = 0.5 * (a + c)
    d = 0.5 * (a - c)
    b2 = br * br + bi * bi
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


def jacobi_min_eig_many(hr, hi):
    """Smallest eigenvalues by cyclic-by-row complex Jacobi on the (real,
    imag) parts, vectorized across the batch."""
    hr = hr.copy()
    hi = hi.copy()
    nmat, n, _ = hr.shape
    idx = np.arange(nmat)
    for _ in range(_JACOBI_SWEEPS):
        offs = np.sqrt(hr**2 + hi**2)
        for p in range(n):
            offs[:, p, p] = 0.0
        off = offs.reshape(nmat, -1).max(axis=1)
        diag = np.abs(hr[:, np.arange(n), np.arange(n)]).max(axis=1)
        if np.all(off <= _JACOBI_TOL * np.maximum(diag, 1.0)):
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
                hr[idx, p, p] = hr[:, p, p] - tr
                hr[idx, q, q] = hr[:, q, q] + tr
                hr[idx, p, q] = np.where(act, 0.0, hr[:, p, q])
                hi[idx, p, q] = np.where(act, 0.0, hi[:, p, q])
                hr[idx, q, p] = hr[:, p, q]
                hi[idx, q, p] = -hi[:, p, q]
                for k in range(n):
                    if k == p or k == q:
                        continue
                    xr = hr[:, k, p].copy()
                    xi = hi[:, k, p].copy()
                    yr = hr[:, k, q].copy()
                    yi = hi[:, k, q].copy()
                    # A[k,p] <- c*x - s*conj(w)*y ; A[k,q] <- s*w*x + c*y
                    cwyr = wr * yr + wi * yi
                    cwyi = wr * yi - wi * yr
                    nxr = cc * xr - ss * cwyr
                    nxi = cc * xi - ss * cwyi
                    wxr = wr * xr - wi * xi
                    wxi = wr * xi + wi * xr
                    nyr = ss * wxr + cc * yr
                    nyi = ss * wxi + cc * yi
                    hr[idx, k, p] = np.where(act, nxr, xr)
                    hi[idx, k, p] = np.where(act, nxi, xi)
                    hr[idx, k, q] = np.where(act, nyr, yr)
                    hi[idx, k, q] = np.where(act, nyi, yi)
                    hr[idx, p, k] = hr[:, k, p]
                    hi[idx, p, k] = -hi[:, k, p]
                    hr[idx, q, k] = hr[:, k, q]
                    hi[idx, q, k] = -hi[:, k, q]
    return hr[:, np.arange(n), np.arange(n)].min(axis=1)
