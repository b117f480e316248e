"""FD Wirtinger Hessians, eigenvalue wrapper, circle means, certify_psh."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert import calculus, kernels
from pshcert.calculus import (
    _stencil_offsets,
    certify_psh,
    circle_mean_test,
    levi_floors,
    make_certificate,
    min_eigs_batch,
    wirtinger_hessian_batch,
)
from pshcert.config import MAX_N, CertifyConfig
from pshcert.constructions import build_thm1
from pshcert.geometry import EmptyRegionError, Sampler, Window

H_STEP = 1e-4


def _sq_first(Z):
    Z = np.atleast_2d(Z)
    return np.abs(Z[:, 0]) ** 2


def _sq_all(Z):
    Z = np.atleast_2d(Z)
    return np.sum(np.abs(Z) ** 2, axis=1)


# --- Wirtinger Hessians -----------------------------------------------------

def test_hessian_of_first_coordinate_square():
    H, ok = wirtinger_hessian_batch(_sq_first, np.array([[0.3 + 1j, -2.0 + 0.5j]]),
                                    H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.diag([1.0, 0.0]), atol=1e-7)


def test_hessian_of_norm_square_is_identity():
    H, ok = wirtinger_hessian_batch(_sq_all, np.array([[0.2 + 0.1j, 1.5j]]), H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.eye(2), atol=1e-7)
    assert min_eigs_batch(H)[0] == pytest.approx(1.0, abs=1e-7)


def test_hessian_of_pluriharmonic_vanishes():
    def f(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] ** 2).real + (Z[:, 1] ** 3).real

    H, ok = wirtinger_hessian_batch(f, np.array([[0.7 - 0.2j, 0.4 + 0.9j]]), H_STEP)
    assert ok[0]
    np.testing.assert_allclose(H[0], np.zeros((2, 2)), atol=1e-6)


def test_hessian_mixed_entries_match_analytic():
    # f = Re(z conj(w)) has constant mixed entry 1/2; f = Im(z conj(w))
    # has entry -i/2; f = |z|^2 |w|^2 has entry conj(z) w
    z0 = np.array([[0.8 + 0.3j, -0.6 + 1.1j]])

    def f_re(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] * np.conj(Z[:, 1])).real

    def f_im(Z):
        Z = np.atleast_2d(Z)
        return (Z[:, 0] * np.conj(Z[:, 1])).imag

    def f_prod(Z):
        Z = np.atleast_2d(Z)
        return (np.abs(Z[:, 0]) * np.abs(Z[:, 1])) ** 2

    for f, want in [
        (f_re, 0.5),
        (f_im, -0.5j),
        (f_prod, np.conj(z0[0, 0]) * z0[0, 1]),
    ]:
        H, _ = wirtinger_hessian_batch(f, z0, H_STEP)
        assert H[0, 0, 1] == pytest.approx(want, abs=1e-6)
        assert H[0, 1, 0] == pytest.approx(np.conj(want), abs=1e-6)


def test_hessian_hermitian_by_construction():
    rng = np.random.default_rng(0)

    def f(Z):
        Z = np.atleast_2d(Z)
        return np.abs(Z[:, 0]) ** 2 * (1 + (Z[:, 1]).real) + np.abs(Z[:, 1]) ** 4

    pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
    assert np.all(ok)
    np.testing.assert_allclose(H, np.conj(np.transpose(H, (0, 2, 1))), rtol=0,
                               atol=0)


def _unsorted_stencil_offsets(n, h):
    # the offsets in construction order, before they were grouped by z
    def unit(axis):
        e = np.zeros(n, dtype=np.complex128)
        e[axis // 2] = 1.0 if axis % 2 == 0 else 1.0j
        return e

    offsets = [np.zeros(n, dtype=np.complex128)]
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
    return np.stack(offsets), plus, minus, np.reshape(pair_idx, (-1, 4, 4))


@pytest.mark.parametrize("n", range(2, 9))
def test_stencil_offsets_grouped_by_z(n):
    offsets, plus, minus, pair_idx = _stencil_offsets(n, H_STEP)
    assert offsets.shape == (1 + 4 * n + 8 * n * (n - 1), n)
    assert pair_idx.shape == (n * (n - 1) // 2, 4, 4)
    assert np.all(offsets[0] == 0)
    z = offsets[:, 0]
    assert 1 + np.count_nonzero(z[1:] != z[:-1]) == 5
    # the same stencil, only reordered
    old, old_plus, old_minus, old_idx = _unsorted_stencil_offsets(n, H_STEP)
    np.testing.assert_array_equal(offsets[plus], old[old_plus])
    np.testing.assert_array_equal(offsets[minus], old[old_minus])
    np.testing.assert_array_equal(offsets[pair_idx], old[old_idx])


@pytest.mark.parametrize("n", [2, 3])
def test_grouped_stencil_keeps_hessian_bits(n, monkeypatch):
    # the thm1 witness holds the log-pole series; points with re z = +-0 too
    th1 = build_thm1(CertifyConfig(n=n, samples=300))
    rng = np.random.default_rng(42)
    pts = (rng.uniform(-1, 1, (2000, n)) + 1j * rng.uniform(-1, 1, (2000, n)))
    pts[::7, 0].real = 0.0
    pts[1::7, 0].real = -0.0
    f = th1.witness_smooth_values
    with np.errstate(invalid="ignore"):
        H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
        monkeypatch.setattr(calculus, "_stencil_offsets", _unsorted_stencil_offsets)
        H_old, ok_old = wirtinger_hessian_batch(f, pts, H_STEP)
    assert H.tobytes() == H_old.tobytes()
    assert np.array_equal(ok, ok_old) and ok.sum() > 1900


def test_stencil_error_at_log_pole():
    def f(Z):
        Z = np.atleast_2d(Z)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(Z[:, 1])) + np.sum(np.abs(Z) ** 2, axis=1)

    # the stencil around a pole point is flagged and its row zeroed, not raised
    H, ok = wirtinger_hessian_batch(f, np.array([[0.5, 0j], [0.5, 1.0]]), H_STEP)
    assert not ok[0] and ok[1]
    np.testing.assert_array_equal(H[0], np.zeros((2, 2)))
    assert np.all(np.isfinite(H[1]))
    assert np.all(np.isfinite(min_eigs_batch(H)))
    # levi_floors: the smallest eigenvalue, -inf where the stencil failed
    floors = levi_floors(f, np.array([[0.5, 0j], [0.5, 1.0]]), H_STEP)
    assert floors[0] == -np.inf and floors[1] == min_eigs_batch(H)[1]
    assert floors[1] == pytest.approx(1.0, abs=1e-6)


def _one_call_hessian(f, points, h):
    # the unblocked formula: f called once on every stencil of every point,
    # and the mixed differences of all pairs formed before any H_jk
    npts, n = points.shape
    offsets, plus, minus, pair_idx = _stencil_offsets(n, h)
    nst = offsets.shape[0]
    grid = points[:, None, :] + offsets[None, :, :]
    vals = np.asarray(f(grid.reshape(npts * nst, n)), dtype=np.float64)
    vals = vals.reshape(npts, nst)
    ok = np.all(np.isfinite(vals), axis=1)
    h2 = h * h
    f0 = vals[:, 0]
    H = np.zeros((npts, n, n), dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        for j in range(n):
            sxx = (vals[:, plus[2 * j]] + vals[:, minus[2 * j]] - 2.0 * f0) / h2
            syy = (vals[:, plus[2 * j + 1]] + vals[:, minus[2 * j + 1]]
                   - 2.0 * f0) / h2
            H[:, j, j] = 0.25 * (sxx + syy)
        mixed = {}
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        for (j, k), quads in zip(pairs, pair_idx):
            for (pj, pk), quad in zip(((0, 0), (1, 1), (0, 1), (1, 0)), quads):
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


def _log_pole_target(Z):
    # elementwise, with a log pole at w_1 = 0.3
    with np.errstate(divide="ignore"):
        return (np.log(np.abs(Z[:, 1] - 0.3)) + np.abs(Z[:, 0] * Z[:, -1]) ** 2
                + (Z[:, 0] ** 3).real)


STEP = kernels._BLOCK // 5  # points per stencil call, at most
ROWS = 8 * kernels._BLOCK  # stencil rows per f call, at most


def _per_call(n):
    # the points per stencil call (and per levi_floors block) at dimension n
    return min(STEP, ROWS // _stencil_offsets(n, H_STEP)[0].shape[0])


def _blocks(npts, step):
    return [min(step, npts - lo) for lo in range(0, npts, step)]


@pytest.mark.parametrize("npts", [1, STEP - 1, STEP, STEP + 1, 3 * STEP + 7])
@pytest.mark.parametrize("n", [2, 3])
def test_blocked_hessian_equals_one_call(n, npts):
    step = _per_call(n)
    rng = np.random.default_rng(npts + n)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))
    # pole hits (w_1 = 0.3) and NaN rows on both sides of the block edges
    hits = [i for i in (0, step - 1, step, npts - 1) if i < npts]
    nans = [i for i in (step + 1, 2 * step - 1, 2 * step) if i < npts]
    pts[hits, 1] = 0.3
    for i in nans:
        pts[i, i % n] = np.nan
    calls = []

    def f(Z):
        calls.append(Z.copy())
        return _log_pole_target(Z)

    with np.errstate(invalid="ignore"):
        H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
        H_one, ok_one = _one_call_hessian(_log_pole_target, pts, H_STEP)
    assert H.tobytes() == H_one.tobytes()
    assert np.array_equal(ok, ok_one)
    assert set(np.flatnonzero(~ok).tolist()) == set(hits + nans)
    # every stencil point reaches f exactly once, in order, one block per call
    offsets = _stencil_offsets(n, H_STEP)[0]
    nst = offsets.shape[0]
    grid = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, n)
    assert [len(c) for c in calls] == [b * nst for b in _blocks(npts, step)]
    assert np.concatenate(calls).tobytes() == grid.tobytes()


def test_hessian_working_set_is_block_sized():
    # 10^4 points at n = 3: f sees _per_call(3) points' stencils per call.
    # Live at the peak: vals (N*S float64), H (N*n*n complex), and per block
    # the stencil grid (per_call*S*n complex) plus f's temporaries, which for
    # this f (three (per_call*S,) float64 arrays) are less than one more grid.
    # One call on every stencil would hold the whole grid, N*S*n*16 bytes =
    # 29.3 MB, alone
    npts, n = 10_000, 3
    nst = _stencil_offsets(n, H_STEP)[0].shape[0]
    per_call = _per_call(n)
    bound = npts * nst * 8 + npts * n * n * 16 + 2 * (per_call * nst * n * 16)
    assert bound < npts * nst * n * 16
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))

    def f(Z):
        return np.abs(Z[:, 0]) ** 2 + np.abs(Z[:, 1]) ** 2

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("n", [4, 8])
def test_large_n_hessian_calls_are_row_bounded(n):
    # from n = 3 on, STEP stencils pass ROWS rows: f sees ROWS // S points'
    # stencils per call, in order, and H keeps the bits of one call
    nst = _stencil_offsets(n, H_STEP)[0].shape[0]
    per_call = ROWS // nst
    assert per_call < STEP and per_call == _per_call(n)
    npts = 2 * per_call + 3
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))
    pts[[0, per_call - 1, per_call, npts - 1], 1] = 0.3
    calls = []

    def f(Z):
        calls.append(len(Z))
        return _log_pole_target(Z)

    H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
    H_one, ok_one = _one_call_hessian(_log_pole_target, pts, H_STEP)
    assert calls == [per_call * nst, per_call * nst, 3 * nst]
    assert H.tobytes() == H_one.tobytes()
    assert np.array_equal(ok, ok_one) and np.sum(~ok) == 4


def _levi_floors_peak(n, npts):
    # the tracemalloc peak of levi_floors on npts points of a diagonal
    # quadratic (Levi form diag(1, ..., n)), and its row-budget bound. Live at
    # the peak: the floors (N float64); per levi_floors block of _per_call(n)
    # points, the stencil values (per_call*S float64), H (per_call*n*n
    # complex) and Jacobi's copies and temporaries (under 8 more per_call*n*n
    # float64 arrays); per f call, one grid of at most ROWS stencil rows
    # (ROWS*n complex) and this f's temporaries (three ROWS*n float64 arrays)
    nst = _stencil_offsets(n, H_STEP)[0].shape[0]
    per_call = _per_call(n)
    bound = (npts * 8 + per_call * nst * 8 + per_call * n * n * 16
             + 8 * per_call * n * n * 8 + ROWS * n * 16 + 3 * ROWS * n * 8)
    rng = np.random.default_rng(n)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))
    w = np.arange(1.0, n + 1.0)

    def f(Z):
        return np.sum(w * (Z.real ** 2 + Z.imag ** 2), axis=1)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        floors = levi_floors(f, pts, H_STEP)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(floors, 1.0, atol=1e-5)
    return peak, bound


def test_levi_floors_working_set_at_n8():
    # 4000 points at n = 8, 481 stencil rows each. With the calls sized in
    # points, one grid held STEP*S rows (202 MB) and the peak was 397 MiB
    n = 8
    peak, bound = _levi_floors_peak(n, 4000)
    assert bound < STEP * _stencil_offsets(n, H_STEP)[0].shape[0] * n * 16
    assert peak < bound, (peak, bound)


def test_levi_floors_working_set_at_n3():
    # 2 * 10^4 points at n = 3, 61 stencil rows each: one block is 2148
    # points (131,028 rows). Blocks of STEP points (199,836 rows) peaked at
    # 20.5 MiB, over this bound; row-budgeted blocks peak at 13.5 MiB
    n = 3
    peak, bound = _levi_floors_peak(n, 20_000)
    old_rows = STEP * _stencil_offsets(n, H_STEP)[0].shape[0]
    assert bound < old_rows * n * 16 + 3 * old_rows * n * 8
    assert peak < bound, (peak, bound)


def test_levi_floors_working_set_is_block_sized():
    # 6 * 10^4 points at n = 3: the Hessians and their Jacobi eigenvalues run
    # per stencil block, so only the N floors outlive a block. Live at the
    # peak: the floors (N float64), and per block of _per_call(3) points the
    # stencil values (per_call*S float64), H (per_call*n*n complex), two
    # stencil grids (per_call*S*n complex, as above) and Jacobi's copies and
    # temporaries (under 8 more per_call*n*n float64 arrays). The unblocked
    # floors held vals and H for every point, N*(S*8 + n*n*16) bytes =
    # 37.9 MB, on top of one grid
    npts, n = 60_000, 3
    nst = _stencil_offsets(n, H_STEP)[0].shape[0]
    per_call = _per_call(n)
    bound = (npts * 8 + per_call * nst * 8 + per_call * n * n * 16
             + 2 * (per_call * nst * n * 16) + 8 * per_call * n * n * 8)
    assert bound < npts * (nst * 8 + n * n * 16) + per_call * nst * n * 16
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))

    def f(Z):
        return np.abs(Z[:, 0]) ** 2 + 2.0 * np.abs(Z[:, 1]) ** 2 + 3.0 * np.abs(Z[:, 2]) ** 2

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        floors = levi_floors(f, pts, H_STEP)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(floors, 1.0, atol=1e-6)
    assert peak < bound, (peak, bound)


def test_levi_floors_equal_one_batch(monkeypatch):
    # blocked floors equal the floors of one whole-batch Hessian and eigen
    # call, at n = 2 (closed form) and n = 3 (Jacobi), with nonfinite
    # stencils on the block edges; the Hessian sees one stencil block a call
    rng = np.random.default_rng(5)
    for n in (2, 3):
        step = _per_call(n)
        pts = rng.uniform(-1, 1, (2 * STEP + 9, n)) + 1j * rng.uniform(-1, 1, (2 * STEP + 9, n))
        pts[[0, step - 1, step, -1], 0] = 0.0

        def f(Z):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(Z[:, 0])) + np.sum(np.abs(Z) ** 2, axis=1)

        H, ok = wirtinger_hessian_batch(f, pts, H_STEP)
        want = np.where(ok, min_eigs_batch(H), -np.inf)
        sizes = []
        hessian = calculus.wirtinger_hessian_batch

        def counted(f, points, h):
            sizes.append(len(points))
            return hessian(f, points, h)

        monkeypatch.setattr(calculus, "wirtinger_hessian_batch", counted)
        got = levi_floors(f, pts, H_STEP)
        monkeypatch.undo()
        assert sizes == _blocks(len(pts), step)
        assert got.tobytes() == want.tobytes()
        assert np.sum(got == -np.inf) == 4


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_levi_floors_one_f_call_per_hessian_block(monkeypatch, n):
    # each levi_floors block is one Hessian batch whose stencils reach f in
    # one call, and the floors are those of one whole-batch call, bit for bit
    step = _per_call(n)
    nst = _stencil_offsets(n, H_STEP)[0].shape[0]
    npts = 2 * step + 5
    rng = np.random.default_rng(20 + n)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))
    pts[[0, step - 1, step, npts - 1], 1] = 0.3
    H, ok = _one_call_hessian(_log_pole_target, pts, H_STEP)
    want = np.where(ok, min_eigs_batch(H), -np.inf)
    calls, sizes = [], []
    hessian = calculus.wirtinger_hessian_batch

    def f(Z):
        calls.append(len(Z))
        return _log_pole_target(Z)

    def counted(f, points, h):
        sizes.append(len(points))
        return hessian(f, points, h)

    monkeypatch.setattr(calculus, "wirtinger_hessian_batch", counted)
    got = levi_floors(f, pts, H_STEP)
    assert sizes == _blocks(npts, step)
    assert calls == [s * nst for s in sizes]
    assert got.tobytes() == want.tobytes()
    assert np.sum(got == -np.inf) == 4


def test_levi_floors_builds_the_stencil_once(monkeypatch):
    # the offsets of one (n, h) are built on first use and shared, read-only,
    # by every later stencil block: 4 blocks of n = 8 points take one build, a
    # second call none, and the floors are those of a stencil built afresh
    # for every block, bit for bit
    n = 8
    npts = 3 * _per_call(n) + 5
    rng = np.random.default_rng(28)
    pts = rng.uniform(-1, 1, (npts, n)) + 1j * rng.uniform(-1, 1, (npts, n))
    _stencil_offsets.cache_clear()
    got = levi_floors(_log_pole_target, pts, H_STEP)
    assert _stencil_offsets.cache_info().misses == 1
    again = levi_floors(_log_pole_target, pts, H_STEP)
    assert _stencil_offsets.cache_info().misses == 1
    monkeypatch.setattr(calculus, "_stencil_offsets", _stencil_offsets.__wrapped__)
    want = levi_floors(_log_pole_target, pts, H_STEP)
    assert got.tobytes() == again.tobytes() == want.tobytes()
    for a in _stencil_offsets(n, H_STEP):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


# --- minimal eigenvalues ----------------------------------------------------

def test_hermitian_min_eig_examples():
    H = np.array([np.eye(2), np.diag([50.0, 1.0]), [[2.0, 1j], [-1j, 2.0]]])
    got = min_eigs_batch(H)
    assert got[0] == pytest.approx(1.0, abs=1e-15)
    assert got[1] == pytest.approx(1.0, abs=1e-13)
    assert got[2] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_min_eigs_batch_matches_eigvalsh(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    H = A + np.conj(np.transpose(A, (0, 2, 1)))
    got = min_eigs_batch(H)
    want = np.array([np.linalg.eigvalsh(h)[0] for h in H])
    np.testing.assert_allclose(got, want, atol=1e-12)


# --- circle means -----------------------------------------------------------

def _f_re(z):
    return np.asarray(z).real


def _f_sq(z):
    return np.abs(np.asarray(z)) ** 2


def _f_log(z):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.asarray(z)))


def _one_circle_mean(f, z0, radius):
    return circle_mean_test(f, np.array([z0]), np.array([radius]))[0]


def test_circle_mean_harmonic_is_exact():
    assert abs(_one_circle_mean(_f_re, 0.3 + 0.4j, 0.5)) < 1e-10
    assert abs(_one_circle_mean(_f_log, 2.0 + 0j, 1.0)) < 1e-12


def test_circle_mean_subharmonic_margin():
    assert _one_circle_mean(_f_sq, 0j, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_circle_mean_neg_inf_center_passes_vacuously():
    assert _one_circle_mean(_f_log, 0j, 0.5) == np.inf


def test_circle_mean_validation():
    with pytest.raises(ValueError):
        _one_circle_mean(_f_re, 0j, -1.0)

    def f_shifted(z):  # pole exactly on the first circle node
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(z) - 1.0))

    with pytest.raises(ValueError):
        _one_circle_mean(f_shifted, 0j, 1.0)


def _probes(pole, count=200, seed=11):
    # random probes plus one centred exactly on a pole
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-3, 3, count) + 1j * rng.uniform(-3, 3, count)
    z0[count // 2] = pole
    return z0, rng.uniform(1e-4, 0.05, count)


def _circle_mean_one_probe(f, z0, radius, m):
    # one probe per call: the reference the batched form must reproduce
    center = float(np.asarray(f(np.asarray([z0], dtype=np.complex128)))[0])
    if center == -np.inf:
        return np.inf
    pts = z0 + radius * np.exp(2j * np.pi * np.arange(m) / m)
    return float(np.mean(np.asarray(f(pts), dtype=np.float64)) - center)


@pytest.mark.parametrize("target", ["thm1-series", "plateau"])
def test_circle_mean_batch_equals_scalar_loop(target, thm1, plateau):
    if target == "thm1-series":
        f, pole = thm1.sigma, thm1.schedule.a[0]
    else:
        f, pole = plateau.values, plateau.a[0]
    z0, rad = _probes(pole)
    batch = circle_mean_test(f, z0, rad)
    loop = np.array([_circle_mean_one_probe(f, z, r, 64) for z, r in zip(z0, rad)])
    single = [_one_circle_mean(f, z, r) for z, r in zip(z0[:20], rad[:20])]
    assert np.array_equal(batch, loop)
    assert np.array_equal(batch[:20], single)
    if target == "thm1-series":
        assert batch[z0.size // 2] == np.inf


def test_circle_mean_batch_rejects_any_nonfinite_value():
    def f_shifted(z):  # pole exactly on the first node of probe 150's circle
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(z) - 1.0))

    z0, rad = _probes(5.0 + 5.0j)
    z0[150], rad[150] = 0j, 1.0
    with pytest.raises(ValueError, match="circle"):
        circle_mean_test(f_shifted, z0, rad)
    z0[150] = np.nan
    with pytest.raises(ValueError, match="center"):
        circle_mean_test(f_shifted, z0, rad)
    rad[150] = 0.0
    with pytest.raises(ValueError, match="radius"):
        circle_mean_test(f_shifted, z0, rad)


# --- certificates -----------------------------------------------------------

def test_make_certificate_pass_fail_threshold():
    c = make_certificate("x", np.array([0.5, -1e-7]), 1e-6)
    assert c.passed and c.worst_margin == pytest.approx(-1e-7)
    c = make_certificate("x", np.array([0.5, -1e-5]), 1e-6,
                         points=np.array([1j, 2j]))
    assert not c.passed
    assert len(c.witnesses) == 1
    assert c.witnesses[0]["coords"] == [0.0, 2.0]
    c = make_certificate("x", np.array([np.nan]), 1e-6)
    assert not c.passed


def test_make_certificate_caps_witnesses():
    c = make_certificate("x", -np.ones(50), 0.0, points=np.arange(50).astype(complex))
    assert len(c.witnesses) == 10


def test_certify_psh_positive_case():
    region = Window(2, 1.0, 1.0)
    cert = certify_psh(_sq_all, region, Sampler(1, 500), H_STEP,
                       tolerance=1e-6, name="sq")
    assert cert.passed
    assert cert.samples == 500
    assert cert.worst_margin == pytest.approx(1.0, abs=1e-6)


def test_certify_psh_negative_case_with_witnesses():
    def f(Z):
        return -_sq_all(Z)

    region = Window(2, 1.0, 1.0)
    cert = certify_psh(f, region, Sampler(1, 200), H_STEP, tolerance=1e-6, name="neg")
    assert not cert.passed
    assert cert.worst_margin == pytest.approx(-1.0, abs=1e-6)
    assert 0 < len(cert.witnesses) <= 10


def test_certify_psh_exclusion_refills_to_count():
    region = Window(2, 1.0, 1.0)
    cert = certify_psh(
        _sq_all, region, Sampler(1, 300), H_STEP, tolerance=1e-6,
        exclude=lambda pts: np.abs(np.atleast_2d(pts)[:, 0]) < 0.5,
        name="excl",
    )
    assert cert.samples == 300
    assert cert.passed


def test_certify_psh_shortfall_raises():
    # an exclusion that rejects every point used to certify an empty set
    region = Window(2, 1.0, 1.0)
    with pytest.raises(EmptyRegionError, match="excl-all: delivered 0/300 points"):
        certify_psh(_sq_all, region, Sampler(1, 300), H_STEP, tolerance=1e-6,
                    exclude=lambda pts: np.ones(len(pts), dtype=bool),
                    name="excl-all")
