"""Angle sequence, windows, samplers, and the connectivity probe."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert.geometry import (
    GOLDEN_CONJUGATE,
    EmptyRegionError,
    Sampler,
    SublevelRegion,
    Window,
    _row_sum,
    _sample_ball,
    _sample_disk,
    _unit_directions,
    golden_angles,
    path_connected_probe,
    philox,
    product_points,
    sample,
    window_rows,
)
from pshcert.config import MAX_SEED, TAPER_RADIUS
from pshcert.kernels import _BLOCK


# --- golden angle sequence --------------------------------------------------

def test_golden_angle_first_values():
    # direct evaluation of 2*pi*frac(j*g)
    th = golden_angles(2)
    assert th[0] == pytest.approx(3.883222077450933, abs=1e-12)
    assert th[1] == pytest.approx(1.4832588477222806, abs=1e-12)


def test_golden_angle_rejects_bad_index():
    with pytest.raises(ValueError):
        golden_angles(0)
    with pytest.raises(ValueError):
        golden_angles(-3)


def test_golden_angles_distinct_to_ten_thousand():
    th = np.sort(golden_angles(10_000))
    assert np.all(np.diff(th) > 0.0)


def test_golden_angle_gaps_shrink():
    # three-distance behavior: the largest circular gap stays below
    # 4*pi/J for every prefix length J, swept densely plus spot checks
    all_theta = golden_angles(20_000)
    for count in list(range(100, 2001)) + [5000, 10_000, 20_000]:
        th = np.sort(all_theta[:count])
        gaps = np.diff(np.concatenate([th, [th[0] + 2 * np.pi]]))
        assert np.max(gaps) < 4 * np.pi / count, count


def test_golden_angles_match_scalar():
    # each angle equals the scalar formula 2*pi*frac(j*g) bit for bit
    th = golden_angles(50)
    for j in range(1, 51):
        assert th[j - 1] == 2.0 * math.pi * ((j * GOLDEN_CONJUGATE) % 1.0)


# --- windows ----------------------------------------------------------------

def _in_window(pts, window):
    z = np.abs(pts[:, 0])
    w = np.sqrt(np.sum(np.abs(pts[:, 1:]) ** 2, axis=1))
    return (z > window.z_inner) & (z < window.z_radius) & (w < window.w_radius)


def test_region_validation():
    for args in [(2, 0.0, 1.0), (2, 1.0, 0.0), (2, 0.5, 1.0, 1.0),
                 (2, 1.0, 1.0, -0.1), (1, 1.0, 1.0)]:
        with pytest.raises(ValueError):
            Window(*args)


# --- samplers ---------------------------------------------------------------

def test_sampler_determinism_bitwise():
    window = Window(2, 1.0, 1.0)
    a = sample(window, Sampler(7, 1000))
    b = sample(window, Sampler(7, 1000))
    np.testing.assert_array_equal(a, b)
    c = sample(window, Sampler(8, 1000))
    assert not np.array_equal(a, c)


def test_disk_sample_membership():
    window = Window(2, 1.0, 1.0)
    pts = sample(window, Sampler(7, 3))
    assert pts.shape == (3, 2)
    assert np.all(_in_window(pts, window))


def test_annulus_sample_membership():
    window = Window(2, 1.0, 1.0, z_inner=0.5)
    pts = sample(window, Sampler(11, 500))
    assert np.all(_in_window(pts, window))


def test_ball_and_product_samples():
    window = Window(3, 1.0, 1.0, z_inner=0.5)
    pts = sample(window, Sampler(2, 400))
    assert pts.shape == (400, 3)
    assert np.all(_in_window(pts, window))


def test_row_sum_matches_linalg_norm():
    # summed column by column below 8 terms and by np.sum from 8 on, the
    # squares reproduce the reduction order of np.linalg.norm;
    # _sample_ball and _unit_directions take their norms so
    rng = np.random.default_rng(3)
    for m in range(1, 17):
        g = rng.standard_normal((20_000, m)) * np.exp(3.0 * rng.standard_normal((20_000, m)))
        g[:3] = np.array([[0.0], [-0.0], [5e-324]])
        g[3, 0] = np.inf
        g[4, -1] = np.nan
        with np.errstate(over="ignore", under="ignore"):
            want = np.linalg.norm(g, axis=1)
            got = np.sqrt(_row_sum(lambda j: g[:, j] * g[:, j], m))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=m)


# sha256 of the primitive draws and of a window sample: the points
# of every report are drawn through them, so a changed bit shows here first
# (k >= 4 draws 8 or more normals per point)
_DRAWS_SHA = {
    1: "7bed5e78661228a07361a93596736a9f95bff94d7776a4b28c2bbc1e2d3e7106",
    2: "6b172ed9ff27a1a684697cf9d4dbde49d359ea9dc32631a9560fb4d18c2d79f3",
    3: "e6dfb28d799e84cfa0cae2a07c32152f79e723dc1700bb1df9be96628116fe55",
    4: "4df53eae288d07444b48a650b2dd9105c8273c8c905b93a6eaea7587cd0e9ca8",
    5: "1acec2375cba641e19127f2e8258d070237f3c4fbc43d4c380af2f396b0b262a",
    6: "b4627d67f74c55870760aa139f8f160e9895a555220d93a717212d314a7dd3a6",
    7: "94ae9ef83a63db413349dd71160453ceb1b83bfaf3e5c5bdfc08d640a91d9a3b",
}


@pytest.mark.parametrize("k", range(1, 8))
def test_unit_draws_bytes_pinned(k):
    rng = np.random.Generator(np.random.Philox(key=[42, 30 + k]))
    h = hashlib.sha256()
    h.update(_sample_disk(rng, 500).tobytes())
    h.update(_sample_ball(rng, 500, k, 2.5).tobytes())
    h.update(_unit_directions(rng, 500, k).tobytes())
    assert h.hexdigest() == _DRAWS_SHA[k]


# the bulk window |z| < 3.2, |w| < 3 and the thm1 strictness window
# 1/2 < |z| < 1, |w| < 1 (the annulus refill loop), 1000 points each; and the
# bulk window at counts around the _BLOCK rows in which a disk window forms
# its points
_BLOCK_COUNTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 7)
_BLOCKED_WINDOW_SHA = {
    2: (
        "df685c1a27b83db0ee1aa0bfd8c038916af66c91592f656e5c6fa6c042c85df3",
        "396d49bbaf65845250a4c8cbdf5401dd4918218900f329ff79951e3b38e7bd33",
        "6a111ab34cf91f1bd2d367cf25f76d450a321eca89428ab397ab59194e239bab",
        "2cb7d1e46f31f5fa2f612c9fd65bb0abea9dafb316e72eefd66972898a03b438",
        "cb39cf8c1c6114a27b935ffcd5d024bdc14da1eb9402690f31a45f324a1f1cea",
    ),
    3: (
        "c0f3a0b0d781c45e31a2d9cfc7f1b14988263f49b15fd5574e96130037422d31",
        "58b5ce2b1144fd557361095c8e34f5689cd5727197c8b781ef93a50bd6050db9",
        "9e1d6719a670158ec8c3e1beabe96690cd921d1fba7e631bfebe2946ccf4fc26",
        "97ea721cbb22af57b3808d32e4323e68045f1a89786839bc8fdda4520e20d8f1",
        "3f4039c2545467f3527d34a7a8442989ca98f645e96085b03b942ac13092782f",
    ),
    8: (
        "1eb8f320cc3c627f740ea14d0acd536537cd1677b044d428c383d363cbf83a5f",
        "2cb884990e75a83444b28a8ad92fa356e6dbf1a92dfa623808e3ab1c2137b95b",
        "1213b7670dbdc293a2a4a71f7e9f14c7a68be0b35f2de3f36876618f96ec9a5e",
        "2fe505a9a95f382056f7322edc661f4a1a4d065953de2792f795ca97b7a863b1",
        "f24dfd76075de0f1295d9850fb1d7afa11dd79deac926a8075ef0095b352b2ee",
    ),
}


@pytest.mark.parametrize("window, count, sha", [
    pytest.param(
        Window(2, 3.2, 3.0), 1000,
        "8df406be859432c35d39666c8f3338346dafa9ec94f5b1aaae4e0806037b078d",
        id="2"),
    pytest.param(
        Window(3, 3.2, 3.0), 1000,
        "c894b17fe746d7c9f09a0325ad53d3a492f61a4ba5c133df2913d664f9965473",
        id="3"),
    pytest.param(
        Window(2, 1.0, 1.0, z_inner=0.5), 1000,
        "739992b03042c05d7a37fe60c282d352acf2eedb414cf7b130e4de97fc55b084",
        id="annulus-2"),
    pytest.param(
        Window(3, 1.0, 1.0, z_inner=0.5), 1000,
        "1c0914ded786f89df2b5be8c6d4f4ea34d5cda4128b008448c31c5b4b1969b6e",
        id="annulus-3"),
    pytest.param(
        Window(4, 3.2, 3.0), 1000,
        "3d02708be5d7b764f61c653f200646d44447b584fe63b239e07ce0abb9d35786",
        id="4"),
    pytest.param(
        Window(8, 3.2, 3.0), 1000,
        "23a5c8c96d2fe2b91de56ca357bee4ef8e25185ae1e6a3af07f567918b997a87",
        id="8"),
    pytest.param(
        Window(8, 1.0, 1.0, z_inner=0.5), 1000,
        "081b0bbe4098a79071a816b3249829a1a38e3a426df6d7c2bc09314375e98a31",
        id="annulus-8"),
] + [
    pytest.param(Window(n, 3.2, 3.0), count, sha, id=f"{n}-{count}")
    for n, shas in _BLOCKED_WINDOW_SHA.items()
    for count, sha in zip(_BLOCK_COUNTS, shas)
])
def test_product_window_bytes_pinned(window, count, sha):
    pts = sample(window, Sampler(42, count, stream=5))
    assert pts.shape == (count, window.n)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == sha


@pytest.mark.parametrize("n", range(2, 9))
def test_window_rows_at_half_radius_equal_scaled_unit_disk(n):
    # the plateau-identity check's draws: 0.5 is a power of two, so the z
    # rows formed at radius 0.5 have the bits of the unit-disk rows times
    # 0.5, and the ball rows follow from the same generator
    for seed in (0, 1, 42, MAX_SEED):
        for count in (200, _BLOCK + 3):
            got = window_rows(philox(seed, 402), Window(n, 0.5, TAPER_RADIUS), count)
            rng = philox(seed, 402)
            z = _sample_disk(rng, count) * 0.5
            want = product_points(z, _sample_ball(rng, count, n - 1, TAPER_RADIUS))
            assert got.tobytes() == want.tobytes(), (seed, count)


def test_sublevel_rejection_sampling():
    region = SublevelRegion(
        lambda p: np.sum(np.abs(p) ** 2, axis=1) - 1.0, Window(2, 1.5, 1.5)
    )
    pts = sample(region, Sampler(4, 500))
    assert pts.shape == (500, 2)
    assert np.all(np.sum(np.abs(pts) ** 2, axis=1) < 1.0)


def test_sublevel_empty_raises():
    region = SublevelRegion(lambda p: np.ones(p.shape[0]), Window(2, 1.0, 1.0))
    with pytest.raises(EmptyRegionError):
        sample(region, Sampler(4, 10))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sampler_determinism_over_seeds(seed):
    window = Window(2, 2.0, 2.0, z_inner=1.0)
    a = sample(window, Sampler(seed, 50))
    b = sample(window, Sampler(seed, 50))
    np.testing.assert_array_equal(a, b)
    assert np.all(_in_window(a, window))


# --- connectivity probe -----------------------------------------------------

def _quad(pts):
    return np.sum(np.abs(np.atleast_2d(pts)) ** 2, axis=1)


def test_probe_convex_sublevel():
    assert path_connected_probe(lambda p: _quad(p) - 4.0, [0.0, 0.0], [1.0, 0.0])


def test_probe_requires_member_endpoints():
    with pytest.raises(ValueError):
        path_connected_probe(lambda p: _quad(p) - 1.0, [0.0, 0.0], [5.0, 0.0])


def test_probe_waypoints():
    # a wall at re(z) = 1 with a gap reachable through a detour
    def f(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 0].real
        y = pts[:, 0].imag
        wall = (np.abs(x - 1.0) < 0.05) & (y < 2.0)
        return np.where(wall, 1.0, -1.0)

    p, q = [0.0, 0.0], [2.0, 0.0]
    assert not path_connected_probe(f, p, q)
    assert path_connected_probe(f, p, q, waypoints=[[1.0 + 2.5j, 0.0]])
    # one blocked segment fails the path, whichever segment it is
    assert not path_connected_probe(f, p, q, waypoints=[[0.5, 0.0]])


def test_probe_one_dimensional():
    def f(pts):
        return np.abs(np.atleast_2d(pts)[:, 0]) ** 2 - 1.0

    assert path_connected_probe(f, [0.5], [-0.5])
