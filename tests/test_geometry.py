"""Angle sequence, regions, samplers, and the connectivity probe."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshcert.geometry import (
    GOLDEN_CONJUGATE,
    Annulus,
    Ball,
    Disk,
    EmptyRegionError,
    ProductRegion,
    Sampler,
    SublevelRegion,
    _sample_ball,
    _sample_disk,
    _unit_directions,
    golden_angles,
    path_connected_probe,
    sample,
)


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


# --- regions ----------------------------------------------------------------

def test_region_membership_matches_closed_form():
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 100_000) + 1j * rng.uniform(-2, 2, 100_000)
    disk = Disk(0.3 + 0.1j, 0.8)
    np.testing.assert_array_equal(disk.contains(z), np.abs(z - (0.3 + 0.1j)) < 0.8)
    ann = Annulus(0.5, 1.0)
    np.testing.assert_array_equal(
        ann.contains(z), (np.abs(z) > 0.5) & (np.abs(z) < 1.0)
    )
    w = rng.uniform(-2, 2, (100_000, 2)) + 1j * rng.uniform(-2, 2, (100_000, 2))
    ball = Ball((0j, 0j), 1.2)
    np.testing.assert_array_equal(
        ball.contains(w), np.sqrt(np.sum(np.abs(w) ** 2, axis=1)) < 1.2
    )


def test_region_validation():
    with pytest.raises(ValueError):
        Disk(0j, 0.0)
    with pytest.raises(ValueError):
        Annulus(1.0, 0.5)


# --- samplers ---------------------------------------------------------------

def test_sampler_determinism_bitwise():
    disk = Disk(0j, 1.0)
    a = sample(disk, Sampler(7, 1000))
    b = sample(disk, Sampler(7, 1000))
    np.testing.assert_array_equal(a, b)
    c = sample(disk, Sampler(8, 1000))
    assert not np.array_equal(a, c)


def test_disk_sample_membership():
    pts = sample(Disk(0j, 1.0), Sampler(7, 3))
    assert pts.shape == (3,)
    assert np.all(np.abs(pts) < 1.0)


def test_annulus_sample_membership():
    pts = sample(Annulus(0.5, 1.0), Sampler(11, 500))
    assert np.all((np.abs(pts) > 0.5) & (np.abs(pts) < 1.0))


def test_ball_and_product_samples():
    ball = Ball((0j, 0j), 1.0)
    w = sample(ball, Sampler(2, 400))
    assert w.shape == (400, 2)
    assert np.all(ball.contains(w))
    prod = ProductRegion(Annulus(0.5, 1.0), ball)
    pts = sample(prod, Sampler(2, 400))
    assert pts.shape == (400, 3)
    assert np.all(prod.contains(pts))


# sha256 of the primitive draws and of a window sample: the points
# of every report are drawn through them, so a changed bit shows here first
_DRAWS_SHA = {
    1: "7bed5e78661228a07361a93596736a9f95bff94d7776a4b28c2bbc1e2d3e7106",
    2: "6b172ed9ff27a1a684697cf9d4dbde49d359ea9dc32631a9560fb4d18c2d79f3",
}
_WINDOW_SHA = {
    2: "8df406be859432c35d39666c8f3338346dafa9ec94f5b1aaae4e0806037b078d",
    3: "c894b17fe746d7c9f09a0325ad53d3a492f61a4ba5c133df2913d664f9965473",
}


@pytest.mark.parametrize("k", [1, 2])
def test_unit_draws_bytes_pinned(k):
    rng = np.random.Generator(np.random.Philox(key=[42, 30 + k]))
    h = hashlib.sha256()
    h.update(_sample_disk(rng, 500).tobytes())
    h.update(_sample_ball(rng, 500, k, 2.5).tobytes())
    h.update(_unit_directions(rng, 500, k).tobytes())
    assert h.hexdigest() == _DRAWS_SHA[k]


@pytest.mark.parametrize("n", [2, 3])
def test_product_window_bytes_pinned(n):
    region = ProductRegion(Disk(0j, 3.2), Ball((0j,) * (n - 1), 3.0))
    pts = sample(region, Sampler(42, 1000, stream=5))
    assert hashlib.sha256(pts.tobytes()).hexdigest() == _WINDOW_SHA[n]


def test_sublevel_rejection_sampling():
    window = ProductRegion(Disk(0j, 1.5), Ball((0j,), 1.5))
    region = SublevelRegion(
        lambda p: np.sum(np.abs(p) ** 2, axis=1) - 1.0, 0.0, window
    )
    pts = sample(region, Sampler(4, 500))
    assert pts.shape == (500, 2)
    assert np.all(np.sum(np.abs(pts) ** 2, axis=1) < 1.0)


def test_sublevel_empty_raises():
    window = ProductRegion(Disk(0j, 1.0), Ball((0j,), 1.0))
    region = SublevelRegion(lambda p: np.ones(p.shape[0]), 0.0, window)
    with pytest.raises(EmptyRegionError):
        sample(region, Sampler(4, 10))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sampler_determinism_over_seeds(seed):
    r = Ball((0j,), 2.0)
    a = sample(r, Sampler(seed, 50))
    b = sample(r, Sampler(seed, 50))
    np.testing.assert_array_equal(a, b)
    assert np.all(r.contains(a))


# --- connectivity probe -----------------------------------------------------

def _quad(pts):
    return np.sum(np.abs(np.atleast_2d(pts)) ** 2, axis=1)


def test_probe_convex_sublevel():
    ok, t = path_connected_probe(
        lambda p: _quad(p) - 4.0, 0.0, [0.0, 0.0], [1.0, 0.0], steps=64
    )
    assert ok and t is None


def test_probe_reports_first_violation():
    # a ring-shaped blocker: negative near 0 and near 2, positive between
    def f(pts):
        d = np.abs(np.atleast_2d(pts)[:, 0])
        return 1.0 - np.abs(d - 1.0) * 2.0

    ok, t = path_connected_probe(f, 0.0, [0.0, 0.0], [2.0, 0.0], steps=128)
    assert not ok
    assert 0.2 < t < 0.8


def test_probe_requires_member_endpoints():
    with pytest.raises(ValueError):
        path_connected_probe(
            lambda p: _quad(p) - 1.0, 0.0, [0.0, 0.0], [5.0, 0.0], steps=16
        )


def test_probe_waypoints():
    # a wall at re(z) = 1 with a gap reachable through a detour
    def f(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, 0].real
        y = pts[:, 0].imag
        wall = (np.abs(x - 1.0) < 0.05) & (y < 2.0)
        return np.where(wall, 1.0, -1.0)

    p, q = [0.0, 0.0], [2.0, 0.0]
    ok, _ = path_connected_probe(f, 0.0, p, q, steps=256)
    assert not ok
    ok, t = path_connected_probe(
        f, 0.0, p, q, steps=256, waypoints=[[1.0 + 2.5j, 0.0]]
    )
    assert ok and t is None


def test_probe_one_dimensional():
    def f(pts):
        return np.abs(np.atleast_2d(pts)[:, 0]) ** 2 - 1.0

    ok, t = path_connected_probe(f, 0.0, [0.5], [-0.5], steps=64)
    assert ok and t is None
