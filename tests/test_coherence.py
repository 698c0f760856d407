import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from oirsvlc import (
    CoherenceReport,
    DegenerateGeometryError,
    ExperimentConfig,
    ShapeError,
    SingularGeometryError,
    TaylorCoeffs,
    ZeroGainError,
    coherence,
    coherence_distance,
    coherence_length_1d,
    coherence_profile,
    growth_rate_exact,
    growth_rate_taylor,
    normalize,
    taylor_coeffs,
)

from channel_oracle import exact_edge, link_scene

DOWN = (0.0, 0.0, -1.0)
UP = (0.0, 0.0, 1.0)


def study_link():
    return link_scene([1, 2, 3], [1, 2, 1.5], [2, 2, 0], DOWN, UP)


def random_link(rng):
    led = rng.uniform([-2, -2, 1.0], [2, 2, 3])
    pd = rng.uniform([-2, -2, -3.0], [2, 2, -1])
    elem = rng.uniform([-1, -1, -0.5], [1, 1, 0.5])
    n1 = normalize(normalize(elem - led) + 0.3 * rng.standard_normal(3))
    n2 = normalize(normalize(elem - pd) + 0.3 * rng.standard_normal(3))
    m = rng.uniform(1, 3)
    return link_scene(led, elem, pd, n1, n2, m=m)


def usable(scene):
    point = scene.grid.center
    lr = point - scene.led_positions[0]
    ur = point - scene.pd_positions[0]
    cos_theta = scene.led_normal @ lr / np.linalg.norm(lr)
    cos_phi = scene.pd_normal @ ur / np.linalg.norm(ur)
    return scene.gains(point)[0, 0] > 1e-6 and cos_theta > 0.05 and cos_phi > 0.05


def test_growth_rate_zero_shift():
    assert growth_rate_exact(study_link(), [0, 0, 0]) == 0.0


def test_growth_rate_matches_double_evaluation():
    # independent evaluation of the defining ratio from two plain gains
    scene = study_link()
    shift = np.array([0.05, 0.0, 0.0])
    h0 = scene.gains(scene.grid.center)[0, 0]
    h1 = scene.gains(scene.grid.center + shift)[0, 0]
    assert growth_rate_exact(scene, shift) == pytest.approx((h1 - h0) / h0, rel=1e-14)


def test_growth_rate_odd_leading_term():
    # xi(d) + xi(-d) is second order: it shrinks ~4x when the shift halves
    scene = study_link()
    d = np.array([0.02, 0.01, 0.015])
    s1 = abs(growth_rate_exact(scene, d) + growth_rate_exact(scene, -d))
    s2 = abs(growth_rate_exact(scene, d / 2) + growth_rate_exact(scene, -d / 2))
    assert 2.0 <= s1 / s2 <= 8.0


def test_growth_rate_zero_gain():
    dead = link_scene([0, 0, 2], [0, 0, 1], [1, 0, 0], DOWN, UP, fov=math.radians(10))
    with pytest.raises(ZeroGainError):
        growth_rate_exact(dead, [0.01, 0, 0])


def test_taylor_coeffs_zero_gain():
    # both cosines are positive, but the PD's 10 degree field of view misses
    # the 45 degree arrival: a zero gain has no log-gain to expand, and the
    # error carries the fields of the check that the config names keys by
    dead = link_scene([0, 0, 2], [0, 0, 1], [1, 0, 0], DOWN, UP, fov=math.radians(10))
    with pytest.raises(ZeroGainError) as raised:
        taylor_coeffs(dead)
    assert raised.value.fields == ("fov_semi_angle", "pd_positions", "center", "pd_normal")
    # the same link seen through a 50 degree field of view expands
    lit = link_scene([0, 0, 2], [0, 0, 1], [1, 0, 0], DOWN, UP, fov=math.radians(50))
    assert np.all(np.isfinite(taylor_coeffs(lit).s1))


def test_taylor_coeffs_symmetric_normal_incidence():
    # L = U one meter above R, both normals aimed: the gain along z is
    # 1/(2(1-dz))^2, so xi(dz) = 2 dz + 3 dz^2 + ...: s1_z = 2, S2_zz = 6
    c = taylor_coeffs(link_scene([0, 0, 1], [0, 0, 0], [0, 0, 1], DOWN, DOWN))
    assert_allclose(c.s1, [0, 0, 2.0], atol=1e-12)
    assert c.S2[2, 2] == pytest.approx(6.0, rel=1e-12)


def test_taylor_coeffs_match_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        scene = random_link(rng)
        if not usable(scene):
            continue
        checked += 1
        c = taylor_coeffs(scene)
        r = 1e-5
        for e in np.eye(3):
            fd = (growth_rate_exact(scene, r * e) - growth_rate_exact(scene, -r * e)) / (2 * r)
            assert fd == pytest.approx(c.s1 @ e, rel=1e-5, abs=1e-8)
        r = 3e-3                # five-point stencil; xi(0) = 0
        for e in np.eye(3):
            fd = (16 * (growth_rate_exact(scene, r * e) + growth_rate_exact(scene, -r * e))
                  - (growth_rate_exact(scene, 2 * r * e)
                     + growth_rate_exact(scene, -2 * r * e))) / (12 * r**2)
            assert fd == pytest.approx(e @ c.S2 @ e, rel=1e-4, abs=1e-4)


def test_taylor_coeffs_singular_geometry():
    # grazing emission: cos(theta) ~ 0
    scene = link_scene([0, 0, 1], [1, 0, 1 - 1e-12], [2, 0, 0], DOWN, UP)
    with pytest.raises(SingularGeometryError):
        taylor_coeffs(scene)


def test_coherence_functions_take_one_led_one_pd_and_a_point_off_both():
    # an element on the LED or the PD has a zero-length leg: no study scene
    # holds it, and no shift moves the element onto either
    scene = study_link()
    led, pd = scene.led_positions[0], scene.pd_positions[0]
    for at in (led, pd):
        with pytest.raises(DegenerateGeometryError):
            link_scene(led, at, pd, DOWN, UP)
        with pytest.raises(DegenerateGeometryError):
            growth_rate_exact(scene, at - scene.grid.center)
    # the MIMO scene has two LEDs and two PDs: no single link to study
    mimo = ExperimentConfig().scene
    for call in (lambda: taylor_coeffs(mimo),
                 lambda: growth_rate_exact(mimo, [0.01, 0, 0]),
                 lambda: coherence_distance(mimo, 0.04, 64)):
        with pytest.raises(ShapeError):
            call()


def test_shifts_lie_in_the_span_of_two_in_range_coordinates():
    # a shift is the difference of two points within +-1e4 m; past it the
    # products used to overflow into a RuntimeWarning
    scene = study_link()
    coeffs = taylor_coeffs(scene)
    for fn, args in ((growth_rate_exact, (scene,)), (growth_rate_taylor, (coeffs,))):
        for axis in np.eye(3):
            assert np.isfinite(fn(*args, 2e4 * axis))
            for past in (math.nextafter(2e4, math.inf), 1e200, math.nan):
                with pytest.raises(ValueError, match=r"shifts must lie in \[-20000.0, 20000.0\]"):
                    fn(*args, past * axis)


def test_growth_rate_taylor_basics():
    c = TaylorCoeffs([1.0, 0, 0], np.zeros((3, 3)))
    assert growth_rate_taylor(c, [0, 0, 0]) == 0.0
    assert growth_rate_taylor(c, [0.1, 0, 0]) == pytest.approx(0.1, rel=1e-15)


def test_taylor_remainder_third_order():
    # remainder shrinks ~8x per halving on the study geometry along x
    scene = study_link()
    c = taylor_coeffs(scene)
    e = np.array([1.0, 0, 0])
    rem = {}
    for r in (0.08, 0.04, 0.02):
        rem[r] = abs(growth_rate_exact(scene, r * e) - growth_rate_taylor(c, r * e))
    assert 4.0 <= rem[0.08] / rem[0.04] <= 16.0
    assert 4.0 <= rem[0.04] / rem[0.02] <= 16.0


def test_coherence_length_linear_only():
    assert coherence_length_1d(0.0, 1.0, 0.04) == pytest.approx(0.08, rel=1e-15)


def test_coherence_length_pure_quadratic():
    assert coherence_length_1d(1.0, 0.0, 0.04) == pytest.approx(0.4, rel=1e-15)


def test_coherence_length_mixed_case_with_root_scan():
    got = coherence_length_1d(0.5, 0.1, 0.04)
    assert got == pytest.approx(0.6, rel=1e-12)
    # confirm against the two |0.5 r^2 + 0.1 r| = 0.04 roots nearest zero
    r_pos = _first_crossing(lambda r: abs(0.5 * r * r + 0.1 * r) - 0.04, +1.0)
    r_neg = _first_crossing(lambda r: abs(0.5 * r * r + 0.1 * r) - 0.04, -1.0)
    assert got == pytest.approx(r_pos + r_neg, rel=1e-9)


def test_coherence_length_flat_profile():
    assert coherence_length_1d(0.0, 0.0, 0.04) == math.inf
    with pytest.raises(ValueError):
        coherence_length_1d(1.0, 1.0, 0.0)


def _first_crossing(f, direction, start=1e-9, growth=1.3, r_max=1e7):
    """Smallest |r| sign change of f along the given direction, by bisection."""
    prev, fprev = 0.0, f(0.0)
    r = start
    while r <= r_max:
        val = f(direction * r)
        if fprev * val <= 0.0 and val != fprev:
            lo, hi = prev, r
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(direction * mid) * (fprev if fprev != 0 else -1.0) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev, fprev = r, val
        r *= growth
    return math.inf


def test_coherence_length_is_lower_bound_beyond_band():
    # in the tangent-line branch the closed form under-reports the true
    # nearest-crossing spread of the quadratic (conservative for sampling)
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 2)
        xi_c = 10 ** rng.uniform(-2, 0)
        b = rng.choice([-1, 1]) * math.sqrt(4 * abs(a) * xi_c) * rng.uniform(1.01, 3.0)
        true_spread = _first_crossing(lambda r: abs(a * r * r + b * r) - xi_c, 1.0) \
            + _first_crossing(lambda r: abs(a * r * r + b * r) - xi_c, -1.0)
        assert coherence_length_1d(a, b, xi_c) <= true_spread * (1 + 1e-12)


def test_coherence_profile_linear_coeffs():
    # in-plane gradient (1, 0), no curvature: worst direction is +-u
    c = TaylorCoeffs([1.0, 0, 0], np.zeros((3, 3)))
    angles = np.pi * np.arange(64) / 64
    lengths = coherence_profile(c, (np.eye(3)[0], np.eye(3)[1]), 0.04, angles)
    assert lengths.shape == (64,)
    k = int(np.argmin(lengths))
    assert lengths[k] == pytest.approx(0.08, rel=1e-12)
    assert angles[k] == 0.0
    assert lengths[32] > 1e12  # near-perpendicular to the gradient: near-flat
    # an exactly flat direction reports an unbounded length
    flat = coherence_profile(TaylorCoeffs([0, 0, 1.0], np.zeros((3, 3))),
                             (np.eye(3)[0], np.eye(3)[1]), 0.04, np.pi * np.arange(8) / 8)
    assert np.all(np.isinf(flat[:1]))  # angle 0 has exactly zero in-plane slope


def test_array_forms_equal_one_at_a_time_calls():
    # a batch runs each entry through the same sums as a lone call, bit for bit
    scene = study_link()
    coeffs = taylor_coeffs(scene)
    rng = np.random.default_rng(8)
    shifts = rng.uniform(-0.2, 0.2, (2, 7, 3))
    for batch in (shifts[0], shifts):
        for fn, args in ((growth_rate_exact, (scene,)), (growth_rate_taylor, (coeffs,))):
            got = fn(*args, batch)
            assert got.shape == batch.shape[:-1]
            one = np.reshape([fn(*args, d) for d in batch.reshape(-1, 3)], got.shape)
            assert np.array_equal(got, one)
    axes = (scene.grid.axis_u, scene.grid.axis_v)
    angles = np.pi * np.arange(360) / 360
    lengths = coherence_profile(coeffs, axes, 0.04, angles)
    assert np.array_equal(lengths, [coherence_profile(coeffs, axes, 0.04, a) for a in angles])
    A = np.concatenate([rng.choice([-1.0, 1.0], 200) * 10 ** rng.uniform(-14, 3, 200),
                        [0.0, 0.0, 1e-13, -1e-13, 2.0]])
    B = np.concatenate([rng.choice([-1.0, 1.0], 200) * 10 ** rng.uniform(-3, 3, 200),
                        [0.0, 1.0, 0.0, 1e-9, 0.0]])
    xi = 10 ** rng.uniform(-3, 0, len(A))
    batch = coherence_length_1d(A, B, xi)
    assert np.array_equal(batch, [coherence_length_1d(a, b, x) for a, b, x in zip(A, B, xi)])
    with pytest.raises(ShapeError):
        growth_rate_exact(scene, np.zeros((4, 2)))


_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1e-13, 1e-300]),
                   st.floats(-1e6, 1e6, allow_subnormal=False))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(A=hnp.arrays(float, 16, elements=_COEFF), B=hnp.arrays(float, 16, elements=_COEFF),
       xi_c=st.floats(1e-4, 10.0))
def test_coherence_length_sign_flip_invariance(A, B, xi_c):
    # |A r^2 + B r| = xi_c mirrors under r -> -r and under a global sign, so
    # L(A, B) = L(-A, B) = L(A, -B) exactly, in every branch
    length = coherence_length_1d(A, B, xi_c)
    assert np.array_equal(coherence_length_1d(-A, B, xi_c), length)
    assert np.array_equal(coherence_length_1d(A, -B, xi_c), length)
    assert not np.any(np.isnan(length))


def test_coherence_distance_certificate():
    # the growth rate stays within the band across the certified interval
    xi_c = 0.04
    report = coherence_distance(study_link(), xi_c, 360)
    e = report.argmin_direction
    c = report.coeffs

    def band_edge(direction):
        return _first_crossing(
            lambda r: abs(growth_rate_taylor(c, r * e)) - xi_c, direction)

    r_pos, r_neg = band_edge(+1.0), band_edge(-1.0)
    assert r_pos + r_neg == pytest.approx(report.d_c, rel=1e-6)
    for r in np.linspace(-r_neg, r_pos, 100):
        assert abs(growth_rate_taylor(c, r * e)) <= xi_c + 1e-9


def test_coherence_distance_does_not_depend_on_angular_samples():
    # the grid only sets the reported profile: the minimum is the closed form's
    scene = study_link()
    d512 = coherence_distance(scene, 0.04, 512).d_c
    for samples in (8, 64):
        assert coherence_distance(scene, 0.04, samples).d_c == \
            pytest.approx(d512, rel=1e-12, abs=0.0)


# a study link: LED on the ceiling, PD on the floor, element on the y = 0
# wall, its scene's grid turned to the aligned mirror normal
_WALL_LINK = dict(led=st.tuples(st.floats(0.5, 3.5), st.floats(0.5, 3.5)),
                  element=st.tuples(st.floats(0.5, 3.5), st.floats(0.5, 2.5)),
                  pd=st.tuples(st.floats(0.5, 3.5), st.floats(0.5, 3.5)),
                  m=st.sampled_from([1.0, 2.0, 5.0]), xi_c=st.sampled_from([0.01, 0.04, 0.2]))


def wall_link(led, element, pd, m):
    return link_scene((*led, 3.0), (element[0], 0.0, element[1]), (*pd, 0.0), DOWN, UP, m=m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_WALL_LINK)
# a minimum that is an infimum at a branch edge, which no direction attains
@example(led=(2.319437940213735, 0.54809876445178), element=(2.054059240464118, 1.3888213954054267),
         pd=(0.5191941860559843, 1.0183006003448365), m=5.0, xi_c=0.2)
def test_coherence_distance_is_the_profile_infimum(led, element, pd, m, xi_c):
    # the closed form is no larger than a fine grid's minimum, no sampled
    # direction reads below it, and the profile beside its direction comes
    # back to it: at a branch edge from the tangent side only
    scene = wall_link(led, element, pd, m)
    axes = (scene.grid.axis_u, scene.grid.axis_v)
    report = coherence_distance(scene, xi_c, 360)
    fine = coherence_profile(report.coeffs, axes, xi_c, np.pi * np.arange(20000) / 20000)
    assert report.d_c <= fine.min() * (1 + 1e-12)
    assert np.all(fine >= report.d_c * (1 - 1e-12))
    angle = report.per_direction_lengths[-1][0]
    beside = coherence_profile(report.coeffs, axes, xi_c, [angle - 1e-9, angle + 1e-9])
    assert np.min(np.abs(beside - report.d_c)) <= 1e-9 * report.d_c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**_WALL_LINK, alpha=st.floats(0.0, 2.0 * math.pi))
def test_coherence_distance_does_not_depend_on_the_surface_frame(led, element, pd, m, xi_c,
                                                                 alpha):
    # turning the grid's axes by alpha about its normal moves every profile
    # angle, but the distance and its direction stay where they are
    scene = wall_link(led, element, pd, m)
    u, v = scene.grid.axis_u, scene.grid.axis_v
    c, s = math.cos(alpha), math.sin(alpha)
    turned = replace(scene, grid=replace(scene.grid, axis_u=c * u + s * v, axis_v=-s * u + c * v))
    report, other = (coherence_distance(x, xi_c, 360) for x in (scene, turned))
    assert other.d_c == pytest.approx(report.d_c, rel=1e-12, abs=0.0)
    assert np.linalg.norm(np.cross(other.argmin_direction, report.argmin_direction)) <= 1e-9


# exact d_c / closed-form d_c by branch and xi_c: the README table's ranges,
# widened by 0.05, the tangent branch's lower end (where the closed form is
# a lower bound) by 0.01
_EXACT_OVER_CLOSED = {("quadratic", 0.01): (0.868, 1.134), ("quadratic", 0.04): (0.803, 1.178),
                      ("quadratic", 0.2): (0.864, 1.2), ("tangent", 0.01): (0.99, 1.172),
                      ("tangent", 0.04): (0.99, 1.196), ("tangent", 0.2): (0.994, 1.19)}


def _edge_margins(coeffs, directions, xi_c):
    """B^2 / (4 |A| xi_c) of each (..., 3) direction: past 1 the tangent
    branch sets its coherence length, at or below 1 the quadratic one."""
    b = directions @ coeffs.s1
    a = np.einsum("...i,ij,...j->...", directions, coeffs.S2, directions) / 2.0
    with np.errstate(divide="ignore"):
        return b * b / (4.0 * np.abs(a) * xi_c)


def _exact_distance(scene, xi_c):
    """Least exact-gain spread over the surface's directions: 60 directions
    3 degrees apart, then 21 within 2 degrees of the least of them."""
    u, v = scene.grid.axis_u, scene.grid.axis_v

    def spread(angles):
        d = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v
        return np.sum(exact_edge(scene, [d, -d], xi_c), axis=0)

    coarse = spread(np.pi * np.arange(60) / 60)
    fine = spread(np.pi * np.argmin(coarse) / 60 + np.radians(np.linspace(-2.0, 2.0, 21)))
    return min(coarse.min(), fine.min())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_WALL_LINK)
# quadratic-branch links, which few draws reach, one at each xi_c
@example(led=(1.1, 2.1), element=(1.4, 1.4), pd=(1.4, 1.4), m=1.0, xi_c=0.01)
@example(led=(1.4, 1.5), element=(3.2, 1.7), pd=(2.8, 2.5), m=1.0, xi_c=0.04)
@example(led=(2.5, 2.9), element=(2.5, 0.5), pd=(2.8, 2.8), m=5.0, xi_c=0.2)
def test_closed_form_distance_tracks_the_exact_gain_off_the_branch_edge(led, element, pd, m,
                                                                        xi_c):
    # the paper's closed form against the exact gain, on links clear of a
    # branch edge, where the nearest crossing jumps (by up to 2 sqrt(2)) for
    # the exact gain and the model at different directions:
    # - tangent: edge margin >= 1.25 at the minimum, 1.75 at xi_c = 0.2,
    #   whose larger spread moves the exact gain's edge further;
    # - quadratic: margin <= 0.8 in every direction, and d_c at most a
    #   quarter of the shorter leg, within the reach of a second-order form
    scene = wall_link(led, element, pd, m)
    report = coherence_distance(scene, xi_c, 360)
    margin = _edge_margins(report.coeffs, report.argmin_direction, xi_c)
    u, v = scene.grid.axis_u, scene.grid.axis_v
    angles = np.pi * np.arange(360)[:, None] / 360
    widest = _edge_margins(report.coeffs, np.cos(angles) * u + np.sin(angles) * v, xi_c).max()
    legs = np.linalg.norm(scene.grid.center - [scene.led_positions[0], scene.pd_positions[0]],
                          axis=1)
    if margin >= (1.75 if xi_c == 0.2 else 1.25):
        branch = "tangent"
    else:
        assume(widest <= 0.8 and report.d_c <= legs.min() / 4.0)
        branch = "quadratic"
    low, high = _EXACT_OVER_CLOSED[branch, xi_c]
    assert low <= _exact_distance(scene, xi_c) / report.d_c <= high


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       shift=st.tuples(*[st.floats(-5, 5)] * 3))
def test_coherence_distance_rigid_translation(seed, shift):
    # moving LED, element and PD together changes no distance or angle
    rng = np.random.default_rng(seed)
    scene = random_link(rng)
    assume(usable(scene))
    led, point, pd = scene.led_positions[0], scene.grid.center, scene.pd_positions[0]
    moved = link_scene(led + shift, point + shift, pd + shift, scene.led_normal,
                       scene.pd_normal, scene.lambertian_order)
    d_c = coherence_distance(scene, 0.04, 64).d_c
    assert coherence_distance(moved, 0.04, 64).d_c == pytest.approx(d_c, rel=1e-9)


def test_coherence_distance_validates_inputs(monkeypatch):
    # each input lies in its declared range, ends included, and is refused one
    # step past it, before any profile work and with no warning on the way
    scene = study_link()
    for xi_c, samples in ((1e-6, 64), (1.0, 64), (0.04, 8)):
        assert math.isfinite(coherence_distance(scene, xi_c, samples).d_c)

    def no_work(*args):
        raise AssertionError("profile work began before the inputs were checked")
    monkeypatch.setattr(coherence, "taylor_coeffs", no_work)
    monkeypatch.setattr(coherence, "coherence_profile", no_work)
    for xi_c in (math.nextafter(1e-6, 0.0), math.nextafter(1.0, 2.0), 0.0, math.nan, math.inf,
                 1e300):
        with pytest.raises(ValueError, match=r"^xi_c must lie in \[1e-06, 1.0\]$"):
            coherence_distance(scene, xi_c, 64)
    for samples in (7, 10**6 + 1):
        with pytest.raises(ValueError, match=r"^angular_samples must lie in \[8, 1000000\]$"):
            coherence_distance(scene, 0.04, samples)
    with pytest.raises(TypeError, match="angular_samples must be an integer"):
        coherence_distance(scene, 0.04, 64.0)


def test_report_invariants():
    # d_c is the profile's minimum, whichever row holds it
    coeffs = TaylorCoeffs([1, 0, 0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"^per_direction_lengths must be a non-empty \(N, 2\)"):
        CoherenceReport(argmin_direction=[1, 0, 0], xi_c=0.04, coeffs=coeffs,
                        per_direction_lengths=(0.0, 0.4))
    rep = CoherenceReport(argmin_direction=[1, 0, 0], xi_c=0.04, coeffs=coeffs,
                          per_direction_lengths=((0.0, 0.7), (1.0, 0.4)))
    assert rep.d_c == 0.4 and type(rep.d_c) is float


def test_coherence_profile_is_one_read_only_array():
    # at 10^5 angles the report keeps about 1.6 MB of array, where (angle,
    # length) tuples of Python floats kept about 11 MB
    scene = study_link()
    coherence_distance(scene, 0.04, 64)            # imports and first-call caches
    tracemalloc.start()
    try:
        report = coherence_distance(scene, 0.04, 10**5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    profile = report.per_direction_lengths
    assert type(profile) is np.ndarray and profile.dtype == float
    assert profile.shape == (10**5 + 1, 2) and not profile.flags.writeable
    assert profile[-1, 1] == report.d_c
    assert kept < 2e6, kept


def test_taylor_coeffs_validation():
    with pytest.raises(ValueError, match=r"^s1 must be \(3,\) and S2 must be \(3, 3\)$"):
        TaylorCoeffs([1, 0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TaylorCoeffs([1, 0, 0], np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ValueError):
        TaylorCoeffs([np.nan, 0, 0], np.zeros((3, 3)))
