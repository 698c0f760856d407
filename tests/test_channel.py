import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oirsvlc import channel, estimator
from oirsvlc import (
    DegenerateGeometryError,
    IdentifiabilityError,
    OirsGrid,
    SceneConfig,
    block_schedule,
    build_csi_tensor,
    element_positions,
    run_algorithm1,
    trial_statistics,
)

from channel_oracle import (
    blockdiag_channel,
    broadcast_pair_gains,
    link_gain,
    link_scene,
    recorded_channel_blocks,
)

STUDY_LED = np.array([1.0, 2.0, 3.0])
STUDY_ELEM = np.array([1.0, 2.0, 1.5])
STUDY_PD = np.array([2.0, 2.0, 0.0])
DOWN = (0.0, 0.0, -1.0)
UP = (0.0, 0.0, 1.0)


def one_link_gain(led, point, pd, led_normal, pd_normal, **kw):
    """Unit-constant gain of one LED -> point -> PD link, from its one-link scene."""
    scene = link_scene(led, point, pd, led_normal, pd_normal, **kw)
    return float(scene.gains(scene.grid.center)[0, 0])


def study_gain():
    return one_link_gain(STUDY_LED, STUDY_ELEM, STUDY_PD, DOWN, UP)


def test_point_gain_symmetric_link():
    # cos(theta) = cos(phi) = 1, d1 = d2 = 1  ->  1 / (1 + 1)^2
    assert one_link_gain([0, 0, 1], [0, 0, 0], [0, 0, 1], DOWN, DOWN) == \
        pytest.approx(0.25, abs=1e-15)


def test_point_gain_outside_fov_is_zero():
    # arrival 45 degrees off the PD normal, field of view narrower than that
    assert one_link_gain([0, 0, 2], [0, 0, 1], [1, 0, 0], DOWN, UP,
                         fov=math.radians(30)) == 0.0


def test_point_gain_study_geometry():
    # hand evaluation: cos(phi) = 1.5/sqrt(3.25), distances 1.5 and sqrt(3.25)
    d2 = math.sqrt(3.25)
    expected = (1.5 / d2) / (1.5 + d2) ** 2
    g = study_gain()
    assert g == pytest.approx(expected, rel=1e-12)
    assert g == pytest.approx(0.07628, abs=5e-5)


def test_point_gain_decreases_with_pd_distance():
    # slide the PD away along the fixed arrival ray: angles constant, d2 grows
    direction = np.array([1.0, 0, -1.5]) / math.sqrt(3.25)
    gains = []
    for t in (1.0, 1.5, 2.0, 2.5):
        pd = STUDY_ELEM + t * direction
        gains.append(one_link_gain(STUDY_LED, STUDY_ELEM, pd, DOWN, -direction))
    assert all(a > b for a, b in zip(gains, gains[1:]))


def study_grid(element_size=0.05):
    # single-element surface oriented to the aligned mirror normal
    from oirsvlc import alignment_normal, plane_basis_from
    n = alignment_normal(STUDY_LED, STUDY_ELEM, STUDY_PD)
    u, v = plane_basis_from(n)
    return OirsGrid(center=STUDY_ELEM, axis_u=u, axis_v=v, rows=1, cols=1,
                    element_size=element_size, element_pitch=0.1)


def element_gain(grid, order, led=STUDY_LED, pd=STUDY_PD, fov=math.pi / 2):
    """Quadrature gain of the one element of `grid` for one LED and one PD."""
    scene = _scene([led], [pd], grid, fov)
    return build_csi_tensor(scene, order)[0, 0, 0]


def test_quadrature_gain_order_one_is_point_gain():
    assert element_gain(study_grid(), 1) == \
        pytest.approx(study_gain(), rel=0, abs=0)


def test_quadrature_gain_constant_integrand():
    # identically-zero field over the aperture: exact for every order
    grid = OirsGrid(center=(0, 0, 1), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    rows=1, cols=1, element_size=0.05,
                    element_pitch=0.1)
    vals = [element_gain(grid, k, led=(0, 0, 2), pd=(1, 0, 0), fov=math.radians(10))
            for k in (1, 2, 5)]
    assert vals == [0.0, 0.0, 0.0]


def test_quadrature_gain_self_convergence():
    g8 = element_gain(study_grid(), 8)
    g16 = element_gain(study_grid(), 16)
    assert abs(g8 - g16) / g16 <= 1e-4


def test_quadrature_gain_approaches_point_gain():
    # averaging error shrinks at least linearly as the aperture shrinks
    p = study_gain()
    errs = [abs(element_gain(study_grid(s), 6) - p) for s in (0.08, 0.04, 0.02)]
    assert errs[0] >= 2 * errs[1] and errs[1] >= 2 * errs[2]


def _scene(led_positions, pd_positions, grid, fov=math.pi / 2):
    return SceneConfig(room=(4, 4, 3), led_positions=led_positions,
                       led_normal=DOWN, lambertian_order=1.0,
                       pd_positions=pd_positions, pd_normal=UP,
                       fov_semi_angle=fov, grid=grid)


def wall_grid(rows, cols, center=(2, 0, 1.5)):
    return OirsGrid(center=center, axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    rows=rows, cols=cols,
                    element_size=0.05, element_pitch=0.1)


def test_build_csi_tensor_single_link():
    grid = wall_grid(1, 1)
    scene = _scene([(1, 2, 3)], [(2, 2, 0)], grid)
    tensor = build_csi_tensor(scene)
    assert tensor.shape == (1, 1, 1)
    assert tensor[0, 0, 0] == pytest.approx(
        link_gain((1, 2, 3), DOWN, grid.center, (2, 2, 0), UP, 1.0, math.pi / 2),
        rel=1e-14)
    with pytest.raises(ValueError):           # the truth is read-only
        tensor[0, 0, 0] = 1.0
    with pytest.raises(TypeError):            # an order is an int; none is truncated
        build_csi_tensor(scene, 2.5)
    with pytest.raises(ValueError, match="^quadrature order must be >= 1$"):
        build_csi_tensor(scene, 0)


def test_build_csi_tensor_fov_zero_row():
    # two elements, one of them outside the PD field of view
    grid = wall_grid(2, 1, center=(2, 0, 1.5))
    scene = _scene([(2, 2, 3)], [(2, 2, 0)], grid, fov=math.radians(53))
    tensor = build_csi_tensor(scene)
    assert tensor.shape == (2, 1, 1)
    # lower element (z = 1.45): arrival angle ~54.1 deg > fov; upper ~52.2 deg
    assert tensor[0, 0, 0] == 0.0
    assert tensor[1, 0, 0] > 0.0


@pytest.mark.parametrize("order", [1, 4], ids=["point-1", "quadrature-4"])
def test_build_csi_tensor_against_per_link_loop(order):
    grid = wall_grid(2, 2)
    scene = _scene([(1.9, 2, 3), (2.1, 2, 3)], [(1.8, 2, 0), (2.2, 2, 0)], grid)
    tensor = build_csi_tensor(scene, order)
    for nt in range(2):
        for nr in range(2):
            for i in range(2):
                for j in range(2):
                    center = element_positions(grid)[i * 2 + j]
                    # literal midpoint rule over the aperture, one link at a time
                    offs = ((np.arange(order) + 0.5) / order - 0.5) * grid.element_size
                    want = np.mean([link_gain(scene.led_positions[nt], DOWN,
                                              center + a * grid.axis_u + b * grid.axis_v,
                                              scene.pd_positions[nr], UP, 1.0, math.pi / 2)
                                    for a in offs for b in offs])
                    got = tensor[i * 2 + j, nr, nt]
                    assert got == pytest.approx(want, rel=1e-12)


ROOM_POINT = st.tuples(st.floats(0, 4), st.floats(0, 4), st.floats(0, 3))
DIRECTION = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
# half the draws take the widest field of view, so lit links are common
FOV = st.just(math.pi / 2) | st.floats(0, math.pi / 2, exclude_min=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(points=st.lists(ROOM_POINT, min_size=1, max_size=4),
       leds=st.lists(ROOM_POINT, min_size=1, max_size=3),
       pds=st.lists(ROOM_POINT, min_size=1, max_size=3),
       led_normal=DIRECTION, pd_normal=DIRECTION, m=st.floats(1, 4),
       fov=FOV)
def test_scene_gains_match_one_link_oracle(points, leds, pds, led_normal, pd_normal, m, fov):
    # every (point, PD, LED) entry against the formula written out link by link
    assume(min(math.dist(p, q) for p in points for q in leds + pds) > 1e-3)
    scene = SceneConfig(room=(4, 4, 3), led_positions=leds,
                        led_normal=np.divide(led_normal, math.hypot(*led_normal)),
                        lambertian_order=m, pd_positions=pds,
                        pd_normal=np.divide(pd_normal, math.hypot(*pd_normal)),
                        fov_semi_angle=fov, grid=wall_grid(1, 1))
    got = scene.gains(points)
    assert got.shape == (len(points), len(pds), len(leds))
    for i, point in enumerate(points):
        for nr, pd in enumerate(pds):
            for nt, led in enumerate(leds):
                want = link_gain(led, scene.led_normal, point, pd, scene.pd_normal, m, fov)
                if want == 0.0:           # a cut-off applies: exactly zero
                    assert got[i, nr, nt] == 0.0
                else:
                    assert got[i, nr, nt] == pytest.approx(want, rel=1e-12, abs=0)


POINT_SHAPE = (st.tuples(st.integers(1, 40))
               | st.tuples(st.integers(1, 6), st.integers(1, 70))).map(lambda s: (*s, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shape=POINT_SHAPE, seed=st.integers(0, 2**32 - 1),
       leds=st.lists(ROOM_POINT, min_size=1, max_size=3),
       pds=st.lists(ROOM_POINT, min_size=1, max_size=3),
       led_normal=DIRECTION, pd_normal=DIRECTION, m=st.floats(1, 8),
       fov=FOV)
def test_pair_gains_keeps_the_broadcast_kernels_bits(shape, seed, leds, pds, led_normal,
                                                     pd_normal, m, fov):
    # the same scalar operations in the same order, over another layout:
    # every gain keeps its bits, and the result is C-contiguous, which the
    # aperture mean's summation order reads
    points = np.random.default_rng(seed).uniform(0.0, 1.0, shape) * (4.0, 4.0, 3.0)
    assume(np.min(np.linalg.norm(points[..., None, :] - np.array(leds + pds), axis=-1)) > 1e-3)
    args = (points, leds, np.divide(led_normal, math.hypot(*led_normal)), pds,
            np.divide(pd_normal, math.hypot(*pd_normal)), m, fov)
    got = channel.pair_gains(*args)
    assert np.array_equal(got, broadcast_pair_gains(*args))
    assert got.shape == (*shape[:-1], len(pds), len(leds)) and got.flags.c_contiguous


@pytest.mark.parametrize("n_leds,n_pds", [(1, 1), (3, 3)])
@pytest.mark.parametrize("order", [3, 8])
def test_aperture_gain_keeps_the_broadcast_means_bits(n_leds, n_pds, order):
    # the mean over each aperture's sub-points adds them one by one for
    # several pairs and pairwise for one, so both orders are pinned
    leds = [(1.7, 2, 3), (2.0, 1.6, 3), (2.3, 2.2, 3)][:n_leds]
    pds = [(1.8, 2, 0), (2.4, 1.9, 0), (2.0, 2.3, 0)][:n_pds]
    scene = _scene(leds, pds, wall_grid(7, 9))
    centers = element_positions(scene.grid)
    want = broadcast_pair_gains(channel.aperture_points(scene.grid, centers, order),
                                scene.led_positions, scene.led_normal, scene.pd_positions,
                                scene.pd_normal, scene.lambertian_order,
                                scene.fov_semi_angle).mean(axis=1)
    assert np.array_equal(channel.aperture_gain(scene, centers, order), want)


@pytest.mark.parametrize("order", [1, 3], ids=["point", "quadrature"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(led_order=st.permutations(range(3)), pd_order=st.permutations(range(2)))
def test_relabelling_leds_and_pds_permutes_csi_columns(order, led_order, pd_order):
    # relabelling permutes the (Nr, Nt) pair axes and nothing else
    leds = np.array([(1.7, 2, 3), (2.0, 1.6, 3), (2.3, 2.2, 3)])
    pds = np.array([(1.8, 2, 0), (2.4, 1.9, 0)])
    grid = wall_grid(3, 4)
    base = build_csi_tensor(_scene(leds, pds, grid), order)
    moved = build_csi_tensor(_scene(leds[led_order], pds[pd_order], grid), order)
    assert np.array_equal(moved, base[:, pd_order][:, :, led_order])


@pytest.mark.parametrize("order", [1, 3], ids=["point-1", "quadrature-3"])
def test_build_csi_tensor_does_not_depend_on_the_chunk_size(order, monkeypatch):
    # one element per chunk, an odd number (5) of the 63 elements, and all of them
    scene = _scene([(1.7, 2, 3), (2.0, 1.6, 3), (2.3, 2.2, 3)],
                   [(1.8, 2, 0), (2.4, 1.9, 0)], wall_grid(7, 9))
    results = []
    for elements in (1, 5, 63):
        monkeypatch.setattr(channel, "APERTURE_CHUNK_POINTS", elements * order**2)
        results.append(build_csi_tensor(scene, order))
        assert not results[-1].flags.writeable
    assert results[0].shape == (63, 2, 3)
    assert all(np.array_equal(r, results[0]) for r in results[1:])


def test_run_algorithm1_gather_matches_blockdiag_oracle(monkeypatch):
    # the channel blocks run_algorithm1 gathers equal the block-diagonal
    # association model on random truths, array sizes, grids and spacings
    rng = np.random.default_rng(11)
    for _ in range(50):
        nt, nr = (int(v) for v in rng.integers(1, 4, 2))
        spacing = int(rng.choice([1, *range(max(nt, nr), 5)]))
        rows, cols = (int(v) for v in rng.integers(max(spacing, 3), 9, 2))
        scene = _scene(rng.uniform([1, 1, 3], [3, 3, 3], (nt, 3)),
                       rng.uniform([1, 1, 0], [3, 3, 0], (nr, 3)), wall_grid(rows, cols))
        truth = rng.uniform(0, 1, (rows * cols, nr, nt))
        ran = recorded_channel_blocks(monkeypatch, scene, truth, spacing)
        index, _ = block_schedule(scene.grid, nt, nr, spacing)
        oracle = np.stack([blockdiag_channel(truth, blk) for blk in index])
        assert_allclose(ran, oracle, rtol=1e-12, atol=0)


# The received (rx) statistics and the pilot draw, both of trial_statistics


def _drawn(h_blocks, seed, slots, sigma):
    """The pilots and the (b, G, X Y^T) chunks of one trial_statistics call.
    The pilots are its documented stream, 2 * default_rng(seed).random of
    (Q, Nt, slots), pinned by the yielded Gram matrices."""
    chunks = list(trial_statistics(h_blocks, seed, slots, sigma))
    q, _, nt = h_blocks.shape
    x = 2 * np.random.default_rng(seed).random((q, nt, slots))
    gram = np.concatenate([gram for _, gram, _ in chunks])
    assert_allclose(gram, x @ np.swapaxes(x, -1, -2), rtol=1e-14)
    return x, chunks


def test_trial_statistics_noiseless_and_deterministic():
    # each block's statistics are its own products of its pilots
    H = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    Hs = np.stack([H, 2 * H, -H])
    x, [(b, grams, crosses)] = _drawn(Hs, 1, 4, 0.0)
    assert b == 0 and grams.shape == (3, 2, 2) and crosses.shape == (3, 2, 3)
    for q in range(3):
        assert_allclose(grams[q], x[q] @ x[q].T)
        assert_allclose(crosses[q], x[q] @ (Hs[q] @ x[q]).T)
    # noise leaves the pilots as they were; a seed repeats its draws, another does not
    _, [(_, noisy_grams, c1)] = _drawn(Hs, 1, 4, 0.3)
    assert np.array_equal(noisy_grams, grams) and not np.array_equal(c1, crosses)
    assert np.array_equal(c1, _drawn(Hs, 1, 4, 0.3)[1][0][2])
    assert not np.array_equal(c1, _drawn(Hs, 2, 4, 0.3)[1][0][2])
    # a numpy integer count draws as the Python int it holds: the noise
    # cursor's offset Q * Nt * P cannot wrap (np.int64 used to overflow it)
    [want] = _drawn(Hs, 1, 100, 0.3)[1]
    for slots in (np.int32(100), np.int64(100)):
        [got] = _drawn(Hs, 1, slots, 0.3)[1]
        assert all(map(np.array_equal, want, got))                  # b, G and X Y^T


def test_trial_statistics_noise_variance():
    # with H = 0 each cross term is sigma * sum_p x_p z_p ~ N(0, sigma^2 G)
    blocks, slots = 100000, 4
    x, chunks = _drawn(np.zeros((blocks, 1, 1)), 123, slots, 0.7)
    gram, cross = (np.concatenate(parts) for parts in list(zip(*chunks))[1:])
    assert_allclose(gram[:, 0, 0], np.sum(x[:, 0] ** 2, axis=-1), rtol=1e-14)
    z = cross[:, 0, 0] / np.sqrt(0.49 * gram[:, 0, 0])
    assert abs(z.var() - 1.0) <= 0.02
    assert abs(z.mean()) <= 0.02


def test_trial_statistics_hold_no_noise_across_a_yield(monkeypatch):
    # a chunk's noise Z, (chunk, Nr, P) = 512 kB here, is freed before its
    # statistics, 0.5 kB, and the 8 kB pilot buffer are yielded, and the
    # buffer is freed once the trial is exhausted: less than half of it
    # stays. A first, untraced trial loads what seeding imports
    monkeypatch.setattr(channel, "CHUNK_BLOCKS", 1)
    h = np.zeros((2, 64, 1))
    list(trial_statistics(h, 0, 1000, 1.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [tracemalloc.get_traced_memory()[0]
                for _ in trial_statistics(h, 0, 1000, 1.0)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) == 2 and max(held) < 100e3
    assert abs(after - before) < 4e3


def test_trial_statistics_pilots_range_and_mean():
    x, _ = _drawn(np.zeros((1, 1, 1)), 0, 4, 0.0)
    assert np.all(x >= 0) and np.all(x <= 2.0)
    big, _ = _drawn(np.zeros((1, 1, 1)), 7, 100000, 0.0)
    assert abs(big.mean() - 1.0) <= 0.02


def test_trial_statistics_pilots_full_rank():
    for seed in range(1000):
        x, _ = _drawn(np.zeros((1, 1, 4)), seed, 100, 0.0)
        assert np.linalg.matrix_rank(x[0]) == 4


def test_trial_statistics_pilots_identifiability():
    with pytest.raises(IdentifiabilityError):
        _drawn(np.zeros((1, 1, 3)), 0, 2, 0.0)


@pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
def test_trial_statistics_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError):
        _drawn(np.zeros((1, 2, 2)), 0, 4, sigma)


@pytest.mark.parametrize("seed", [7, (3, 1)], ids=["int", "tuple"])
def test_advanced_cursor_continues_the_uniform_stream(seed):
    # one PCG64 word per float64 uniform: advancing by n words lands where n
    # uniforms of default_rng(seed) end, and the normals from there agree
    for n in (0, 1, 7, 1000):
        ref = np.random.default_rng(seed)
        ref.random(n)
        jumped = np.random.Generator(np.random.PCG64(seed).advance(n))
        assert np.array_equal(jumped.standard_normal(50), ref.standard_normal(50))
    # trial_statistics of n one-slot blocks with H = 0 and sigma = 1 yields
    # G = x^2 and X Y^T = x z: its pilots are the first n uniforms of
    # default_rng(seed) and its noise the normals right after them
    for n in (1, 7, 1000):
        ref = np.random.default_rng(seed)
        x_ref, z_ref = ref.random(n), ref.standard_normal(n)
        starts, grams, crosses = zip(*trial_statistics(np.zeros((n, 1, 1)), seed, 1, 1.0))
        assert starts == tuple(range(0, n, channel.CHUNK_BLOCKS))
        assert np.array_equal(np.concatenate(grams).ravel(), (2 * x_ref) ** 2)
        assert np.array_equal(np.concatenate(crosses).ravel(), 2 * x_ref * z_ref)


def test_pilots_and_noise_share_one_generator_stream(monkeypatch):
    # run_algorithm1 draws each chunk's pilots and noise through the two
    # cursors of trial_statistics; the bits equal one stream drawing the pilots
    # of every block, then the noise of every block in C order, whatever the
    # chunk size (35 blocks: 3 does not divide them). The pilots and sigma are
    # checked once per trial, not once per chunk
    scene = _scene([(1.9, 2, 3), (2.1, 2, 3)], [(1.8, 2, 0), (2.0, 2, 0), (2.2, 2, 0)],
                   wall_grid(5, 7))
    truth = build_csi_tensor(scene)
    ref = np.random.default_rng((3, 1))
    x_ref = ref.uniform(0.0, 2.0, size=(35, 2, 6))
    z_ref = ref.standard_normal((35, 3, 6))
    checks = []

    def counted(name):
        real = getattr(channel, name)
        return lambda *args: checks.append(name) or real(*args)

    for name in ("_check_pilots", "_check_sigma"):
        monkeypatch.setattr(channel, name, counted(name))
    for chunk in (3, 35):
        seen = []
        checks.clear()

        def record(h_blocks, seed, pilot_slots, sigma):
            for b, gram, cross in trial_statistics(h_blocks, seed, pilot_slots, sigma):
                seen.append((h_blocks[b:b + len(gram)], gram, cross))
                yield b, gram, cross

        monkeypatch.setattr(channel, "CHUNK_BLOCKS", chunk)
        monkeypatch.setattr(estimator, "trial_statistics", record)
        run_algorithm1(scene, truth, 1, pilot_slots=6, sigma=0.1, seeds=[(3, 1)])
        assert len(seen) == -(-35 // chunk)
        assert checks == ["_check_pilots", "_check_sigma"]
        h, gram, cross = (np.concatenate(parts) for parts in zip(*seen))
        y_ref = h @ x_ref + 0.1 * z_ref
        assert_allclose(gram, x_ref @ np.swapaxes(x_ref, -1, -2), rtol=1e-14)
        assert_allclose(cross, x_ref @ np.swapaxes(y_ref, -1, -2), rtol=1e-12)
    # the documented stream, one chunk of every block, keeps the pilots' bits
    x, _ = _drawn(np.zeros((35, 3, 2)), (3, 1), 6, 0.1)
    assert np.array_equal(x, x_ref)


def test_scene_rejects_positions_outside_room():
    grid = wall_grid(2, 2)
    with pytest.raises(ValueError):
        _scene([(1, 2, 3.5)], [(2, 2, 0)], grid)


def test_scene_rejects_led_or_pd_on_an_element_aperture():
    # an LED or PD at a gain sub-point would make its gain 0 / 0; the 2 x 2
    # wall grid on y = 0 has its apertures at x in [1.925, 1.975] or
    # [2.025, 2.075], and z in [1.425, 1.475] or [1.525, 1.575]
    grid = wall_grid(2, 2)
    for on in [(1.95, 0, 1.45), (2.07, 0, 1.53), (2.05, 1e-10, 1.55)]:
        with pytest.raises(DegenerateGeometryError, match="^led_positions "):
            _scene([(1, 2, 3), on], [(2, 2, 0)], grid)
        with pytest.raises(DegenerateGeometryError, match="^pd_positions "):
            _scene([(1, 2, 3)], [on, (2, 2, 0)], grid)
    # beside an aperture, between two of them, or off the plane: a valid scene
    for off in [(2.08, 0, 1.55), (2.0, 0, 1.5), (1.95, 1e-8, 1.45), (3, 0, 1.5)]:
        _scene([off], [(2, 2, 0)], grid)


@pytest.mark.parametrize("m,fov", [(0.5, math.pi / 2), (1.0, 0.0), (1.0, 3.0)])
def test_scene_rejects_beam_outside_link_domain(m, fov):
    with pytest.raises(ValueError):
        SceneConfig(room=(4, 4, 3), led_positions=[(1, 2, 3)], led_normal=DOWN,
                    lambertian_order=m, pd_positions=[(2, 2, 0)], pd_normal=UP,
                    fov_semi_angle=fov, grid=wall_grid(2, 2))
