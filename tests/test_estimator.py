import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oirsvlc import channel, estimator
from oirsvlc import (
    ExperimentConfig,
    IdentifiabilityError,
    LayoutError,
    OirsGrid,
    SceneConfig,
    ShapeError,
    SingularSystemError,
    SubarrayLayout,
    ZeroReferenceError,
    block_schedule,
    build_csi_tensor,
    flops_estimate,
    interpolate_full,
    mmse_estimate,
    nmse,
    recovery_operators,
    run_algorithm1,
    spline_weights,
    trial_statistics,
)


def wall_grid(rows=24, cols=24):
    return OirsGrid(center=(2, 0, 1.5), axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    rows=rows, cols=cols,
                    element_size=0.05, element_pitch=0.1)


def desk_scene(rows=24, cols=24):
    return SceneConfig(room=(4, 4, 3),
                       led_positions=[(1.9, 2, 3), (2.1, 2, 3)],
                       led_normal=(0, 0, -1), lambertian_order=1.0,
                       pd_positions=[(1.8, 2, 0), (2.2, 2, 0)],
                       pd_normal=(0, 0, 1),
                       fov_semi_angle=np.pi / 2, grid=wall_grid(rows, cols))


def three_by_three_scene(rows, cols, pitch=0.1):
    """Three LEDs and three PDs in a row under and over a wall grid."""
    grid = OirsGrid(center=(2, 0, 1.5), axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    rows=rows, cols=cols,
                    element_size=pitch / 2, element_pitch=pitch)
    return SceneConfig(room=(4, 4, 3),
                       led_positions=[(1.8, 2, 3), (2.0, 2, 3), (2.2, 2, 3)],
                       led_normal=(0, 0, -1), lambertian_order=1.0,
                       pd_positions=[(1.6, 2, 0), (2.0, 2, 0), (2.4, 2, 0)],
                       pd_normal=(0, 0, 1),
                       fov_semi_angle=np.pi / 2, grid=grid)


def sampled_lattice(rows, cols, n_leds, n_pds, spacing):
    """Layout of a wall grid and the grid row and column, each (Q, Nr, Nt), of
    the element that block q aligns with pair (nr, nt)."""
    index, layout = block_schedule(wall_grid(rows, cols), n_leds, n_pds, spacing)
    return (layout, *np.divmod(index, cols))


@pytest.mark.parametrize("spacing,expected_q", [(2, 144), (3, 64), (4, 36)])
def test_block_schedule_subarray_counts(spacing, expected_q):
    index, layout = block_schedule(wall_grid(), 2, 2, spacing)
    assert (layout.q_v, layout.q_h) == (24 // spacing, 24 // spacing)
    assert layout.n_blocks == expected_q
    assert index.shape == (expected_q, 2, 2)


def test_block_schedule_degenerate_full_sampling():
    # one LED, one PD, spacing 1: every element is its own sample
    grid = wall_grid(4, 4)
    index, layout = block_schedule(grid, 1, 1, 1)
    assert layout.n_blocks == 16
    assert_allclose(np.sort(index[:, 0, 0]), np.arange(16))


def test_block_schedule_layout_errors():
    with pytest.raises(LayoutError):
        SubarrayLayout(24, 24, 2, 2, 1)            # block larger than subarray
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(3, 3), 2, 2, 4)   # grid smaller than one subarray
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(), 2, 2, 0)
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(1, 3), 2, 2, 1)   # dense baseline: 3 elements, 4 pairs


def test_block_schedule_sample_lattice():
    index, _ = block_schedule(wall_grid(), 2, 2, 2)
    omega = index[:, 1, 0]                # PD row 1, LED column 0
    assert len(omega) == 144 and len(set(omega.tolist())) == 144
    rows, cols = np.divmod(omega, 24)
    assert set(rows.tolist()) == set(range(1, 24, 2))
    assert set(cols.tolist()) == set(range(0, 24, 2))


def test_block_schedule_dense_covers_every_pair_once():
    grid = wall_grid(3, 3)
    index, layout = block_schedule(grid, 2, 2, 1)
    assert layout is None
    assert index.shape == (9, 2, 2)
    for nr in range(2):
        for nt in range(2):
            assert sorted(index[:, nr, nt].tolist()) == list(range(9))
    assert all(len(set(blk.ravel().tolist())) == 4 for blk in index)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_schedule_is_angle_selective(data):
    # every block serves each pair from its own element; a subarray block
    # stays inside its tile; the dense schedule covers each entry once
    nt = data.draw(st.integers(1, 3), label="Nt")
    nr = data.draw(st.integers(1, 3), label="Nr")
    dense = data.draw(st.booleans(), label="dense") and max(nt, nr) > 1
    spacing = 1 if dense else data.draw(st.integers(max(nt, nr), 6), label="spacing")
    rows = data.draw(st.integers(1 if dense else spacing, 20), label="rows")
    cols = data.draw(st.integers(max(spacing, -(-nt * nr // rows)), 20), label="cols")
    index, layout = block_schedule(wall_grid(rows, cols), nt, nr, spacing)
    assert (layout is None) == dense and index.shape[1:] == (nr, nt)
    flat = np.sort(index.reshape(len(index), -1), axis=1)
    assert np.all(np.diff(flat, axis=1) > 0)
    assert flat.min() >= 0 and flat.max() < rows * cols
    if layout is None:
        for k in range(nt * nr):
            assert_array_equal(np.sort(index[:, k % nr, k // nr]), np.arange(rows * cols))
        return
    q = data.draw(st.integers(0, layout.n_blocks - 1), label="block")
    qv, qh = divmod(q, layout.q_h)
    r, c = np.divmod(index[q], cols)
    assert np.all((r // spacing == qv) & (c // spacing == qh))


def statistics(H, X):
    """Gram matrices and noiseless cross terms of received blocks H X."""
    return X @ np.swapaxes(X, -1, -2), X @ np.swapaxes(H @ X, -1, -2)


def test_mmse_noiseless_orthogonal_pilots():
    X = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1.0]])
    H = np.array([[0.5, -0.2], [0.1, 0.9]])
    est = mmse_estimate(X @ X.T, X @ (H @ X).T, 0.0)
    assert_allclose(est, H, rtol=1e-12)
    # a stack of blocks is solved block by block
    Hs = np.stack([H, -2 * H, H.T])
    Xs = np.stack([X, X[::-1], 2 * X])
    assert_allclose(mmse_estimate(*statistics(Hs, Xs), 0.0), Hs, rtol=1e-12)


def test_mmse_scalar_shrinkage():
    # Y X^T (X X^T + sigma^2)^-1 = 8 / (4 + 1)
    est = mmse_estimate(np.array([[4.0]]), np.array([[8.0]]), 1.0)
    assert est[0, 0] == pytest.approx(1.6, rel=1e-14)


def test_mmse_large_noise_shrinks_to_zero():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 2, (2, 50))
    Y = rng.uniform(0, 1, (2, 50))
    est = mmse_estimate(X @ X.T, X @ Y.T, 1e6)
    assert np.max(np.abs(est)) < 1e-9


def test_mmse_singular_system():
    X = np.ones((2, 4))          # duplicated pilot rows, sigma = 0
    with pytest.raises(SingularSystemError):
        mmse_estimate(X @ X.T, X @ np.ones((1, 4)).T, 0.0)


def test_mmse_shape_mismatch():
    with pytest.raises(ShapeError):
        mmse_estimate(np.ones((2, 2)), np.ones((3, 1)), 0.1)      # cross rows
    with pytest.raises(ShapeError):
        mmse_estimate(np.ones((2, 3)), np.ones((2, 1)), 0.1)      # Gram not square
    with pytest.raises(ShapeError):
        mmse_estimate(np.ones((3, 2, 2)), np.ones((2, 2, 1)), 0.1)  # block axes


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_mmse_noiseless_exact_for_full_rank_pilots(data):
    # sigma = 0 inverts any well-conditioned X, block by block
    batch = data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch")
    nt = data.draw(st.integers(1, 4), label="Nt")
    nr = data.draw(st.integers(1, 4), label="Nr")
    p = data.draw(st.integers(nt, nt + 6), label="P")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 2, (*batch, nt, p))
    H = rng.normal(size=(*batch, nr, nt))
    assume(np.all(np.linalg.cond(X @ np.swapaxes(X, -1, -2)) <= 1e6))
    est = mmse_estimate(*statistics(H, X), 0.0)
    assert est.shape == H.shape
    assert_allclose(est, H, rtol=1e-9, atol=1e-9 * np.max(np.abs(H)))


def test_noiseless_ridge_returns_truth_on_sample_lattice():
    # the schedule's gather of pair (nr, nt), reshaped (q_v, q_h), is the
    # truth on that pair's sample lattice, and noiseless Phase II returns it
    scene = desk_scene(8, 8)
    index, layout = block_schedule(scene.grid, 2, 2, 2)
    tensor = build_csi_tensor(scene)
    blocks = tensor[index, np.arange(2)[:, None], np.arange(2)]
    [(_, gram, cross)] = trial_statistics(blocks, 4, 16, 0.0)
    est = mmse_estimate(gram, cross, 0.0)
    for nr in range(2):
        for nt in range(2):
            grid_vals = est[:, nr, nt].reshape(layout.q_v, layout.q_h)
            truth_vals = tensor[:, nr, nt].reshape(8, 8)
            assert_allclose(grid_vals, truth_vals[nr::2, nt::2], atol=1e-9)


def test_interpolate_linear_fallback_few_samples():
    # 3 samples per axis: piecewise-linear interpolation, exact on affine data
    layout, rows, cols = sampled_lattice(6, 6, 2, 2, 2)
    field = interpolate_full(1.0 + 2.0 * rows + 0.5 * cols, layout)
    rr, cc = np.divmod(np.arange(36), 6)
    assert_allclose(field, np.tile((1.0 + 2.0 * rr + 0.5 * cc)[:, None, None], (2, 2)),
                    atol=1e-10)
    # one piece per interval, and the end piece beyond the last sample: not one line
    weights = spline_weights([0.0, 1.0, 2.0], [0.5, 1.5, 3.0])
    assert_allclose(weights @ [0.0, 1.0, 0.0], [0.5, 0.5, -1.0], atol=1e-15)


def test_interpolate_shape_check():
    layout = SubarrayLayout(24, 24, 2, 2, 2)
    with pytest.raises(ShapeError):
        interpolate_full(np.zeros((12, 12)), layout)
    with pytest.raises(ShapeError):
        interpolate_full(np.zeros((144, 2, 1)), layout)


# sample counts per axis: 1 (constant), 2 and 3 (piecewise linear), >= 4 (natural cubic)
Q_CLASSES = {1: st.just(1), 2: st.just(2), 3: st.just(3), 4: st.integers(4, 24)}


@pytest.mark.parametrize("q_class", sorted(Q_CLASSES))
@pytest.mark.parametrize("spacing", range(2, 7))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_recovery_operator_properties(spacing, q_class, data):
    # n_leds = n_pds = spacing, so every pair offset 0..spacing-1 has an operator
    q_v = data.draw(Q_CLASSES[q_class], label="q_v")
    q_h = data.draw(Q_CLASSES[q_class], label="q_h")
    rows = q_v * spacing + data.draw(st.integers(0, spacing - 1), label="extra rows")
    cols = q_h * spacing + data.draw(st.integers(0, spacing - 1), label="extra cols")
    a, b, c = data.draw(st.tuples(*[st.floats(-10, 10)] * 3), label="a, b, c")
    layout, s_rows, s_cols = sampled_lattice(rows, cols, spacing, spacing, spacing)
    assert (layout.q_v, layout.q_h) == (q_v, q_h)
    r_ops, c_ops = recovery_operators(layout)
    assert r_ops.shape == (spacing, rows, q_v) and c_ops.shape == (spacing, cols, q_h)
    sample_rows, sample_cols = layout.lattice()
    for off in range(spacing):
        for w, idx in ((r_ops[off], sample_rows[:, off]), (c_ops[off], sample_cols[:, off])):
            assert_array_equal(w[idx], np.eye(len(idx)))
            assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    a = a if q_v > 1 else 0.0          # one sample along an axis: constants only
    b = b if q_h > 1 else 0.0
    field = interpolate_full(a * s_rows + b * s_cols + c, layout)
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    expected = np.tile((a * rr + b * cc + c)[:, None, None], (spacing, spacing))
    assert_allclose(field, expected, rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(expected))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_interpolate_full_puts_each_pair_in_its_column(data):
    # a distinct affine field per pair, with Nr != Nt allowed, must land in
    # [:, nr, nt] of the all-pairs estimate, as the per-pair product puts it
    spacing = data.draw(st.integers(2, 5), label="spacing")
    n_pds = data.draw(st.integers(1, spacing), label="Nr")
    n_leds = data.draw(st.integers(1, spacing), label="Nt")
    rows = data.draw(st.integers(2 * spacing, 6 * spacing), label="rows")
    cols = data.draw(st.integers(2 * spacing, 6 * spacing), label="cols")
    coef = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=3 * n_pds * n_leds,
                                       max_size=3 * n_pds * n_leds), label="coefficients"))
    a, b, c = coef.reshape(3, n_pds, n_leds)
    layout, s_rows, s_cols = sampled_lattice(rows, cols, n_leds, n_pds, spacing)
    samples = a * s_rows + b * s_cols + c
    field = interpolate_full(samples, layout)
    assert field.shape == (rows * cols, n_pds, n_leds)
    r_ops, c_ops = recovery_operators(layout)
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    for nr in range(n_pds):
        for nt in range(n_leds):
            expected = a[nr, nt] * rr + b[nr, nt] * cc + c[nr, nt]
            assert_allclose(field[:, nr, nt], expected, rtol=0,
                            atol=1e-12 * (1.0 + np.max(np.abs(expected))))
            grid = samples[:, nr, nt].reshape(layout.q_v, layout.q_h)
            assert_allclose(field[:, nr, nt], (r_ops[nr] @ grid @ c_ops[nt].T).ravel(),
                            rtol=1e-14, atol=1e-15)


def test_spline_weights_match_scipy_interpolants():
    from scipy import interpolate
    rng = np.random.default_rng(11)
    for spacing in range(2, 7):
        for q in range(1, 25):
            n = q * spacing + spacing - 1
            targets = (np.arange(n) - (n - 1) / 2) * 0.1
            for off in range(spacing):
                pos = targets[off + spacing * np.arange(q)]
                f = rng.normal(size=q)
                if q >= 4:
                    ref = interpolate.CubicSpline(pos, f, bc_type="natural")(targets)
                elif q >= 2:
                    ref = interpolate.interp1d(pos, f, fill_value="extrapolate")(targets)
                else:
                    ref = np.full(n, f[0])
                assert_allclose(spline_weights(pos, targets) @ f, ref, rtol=0,
                                atol=1e-12 * np.max(np.abs(ref)))


def test_flops_estimate_values():
    assert flops_estimate(2, 2, 100, 144) == 345600
    assert flops_estimate(1, 1, 1, 1) == 3
    assert flops_estimate(2, 2, 100, 288) == 2 * flops_estimate(2, 2, 100, 144)
    with pytest.raises(ValueError):
        flops_estimate(0, 1, 1, 1)


def test_run_algorithm1_exact_recovery_dense():
    scene = desk_scene(8, 8)
    errors = run_algorithm1(scene, build_csi_tensor(scene), 1, pilot_slots=20,
                            sigma=0.0, seeds=[3])
    assert errors.shape == (1,) and errors[0] <= 1e-18
    assert len(block_schedule(scene.grid, 2, 2, 1)[0]) == 64          # one block per element


def test_run_algorithm1_noiseless_sampling_hits_samples():
    # at sigma = 0 the block estimates are the truth's samples, so each trial
    # scores the recovery of the exact samples
    scene = desk_scene(8, 8)
    tensor = build_csi_tensor(scene)
    errors = run_algorithm1(scene, tensor, 2, pilot_slots=16, sigma=0.0, seeds=[9, 10])
    index, layout = block_schedule(scene.grid, 2, 2, 2)
    pd_index, led_index = np.ix_(range(2), range(2))
    exact = nmse(interpolate_full(tensor[index, pd_index, led_index], layout), tensor)
    assert errors.shape == (2,) and exact > 0.0
    assert_allclose(errors, exact, rtol=1e-9, atol=0)
    assert len(index) == 16                                           # 16 blocks per trial


def test_run_algorithm1_deterministic():
    # a seed repeats its bits, and a numpy integer slot count runs as the
    # Python int it holds (np.int64 used to overflow the noise cursor)
    scene = desk_scene(8, 8)
    truth = build_csi_tensor(scene, 8)
    a = run_algorithm1(scene, truth, 2, pilot_slots=16, sigma=1e-4, seeds=[(5, 1)])
    for slots in (16, np.int64(16), np.int32(16)):
        b = run_algorithm1(scene, truth, 2, pilot_slots=slots, sigma=1e-4, seeds=[(5, 1)])
        assert np.array_equal(a, b)
    c = run_algorithm1(scene, truth, 2, pilot_slots=16, sigma=1e-4, seeds=[(5, 2)])
    assert not np.array_equal(a, c)


def test_run_algorithm1_identifiability():
    scene = desk_scene(8, 8)
    with pytest.raises(IdentifiabilityError):
        run_algorithm1(scene, build_csi_tensor(scene), 2, pilot_slots=1, sigma=0.0)


def test_run_algorithm1_rejects_truth_of_another_scene(monkeypatch):
    scene = desk_scene(8, 8)
    one_pd = SceneConfig(room=(4, 4, 3), led_positions=scene.led_positions,
                         led_normal=(0, 0, -1), lambertian_order=1.0,
                         pd_positions=[(2, 2, 0)], pd_normal=(0, 0, 1),
                         fov_semi_angle=np.pi / 2, grid=wall_grid(8, 8))
    wrong = [build_csi_tensor(desk_scene(24, 24)),      # element count
             build_csi_tensor(one_pd),                  # PD count
             np.ones((64, 1, 4))]                       # 4 LEDs x 1 PD, same entry count
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: draws.append(a))
    for truth in wrong:
        with pytest.raises(ShapeError):
            run_algorithm1(scene, truth, 2, pilot_slots=16, sigma=1e-4)
    assert draws == []        # rejected before any random draw


def test_run_algorithm1_rejects_bad_truth_before_drawing_pilots(monkeypatch):
    # a truth with a NaN, a negative gain or the flat (N, Nt*Nr) layout fails
    # before any pilot is drawn; a valid one draws once
    scene = desk_scene(8, 8)
    good = build_csi_tensor(scene)
    with_nan, negative = good.copy(), good.copy()
    with_nan[5, 1, 0] = np.nan
    negative[7, 0, 1] = -1e-9
    draws = []

    def statistics(*args):
        draws.append(args)
        return trial_statistics(*args)

    monkeypatch.setattr(estimator, "trial_statistics", statistics)
    for truth, error in ((with_nan, ValueError), (negative, ValueError),
                         (good.transpose(0, 2, 1).reshape(64, 4), ShapeError)):
        with pytest.raises(error):
            run_algorithm1(scene, truth, 2, pilot_slots=16, sigma=1e-4)
    assert draws == []
    run_algorithm1(scene, good, 2, pilot_slots=16, sigma=1e-4)
    assert len(draws) == 1


def test_run_algorithm1_rejects_bad_parameters_before_drawing_pilots(monkeypatch):
    # a NaN, infinite, negative or too large sigma (past its range), too few
    # pilot slots or a float count of them, an all-zero truth and no seeds
    # fail before any pilot is drawn. A call never forks, even with two CPUs reported: each
    # draw, those of the valid call too, is made in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    scene = desk_scene(8, 8)
    truth = build_csi_tensor(scene)
    drawers, forks = [], []

    def statistics(*args):
        drawers.append((os.getpid(), threading.get_ident()))
        return trial_statistics(*args)

    real_fork = os.fork
    monkeypatch.setattr(estimator, "trial_statistics", statistics)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    bad = [({"sigma": value}, ValueError)
           for value in (np.nan, np.inf, -np.inf, -1.0, 1e160)]
    bad += [({"pilot_slots": 1}, IdentifiabilityError),
            ({"pilot_slots": 16.0}, TypeError),
            ({"truth": np.zeros_like(truth)}, ZeroReferenceError),
            ({"seeds": []}, ValueError)]
    for spacing in (1, 2):
        for changed, error in bad:
            kwargs = {"truth": truth, "pilot_slots": 16, "sigma": 1e-4, "seeds": [1, 2],
                      **changed}
            with pytest.raises(error):
                run_algorithm1(scene, spacing=spacing, **kwargs)
    assert drawers == [] and forks == []
    run_algorithm1(scene, truth, 2, pilot_slots=16, sigma=1e-4, seeds=[1, 2])
    assert drawers == [(os.getpid(), threading.get_ident())] * 2 and forks == []


def test_noise_monotonicity_smoke():
    # averaged NMSE grows with sigma (30 trials, two well-separated levels)
    scene = desk_scene()
    truth = build_csi_tensor(scene, 8)
    levels = []
    for sigma in (1e-4, 1e-3):
        vals = run_algorithm1(scene, truth, 2, pilot_slots=100, sigma=sigma,
                              seeds=[(77, trial) for trial in range(30)])
        levels.append(np.mean(vals))
    assert levels[0] < levels[1]


@pytest.mark.parametrize("spacing", [1, 2, 3])
def test_run_algorithm1_one_call_equals_one_call_per_seed(spacing, monkeypatch):
    # a trial's result depends on its seed alone, not on the others of its
    # call, and a batch solves what its singles solve: per trial, the blocks
    # that `run_overhead_report` counts its flops on
    scene = desk_scene(12, 12)
    truth = build_csi_tensor(scene, 8)
    seeds = [(8, spacing, trial) for trial in range(9)]
    solved = []

    def statistics(h_blocks, *args):
        solved.append(len(h_blocks))
        return trial_statistics(h_blocks, *args)

    monkeypatch.setattr(estimator, "trial_statistics", statistics)
    singles = [run_algorithm1(scene, truth, spacing, pilot_slots=16, sigma=1e-4, seeds=[s])
               for s in seeds]
    batch = run_algorithm1(scene, truth, spacing, pilot_slots=16, sigma=1e-4, seeds=seeds)
    assert np.array_equal(batch, np.concatenate(singles))
    blocks = estimator._schedule_shape(scene.grid, 2, 2, spacing)[0]
    assert solved[9:] == solved[:9] == [blocks] * 9


@pytest.mark.parametrize("scene,spacing", [(three_by_three_scene(14, 14), 1),
                                           (three_by_three_scene(14, 14), 3),
                                           (desk_scene(14, 14), 2)],
                         ids=["3x3-dense", "3x3-spacing3", "2x2-spacing2"])
def test_run_algorithm1_does_not_depend_on_the_chunk_size(scene, spacing, monkeypatch):
    # 196, 16 and 49 blocks: chunks of 3 leave a short last chunk
    truth = build_csi_tensor(scene, 3)
    results = []
    for chunk in (3, scene.grid.n_elements):
        monkeypatch.setattr(channel, "CHUNK_BLOCKS", chunk)
        results.append(run_algorithm1(scene, truth, spacing, pilot_slots=8, sigma=1e-3,
                                      seeds=[7, (7, 1)]))
    assert np.array_equal(results[0], results[1])


def _traced_peak(call):
    """Peak bytes tracemalloc sees in this process while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_truth_build_and_dense_pass_memory_stays_bounded():
    # tracemalloc peaks on a 48 x 48 grid with 3 LEDs and 3 PDs. Built over
    # the whole grid at once, the order-8 truth peaked near 72 MB; a chunk
    # takes about 2.4. Each dense trial is scored before the next is drawn,
    # so a call holds one trial's buffers and never all trials' estimates:
    # 16 seeds peak like 2 (the estimates of 16 trials alone would take 5.3 MB)
    scene = three_by_three_scene(48, 48, pitch=0.025)
    truth = build_csi_tensor(scene, 8)

    def dense(trials):
        return lambda: run_algorithm1(scene, truth, 1, sigma=1e-3, seeds=range(trials))

    dense(2)()                                                  # warm caches
    truth_peak = _traced_peak(lambda: build_csi_tensor(scene, 8))
    single, two, sixteen = (_traced_peak(dense(trials)) for trials in (1, 2, 16))
    assert truth_peak < 4e6
    assert single < 2e6
    assert sixteen < 3e6 and abs(sixteen - two) < 0.5e6


def test_a_trial_is_scored_with_only_its_blocks_and_estimates_alive(monkeypatch):
    # bytes held at each `nmse` call, counted from the call's start. The
    # schedule index is freed once the blocks are gathered, and the pilot
    # buffer (144 x 3 x 100 float64, 346 kB) with the trial's exhausted
    # `trial_statistics`, before the trial is scored. So a dense trial is
    # scored beside its blocks and estimates, two (N, Nr, Nt) arrays (166 kB
    # each here), and a spacing-3 trial beside its recovered estimate and
    # 256-block arrays
    scene = three_by_three_scene(48, 48, pitch=0.025)
    truth = build_csi_tensor(scene)
    slots = 100
    half_pilots = channel.CHUNK_BLOCKS * scene.n_leds * slots * 8 / 2
    for spacing in (1, 3):
        run_algorithm1(scene, truth, spacing, slots, 1e-3, seeds=range(2))   # warm caches
    real_nmse = estimator.nmse
    held = []

    def traced_nmse(*args):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return real_nmse(*args)

    monkeypatch.setattr(estimator, "nmse", traced_nmse)
    for spacing, arrays in ((1, 2), (3, 1)):
        held.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_algorithm1(scene, truth, spacing, slots, 1e-3, seeds=range(2))
        finally:
            tracemalloc.stop()
        assert len(held) == 2 and max(held) < arrays * truth.nbytes + half_pilots


def test_dense_noiseless_nmse_stays_below_the_csv_floor():
    # the sweep writes -300 dB for these cells; a round-off change in the
    # ridge solve shows here first
    config = ExperimentConfig()
    scene = config.scene
    truth = build_csi_tensor(scene, 8)
    errors = run_algorithm1(scene, truth, 1, config.pilot_slots, 0.0,
                            seeds=[(config.master_seed, 1, 0, trial) for trial in range(5)])
    assert 10 * np.log10(np.mean(errors)) <= -303.0
