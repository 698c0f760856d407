import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oirsvlc import (
    AssociationPattern,
    IdentifiabilityError,
    LayoutError,
    OirsGrid,
    SceneConfig,
    ShapeError,
    SingularSystemError,
    SubarrayLayout,
    assemble_H,
    block_schedule,
    build_csi_tensor,
    design_layout,
    flops_estimate,
    interpolate_full,
    mmse_estimate,
    pair_column,
    recovery_operators,
    run_algorithm1,
    spline_weights,
    vec_H_blkdiag,
)


def wall_grid(rows=24, cols=24):
    return OirsGrid(center=(2, 0, 1.5), axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    normal=(0, -1, 0), rows=rows, cols=cols,
                    element_size=0.05, element_pitch=0.1)


def desk_scene(rows=24, cols=24):
    return SceneConfig(room=(4, 4, 3),
                       led_positions=[(1.9, 2, 3), (2.1, 2, 3)],
                       led_normal=(0, 0, -1), lambertian_order=1.0,
                       pd_positions=[(1.8, 2, 0), (2.2, 2, 0)],
                       pd_normal=(0, 0, 1), pd_side=0.05,
                       fov_semi_angle=np.pi / 2, grid=wall_grid(rows, cols))


def block_patterns(index, n_elements):
    """Association pattern of every block of a (Q, Nr, Nt) schedule; the
    AssociationPattern constructor rejects a block that is not angle selective."""
    _, nr, nt = index.shape
    patterns = []
    for blk in index:
        g = np.zeros((n_elements, nt), dtype=int)
        f = np.zeros((n_elements, nr), dtype=int)
        for r in range(nr):
            for t in range(nt):
                g[blk[r, t], t] = f[blk[r, t], r] = 1
        patterns.append(AssociationPattern(g, f))
    return patterns


@pytest.mark.parametrize("spacing,expected_q", [(2, 144), (3, 64), (4, 36)])
def test_design_pattern_subarray_counts(spacing, expected_q):
    index, layout = block_schedule(wall_grid(), 2, 2, spacing)
    assert (layout.q_v, layout.q_h) == (24 // spacing, 24 // spacing)
    assert layout.n_blocks == expected_q
    assert index.shape == (expected_q, 2, 2)


def test_design_pattern_degenerate_full_sampling():
    # one LED, one PD, spacing 1: every element is its own sample
    grid = wall_grid(4, 4)
    index, layout = block_schedule(grid, 1, 1, 1)
    assert layout.n_blocks == 16
    assert_allclose(np.sort(index[:, 0, 0]), np.arange(16))


def test_design_pattern_layout_errors():
    with pytest.raises(LayoutError):
        design_layout(wall_grid(), 2, 2, 1)        # block larger than subarray
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(3, 3), 2, 2, 4)   # grid smaller than one subarray
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(), 2, 2, 0)
    with pytest.raises(LayoutError):
        block_schedule(wall_grid(1, 3), 2, 2, 1)   # dense baseline: 3 elements, 4 pairs


def test_design_pattern_angle_selective_and_blockdiag_identity():
    scene = desk_scene(6, 6)
    tensor = build_csi_tensor(scene, "point")
    pairs = np.array([[pair_column(nr, nt, 2) for nt in range(2)] for nr in range(2)])
    for spacing in (1, 3):
        index, _ = block_schedule(scene.grid, 2, 2, spacing)
        for blk, idx in zip(block_patterns(index, 36), index):
            direct = assemble_H(tensor, blk)
            stacked = vec_H_blkdiag(tensor, blk)
            assert_allclose(stacked, direct.reshape(-1, order="F"), rtol=1e-12)
            # the gather run_algorithm1 makes is the block's effective channel
            assert_allclose(tensor.gains[idx, pairs], direct, rtol=1e-12)


def test_design_pattern_sample_lattice():
    index, _ = block_schedule(wall_grid(), 2, 2, 2)
    omega = index[:, 1, 0]                # PD row 1, LED column 0
    assert len(omega) == 144 and len(set(omega.tolist())) == 144
    rows, cols = np.divmod(omega, 24)
    assert set(rows.tolist()) == set(range(1, 24, 2))
    assert set(cols.tolist()) == set(range(0, 24, 2))


def test_design_dense_pattern_covers_every_pair_once():
    grid = wall_grid(3, 3)
    index, layout = block_schedule(grid, 2, 2, 1)
    assert layout is None
    assert index.shape == (9, 2, 2)
    for nr in range(2):
        for nt in range(2):
            assert sorted(index[:, nr, nt].tolist()) == list(range(9))
    for blk in block_patterns(index, 9):
        assert blk.V.sum() == 4


def test_mmse_noiseless_orthogonal_pilots():
    X = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1.0]])
    H = np.array([[0.5, -0.2], [0.1, 0.9]])
    est = mmse_estimate(H @ X, X, 0.0)
    assert_allclose(est, H, rtol=1e-12)
    # a stack of blocks is solved block by block
    Hs = np.stack([H, -2 * H, H.T])
    Xs = np.stack([X, X[::-1], 2 * X])
    assert_allclose(mmse_estimate(Hs @ Xs, Xs, 0.0), Hs, rtol=1e-12)


def test_mmse_scalar_shrinkage():
    # Y X^T (X X^T + sigma^2)^-1 = 8 / (4 + 1)
    est = mmse_estimate(np.array([[2.0, 2, 2, 2]]), np.array([[1.0, 1, 1, 1]]), 1.0)
    assert est[0, 0] == pytest.approx(1.6, rel=1e-14)


def test_mmse_large_noise_shrinks_to_zero():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 2, (2, 50))
    Y = rng.uniform(0, 1, (2, 50))
    est = mmse_estimate(Y, X, 1e6)
    assert np.max(np.abs(est)) < 1e-9


def test_mmse_singular_system():
    X = np.ones((2, 4))          # duplicated pilot rows, sigma = 0
    with pytest.raises(SingularSystemError):
        mmse_estimate(np.ones((1, 4)), X, 0.0)


def test_mmse_shape_mismatch():
    with pytest.raises(ShapeError):
        mmse_estimate(np.ones((1, 4)), np.ones((2, 5)), 0.1)
    with pytest.raises(ShapeError):
        mmse_estimate(np.ones((3, 1, 4)), np.ones((2, 2, 4)), 0.1)


def test_gather_samples_noiseless_equals_truth():
    scene = desk_scene(8, 8)
    index, layout = block_schedule(scene.grid, 2, 2, 2)
    tensor = build_csi_tensor(scene, "point")
    result = run_algorithm1(scene, 2, pilot_slots=16, sigma=0.0, seed=4,
                            truth_model="point")
    for nr in range(2):
        for nt in range(2):
            grid_vals = result.block_estimates[:, nr, nt].reshape(layout.q_v, layout.q_h)
            truth_vals = tensor.gains[index[:, nr, nt],
                                      pair_column(nr, nt, 2)].reshape(4, 4)
            assert_allclose(grid_vals, truth_vals, atol=1e-9)


def _layout(rows=24, cols=24, spacing=2):
    return design_layout(wall_grid(rows, cols), 2, 2, spacing)


def test_interpolate_constant_field():
    layout = _layout()
    field = interpolate_full(np.full((12, 12), 3.7), layout, wall_grid(), 0, 1)
    assert_allclose(field, np.full((24, 24), 3.7), atol=1e-12)


def test_interpolate_exact_at_sample_points():
    rng = np.random.default_rng(8)
    layout = _layout()
    samples = rng.uniform(0, 1, (12, 12))
    field = interpolate_full(samples, layout, wall_grid(), 1, 1)
    assert_allclose(field[1::2, 1::2], samples, atol=1e-12)


def test_interpolate_reproduces_affine_fields():
    layout = _layout()
    rows = layout.row_coord(layout.sample_row_indices(0))
    cols = layout.col_coord(layout.sample_col_indices(1))
    samples = 0.3 + 1.7 * rows[:, None] - 0.6 * cols[None, :]
    field = interpolate_full(samples, layout, wall_grid(), 0, 1)
    rr = layout.row_coord(np.arange(24))[:, None]
    cc = layout.col_coord(np.arange(24))[None, :]
    assert_allclose(field, 0.3 + 1.7 * rr - 0.6 * cc, atol=1e-10)


def test_interpolate_linear_fallback_few_samples():
    # 3 samples per axis: straight-line interpolation, still exact on affine data
    layout = _layout(rows=6, cols=6, spacing=2)
    rows = layout.row_coord(layout.sample_row_indices(0))
    cols = layout.col_coord(layout.sample_col_indices(0))
    samples = 1.0 + 2.0 * rows[:, None] + 0.5 * cols[None, :]
    field = interpolate_full(samples, layout, wall_grid(6, 6), 0, 0)
    rr = layout.row_coord(np.arange(6))[:, None]
    cc = layout.col_coord(np.arange(6))[None, :]
    assert_allclose(field, 1.0 + 2.0 * rr + 0.5 * cc, atol=1e-10)


def test_interpolate_shape_check():
    layout = _layout()
    with pytest.raises(ShapeError):
        interpolate_full(np.zeros((3, 3)), layout, wall_grid(), 0, 0)


# sample counts per axis: 1 (constant), 2 and 3 (straight line), >= 4 (natural cubic)
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
    pitch = data.draw(st.floats(0.01, 0.5), label="pitch")
    a, b, c = data.draw(st.tuples(*[st.floats(-10, 10)] * 3), label="a, b, c")
    layout = SubarrayLayout(rows, cols, spacing, spacing, spacing, q_v, q_h, pitch)
    r_ops, c_ops = recovery_operators(layout)
    assert r_ops.shape == (spacing, rows, q_v) and c_ops.shape == (spacing, cols, q_h)
    a = a if q_v > 1 else 0.0          # one sample along an axis: constants only
    b = b if q_h > 1 else 0.0
    rr = layout.row_coord(np.arange(rows))[:, None]
    cc = layout.col_coord(np.arange(cols))[None, :]
    for off in range(spacing):
        for w, idx in ((r_ops[off], layout.sample_row_indices(off)),
                       (c_ops[off], layout.sample_col_indices(off))):
            assert_array_equal(w[idx], np.eye(len(idx)))
            assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        samples = (a * layout.row_coord(layout.sample_row_indices(off))[:, None]
                   + b * layout.col_coord(layout.sample_col_indices(off))[None, :] + c)
        field = interpolate_full(samples, layout, None, off, off)
        expected = a * rr + b * cc + c
        assert_allclose(field, expected, rtol=0,
                        atol=1e-12 * (1.0 + np.max(np.abs(expected))))


def test_spline_weights_match_scipy_interpolants():
    interpolate = pytest.importorskip("scipy.interpolate")
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
    result = run_algorithm1(scene, 1, pilot_slots=20, sigma=0.0, seed=3,
                            truth_model="point")
    assert result.nmse <= 1e-18
    assert result.block_count == 64
    assert result.csi_parameter_count == 64 * 4


def test_run_algorithm1_noiseless_sampling_hits_samples():
    scene = desk_scene(8, 8)
    result = run_algorithm1(scene, 2, pilot_slots=16, sigma=0.0, seed=9,
                            truth_model="point")
    tensor = build_csi_tensor(scene, "point")
    index, _ = block_schedule(scene.grid, 2, 2, 2)
    for nr in range(2):
        for nt in range(2):
            k = pair_column(nr, nt, 2)
            idx = index[:, nr, nt]
            assert_allclose(result.gains[idx, k], tensor.gains[idx, k], atol=1e-9)
    assert result.csi_parameter_count == 16 * 4


def test_run_algorithm1_deterministic():
    scene = desk_scene(8, 8)
    a = run_algorithm1(scene, 2, pilot_slots=16, sigma=1e-4, seed=(5, 1))
    b = run_algorithm1(scene, 2, pilot_slots=16, sigma=1e-4, seed=(5, 1))
    assert np.array_equal(a.gains, b.gains)
    assert a.nmse == b.nmse
    c = run_algorithm1(scene, 2, pilot_slots=16, sigma=1e-4, seed=(5, 2))
    assert not np.array_equal(a.gains, c.gains)


def test_run_algorithm1_identifiability():
    with pytest.raises(IdentifiabilityError):
        run_algorithm1(desk_scene(8, 8), 2, pilot_slots=1, sigma=0.0, seed=0)


def test_run_algorithm1_clamped_tensor():
    scene = desk_scene(8, 8)
    result = run_algorithm1(scene, 2, pilot_slots=16, sigma=3e-3, seed=12)
    clamped = result.clamped_tensor()
    assert np.all(clamped.gains >= 0.0)


def test_noise_monotonicity_smoke():
    # averaged NMSE grows with sigma (30 trials, two well-separated levels)
    scene = desk_scene()
    levels = []
    for sigma in (1e-4, 1e-3):
        vals = [run_algorithm1(scene, 2, pilot_slots=100, sigma=sigma,
                               seed=(77, trial)).nmse for trial in range(30)]
        levels.append(np.mean(vals))
    assert levels[0] < levels[1]
