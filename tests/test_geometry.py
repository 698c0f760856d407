import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oirsvlc import (
    DegenerateGeometryError,
    OirsGrid,
    alignment_normal,
    element_positions,
    normalize,
    plane_basis_from,
)


def test_normalize_scaling_identity():
    assert_allclose(normalize([0, 0, 2]), [0, 0, 1])
    assert_allclose(normalize([1, 0, 0]), [1, 0, 0])
    assert_allclose(normalize([3, 4, 0]), [0.6, 0.8, 0.0])


def test_normalize_zero_vector_rejected():
    with pytest.raises(DegenerateGeometryError):
        normalize([0.0, 0.0, 0.0])


def test_alignment_normal_symmetric_v():
    n = alignment_normal([-1, 0, 1], [0, 0, 0], [1, 0, 1])
    assert_allclose(n, [0, 0, 1], atol=1e-12)


def test_alignment_normal_retro_reflection():
    n = alignment_normal([0, 0, 1], [0, 0, 0], [0, 0, 2])
    assert_allclose(n, [0, 0, 1], atol=1e-12)


def test_alignment_normal_study_geometry():
    # bisector of (0,0,1) and (1,0,-1.5)/sqrt(3.25), evaluated by hand
    led, elem, pd = np.array([1.0, 2, 3]), np.array([1.0, 2, 1.5]), np.array([2.0, 2, 0])
    n = alignment_normal(led, elem, pd)
    s = np.array([0, 0, 1.0]) + np.array([1.0, 0, -1.5]) / np.sqrt(3.25)
    assert_allclose(n, s / np.linalg.norm(s), atol=1e-12)
    assert_allclose(n, [0.957092, 0.0, 0.289784], atol=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_alignment_normal_reflection_law(seed):
    # incidence angle equals reflection angle for random configurations
    rng = np.random.default_rng(seed)
    led = rng.uniform(-2, 2, 3) + [0, 0, 3]
    pd = rng.uniform(-2, 2, 3) - [0, 0, 3]
    elem = rng.uniform(-1, 1, 3)
    n = alignment_normal(led, elem, pd)
    cos_in = n @ normalize(led - elem)
    cos_out = n @ normalize(pd - elem)
    assert abs(cos_in - cos_out) <= 1e-9


def test_alignment_normal_antiparallel_rays():
    with pytest.raises(DegenerateGeometryError):
        alignment_normal([0, 0, 1], [0, 0, 0], [0, 0, -1])


def _wall_grid(rows=24, cols=24, pitch=0.1):
    return OirsGrid(center=(2, 0, 1.5), axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    rows=rows, cols=cols,
                    element_size=0.05, element_pitch=pitch)


def test_element_positions_corner():
    # hand evaluation of the centering formula for the 24x24 wall grid
    grid = _wall_grid()
    assert_allclose(element_positions(grid)[0], [0.85, 0.0, 0.35], atol=1e-12)


def test_element_positions_single_element_grid():
    grid = OirsGrid(center=(1, 2, 1.5), axis_u=(1, 0, 0), axis_v=(0, 0, 1),
                    rows=1, cols=1,
                    element_size=0.05, element_pitch=0.1)
    assert_allclose(element_positions(grid), [[1, 2, 1.5]])


def test_element_positions_middle_of_3x3():
    grid = OirsGrid(center=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                    rows=3, cols=3,
                    element_size=0.1, element_pitch=0.1)
    assert_allclose(element_positions(grid)[1 * 3 + 1], [0, 0, 0], atol=1e-15)


def test_element_positions_lattice_spacing():
    grid = _wall_grid(rows=8, cols=8)
    pts = element_positions(grid)
    assert pts.shape == (64, 3)
    dists = np.linalg.norm(pts[:, None] - pts[None], axis=-1)[np.triu_indices(len(pts), 1)]
    assert abs(dists.min() - grid.element_pitch) <= 1e-12
    # row-major: element (2, 5) by hand from the centering formula
    assert_allclose(pts[2 * 8 + 5], [2.0 + 1.5 * 0.1, 0.0, 1.5 - 1.5 * 0.1], atol=1e-15)


def test_grid_rejects_bad_frames():
    with pytest.raises(DegenerateGeometryError):
        OirsGrid(center=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(1, 0, 0),
                 rows=2, cols=2, element_size=0.1,
                 element_pitch=0.1)
    with pytest.raises(DegenerateGeometryError, match="^axis_u must be orthogonal"):
        # unit axes, not orthogonal
        OirsGrid(center=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(0.6, 0.8, 0),
                 rows=2, cols=2, element_size=0.1,
                 element_pitch=0.1)
    with pytest.raises(ValueError, match=r"^expected a 3-vector, got shape \(2,\)$"):
        OirsGrid(center=(0, 0), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                 rows=2, cols=2, element_size=0.1, element_pitch=0.1)


def test_grid_rejects_bad_scalars():
    with pytest.raises(ValueError):
        _wall_grid(rows=0)
    with pytest.raises(ValueError):
        OirsGrid(center=(0, 0, 0), axis_u=(1, 0, 0), axis_v=(0, 1, 0),
                 rows=2, cols=2, element_size=0.2,
                 element_pitch=0.1)


def test_grid_covers_its_apertures_only():
    # a tilted 2 x 3 grid of 4 cm apertures at 10 cm pitch
    n = alignment_normal((1, 2, 3), (1, 2, 1.5), (2, 2, 0))
    u, v = plane_basis_from(n)
    grid = OirsGrid(center=(1, 2, 1.5), axis_u=u, axis_v=v, rows=2, cols=3,
                    element_size=0.04, element_pitch=0.1)
    centers = element_positions(grid)
    assert grid.covers(centers).all()
    assert grid.covers(centers + 0.0199 * (u - v)).all()     # near an aperture corner
    assert grid.covers(centers + 5e-10 * n).all()            # within 1e-9 m of the plane
    assert not grid.covers(centers + 0.0201 * u).any()       # in a gap, or past the grid
    assert not grid.covers(centers - 0.0201 * v).any()
    assert not grid.covers(centers + 2e-9 * n).any()         # off the plane


def test_grid_arrays_are_read_only():
    grid = _wall_grid()
    with pytest.raises(ValueError):
        grid.center[0] = 5.0
    # the normal is derived from the axes, and frozen like them
    assert np.array_equal(grid.normal, np.cross(grid.axis_u, grid.axis_v))
    with pytest.raises(ValueError):
        grid.normal[1] = 1.0


@pytest.mark.parametrize("normal", [(0, 0, 1), (1, 0, 0), (0.6, 0.0, 0.8), (-1, 0, 0)])
def test_plane_basis_right_handed(normal):
    u, v = plane_basis_from(normal)
    assert_allclose(np.cross(u, v), np.asarray(normal, float) / np.linalg.norm(normal),
                    atol=1e-12)
    assert abs(u @ v) <= 1e-12
    assert_allclose([np.linalg.norm(u), np.linalg.norm(v)], [1, 1], atol=1e-12)
    if normal[1:] == (0, 0):                # the x axis has no projection: u is the y axis
        assert_array_equal(u, [0.0, 1.0, 0.0])
