"""3-D points, unit vectors, reflecting-element grids, and the mirror
alignment normal.

Points and directions are plain numpy arrays of shape (3,), in meters.
Everything here is pure and safe to share across threads; arrays stored on
dataclasses are frozen read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, with_fields

_UNIT_TOL = 1e-9
# meters: the range of every length a scene declares (room extents, element
# pitch, study-link legs); each coordinate lies within +-MAX_LENGTH
MIN_LENGTH, MAX_LENGTH = 1e-6, 1e4


def _check_range(value: float, lo: float, hi: float, name: str):
    """Raise a ValueError carrying the field `name` unless `value` lies in
    [lo, hi]; NaN lies in no range."""
    if not lo <= value <= hi:
        raise with_fields(ValueError(f"{name} must lie in [{lo}, {hi}]"), name)


def as_vec3(v, name: str | None = None) -> np.ndarray:
    """Coerce to a float (3,) array of coordinates within +-MAX_LENGTH m; a
    rejection carries the field `name`, if given."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.abs(a) <= MAX_LENGTH):
        exc = ValueError(f"coordinates must lie in [{-MAX_LENGTH}, {MAX_LENGTH}]")
        raise with_fields(exc, name) if name else exc
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def normalize(v) -> np.ndarray:
    """Return v / ||v||; a zero vector has no direction."""
    return _unit(as_vec3(v))


def _unit(a: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(a)
    if n <= 0.0:
        raise DegenerateGeometryError("cannot normalize a zero vector")
    return a / n


def is_unit(v) -> bool:
    return bool(abs(np.linalg.norm(as_vec3(v)) - 1.0) <= _UNIT_TOL)


def alignment_normal(led, element, pd) -> np.ndarray:
    """Mirror normal that reflects the ray from `led` off `element` into `pd`.

    The specular reflection law is satisfied exactly by the bisector of the
    two rays leaving the element, normalize(L - R) + normalize(U - R). The
    bisector degenerates when the two rays are antiparallel (grazing
    configuration), which raises DegenerateGeometryError.
    """
    element = as_vec3(element, "center")
    # each ray joins two in-range points, so an entry may reach twice the range
    to_led = _unit(as_vec3(led, "led_positions") - element)
    to_pd = _unit(as_vec3(pd, "pd_positions") - element)
    s = to_led + to_pd
    if np.linalg.norm(s) < _UNIT_TOL:
        raise DegenerateGeometryError("incident and reflected rays are antiparallel")
    return s / np.linalg.norm(s)


@dataclass(frozen=True)
class OirsGrid:
    """Regular grid of square reflecting elements on a plane.

    The grid is centered on `center`; element (i, j) sits at
    center + (j - (cols-1)/2) * pitch * axis_u + (i - (rows-1)/2) * pitch * axis_v.
    The frame is right-handed: the derived `normal` is axis_u x axis_v. Each
    rejection carries `fields` (`errors.with_fields`), the fields its check read.
    """

    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    rows: int
    cols: int
    element_size: float
    element_pitch: float
    normal: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(as_vec3(self.center, "center")))
        for name in ("axis_u", "axis_v"):
            vec = as_vec3(getattr(self, name), name)
            if not is_unit(vec):
                raise with_fields(DegenerateGeometryError(f"{name} must be a unit vector"), name)
            object.__setattr__(self, name, _frozen(vec))
        if abs(self.axis_u @ self.axis_v) > _UNIT_TOL:
            raise with_fields(DegenerateGeometryError("axis_u must be orthogonal to axis_v"),
                              "axis_u", "axis_v")
        object.__setattr__(self, "normal", _frozen(np.cross(self.axis_u, self.axis_v)))
        top = np.iinfo(np.intp).max           # every element index must fit numpy's index type
        for name in ("rows", "cols"):
            if not 1 <= getattr(self, name) <= top:
                raise with_fields(ValueError(f"{name} must lie in [1, {top}]"), name)
        _check_range(self.element_pitch, MIN_LENGTH, MAX_LENGTH, "element_pitch")
        if not 0.0 < self.element_size <= self.element_pitch:
            raise with_fields(ValueError("element_size must lie in (0, element_pitch]"),
                              "element_size", "element_pitch")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    def covers(self, points) -> np.ndarray:
        """Whether each of the (..., 3) points lies on an element's square
        aperture, within 1e-9 m of the grid plane."""
        rel = np.asarray(points, dtype=float) - self.center
        hit = np.abs(rel @ self.normal) <= 1e-9
        for axis, count in ((self.axis_u, self.cols), (self.axis_v, self.rows)):
            # position in pitches from the first element, and the nearest element
            t = rel @ axis / self.element_pitch + (count - 1) / 2.0
            nearest = np.clip(np.round(t), 0, count - 1)
            hit &= np.abs(t - nearest) * self.element_pitch <= self.element_size / 2.0 + 1e-9
        return hit


def element_positions(grid: OirsGrid) -> np.ndarray:
    """All element centers as an (N, 3) array in row-major order (n = i*cols + j)."""
    return _element_centers(grid, np.arange(grid.cols), np.arange(grid.rows))


def _element_centers(grid: OirsGrid, cols, rows) -> np.ndarray:
    """Centers of the elements in the given columns of the given rows, in
    row-major order. Each coordinate is monotone along a row and a column,
    so a box holds every element exactly when it holds the four corners'."""
    jj, ii = np.meshgrid(cols, rows)
    ou = (jj.ravel() - (grid.cols - 1) / 2.0) * grid.element_pitch
    ov = (ii.ravel() - (grid.rows - 1) / 2.0) * grid.element_pitch
    return grid.center + np.outer(ou, grid.axis_u) + np.outer(ov, grid.axis_v)


def plane_basis_from(normal):
    """Right-handed in-plane axes (u, v) for a plane with the given normal.

    u is the room x axis projected onto the plane, or the y axis for a
    normal along x; v completes the frame so that u x v equals the normal.
    """
    n = normalize(normal)
    h = np.array([1.0, 0.0, 0.0])
    u = h - (h @ n) * n
    if np.linalg.norm(u) < _UNIT_TOL:
        h = np.array([0.0, 1.0, 0.0])
        u = h - (h @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v
