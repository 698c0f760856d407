"""Lambertian reflected-channel model, ground-truth gain tensors, and the
received statistics of one trial's pilot blocks.

The reflected gain of one LED -> element -> PD link is
cos(theta)^m * cos(phi) / (d1 + d2)^2 inside the receiver field of view
and zero outside, where theta is the emission angle at the LED, phi the
incidence angle at the PD, and d1, d2 the two leg lengths. The directed
unit vectors point from the LED/PD toward the element, which makes both
cosines positive in the downlink geometry. The kernel has unit gain: only
the noise sweep reads absolute scale (see `experiments`).

`trial_statistics` is the observation model: it draws a trial's uniform
nonnegative pilots X on [0, 2] and, when sigma > 0, its Gaussian noise Z,
and yields what the ridge solve reads of the received blocks Y = H X + sigma Z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    IdentifiabilityError,
    ShapeError,
    with_fields,
)
from .geometry import (
    MAX_LENGTH,
    MIN_LENGTH,
    OirsGrid,
    _check_range,
    _element_centers,
    _frozen,
    as_vec3,
    element_positions,
    is_unit,
)

# aperture sub-points evaluated at a time: 64 elements at order 8, so each
# (points, Nr, Nt) gain temporary of a 3 x 3 scene stays near 0.3 MB
APERTURE_CHUNK_POINTS = 1 << 12
# Phase II blocks drawn and solved at a time: one chunk of a 3 x 3 scene's
# pilots or noise at 100 slots (144 x 3 x 100 float64) is 0.35 MB per process
CHUNK_BLOCKS = 144


def pair_gains(points, leds, led_normal, pds, pd_normal, m: float, fov: float) -> np.ndarray:
    """Point gains of every (LED, PD) pair via each element point.

    Maps (..., 3) element points to C-contiguous (..., Nr, Nt) gains for LED
    positions `leds` (Nt, 3) and PD positions `pds` (Nr, 3). A pair's gain
    is 0 when the LED faces away from the point or the arrival direction
    falls outside the PD field of view (cos phi < cos fov).

    The ends lead: every leg is three (Nt, ...) or (Nr, ...) coordinate
    planes and the gains are (Nr, Nt, ...), so each length, cosine and
    quotient runs over the long point axis, where a (..., Nt) layout loops
    over a size-3 inner axis. The result is copied to (..., Nr, Nt) order:
    the aperture mean's summation order, and so its bits, follow the layout.
    """
    # contiguous (3, ...) coordinate planes: the legs subtract ~4x faster than on views
    pts = np.ascontiguousarray(np.moveaxis(np.asarray(points, dtype=float), -1, 0))
    pad = (1,) * (pts.ndim - 1)

    def leg(ends, normal):
        """Length and cosine toward each point of the legs from `ends`."""
        ends = np.asarray(ends, dtype=float).T.reshape(3, -1, *pad)
        x, y, z = pts[:, None] - ends                             # (len(ends), ...) each
        length = np.sqrt(x * x + y * y + z * z)
        return length, (x * normal[0] + y * normal[1] + z * normal[2]) / length

    d1, ct = leg(leds, led_normal)                            # (Nt, ...)
    d2, cp = leg(pds, pd_normal)                              # (Nr, ...)
    # m >= 1 (SceneConfig), so a zeroed cosine zeroes its pair's numerator
    num = np.where(ct > 0.0, ct, 0.0) ** m
    num = num[None] * np.where(cp >= math.cos(fov), cp, 0.0)[:, None]
    den = d1[None] + d2[:, None]
    den *= den
    num /= den
    return np.ascontiguousarray(np.moveaxis(num, (0, 1), (-2, -1)))


def aperture_points(grid: OirsGrid, centers, order: int) -> np.ndarray:
    """Midpoint-rule sub-points of square apertures: (..., 3) -> (..., order^2, 3).

    `order` x `order` sub-points span the grid's element_size along its two
    in-plane axes around each center. order=1 gives the centers themselves.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    offs = ((np.arange(order) + 0.5) / order - 0.5) * grid.element_size
    du, dv = np.meshgrid(offs, offs)
    return np.asarray(centers, dtype=float)[..., None, :] \
        + du.ravel()[:, None] * grid.axis_u \
        + dv.ravel()[:, None] * grid.axis_v


@dataclass(frozen=True)
class SceneConfig:
    """Room, LED/PD arrays, and the reflecting-element grid. Each rejection
    carries `fields`, the fields its check read, its grid's included."""

    room: np.ndarray              # extents (x, y, z), meters; origin at (0, 0, 0)
    led_positions: np.ndarray     # (Nt, 3)
    led_normal: np.ndarray
    lambertian_order: float
    pd_positions: np.ndarray      # (Nr, 3)
    pd_normal: np.ndarray
    fov_semi_angle: float
    grid: OirsGrid

    def __post_init__(self):
        for extent in np.ravel(self.room):        # a length, before it is read as coordinates
            _check_range(extent, MIN_LENGTH, MAX_LENGTH, "room")
        object.__setattr__(self, "room", _frozen(as_vec3(self.room, "room")))
        leds = np.atleast_2d(np.asarray(self.led_positions, dtype=float))
        pds = np.atleast_2d(np.asarray(self.pd_positions, dtype=float))
        for name, pts, n in (("led_positions", leds, "Nt"), ("pd_positions", pds, "Nr")):
            if pts.shape[1] != 3 or pts.shape[0] < 1:
                raise with_fields(ShapeError(f"{name} must be ({n}, 3) with {n} >= 1"), name)
        object.__setattr__(self, "led_positions", _frozen(leds))
        object.__setattr__(self, "pd_positions", _frozen(pds))
        for name in ("led_normal", "pd_normal"):
            vec = as_vec3(getattr(self, name), name)
            if not is_unit(vec):
                raise with_fields(DegenerateGeometryError(f"{name} must be a unit vector"), name)
            object.__setattr__(self, name, _frozen(vec))
        _check_range(self.lambertian_order, 1.0, 1e3, "lambertian_order")
        if not 0.0 < self.fov_semi_angle <= math.pi / 2:
            raise with_fields(ValueError("fov_semi_angle must lie in (0, pi/2]"), "fov_semi_angle")
        # the grid by its corner elements: no grid size builds every element.
        # The grid fields that place them; a one-element grid's corner is its center
        grid = ("center", "axis_u", "axis_v", "rows", "cols", "element_pitch")
        corners = _element_centers(self.grid, [0, self.grid.cols - 1], [0, self.grid.rows - 1])
        for name, reads, pts in (("led_positions", ("led_positions",), leds),
                                 ("pd_positions", ("pd_positions",), pds),
                                 ("grid", grid if self.grid.n_elements > 1 else grid[:1], corners)):
            if not np.all((pts >= -1e-9) & (pts <= self.room + 1e-9)):
                raise with_fields(ValueError(f"{name} must lie inside the room extents"),
                                  *reads, "room")
        for name, pts in (("led_positions", leds), ("pd_positions", pds)):
            # a gain sub-point on an LED or PD would divide 0 by 0
            if np.any(self.grid.covers(pts)):
                raise with_fields(DegenerateGeometryError(f"{name} must not lie on an element "
                                                          "aperture"), name, *grid, "element_size")

    @property
    def n_leds(self) -> int:
        return self.led_positions.shape[0]

    @property
    def n_pds(self) -> int:
        return self.pd_positions.shape[0]

    def gains(self, points) -> np.ndarray:
        """pair_gains of this scene's LEDs and PDs: (..., 3) -> (..., Nr, Nt)."""
        return pair_gains(points, self.led_positions, self.led_normal, self.pd_positions,
                          self.pd_normal, self.lambertian_order, self.fov_semi_angle)


def aperture_gain(scene: SceneConfig, centers, order: int) -> np.ndarray:
    """Aperture-averaged gains of `scene`: (M, 3) element centers -> (M, Nr, Nt).

    The midpoint rule of `aperture_points` with the given order, evaluated
    for as many centers at a time as fit in APERTURE_CHUNK_POINTS sub-points,
    so memory stays bounded on any grid. No center's average depends on its chunk.
    """
    centers = np.asarray(centers, dtype=float)
    gains = np.empty((len(centers), scene.n_pds, scene.n_leds))
    # centers per chunk; aperture_points refuses order < 1
    step = max(1, APERTURE_CHUNK_POINTS // max(1, order) ** 2)
    for lo in range(0, len(centers), step):
        points = aperture_points(scene.grid, centers[lo:lo + step], order)
        gains[lo:lo + step] = scene.gains(points).mean(axis=1)
    return gains


def build_csi_tensor(scene: SceneConfig, order: int = 1) -> np.ndarray:
    """Ground-truth CSI: the read-only (N, Nr, Nt) gains of every element for
    every (PD, LED) pair, each averaged over the element's square aperture by
    the midpoint rule of `order` (order 1: the gain at the element center).
    Each element is taken as aligned (its mirror normal set by the reflection
    law for the link being evaluated), which the point-source bound leaves
    implicit. Filled a chunk of elements at a time by `aperture_gain`, in the
    calling process.
    """
    gains = aperture_gain(scene, element_positions(scene.grid), order)
    gains.flags.writeable = False
    return gains


def _check_pilots(n_leds: int, n_slots: int) -> int:
    """`n_slots` as a Python int, checked to identify `n_leds` LED gains
    (`fields`: the arguments read)."""
    n_slots = operator.index(n_slots)
    if n_slots < n_leds:
        raise with_fields(IdentifiabilityError(
            f"{n_slots} pilot slots cannot identify {n_leds} LED gains"), "n_slots", "n_leds")
    return n_slots


def _check_sigma(sigma: float):
    """Raise unless the noise level `sigma` lies in its range."""
    _check_range(sigma, 0.0, 1e3, "sigma")


def trial_statistics(h_blocks: np.ndarray, seed, pilot_slots: int, sigma: float):
    """Yield (b, G, X Y^T) of one trial's (Q, Nr, Nt) channel blocks H a chunk
    at a time, from block b: what the ridge solve reads of the received
    blocks Y = H X + sigma Z, which are never formed. G = X X^T is
    (chunk, Nt, Nt) and X Y^T = G H^T + sigma X Z^T is (chunk, Nt, Nr).

    The pilots X, i.i.d. uniform on [0, 2] (mean 1), are nonnegative under
    the intensity-modulation constraint, and X X^T is well conditioned with
    high probability. Pilots of mean p would scale G by p^2 and the noise
    term by p, so their ridge estimate is this one's at sigma / p. They are
    drawn into one buffer of min(Q, CHUNK_BLOCKS) blocks, freed when the
    generator is exhausted. The noise Z is i.i.d. standard normal. The slot
    count and sigma are checked once, before the first draw.

    The trial reads one stream, `default_rng(seed)`: the pilots of every
    block, then its noise in C order only when sigma > 0, through two cursors
    on one SeedSequence(seed). `Generator.random` takes one PCG64 word per
    float64, so the noise cursor, advanced past Q * Nt * pilot_slots words,
    starts where the pilots end, and the bits do not depend on the chunk size.

    G is taken against a transposed copy of X: numpy sends a product of a
    buffer with its own transpose to the symmetric (syrk) kernel, which for
    a stack of small Nt x P blocks runs about 3x slower than the general
    product, copy included. The copy, and then a chunk's noise, are freed
    before the chunk is yielded.
    """
    q_blocks, n_pds, nt = np.shape(h_blocks)
    pilot_slots = _check_pilots(nt, pilot_slots)
    _check_sigma(sigma)
    x = np.empty((min(q_blocks, CHUNK_BLOCKS), nt, pilot_slots))
    seq = np.random.SeedSequence(seed)
    pilots = np.random.Generator(np.random.PCG64(seq))
    noise = (np.random.Generator(np.random.PCG64(seq).advance(q_blocks * nt * pilot_slots))
             if sigma > 0.0 else None)
    for b in range(0, q_blocks, CHUNK_BLOCKS):
        xb = pilots.random(out=x[:q_blocks - b])
        xb *= 2.0
        gram = xb @ np.swapaxes(xb.copy(), -1, -2)            # gemm, not syrk: see above
        cross = gram @ np.swapaxes(h_blocks[b:b + len(xb)], -1, -2)
        if noise is not None:
            z = noise.standard_normal((len(xb), n_pds, pilot_slots))
            cross += sigma * (xb @ np.swapaxes(z, -1, -2))
            del z
        yield b, gram, cross
