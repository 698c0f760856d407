"""Spatial coherence of the reflected channel: growth rate of the gain under
element shifts, its second-order expansion, and the coherence distance.

The relative growth rate of a link's gain under an element shift dR is
xi(dR) = (h(R + dR) - h(R)) / h(R). Its expansion
xi = s1^T dR + dR^T S2 dR / 2 + o(|dR|^2) has

  s1 = grad h / h        (gradient of the log gain)
  S2 = hess h / h        (log-gain Hessian plus s1 s1^T)

both available in closed form from the link geometry. Along a fixed unit
direction, xi(r) = B r + A r^2 with B = s1^T e and A = e^T S2 e / 2, and the
coherence length is the spread |r2 - r1| of the two boundary points of
|xi| <= xi_c nearest the origin: sqrt(B^2/A^2 + 4 xi_c/|A|) while the
quadratic stays within the band (B^2 <= 4|A| xi_c), and the tangent-line
bound 2 xi_c / |B| otherwise. The coherence distance of a surface is the
minimum coherence length over its in-plane directions, in closed form (an
infimum where the length jumps at a branch edge). A study is a one-LED,
one-PD `SceneConfig`: its grid's center is the element, its axes the surface."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SceneConfig
from .errors import (DegenerateGeometryError, ShapeError, SingularGeometryError, ZeroGainError,
                     with_fields)
from .geometry import MAX_LENGTH, MIN_LENGTH, _check_range, _frozen, as_vec3

_COS_EPS = 1e-9
XI_C_RANGE, ANGULAR_SAMPLES_RANGE = (1e-6, 1.0), (8, 10**6)     # declared input ranges


@dataclass(frozen=True)
class TaylorCoeffs:
    """First- and second-order coefficients of the growth rate at a link."""

    s1: np.ndarray
    S2: np.ndarray

    def __post_init__(self):
        s1 = np.asarray(self.s1, dtype=float)
        s2 = np.asarray(self.S2, dtype=float)
        if s1.shape != (3,) or s2.shape != (3, 3):
            raise ValueError("s1 must be (3,) and S2 must be (3, 3)")
        if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
            raise ValueError("coefficients must be finite")
        scale = max(np.abs(s2).max(), 1e-300)
        if np.abs(s2 - s2.T).max() > 1e-12 * scale:
            raise ValueError("S2 must be symmetric")
        object.__setattr__(self, "s1", _frozen(s1))
        object.__setattr__(self, "S2", _frozen(0.5 * (s2 + s2.T)))


def _legs(scene: SceneConfig, points):
    """LED-to-point and PD-to-point vectors of (..., 3) element points in a
    one-LED, one-PD scene, each at least MIN_LENGTH long."""
    if scene.n_leds != 1 or scene.n_pds != 1:
        raise ShapeError("a coherence study takes a scene with one LED and one PD")
    lr = points - scene.led_positions[0]
    ur = points - scene.pd_positions[0]
    if not np.all(np.linalg.norm([lr, ur], axis=-1) >= MIN_LENGTH):
        raise DegenerateGeometryError(f"an element point lies within {MIN_LENGTH:g} m of the "
                                      "LED or the PD")
    return lr, ur


def _shifts(shifts) -> np.ndarray:
    """Coerce to a float (..., 3) array of in-range shifts or directions."""
    d = np.asarray(shifts, dtype=float)
    if d.shape[-1:] != (3,):
        raise ShapeError(f"expected (..., 3) shifts, got shape {d.shape}")
    if not np.all(np.abs(d) <= 2.0 * MAX_LENGTH):       # the span of two in-range coordinates
        raise ValueError(f"shifts must lie in [{-2.0 * MAX_LENGTH}, {2.0 * MAX_LENGTH}]")
    return d


def growth_rate_exact(scene: SceneConfig, shifts):
    """Exact relative gain change of a one-LED, one-PD scene when its
    element moves by each of the (..., 3) `shifts`; returns (...).

    Both gains are evaluated for the same fixed link configuration (the
    element's mirror orientation is not re-aligned under the shift); any
    gain constant would cancel in the ratio.
    """
    point, shifts = scene.grid.center, _shifts(shifts)
    points = np.concatenate([point[None], (point + shifts).reshape(-1, 3)])
    _legs(scene, points)
    h = scene.gains(points)[:, 0, 0]
    if h[0] <= 0.0:
        raise ZeroGainError("growth rate undefined where the gain is zero")
    return ((h[1:] - h[0]) / h[0]).reshape(shifts.shape[:-1])[()]


def taylor_coeffs(scene: SceneConfig) -> TaylorCoeffs:
    """Closed-form growth-rate coefficients of a one-LED, one-PD scene at its element.

    Requires both incidence cosines strictly positive; the coefficients
    diverge as either approaches zero. A zero gain has no log-gain to expand:
    its ZeroGainError names the PD's field of view, or else the beam whose
    cos(theta)^m underflows.
    """
    lr, ur = _legs(scene, scene.grid.center)
    d1 = float(np.linalg.norm(lr))
    d2 = float(np.linalg.norm(ur))
    lr = lr / d1
    ur = ur / d2
    n1 = scene.led_normal
    n2 = scene.pd_normal
    ct = float(n1 @ lr)
    cp = float(n2 @ ur)
    if ct <= _COS_EPS or cp <= _COS_EPS:
        raise SingularGeometryError("incidence cosine too small for a Taylor expansion")
    if scene.gains(scene.grid.center)[0, 0] <= 0.0:
        reads = (("fov_semi_angle", "pd_positions", "center", "pd_normal")
                 if cp < math.cos(scene.fov_semi_angle) else
                 ("lambertian_order", "led_normal", "led_positions", "center"))
        raise with_fields(ZeroGainError(f"{reads[0]} leaves the link dark: no log-gain"), *reads)
    m = scene.lambertian_order
    ds = d1 + d2

    s1 = (m / (d1 * ct)) * n1 + (1.0 / (d2 * cp)) * n2 \
        - (m / d1 + 2.0 / ds) * lr - (1.0 / d2 + 2.0 / ds) * ur

    # Hessian of the log gain; adding s1 s1^T turns it into hess(h)/h.
    hess_ln = (-m / (d1 * ct) ** 2) * np.outer(n1, n1) \
        - (1.0 / (d2 * cp) ** 2) * np.outer(n2, n2) \
        + (2.0 * m / d1**2 + 2.0 / (d1 * ds) + 2.0 / ds**2) * np.outer(lr, lr) \
        + (2.0 / d2**2 + 2.0 / (d2 * ds) + 2.0 / ds**2) * np.outer(ur, ur) \
        + (2.0 / ds**2) * (np.outer(lr, ur) + np.outer(ur, lr)) \
        - (m / d1**2 + 1.0 / d2**2 + 2.0 / (d1 * ds) + 2.0 / (d2 * ds)) * np.eye(3)
    return TaylorCoeffs(s1, hess_ln + np.outer(s1, s1))


def _terms(coeffs: TaylorCoeffs, shifts):
    """Growth-rate terms s1^T d and d^T S2 d / 2 of (..., 3) shifts d, each (...)."""
    row = _shifts(shifts)[..., None, :]
    # stacked (1, 3) products, so each shift's sums run in one fixed order
    linear = (row @ coeffs.s1[:, None])[..., 0, 0]
    quadratic = 0.5 * (row @ coeffs.S2 @ np.swapaxes(row, -1, -2))[..., 0, 0]
    return linear, quadratic


def growth_rate_taylor(coeffs: TaylorCoeffs, shifts):
    """Second-order growth-rate prediction s1^T dR + dR^T S2 dR / 2 of each
    of the (..., 3) `shifts`; returns (...)."""
    linear, quadratic = _terms(coeffs, shifts)
    return (linear + quadratic)[()]


def coherence_length_1d(A, B, xi_c):
    """Spread of the two |A r^2 + B r| = xi_c boundary points nearest zero,
    elementwise over the broadcast arrays: the quadratic or the tangent-line
    branch of the module notes. A near-zero A takes the tangent line, to
    avoid dividing by it, unless B = 0: that pure quadratic has length
    sqrt(4 xi_c / |A|), +inf for a flat profile (A = B = 0)."""
    A, B, xi_c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (A, B, xi_c)))
    if not np.all(xi_c > 0.0):
        raise ValueError("xi_c must be positive")
    abs_a = np.abs(A)
    with np.errstate(all="ignore"):            # the branch not taken may overflow
        ratio = np.divide(B, A, out=np.zeros_like(B), where=B != 0.0)
        quadratic = (B == 0.0) | ((abs_a > 1e-12 * np.maximum(1.0, B * B / xi_c))
                                  & (B * B <= 4.0 * abs_a * xi_c))
        length = np.where(quadratic, np.sqrt(ratio ** 2 + 4.0 * xi_c / abs_a),
                          2.0 * xi_c / np.abs(B))
    return length[()]


@dataclass(frozen=True)
class CoherenceReport:
    """Direction-resolved coherence lengths and their minimum, `d_c`."""

    argmin_direction: np.ndarray
    xi_c: float
    coeffs: TaylorCoeffs
    per_direction_lengths: np.ndarray      # read-only (N, 2) rows of (angle_rad, length_m)

    def __post_init__(self):
        object.__setattr__(self, "argmin_direction",
                           _frozen(as_vec3(self.argmin_direction)))
        profile = _frozen(self.per_direction_lengths)
        if profile.ndim != 2 or profile.shape[1] != 2 or not len(profile):
            raise ValueError("per_direction_lengths must be a non-empty (N, 2) array")
        object.__setattr__(self, "per_direction_lengths", profile)

    @property
    def d_c(self) -> float:
        return float(self.per_direction_lengths[:, 1].min())


def coherence_profile(coeffs: TaylorCoeffs, plane_axes, xi_c: float, angles):
    """Coherence lengths along the in-plane directions cos(a) u + sin(a) v of
    the `angles` a; flat directions carry +inf. Opposite directions share a
    length (the two-sided construction), so angles in [0, pi) cover the plane."""
    u, v = (as_vec3(ax) for ax in plane_axes)
    angles = np.asarray(angles, dtype=float)[..., None]
    linear, quadratic = _terms(coeffs, np.cos(angles) * u + np.sin(angles) * v)
    return coherence_length_1d(quadratic, linear, xi_c)


def coherence_distance(scene: SceneConfig, xi_c: float,
                       angular_samples: int = 360) -> CoherenceReport:
    """Minimum coherence length over the directions cos(a) u + sin(a) v of the
    surface of a one-LED, one-PD scene, spanned by its grid's axes u and v, appended to a
    uniform angular grid's profile. B = b(t) / sqrt(1 + t^2) and A = q(t) / (1 + t^2)
    in t = tan(a), so the minimum lies at a = pi/2, at the largest |B|, at a root of
    f'q - 2 f q' with f = (1 + t^2)(b^2 + 4 xi_c |q|), or at a simple root of
    b^2 - 4 xi_c |q|: a branch edge, where it is the tangent side's infimum 2 xi_c / |B|."""
    _check_range(xi_c, *XI_C_RANGE, "xi_c")
    if not isinstance(angular_samples, (int, np.integer)):
        raise TypeError("angular_samples must be an integer")
    _check_range(angular_samples, *ANGULAR_SAMPLES_RANGE, "angular_samples")
    u, v = scene.grid.axis_u, scene.grid.axis_v
    coeffs = taylor_coeffs(scene)
    p, r = coeffs.s1 @ u, coeffs.s1 @ v
    b, q = np.poly1d([r, p]), np.poly1d([v @ coeffs.S2 @ v, 2.0 * u @ coeffs.S2 @ v,
                                         u @ coeffs.S2 @ u]) / 2.0
    stationary, edges = [], []
    for sign in (1.0, -1.0):                    # |q| = sign * q
        f = np.poly1d([1.0, 0.0, 1.0]) * (b * b + 4.0 * xi_c * sign * q)
        stationary.extend((f.deriv() * q - 2.0 * f * q.deriv()).roots)
        g = b * b - 4.0 * xi_c * sign * q      # sign * q >= 0 at its roots
        if g.order < 2 or g.coeffs[1] ** 2 > 4.0 * g.coeffs[0] * g.coeffs[2]:    # simple roots
            edges.extend(g.roots)
    stationary, edges = (np.real([t for t in ts if np.isreal(t)]) for ts in (stationary, edges))
    inner = np.concatenate([np.pi * np.arange(angular_samples) / angular_samples,
                            [np.pi / 2, math.atan2(r, p)], np.arctan(stationary)]) % np.pi
    angles = np.concatenate([inner, np.arctan(edges) % np.pi])
    lengths = np.concatenate([coherence_profile(coeffs, (u, v), xi_c, inner),
                              coherence_length_1d(0.0, b(edges) / np.hypot(1.0, edges), xi_c)])
    profile = np.column_stack([angles[:angular_samples], lengths[:angular_samples]])
    k = int(np.argmin(lengths))
    best_angle, best_len = angles[k], lengths[k]
    if math.isfinite(best_len):
        profile = np.vstack([profile, [(best_angle, best_len)]])
    direction = math.cos(best_angle) * u + math.sin(best_angle) * v
    assert abs(direction @ scene.grid.normal) <= 1e-9, "argmin direction left the surface plane"
    return CoherenceReport(direction, xi_c, coeffs, profile)
