"""Test oracles: the gain of one link written out with `math`, and Phase I's
block-diagonal association model; `link_scene`, which holds one link in
the one-LED, one-PD scene that the coherence functions study;
`exact_edge`, a coherence length's boundary on the exact gain; and
`powered_statistics`, Phase II's received statistics under pilots of any
mean power.

`link_gain` evaluates the reflected-gain formula of one LED -> point -> PD
link on plain floats, one link at a time, with no numpy and no array layout.
`broadcast_pair_gains` is the points-major gain kernel that `pair_gains`
replaced, kept as written: the reference its bits are pinned to.

Block q of the schedule aligns element index[q, nr, nt] with pair (nr, nt).
Its composite association V_q (N, K) holds V_q[n, k] = 1 when element n
serves pair column k, and its effective channel is the association-weighted
sum of the per-element CSI: vec(H_q) = blkdiag(v_q)^T vec(h), where h (N, K)
holds the (N, Nr, Nt) CSI in the columns of vec(H) order. The helpers here
build that product literally and record the channel blocks that
`run_algorithm1` actually estimates, so the two can be compared.
"""

import math

import numpy as np

from oirsvlc import (OirsGrid, SceneConfig, alignment_normal, channel, estimator,
                     growth_rate_exact, plane_basis_from, run_algorithm1)


def link_scene(led, point, pd, led_normal, pd_normal, m=1.0, fov=math.pi / 2):
    """The one-LED, one-PD scene of the link LED -> point -> PD: a coherence study.

    A scene's room has its origin at (0, 0, 0) and must contain every
    position, so a link with negative coordinates moves by whole meters along
    those axes; gains, growth rates and Taylor coefficients do not change
    under translation, and a link with no negative coordinate keeps its
    coordinates. The room ends at the next whole meter past the link. The one
    5 cm element, the grid's center, is turned to the aligned mirror normal
    with the axes of `plane_basis_from`, as in `ExperimentConfig.single_link`.
    """
    pts = np.array([led, point, pd], dtype=float)
    pts += np.maximum(0.0, -np.floor(pts.min(axis=0)))
    led, point, pd = pts
    u, v = plane_basis_from(alignment_normal(led, point, pd))
    grid = OirsGrid(center=point, axis_u=u, axis_v=v,
                    rows=1, cols=1, element_size=0.05, element_pitch=0.05)
    return SceneConfig(room=np.floor(pts.max(axis=0)) + 1.0, led_positions=[led],
                       led_normal=led_normal, lambertian_order=m, pd_positions=[pd],
                       pd_normal=pd_normal, fov_semi_angle=fov, grid=grid)


def link_gain(led, led_normal, point, pd, pd_normal, m, fov):
    """cos^m(theta) cos(phi) / (d1 + d2)^2 of one LED -> point -> PD link.

    theta is the angle at the LED between its normal and the point, phi the
    angle at the PD between its normal and the point, d1 and d2 the two leg
    lengths. The gain is 0 when the LED faces away from the point
    (cos theta <= 0) or the point lies outside the PD field of view
    (cos phi < cos fov).
    """
    to_led = [float(p) - float(q) for p, q in zip(point, led)]
    to_pd = [float(p) - float(q) for p, q in zip(point, pd)]
    d1 = math.sqrt(sum(v * v for v in to_led))
    d2 = math.sqrt(sum(v * v for v in to_pd))
    cos_theta = sum(v * float(n) for v, n in zip(to_led, led_normal)) / d1
    cos_phi = sum(v * float(n) for v, n in zip(to_pd, pd_normal)) / d2
    if cos_theta <= 0.0 or cos_phi < math.cos(fov):
        return 0.0
    return cos_theta**m * cos_phi / (d1 + d2) ** 2


def broadcast_pair_gains(points, leds, led_normal, pds, pd_normal, m: float,
                         fov: float) -> np.ndarray:
    """Point gains of every (LED, PD) pair via each element point.

    Maps (..., 3) element points to (..., Nr, Nt) gains for LED positions
    `leds` (Nt, 3) and PD positions `pds` (Nr, 3). A pair's gain is 0 when
    the LED faces away from the point or the arrival direction falls
    outside the PD field of view (cos phi < cos fov).

    The points are split into their x, y and z planes, (..., 1) each, so
    every leg is three (..., Nt) or (..., Nr) coordinate arrays and each
    length and cosine a sum of three products. numpy runs those at full
    width, where a (..., Nt, 3) layout loops over a size-3 inner axis.
    """
    pts = np.asarray(points, dtype=float)

    def leg(ends, normal):
        """Length and cosine toward each point of the legs from `ends`."""
        ends = np.asarray(ends, dtype=float)
        x, y, z = (pts[..., k, None] - ends[:, k] for k in range(3))   # (..., len(ends))
        length = np.sqrt(x * x + y * y + z * z)
        return length, (x * normal[0] + y * normal[1] + z * normal[2]) / length

    d1, ct = leg(leds, led_normal)                            # (..., Nt)
    d2, cp = leg(pds, pd_normal)                              # (..., Nr)
    # m >= 1 (SceneConfig), so a zeroed cosine zeroes its pair's numerator
    num = np.where(ct > 0.0, ct, 0.0) ** m
    num = num[..., None, :] * np.where(cp >= math.cos(fov), cp, 0.0)[..., :, None]
    den = d1[..., None, :] + d2[..., :, None]
    den *= den
    num /= den
    return num


def pair_column(nr, nt, n_pds):
    """Column k of pair (PD nr, LED nt) in vec(H) order: PDs run fastest."""
    return nt * n_pds + nr


def csi_columns(truth):
    """(N, K) matrix h of an (N, Nr, Nt) CSI array: column pair_column(nr, nt, Nr)
    holds pair (nr, nt) over every element."""
    n, n_pds, n_leds = truth.shape
    h = np.zeros((n, n_pds * n_leds))
    for nr in range(n_pds):
        for nt in range(n_leds):
            h[:, pair_column(nr, nt, n_pds)] = truth[:, nr, nt]
    return h


def association(block, n_elements):
    """Composite association V (N, K) of one (Nr, Nt) schedule block."""
    n_pds, n_leds = block.shape
    v = np.zeros((n_elements, n_leds * n_pds))
    for nr in range(n_pds):
        for nt in range(n_leds):
            v[block[nr, nt], pair_column(nr, nt, n_pds)] = 1.0
    return v


def blockdiag_channel(truth, block):
    """(Nr, Nt) channel of one schedule block of an (N, Nr, Nt) CSI array as
    vec(H) = blkdiag(v)^T vec(h).

    blkdiag(v) is the (N*K, K) matrix whose k-th diagonal block is column k
    of the block's association; vec stacks columns, so vec(h) runs through
    every element of pair column 0 first and vec(H) through the PDs first.
    """
    gains = csi_columns(truth)
    n, k = gains.shape
    v = association(block, n)
    blk = np.zeros((n * k, k))
    for col in range(k):
        blk[col * n:(col + 1) * n, col] = v[:, col]
    return (blk.T @ gains.reshape(-1, order="F")).reshape(block.shape, order="F")


def recorded_channel_blocks(monkeypatch, scene, truth, spacing):
    """The (Q, Nr, Nt) channel blocks that one single-seed `run_algorithm1`
    call passes to `trial_statistics`; one seed keeps the call in this
    process."""
    seen = []

    def record(h_blocks, *args):
        seen.append(np.array(h_blocks))
        return channel.trial_statistics(h_blocks, *args)

    with monkeypatch.context() as patch:
        patch.setattr(estimator, "trial_statistics", record)
        run_algorithm1(scene, truth, spacing, pilot_slots=10, seeds=[0])
    [blocks] = seen
    return blocks


def powered_statistics(power):
    """`channel.trial_statistics` with pilots of mean `power`: i.i.d. uniform
    on [0, 2 * power], so Y = H X + sigma Z has its noise at a fixed absolute
    level while X scales. Drawn from the same stream, the pilots of every
    block and then their noise, as one chunk of all Q blocks."""
    def statistics(h_blocks, seed, pilot_slots, sigma):
        q, n_pds, n_leds = np.shape(h_blocks)
        rng = np.random.default_rng(seed)
        x = 2.0 * power * rng.random((q, n_leds, pilot_slots))
        gram = x @ np.swapaxes(x, -1, -2)
        cross = gram @ np.swapaxes(h_blocks, -1, -2)
        if sigma > 0.0:
            cross += sigma * (x @ np.swapaxes(rng.standard_normal((q, n_pds, pilot_slots)), -1, -2))
        yield 0, gram, cross
    return statistics


def exact_edge(scene, directions, xi_c, reach=2.0, samples=400):
    """Nearest r in (0, reach] with |growth_rate_exact(scene, r * e)| = xi_c
    along each (..., 3) direction e, on the exact gain (no Taylor form): the
    first of `samples` evenly spaced radii outside the band, then bisection
    from the radius before it. `reach` where no radius leaves the band."""
    e = np.asarray(directions, dtype=float)
    radii = reach * np.arange(1, samples + 1) / samples
    outside = np.abs(growth_rate_exact(scene, radii.reshape((-1,) + (1,) * e.ndim) * e)) > xi_c
    first = np.argmax(outside, axis=0)
    lo, hi = np.where(first > 0, radii[first - 1], 0.0), radii[first]
    for _ in range(32):                    # the reach / samples bracket to about 1e-12 m
        mid = 0.5 * (lo + hi)
        inside = np.abs(growth_rate_exact(scene, mid[..., None] * e)) <= xi_c
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return np.where(outside.any(axis=0), 0.5 * (lo + hi), reach)
