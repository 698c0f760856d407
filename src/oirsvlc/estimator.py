"""Three-phase spatial-sampling channel estimator.

Phase I tiles the reflecting grid into spacing x spacing subarrays and aligns
one element per (LED, PD) pair inside each tile, so same-pair samples form a
regular lattice with pitch `spacing` elements, `SubarrayLayout.lattice`,
which Phase III interpolates from too. Phase II activates the tiles
one time block at a time and ridge-estimates each block's effective channel
from its pilot observations. Phase III recovers every element's gain for
every pair by separable interpolation over the sample lattice: natural cubic
spline with 4 or more samples along an axis, piecewise linear (the end
pieces extrapolating) with 2 or 3, constant with 1. Each is linear in the
samples, so with cached cardinal-spline operators R (Nr, rows, q_v) and
C (Nt, cols, q_h), built on its row and column indices once per layout,
and S[nr, nt] the sample grid of pair (nr, nt), all fields
are one batched product R[:, None] @ S @ C^T.

spacing = 1 with more than one LED or PD is the dense baseline: no spatial
sampling, every element's gain for every pair estimated directly, one block
per element with a rotating pair assignment.

`run_algorithm1` runs a batch of Monte-Carlo trials in the calling process,
one seed stream each, and keeps one number per trial: its NMSE. Phase II
reads the received blocks Y = H X + sigma Z only through X X^T and X Y^T, so
Y is never formed. It solves each chunk of blocks as
`channel.trial_statistics` draws it from the trial's seed, and each trial
is scored before the next is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    SceneConfig,
    _check_pilots,
    _check_sigma,
    trial_statistics,
)
from .errors import (
    LayoutError,
    OirsVlcError,
    ShapeError,
    SingularSystemError,
    ZeroReferenceError,
)
from .geometry import OirsGrid


@dataclass(frozen=True)
class SubarrayLayout:
    """Sampling geometry of the subarray tiling.

    Subarray (qv, qh) covers grid rows [qv*s, qv*s + s) and columns
    [qh*s, qh*s + s); its element at local row nr, column nt samples the
    (nr, nt) pair. Blocks are indexed row-major: q = qv * q_h + qh.
    """

    rows: int
    cols: int
    n_leds: int
    n_pds: int
    spacing: int

    def __post_init__(self):
        if self.spacing < max(self.n_leds, self.n_pds):
            raise LayoutError(
                f"spacing {self.spacing} subarray cannot hold a "
                f"{self.n_pds}x{self.n_leds} aligned block")
        if self.q_v < 1 or self.q_h < 1:
            raise LayoutError("grid too small for a single subarray")

    @property
    def q_v(self) -> int:
        return self.rows // self.spacing

    @property
    def q_h(self) -> int:
        return self.cols // self.spacing

    @property
    def n_blocks(self) -> int:
        return self.q_v * self.q_h

    def lattice(self):
        """Sample rows (q_v, Nr) and columns (q_h, Nt): subarray (qv, qh)
        samples pair (nr, nt) at grid row rows[qv, nr], column cols[qh, nt]."""
        return (self.spacing * np.arange(self.q_v)[:, None] + np.arange(self.n_pds),
                self.spacing * np.arange(self.q_h)[:, None] + np.arange(self.n_leds))


def _schedule_shape(grid: OirsGrid, n_leds: int, n_pds: int, spacing: int):
    """(Q, layout) of `block_schedule`, by its rules and its LayoutError,
    without building the index: O(1) in the grid size."""
    if spacing == 1 and max(n_leds, n_pds) > 1:
        if grid.n_elements < n_leds * n_pds:
            raise LayoutError("fewer elements than (LED, PD) pairs")
        return grid.n_elements, None
    layout = SubarrayLayout(grid.rows, grid.cols, n_leds, n_pds, spacing)
    return layout.n_blocks, layout


def block_schedule(grid: OirsGrid, n_leds: int, n_pds: int, spacing: int):
    """Phase-I block schedule: (index, layout).

    index[q, nr, nt] is the flat element that block q aligns with the
    (nr, nt) pair, shaped (Q, Nr, Nt). With spacing > 1, or a single LED and
    PD, block q is subarray q of the layout. Otherwise it is the dense
    baseline, with layout None: one block per element, block q aligning
    element (q + k) mod N with pair k = nt * Nr + nr, so each element
    serves every pair in exactly one block while every block stays angle
    selective.
    """
    n, layout = _schedule_shape(grid, n_leds, n_pds, spacing)
    if layout is None:
        assignment = (np.arange(n)[:, None] + np.arange(n_leds * n_pds)) % n
        return assignment.reshape(n, n_leds, n_pds).transpose(0, 2, 1), None
    rows, cols = layout.lattice()
    index = rows[:, None, :, None] * grid.cols + cols[:, None, :]       # (q_v, q_h, Nr, Nt)
    return index.reshape(n, n_pds, n_leds), layout


def mmse_estimate(gram: np.ndarray, cross: np.ndarray, sigma: float) -> np.ndarray:
    """Per-block ridge estimate Y X^T (X X^T + sigma^2 I)^-1 via a linear solve.

    Reads the received blocks only through the Gram matrices G = X X^T,
    (..., Nt, Nt), and the cross terms X Y^T, (..., Nt, Nr), with the same
    leading block axes; the result is (..., Nr, Nt).
    """
    gram = np.asarray(gram, dtype=float)
    cross = np.asarray(cross, dtype=float)
    if (gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]
            or cross.shape[:-1] != gram.shape[:-1]):
        raise ShapeError(f"Gram {gram.shape} and cross {cross.shape} are not conformable")
    try:
        est = np.linalg.solve(gram + sigma**2 * np.eye(gram.shape[-1]), cross)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("pilot Gram matrix is singular") from exc
    return np.swapaxes(est, -1, -2)


def nmse(estimate, truth):
    """Normalized mean square error ||est - truth||_F^2 / ||truth||_F^2.

    When ||truth||_F^2 leaves the normal float range (gains under about
    1e-154, or large enough to overflow it), both tensors are first divided
    by max |truth|. An NMSE past the float range raises OirsVlcError.
    """
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {est.shape} vs {ref.shape}")
    with np.errstate(over="ignore"):
        denom = float(np.sum(ref**2))
        if not np.finfo(float).tiny <= denom < np.inf:
            scale = float(np.max(np.abs(ref), initial=0.0))
            if scale == 0.0:
                raise ZeroReferenceError("reference tensor is identically zero")
            est, ref = est / scale, ref / scale
            denom = float(np.sum(ref**2))
        diff = est - ref
        diff *= diff                      # in place: one temporary, same bits as ** 2
        error = float(np.sum(diff)) / denom
    if not np.isfinite(error):
        raise OirsVlcError("the NMSE exceeds the float range")
    return error


def spline_weights(sample_pos, target_pos) -> np.ndarray:
    """Cardinal weights W, (targets, q), of 1-D interpolation on q sorted samples.

    W @ f is the interpolant of sample values f evaluated at `target_pos`:
    the natural cubic spline with q >= 4 samples, the piecewise linear
    interpolant with 2 or 3 (a line through 2), the constant with 1.
    Targets beyond either end take the end piece's polynomial.
    """
    x = np.asarray(sample_pos, dtype=float)
    t = np.asarray(target_pos, dtype=float)
    q = len(x)
    if q == 1:
        return np.ones((len(t), 1))
    h = np.diff(x)
    # knot second derivatives m @ f; zero at the natural ends and for lines
    m = np.zeros((q, q))
    if q >= 4:
        i = np.arange(q - 2)
        rhs = np.zeros((q - 2, q))
        rhs[i, i] = 6.0 / h[:-1]
        rhs[i, i + 1] = -6.0 / h[:-1] - 6.0 / h[1:]
        rhs[i, i + 2] = 6.0 / h[1:]
        tri = (np.diag(2.0 * (h[:-1] + h[1:]))
               + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1))
        m[1:-1] = np.linalg.solve(tri, rhs)
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, q - 2)
    b = (t - x[k]) / h[k]
    a = 1.0 - b
    w = (((a**3 - a) * h[k] ** 2 / 6.0)[:, None] * m[k]
         + ((b**3 - b) * h[k] ** 2 / 6.0)[:, None] * m[k + 1])
    w[np.arange(len(t)), k] += a
    w[np.arange(len(t)), k + 1] += b
    return w


@lru_cache(maxsize=32)
def recovery_operators(layout: SubarrayLayout):
    """Phase-III operators of a layout: R (Nr, rows, q_v) and C (Nt, cols, q_h).

    R[nr] maps the lattice's sample rows of PD offset nr to every grid row
    and C[nt] its sample columns of LED offset nt to every grid column.
    Built on row and column indices: the weights do not change under the
    affine map to plane coordinates. Cached per layout and read-only.
    """
    rows, cols = layout.lattice()
    r = np.stack([spline_weights(x, np.arange(layout.rows)) for x in rows.T])
    c = np.stack([spline_weights(x, np.arange(layout.cols)) for x in cols.T])
    r.flags.writeable = False
    c.flags.writeable = False
    return r, c


def interpolate_full(block_estimates: np.ndarray, layout: SubarrayLayout) -> np.ndarray:
    """Recover the (N, Nr, Nt) CSI estimate of every pair from (Q, Nr, Nt)
    block estimates.

    Pair (nr, nt)'s field R[nr] @ S[nr, nt] @ C[nt].T, exact at its samples
    S[nr, nt] (blocks q = qv * q_h + qh), fills [:, nr, nt] of the result.
    """
    est = np.asarray(block_estimates, dtype=float)
    shape = (layout.n_blocks, layout.n_pds, layout.n_leds)
    if est.shape != shape:
        raise ShapeError(f"block estimates must be (Q, Nr, Nt) = "
                         f"({', '.join(map(str, shape))}), got {est.shape}")
    r, c = recovery_operators(layout)
    s = est.reshape(layout.q_v, layout.q_h, layout.n_pds, layout.n_leds)
    s = np.moveaxis(s, (0, 1), (2, 3))                       # (Nr, Nt, q_v, q_h)
    fields = r[:, None] @ s @ np.swapaxes(c, -1, -2)         # (Nr, Nt, rows, cols)
    fields = np.moveaxis(fields, (0, 1), (2, 3))             # (rows, cols, Nr, Nt)
    return fields.reshape(layout.rows * layout.cols, layout.n_pds, layout.n_leds)


def flops_estimate(n_leds: int, n_pds: int, pilot_slots: int, blocks: int) -> int:
    """Order-of-magnitude flop count of the per-block ridge estimates.

    Per block the solve costs on the order of P Nt^2 (Nt + 2 Nr) operations;
    the estimate is that order times the block count with unit constant.
    """
    if min(n_leds, n_pds, pilot_slots, blocks) < 1:
        raise ValueError("arguments must be positive")
    return blocks * pilot_slots * n_leds**2 * (n_leds + 2 * n_pds)


def _check_truth(scene: SceneConfig, truth) -> np.ndarray:
    """`truth` as a float array, checked to be the scene's (N, Nr, Nt) gains:
    finite, nonnegative and not all zero."""
    truth = np.asarray(truth, dtype=float)
    shape = (scene.grid.n_elements, scene.n_pds, scene.n_leds)
    if truth.shape != shape:
        raise ShapeError(f"truth must be (N, Nr, Nt) = ({', '.join(map(str, shape))}), "
                         f"got {truth.shape}")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth gains must be finite")
    if np.any(truth < 0.0):
        raise ValueError("truth gains must be nonnegative")
    if not np.any(truth):
        raise ZeroReferenceError("truth tensor is identically zero: every element "
                                 "lies outside a LED beam or the PD field of view")
    return truth


def run_algorithm1(scene: SceneConfig, truth: np.ndarray, spacing: int,
                   pilot_slots: int = 100, sigma: float = 0.0, seeds=(0,)) -> np.ndarray:
    """Per-trial NMSE, a (T,) array in seed order, of one estimation pass per
    seed: design, per-block estimation, recovery, and the NMSE vs `truth`,
    the scene's (N, Nr, Nt) gains (see `build_csi_tensor`). Estimates are
    scored unclamped: under noise some entries may be slightly negative, and
    clamping would bias the comparison. The truth (shape, finite, nonnegative,
    not all zero), sigma (in [0, 1e3]) and pilot_slots (an integer >= Nt)
    are checked before any draw. The pilots are uniform on [0, 2].

    Trial t's pilots and noise come from `seeds[t]` alone, drawn and solved
    a chunk of blocks at a time by `channel.trial_statistics`, so its bits
    do not depend on the chunk size. The trials run in this process, in
    seed order, and each is scored before the next is drawn: a dense-baseline
    trial on its blocks, which hold every (element, pair) entry once, a
    sampled one on its recovered (N, Nr, Nt) estimate. So a call holds one
    trial's estimate at a time, and a trial's result depends on its seed
    alone. The schedule index is freed once the blocks are gathered, and the
    pilots with the exhausted `trial_statistics`: while scoring, a call
    holds the truth, the (Q, Nr, Nt) blocks and estimates, a sampled trial's
    recovered estimate, and `nmse`'s one temporary. sigma = 0 with spacing 1
    and the point-model truth recovers the tensor exactly up to round-off.
    """
    nt, nr = scene.n_leds, scene.n_pds
    truth = _check_truth(scene, truth)
    _check_sigma(sigma)
    pilot_slots = _check_pilots(nt, pilot_slots)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one trial")
    index, layout = block_schedule(scene.grid, nt, nr, spacing)
    pd_index, led_index = np.ix_(range(nr), range(nt))
    h_blocks = truth[index, pd_index, led_index]                      # (Q, Nr, Nt)
    del index                                     # Phase I's schedule: the blocks hold it now
    h_est = np.empty(h_blocks.shape)
    errors = np.empty(len(seeds))
    for t, seed in enumerate(seeds):
        for b, gram, cross in trial_statistics(h_blocks, seed, pilot_slots, sigma):
            h_est[b:b + len(gram)] = mmse_estimate(gram, cross, sigma)
        errors[t] = (nmse(h_est, h_blocks) if layout is None
                     else nmse(interpolate_full(h_est, layout), truth))
    return errors
