"""Three-phase spatial-sampling channel estimator.

Phase I tiles the reflecting grid into spacing x spacing subarrays and aligns
one element per (LED, PD) pair inside each tile, so same-pair samples form a
regular lattice with pitch `spacing` elements. Phase II activates the tiles
one time block at a time and ridge-estimates each block's effective channel
from its pilot observations. Phase III recovers every element's gain for
every pair by separable interpolation over the sample lattice: natural cubic
spline with 4 or more samples along an axis, straight line (extrapolating)
with 2 or 3, constant with 1. Each is linear in the samples, so with cached
cardinal-spline operators R (Nr, rows, q_v) and C (Nt, cols, q_h), built on
row and column indices once per `SubarrayLayout`, and S[nr, nt] the sample
grid of pair (nr, nt), all fields are one batched product R[:, None] @ S @ C^T.

spacing = 1 with more than one LED or PD is the dense baseline: no spatial
sampling, every element's gain for every pair estimated directly, one block
per element with a rotating pair assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import CsiTensor, SceneConfig, generate_pilots, pair_column, simulate_rx
from .errors import LayoutError, ShapeError, SingularSystemError, ZeroReferenceError
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

    def sample_row_indices(self, nr: int) -> np.ndarray:
        return nr + self.spacing * np.arange(self.q_v)

    def sample_col_indices(self, nt: int) -> np.ndarray:
        return nt + self.spacing * np.arange(self.q_h)


def design_layout(grid: OirsGrid, n_leds: int, n_pds: int, spacing: int) -> SubarrayLayout:
    """Subarray tiling of a grid for the given array sizes and spacing."""
    return SubarrayLayout(grid.rows, grid.cols, n_leds, n_pds, spacing)


def block_schedule(grid: OirsGrid, n_leds: int, n_pds: int, spacing: int):
    """Phase-I block schedule: (index, layout).

    index[q, nr, nt] is the flat element that block q aligns with the
    (nr, nt) pair, shaped (Q, Nr, Nt). With spacing > 1, or a single LED and
    PD, block q is subarray q of the layout. Otherwise it is the dense
    baseline, with layout None: one block per element, block q aligning
    element (q + k) mod N with pair column k = nt * Nr + nr, so each element
    serves every pair in exactly one block while every block stays angle
    selective.
    """
    if spacing == 1 and max(n_leds, n_pds) > 1:
        n = grid.n_elements
        if n < n_leds * n_pds:
            raise LayoutError("fewer elements than (LED, PD) pairs")
        assignment = (np.arange(n)[:, None] + np.arange(n_leds * n_pds)) % n
        return assignment.reshape(n, n_leds, n_pds).transpose(0, 2, 1), None
    layout = design_layout(grid, n_leds, n_pds, spacing)
    qv, qh = np.divmod(np.arange(layout.n_blocks), layout.q_h)
    rows = qv[:, None, None] * spacing + np.arange(n_pds)[:, None]
    cols = qh[:, None, None] * spacing + np.arange(n_leds)
    return rows * grid.cols + cols, layout


def mmse_estimate(Y: np.ndarray, X: np.ndarray, sigma: float) -> np.ndarray:
    """Per-block ridge estimate Y X^T (X X^T + sigma^2 I)^-1 via a linear solve.

    Y is (..., Nr, P) and X (..., Nt, P) with the same leading block axes;
    the result is (..., Nr, Nt).
    """
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    if Y.ndim < 2 or Y.shape[:-2] != X.shape[:-2] or Y.shape[-1] != X.shape[-1]:
        raise ShapeError(f"Y {Y.shape} and X {X.shape} are not conformable")
    gram = X @ np.swapaxes(X, -1, -2) + sigma**2 * np.eye(X.shape[-2])
    try:
        return np.swapaxes(np.linalg.solve(gram, X @ np.swapaxes(Y, -1, -2)), -1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("pilot Gram matrix is singular") from exc


def nmse(estimate, truth) -> float:
    """Normalized mean square error ||est - truth||_F^2 / ||truth||_F^2."""
    est = np.asarray(getattr(estimate, "gains", estimate), dtype=float)
    ref = np.asarray(getattr(truth, "gains", truth), dtype=float)
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = float(np.sum(ref**2))
    if denom == 0.0:
        raise ZeroReferenceError("reference tensor is identically zero")
    return float(np.sum((est - ref) ** 2) / denom)


def spline_weights(sample_pos, target_pos) -> np.ndarray:
    """Cardinal weights W, (targets, q), of 1-D interpolation on q sorted samples.

    W @ f is the interpolant of sample values f evaluated at `target_pos`:
    the natural cubic spline with q >= 4 samples, the straight line with 2
    or 3, the constant with 1. Targets beyond either end take the end
    piece's polynomial.
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

    R[nr] maps the sample rows of PD offset nr to every grid row and C[nt]
    the sample columns of LED offset nt to every grid column. Built on row
    and column indices: the weights do not change under the affine map to
    plane coordinates. Cached per layout and read-only.
    """
    r = np.stack([spline_weights(layout.sample_row_indices(nr), np.arange(layout.rows))
                  for nr in range(layout.n_pds)])
    c = np.stack([spline_weights(layout.sample_col_indices(nt), np.arange(layout.cols))
                  for nt in range(layout.n_leds)])
    r.flags.writeable = False
    c.flags.writeable = False
    return r, c


def interpolate_full(block_estimates: np.ndarray, layout: SubarrayLayout) -> np.ndarray:
    """Recover the (N, Nt*Nr) CSI estimate of every pair from (Q, Nr, Nt) block estimates.

    Pair (nr, nt)'s field R[nr] @ S[nr, nt] @ C[nt].T, exact at its samples
    S[nr, nt] (blocks q = qv * q_h + qh), fills column pair_column(nr, nt, Nr).
    """
    est = np.asarray(block_estimates, dtype=float)
    if est.shape != (layout.n_blocks, layout.n_pds, layout.n_leds):
        raise ShapeError(f"block estimates must be (Q, Nr, Nt) = "
                         f"{(layout.n_blocks, layout.n_pds, layout.n_leds)}, got {est.shape}")
    r, c = recovery_operators(layout)
    s = est.reshape(layout.q_v, layout.q_h, layout.n_pds, layout.n_leds).transpose(2, 3, 0, 1)
    fields = r[:, None] @ s @ np.swapaxes(c, -1, -2)         # (Nr, Nt, rows, cols)
    return fields.transpose(2, 3, 1, 0).reshape(layout.rows * layout.cols, -1)


def flops_estimate(n_leds: int, n_pds: int, pilot_slots: int, blocks: int) -> int:
    """Order-of-magnitude flop count of the per-block ridge estimates.

    Per block the solve costs on the order of P Nt^2 (Nt + 2 Nr) operations;
    the estimate is that order times the block count with unit constant.
    """
    if min(n_leds, n_pds, pilot_slots, blocks) < 1:
        raise ValueError("arguments must be positive")
    return blocks * pilot_slots * n_leds**2 * (n_leds + 2 * n_pds)


@dataclass(frozen=True)
class EstimationResult:
    """Output of one estimation run.

    `gains` has the ground-truth tensor's shape; entries may be slightly
    negative under noise (estimates are not clamped before the NMSE, which
    would bias the comparison).
    """

    gains: np.ndarray
    nmse: float
    csi_parameter_count: int
    flops_estimate: int
    block_count: int


def run_algorithm1(scene: SceneConfig, truth: CsiTensor, spacing: int,
                   pilot_slots: int = 100, sigma: float = 0.0,
                   pilot_power: float = 1.0, seed=0) -> EstimationResult:
    """Full estimation pass: design, per-block estimation, recovery, NMSE vs `truth`.

    Deterministic for a fixed seed; pilots and per-block noise are drawn
    from a seed-keyed stream, block q consuming slice q. sigma = 0 with
    spacing 1 and the point-model truth recovers the tensor exactly up to
    round-off.
    """
    nt, nr = scene.n_leds, scene.n_pds
    if (truth.n_elements, truth.n_leds, truth.n_pds) != (scene.grid.n_elements, nt, nr):
        raise ShapeError(f"truth is {truth.n_elements} elements x {truth.n_leds} LEDs x "
                         f"{truth.n_pds} PDs, not {scene.grid.n_elements} x {nt} x {nr}")
    index, layout = block_schedule(scene.grid, nt, nr, spacing)
    q_blocks = index.shape[0]
    pairs = pair_column(np.arange(nr)[:, None], np.arange(nt), nr)    # (Nr, Nt)
    h_blocks = truth.gains[index, pairs]

    rng = np.random.default_rng(seed)
    x = generate_pilots(nt, pilot_slots, pilot_power, rng, (q_blocks,))
    y = simulate_rx(h_blocks, x, sigma, rng)
    h_est = mmse_estimate(y, x, sigma)

    if layout is None:
        est = np.zeros_like(truth.gains)
        est[index, pairs] = h_est
    else:
        est = interpolate_full(h_est, layout)

    return EstimationResult(
        gains=est,
        nmse=nmse(est, truth),
        csi_parameter_count=q_blocks * nt * nr,
        flops_estimate=flops_estimate(nt, nr, pilot_slots, q_blocks),
        block_count=q_blocks,
    )
