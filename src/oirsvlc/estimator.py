"""Three-phase spatial-sampling channel estimator.

Phase I tiles the reflecting grid into spacing x spacing subarrays and aligns
one element per (LED, PD) pair inside each tile, so same-pair samples form a
regular lattice with pitch `spacing` elements. Phase II activates the tiles
one time block at a time and ridge-estimates each block's effective channel
from its pilot observations. Phase III recovers every element's gain for
every pair by separable interpolation over the sample lattice: natural cubic
spline with 4 or more samples along an axis, piecewise linear (the end
pieces extrapolating) with 2 or 3, constant with 1. Each is linear in the
samples, so with cached cardinal-spline operators R (Nr, rows, q_v) and
C (Nt, cols, q_h), built on row and column indices once per
`SubarrayLayout`, and S[nr, nt] the sample grid of pair (nr, nt), all fields
are one batched product R[:, None] @ S @ C^T.

spacing = 1 with more than one LED or PD is the dense baseline: no spatial
sampling, every element's gain for every pair estimated directly, one block
per element with a rotating pair assignment.

`run_algorithm1` runs a batch of Monte-Carlo trials, one seed stream each,
and keeps one number per trial: its NMSE. Phase II reads the received blocks
Y = H X + sigma Z only through X X^T and X Y^T, so Y is never formed. It
solves CHUNK_BLOCKS blocks at a time, as `channel.trial_statistics` draws
them from the trial's seed. The caller shares the trials with a pool of
forked worker processes, `TrialWorkers`, that the noise sweep opens once,
after its truth build, for every call. A worker's jobs are plain data read
from a pipe (the Phase II arguments and the seeds); it takes trials from a
pipe of tokens it shares with the caller and replies through a second pipe
of its own with its trials' pickled rows or its exception. A call's first
failure, in any process, is raised in the caller and closes the pool. Phase
III and every public function run in the calling process. Each trial is
scored once recovered, so no call holds every trial's full estimate.
"""

from __future__ import annotations

import os
import pickle
from contextlib import nullcontext
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

# Phase II blocks drawn and solved at a time: one chunk of a 3 x 3 scene's
# pilots or noise at 100 slots (144 x 3 x 100 float64) is 0.35 MB per worker
CHUNK_BLOCKS = 144

# Token chunks a call's trials are cut into, at most: the 4-byte tokens of a
# call then take at most 4 kB, so writing them to the empty token pipe never
# blocks
MAX_CHUNKS = 1024


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
    qv, qh = np.divmod(np.arange(n), layout.q_h)
    rows = qv[:, None, None] * spacing + np.arange(n_pds)[:, None]
    cols = qh[:, None, None] * spacing + np.arange(n_leds)
    return rows * grid.cols + cols, layout


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


@dataclass(frozen=True)
class EstimationResult:
    """Output of one estimation call over T trials.

    `nmse` is the (T,) per-trial NMSE, in seed order, of estimates that are
    not clamped before scoring (under noise some entries may be slightly
    negative; clamping would bias the comparison). `flops_estimate` covers
    all T trials.
    """

    nmse: np.ndarray
    flops_estimate: int


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, set as the `__cause__` of the
    exception the caller raises for it, since pickling keeps only an
    exception's type and args."""


def _take(tokens: int):
    """The chunk of the next token in the non-blocking pipe `tokens`, or None
    when none is left."""
    try:
        token = os.read(tokens, 4)
    except BlockingIOError:
        return None
    return int.from_bytes(token, "little") if token else None


def _trial_solver(h_blocks, dense, pilot_slots, sigma, pilot_power):
    """Phase II of a call's trials by seed, in one pilot buffer: a dense trial's
    row is its NMSE on its blocks, a sampled one's its (Q, Nr, Nt) estimates."""
    x = np.empty((min(len(h_blocks), CHUNK_BLOCKS), h_blocks.shape[2], pilot_slots))
    h_est = np.empty(h_blocks.shape)

    def solve(seed):
        for b, gram, cross in trial_statistics(h_blocks, seed, pilot_slots, pilot_power, sigma, x):
            h_est[b:b + len(gram)] = mmse_estimate(gram, cross, sigma)
        return nmse(h_est, h_blocks) if dense else h_est.copy()

    return solve


def _take_chunks(args, seeds, chunks, first: int, tokens: int, done):
    """done(i, solve(seeds[i])), solve = _trial_solver(*args), of each trial i
    of chunk `first`, then of each chunk whose token this process takes from
    `tokens` until none is left. Any failure, an interrupt too, takes and
    drops the tokens left, so no process starts another trial, and is raised."""
    c = first
    try:
        solve = _trial_solver(*args)
        while c is not None:
            for i in chunks[c]:
                done(i, solve(seeds[i]))
            c = _take(tokens)
    except BaseException:
        while _take(tokens) is not None:
            pass
        raise


def _serve(jobs_fd: int, replies_fd: int, tokens: int, inherited):
    """A forked worker: for each job (args, seeds, chunks, first) read from
    `jobs_fd`, solve chunk `first` and the chunks of the tokens it takes,
    and send one pickled reply on `replies_fd`: ({index: row}, None), or with
    (exception, its formatted traceback) in place of None. It ends at
    the end of the jobs, after closing the `inherited` pipe ends of the
    caller and earlier workers, and leaves through os._exit, never into the
    stack it was forked from; the status is 0 only at the end of the jobs."""
    import traceback        # in the worker only: the light commands never load it (44 kB RSS)

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(jobs_fd, "rb") as jobs, open(replies_fd, "wb") as replies:
            while True:
                try:
                    job = pickle.load(jobs)
                except EOFError:
                    break
                rows, failure = {}, None
                try:
                    _take_chunks(*job, tokens, rows.__setitem__)
                except Exception as exc:                  # the caller raises it
                    failure = (exc, "".join(traceback.format_exception(exc)))
                pickle.dump((rows, failure), replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
        status = 0
    finally:
        os._exit(status)


class TrialWorkers:
    """Forked workers for `run_algorithm1` calls, kept from `__enter__` to
    `__exit__`: one per further CPU this process may run on
    (`os.sched_getaffinity`), at most `trials` - 1, none where the platform
    cannot tell. The noise sweep opens them after its truth build, and
    every call of the sweep reuses them.

    `split` cuts a call's trial seeds into chunks of one trial each
    (contiguous runs past MAX_CHUNKS), gives the first to the caller and the
    next one to each worker, and writes a token for each other chunk to a
    shared non-blocking pipe. Every process then takes tokens until none is
    left, so the caller, which also recovers and scores every sampled trial,
    or a process slowed by the host, solves fewer. A worker's job, read from
    its own pipe, is plain data: the arguments of `_trial_solver`, the seeds
    and the chunks. It answers through a second pipe with one pickled reply:
    its trials' rows or its exception. A worker sees the modules as they
    were when forked. A failed call closes the pool, as leaving the context
    does: every pipe is closed and every worker reaped.
    """

    def __init__(self, trials: int):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = 1
        self._forks = max(0, min(cpus, trials) - 1)
        self._workers = []                        # (pid, job writer, reply reader)
        self._tokens = ()                         # (read end, write end) while open

    def __enter__(self):
        self._tokens = os.pipe()
        os.set_blocking(self._tokens[0], False)
        try:
            for _ in range(self._forks):
                self._fork()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Close every job pipe, so each worker leaves after its current job,
        then every reply pipe, reap every worker and close the token pipe;
        later calls of `split` raise, and closing again does nothing."""
        workers, self._workers = self._workers, []
        for _, jobs, replies in workers:
            try:
                jobs.close()
            except OSError:                       # the worker is gone
                pass
            replies.close()
        for pid, _, _ in workers:
            os.waitpid(pid, 0)
        tokens, self._tokens = self._tokens, ()
        for fd in tokens:
            os.close(fd)

    def _fork(self):
        job_read, job_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (job_read, job_write, reply_read, reply_write):
                os.close(fd)
            raise
        if pid == 0:
            _serve(job_read, reply_write, self._tokens[0],
                   [job_write, reply_read, self._tokens[1],
                    *(f.fileno() for _, *files in self._workers for f in files)])
        os.close(job_read)
        os.close(reply_write)
        self._workers.append((pid, open(job_write, "wb"), open(reply_read, "rb")))

    def _reply(self, worker):
        """The rows of the worker's reply to its job. A worker's failure is
        raised from its traceback; a worker that exits without a reply is
        reaped and dropped, and an OirsVlcError naming its status is raised."""
        pid, jobs, replies = worker
        try:
            rows, failure = pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):
            self._workers.remove(worker)
            jobs.close()
            replies.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise OirsVlcError(f"pool worker {pid} exited with status {code} "
                               "before reporting") from None
        if failure is not None:
            raise failure[0] from _WorkerTraceback(failure[1])
        return rows

    def split(self, args, seeds, done):
        """done(i, solve(seeds[i])) of each trial i (see `_take_chunks`), done in
        the calling process and thread: on the caller's trials as it solves
        them, on the workers' once every worker replied. Any failure (a
        trial's in any process, a worker's exit without a reply, an
        interrupt) drops the tokens left, is raised, the caller's own first,
        and closes the pool. A split of no seeds does nothing."""
        if not self._tokens:
            raise OirsVlcError("trial workers used outside their `with` block")
        n_chunks = min(len(seeds), MAX_CHUNKS)
        if n_chunks == 0:
            return
        bounds = [len(seeds) * i // n_chunks for i in range(n_chunks + 1)]
        chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        busy = self._workers[:n_chunks - 1]
        try:
            os.write(self._tokens[1], b"".join(c.to_bytes(4, "little")
                                               for c in range(len(busy) + 1, n_chunks)))
            for first, (_, jobs, _) in enumerate(busy, 1):
                pickle.dump((args, seeds, chunks, first), jobs, pickle.HIGHEST_PROTOCOL)
                jobs.flush()
            _take_chunks(args, seeds, chunks, 0, self._tokens[0], done)
            for worker in busy:
                for i, row in self._reply(worker).items():
                    done(i, row)
        except BaseException:
            self.close()
            raise


def run_algorithm1(scene: SceneConfig, truth: np.ndarray, spacing: int,
                   pilot_slots: int = 100, sigma: float = 0.0,
                   pilot_power: float = 1.0, seeds=(0,),
                   workers: TrialWorkers | None = None) -> EstimationResult:
    """Estimation passes, one per seed: design, per-block estimation, recovery,
    and the NMSE vs `truth`, the scene's (N, Nr, Nt) gains (see
    `build_csi_tensor`). The truth (shape, finite, nonnegative, not all
    zero), sigma (finite, >= 0), pilot_power (finite, > 0) and pilot_slots
    (>= Nt) are checked before any draw or fork.

    Trial t's pilots and noise come from `seeds[t]` alone, drawn and solved
    CHUNK_BLOCKS blocks at a time (see `channel.trial_statistics`), so its
    bits do not depend on the chunk size. The trials are solved by the
    calling process and the forked processes of `workers`, a `TrialWorkers`
    pool that the caller keeps open over many calls; without one, the call
    opens a pool of its own and closes it before it returns or raises; each
    process takes trials until none is left. A failure in any process closes
    the pool and is raised (see `TrialWorkers.split`). A dense-baseline trial
    is scored on its blocks, which hold every (element, pair) entry once,
    where it is solved; a sampled trial's (Q, Nr, Nt) block estimates come
    back to the calling process, and the calling process recovers and scores
    one trial at a time, its own as it solves them. So a call holds at most
    one full estimate per process, and a trial's result depends on its seed
    alone, not on the other seeds, the CPU count or which process solved it.
    sigma = 0 with spacing 1 and the point-model truth recovers the tensor
    exactly up to round-off.
    """
    nt, nr = scene.n_leds, scene.n_pds
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (scene.grid.n_elements, nr, nt):
        raise ShapeError(f"truth must be (N, Nr, Nt) = ({scene.grid.n_elements}, {nr}, {nt}), "
                         f"got {truth.shape}")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth gains must be finite")
    if np.any(truth < 0.0):
        raise ValueError("truth gains must be nonnegative")
    if not np.any(truth):
        raise ZeroReferenceError("truth tensor is identically zero: every element "
                                 "lies outside a LED beam or the PD field of view")
    _check_sigma(sigma)
    _check_pilots(nt, pilot_slots, pilot_power)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one trial")
    index, layout = block_schedule(scene.grid, nt, nr, spacing)
    pd_index, led_index = np.ix_(range(nr), range(nt))
    h_blocks = truth[index, pd_index, led_index]                      # (Q, Nr, Nt)
    errors = np.empty(len(seeds))

    def score(t, row):
        errors[t] = row if layout is None else nmse(interpolate_full(row, layout), truth)

    with nullcontext(workers) if workers is not None else TrialWorkers(len(seeds)) as pool:
        pool.split((h_blocks, layout is None, pilot_slots, sigma, pilot_power), seeds, score)

    return EstimationResult(
        nmse=errors,
        flops_estimate=flops_estimate(nt, nr, pilot_slots, len(seeds) * len(index)),
    )
