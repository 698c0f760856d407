"""Acceptance gate: every project criterion as one test at its stated
tolerance, each printing a PASS/FAIL line with the measured numbers.

Run `pytest -s tests/test_acceptance.py` to see the lines for passing
criteria too. Criterion 1 checks the single-link coherence distance of the
default study geometry against its closed form. All three points and both
normals of that geometry lie in one plane, so the log gain has no slope
across it and curvature -(1/d1 + 1/d2)^2, which gives
d_c = 2 sqrt(2 xi_c) / (1/d1 + 1/d2) along that worst direction (0.4632 m
at xi_c = 0.04). The exact-gain spread along the same direction must lie
within 2 % above it, the simulation check of the closed form.
"""

import runpy
import statistics
import time
from pathlib import Path

import numpy as np

from oirsvlc import (
    ExperimentConfig,
    SubarrayLayout,
    block_schedule,
    build_csi_tensor,
    coherence_length_1d,
    growth_rate_exact,
    growth_rate_taylor,
    interpolate_full,
    normalize,
    run_algorithm1,
    run_coherence,
    run_noise_sweep,
    run_overhead_report,
    taylor_coeffs,
)
from oirsvlc.cli import main as cli_main
from oirsvlc.experiments import write_noise_sweep_csv

from channel_oracle import blockdiag_channel, exact_edge, link_scene, recorded_channel_blocks

MID_SIGMA_GAP_DB = 3.0
BENCH = Path(__file__).resolve().parent.parent / "bench"
SMOKE = BENCH / "configs" / "smoke.cfg"


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_coherence_distance():
    config = ExperimentConfig()
    t0 = time.monotonic()
    report = run_coherence(config)
    elapsed = time.monotonic() - t0

    led, element, pd = (np.asarray(p, dtype=float) for p in (
        config.coherence_led, config.coherence_element, config.coherence_pd))
    d1 = np.linalg.norm(element - led)
    d2 = np.linalg.norm(element - pd)
    closed = 2.0 * np.sqrt(2.0 * config.xi_c) / (1.0 / d1 + 1.0 / d2)
    closed_err = abs(report.d_c - closed) / closed

    direction = np.asarray(report.argmin_direction)
    y_axis = np.array([0.0, 1.0, 0.0])
    dir_err = min(np.max(np.abs(direction - y_axis)),
                  np.max(np.abs(direction + y_axis)))

    scene = config.single_link
    exact = float(np.sum(exact_edge(scene, [direction, -direction], config.xi_c)))

    ok = closed_err <= 1e-9 and dir_err <= 1e-6 \
        and report.d_c <= exact <= 1.02 * report.d_c and elapsed < 1.0
    assert _report(1, ok, f"d_c = {report.d_c:.4f} m, closed form "
                          f"2 sqrt(2 xi_c)/(1/d1 + 1/d2) = {closed:.4f} m "
                          f"(rel err {closed_err:.1e} <= 1e-9), argmin "
                          f"direction off +-y by {dir_err:.1e} (<=1e-6), "
                          f"exact-gain spread {exact:.4f} m = "
                          f"{exact / report.d_c:.4f} d_c (in [1, 1.02]), "
                          f"{elapsed:.2f}s")


def _random_link(rng):
    led = rng.uniform([-2, -2, 1.0], [2, 2, 3])
    pd = rng.uniform([-2, -2, -3.0], [2, 2, -1])
    elem = rng.uniform([-1, -1, -0.5], [1, 1, 0.5])
    n1 = normalize(normalize(elem - led) + 0.3 * rng.standard_normal(3))
    n2 = normalize(normalize(elem - pd) + 0.3 * rng.standard_normal(3))
    return link_scene(led, elem, pd, n1, n2, m=rng.uniform(1, 3))


def test_criterion_2_growth_rate_coefficients():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240901)
    axes = np.eye(3)
    direction = normalize([0.36, 0.48, 0.8])
    worst_s1 = worst_s2 = 0.0
    ratios = []
    checked = 0
    while checked < 1000:
        scene = _random_link(rng)
        point = scene.grid.center
        lr = point - scene.led_positions[0]
        ur = point - scene.pd_positions[0]
        cos_theta = scene.led_normal @ lr / np.linalg.norm(lr)
        cos_phi = scene.pd_normal @ ur / np.linalg.norm(ur)
        if scene.gains(point)[0, 0] <= 1e-6 or cos_theta < 0.05 or cos_phi < 0.05:
            continue
        checked += 1
        coeffs = taylor_coeffs(scene)
        # central stencil at r1 on each axis, five-point stencil at r2 (with
        # xi(0) = 0), then the remainder along `direction`: one call per link
        r1, r2 = 1e-5, 3e-3
        steps = [r1 * axes, -r1 * axes, r2 * axes, -r2 * axes, 2 * r2 * axes, -2 * r2 * axes]
        along = np.array([0.08 * direction, 0.04 * direction])
        xi = growth_rate_exact(scene, np.concatenate(steps + [along]))
        plus1, minus1, plus2, minus2, plus4, minus4 = xi[:18].reshape(6, 3)
        s1 = coeffs.s1                      # s1 @ e on each axis
        fd = (plus1 - minus1) / (2 * r1)
        worst_s1 = max(worst_s1, np.max(np.abs(fd - s1) / (np.abs(s1) + 1e-8)))
        q = np.diag(coeffs.S2)              # e @ S2 @ e on each axis
        fd = (16 * (plus2 + minus2) - (plus4 + minus4)) / (12 * r2**2)
        worst_s2 = max(worst_s2, np.max(np.abs(fd - q) / (np.abs(q) + 1e-4)))
        rem = np.abs(xi[18:] - growth_rate_taylor(coeffs, along))
        if rem[1] > 1e-14:
            ratios.append(rem[0] / rem[1])
    elapsed = time.monotonic() - t0
    med = statistics.median(ratios)
    in_band = np.mean([(4.0 <= x <= 16.0) for x in ratios])
    ok = worst_s1 <= 1e-5 and worst_s2 <= 1e-4 and 4.0 <= med <= 16.0 \
        and in_band >= 0.95 and elapsed < 10.0
    assert _report(2, ok, f"s1 FD err {worst_s1:.2e} (<=1e-5), "
                          f"S2 FD err {worst_s2:.2e} (<=1e-4), "
                          f"halving ratio median {med:.2f} in [4,16], "
                          f"{100 * in_band:.1f}% of links in band, {elapsed:.1f}s")


def _oracle_lengths(A, B, xi_c):
    """Vectorized bisection root search for the banded-growth spread.

    Uses the quadratic while its extremum stays within the band and its
    tangent line at the origin otherwise, finding the nearest sign change
    on each side of zero by bracket growth plus bisection (no closed form).
    """
    quad = B * B <= 4.0 * np.abs(A) * xi_c
    a = np.where(quad, A, 0.0)
    b = B.copy()

    def g(r):       # signed positions
        return np.abs(a * r * r + b * r) - xi_c

    total = np.zeros_like(A)
    for sign in (1.0, -1.0):
        hi = np.full_like(A, 1e-9)
        for _ in range(130):
            grow = g(sign * hi) <= 0.0
            if not grow.any():
                break
            hi = np.where(grow, hi * 1.3, hi)
        lo = np.zeros_like(A)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            below = g(sign * mid) <= 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        total += 0.5 * (lo + hi)
    return total


def test_criterion_3_coherence_length_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    n = 10000
    A = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 3, n)
    B = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, 3, n)
    xi = 10 ** rng.uniform(-3, 0, n)
    nb = 1000
    Ab = rng.choice([-1.0, 1.0], nb) * 10 ** rng.uniform(-3, 3, nb)
    xib = 10 ** rng.uniform(-3, 0, nb)
    Bb = rng.choice([-1.0, 1.0], nb) * np.sqrt(4.0 * np.abs(Ab) * xib)
    A = np.concatenate([A, Ab])
    B = np.concatenate([B, Bb])
    xi = np.concatenate([xi, xib])
    closed = coherence_length_1d(A, B, xi)
    oracle = _oracle_lengths(A, B, xi)
    worst = np.max(np.abs(closed - oracle) / oracle)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    assert _report(3, ok, f"worst relative gap {worst:.2e} (<=1e-8) over "
                          f"{n} random + {nb} boundary cases, {elapsed:.1f}s")


def test_criterion_4_model_identity(monkeypatch):
    # the channel blocks run_algorithm1 estimates against the literal
    # block-diagonal association model built from the same schedule
    t0 = time.monotonic()
    scene = ExperimentConfig().scene
    rng = np.random.default_rng(31)
    worst = 0.0
    shapes_ok = True
    for spacing in (1, 2, 3, 4):
        truth = rng.uniform(0, 1, (scene.grid.n_elements, 2, 2))
        ran = recorded_channel_blocks(monkeypatch, scene, truth, spacing)
        index, _ = block_schedule(scene.grid, 2, 2, spacing)
        oracle = np.stack([blockdiag_channel(truth, blk) for blk in index])
        if ran.shape != oracle.shape:
            shapes_ok = False
            continue
        scale = np.maximum(np.abs(oracle), 1e-300)
        worst = max(worst, float(np.max(np.abs(ran - oracle) / scale)))
    elapsed = time.monotonic() - t0
    ok = shapes_ok and worst <= 1e-12 and elapsed < 1.0
    assert _report(4, ok, f"estimated channel blocks vs block-diagonal model, dense "
                          f"and spacings 2-4, shapes match {shapes_ok}, worst "
                          f"relative difference {worst:.2e} (<=1e-12), {elapsed:.2f}s")


def test_criterion_5_exact_recovery():
    t0 = time.monotonic()
    scene = ExperimentConfig().scene
    [error] = run_algorithm1(scene, build_csi_tensor(scene), spacing=1,
                             pilot_slots=100, sigma=0.0, seeds=[1])
    elapsed = time.monotonic() - t0
    ok = error <= 1e-18 and elapsed < 5.0
    assert _report(5, ok, f"spacing 1, sigma 0, point truth: NMSE = "
                          f"{error:.2e} (<=1e-18), {elapsed:.1f}s")


def test_criterion_6_overhead_accounting():
    config = ExperimentConfig()
    scene = config.scene
    n = scene.grid.n_elements
    blocks = {s: SubarrayLayout(scene.grid.rows, scene.grid.cols, 2, 2, s).n_blocks
              for s in (2, 3, 4)}
    table = {row[0]: row[1] for row in run_overhead_report(config)}
    ok = blocks == {2: 144, 3: 64, 4: 36} \
        and table[2] == n * 2 * 2 // 4 \
        and table[3] == 64 * 4 and table[4] == 36 * 4
    assert _report(6, ok, f"blocks {blocks} (target 144/64/36), "
                          f"csi params spacing 2: {table[2]} = N*Nt*Nr/4")


def test_criterion_7_noise_sweep_behavior(tmp_path):
    t0 = time.monotonic()
    config = ExperimentConfig()
    assert config.trials >= 100
    rows = run_noise_sweep(config)
    elapsed = time.monotonic() - t0
    curves = {}
    for sigma, spacing, db, _ in rows:
        curves.setdefault(spacing, []).append((sigma, db))
    monotone = all(
        all(a[1] <= b[1] for a, b in zip(curve, curve[1:]))
        for curve in (sorted(v) for v in curves.values()))
    nonzero = sorted(s for s in config.sigmas if s > 0)
    mid = nonzero[len(nonzero) // 2]
    at_mid = {spacing: db for sigma, spacing, db, _ in rows if sigma == mid}
    ordered = at_mid[1] <= at_mid[2] <= at_mid[3] <= at_mid[4]
    gap2 = at_mid[2] - at_mid[1]
    gap4 = at_mid[4] - at_mid[1]
    ok = monotone and ordered and gap2 <= MID_SIGMA_GAP_DB and gap4 > gap2 \
        and elapsed < 300.0
    assert _report(7, ok, f"monotone={monotone}, mid sigma {mid:g}: "
                          f"baseline {at_mid[1]:.1f} dB, gaps s2 {gap2:+.2f} dB "
                          f"(<=3), s3 {at_mid[3] - at_mid[1]:+.2f} dB, "
                          f"s4 {gap4:+.2f} dB (> s2), {elapsed:.0f}s")
    # the sweep's CSV matches the recorded reference; bench/check.py is run
    # from source so that nothing is written under bench/
    check = runpy.run_path(str(BENCH / "check.py"))
    assert config.master_seed == check["RECORDED_SEED"]
    write_noise_sweep_csv(config, rows, tmp_path / "noise_sweep.csv")
    problems = check["compare"]((tmp_path / "noise_sweep.csv").read_text(),
                                (BENCH / "reference" / "default" / "noise_sweep.csv").read_text(),
                                check["RECORDED_SEED"])
    assert problems == []


def test_criterion_8_interpolation_properties():
    grid = ExperimentConfig().scene.grid
    index, layout = block_schedule(grid, 2, 2, 2)
    rows, cols = np.divmod(index, 24)          # sampled element of each block and pair
    rng = np.random.default_rng(2)

    const = interpolate_full(np.full((144, 2, 2), 0.8), layout)
    const_err = float(np.max(np.abs(const - 0.8)))

    samples = rng.uniform(0, 1, (144, 2, 2))
    field = interpolate_full(samples, layout)
    sample_err = float(np.max(np.abs(
        field[index, np.arange(2)[:, None], np.arange(2)] - samples)))

    recovered = interpolate_full(0.2 + 1.3 * rows - 0.7 * cols, layout)
    rr, cc = np.divmod(np.arange(576), 24)
    affine_err = float(np.max(np.abs(recovered - (0.2 + 1.3 * rr - 0.7 * cc)[:, None, None])))

    # "exact" means exact up to float round-off (observed <= 1 ulp)
    ok = const_err <= 1e-15 and sample_err <= 1e-12 and affine_err <= 1e-10
    assert _report(8, ok, f"constant err {const_err:.1e} (round-off), sample-point "
                          f"err {sample_err:.1e} (round-off), affine err "
                          f"{affine_err:.1e} (<=1e-10)")


def test_criterion_9_cli_determinism(tmp_path):
    # the smoke config: an 8 x 8 grid, 2 trials per cell, every command in seconds
    outputs = {"fig4": "fig4.csv", "noise-sweep": "noise_sweep.csv",
               "overhead": "overhead.csv", "coherence": "coherence.csv"}
    identical = {}
    for command, filename in outputs.items():
        blobs = []
        for run in ("x", "y"):
            out = tmp_path / f"{command}-{run}"
            code = cli_main([command, "--config", str(SMOKE), "--seed", "7",
                             "--out", str(out)])
            assert code == 0
            blobs.append((out / filename).read_bytes())
        identical[command] = blobs[0] == blobs[1] and len(blobs[0]) > 0
    ok = all(identical.values())
    assert _report(9, ok, f"byte-identical reruns per subcommand: {identical}")
