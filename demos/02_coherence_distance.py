"""How far can a reflecting element move before its channel gain changes?

The relative gain change under an element shift has a closed-form
second-order expansion. Along any direction the shift range keeping the
change within a threshold follows from the quadratic's band crossings, and
minimizing that range over the mirror surface's directions gives the
coherence distance: the safe sample pitch for spatial channel sampling.
"""

import numpy as np

from oirsvlc import (
    ExperimentConfig,
    growth_rate_exact,
    growth_rate_taylor,
    run_coherence,
    taylor_coeffs,
)

config = ExperimentConfig()
report = run_coherence(config)
scene = config.single_link

coeffs = taylor_coeffs(scene)
print("growth-rate expansion at the study element:")
print("  gradient s1 =", np.round(coeffs.s1, 4))
print("  curvature diag =", np.round(np.diag(coeffs.S2), 4))

print(f"\ncoherence distance at threshold {report.xi_c}: {report.d_c:.4f} m")
d = report.argmin_direction
print(f"worst direction: ({d[0]:+.4f}, {d[1]:+.4f}, {d[2]:+.4f})")

print("\nper-direction coherence length over the mirror plane:")
print(f"{'angle [deg]':>12} {'length [m]':>12}")
# the profile is a read-only (N, 2) array of (angle_rad, length_m) rows
for angle, length in report.per_direction_lengths[:360:30]:
    print(f"{np.degrees(angle):>12.1f} {length:>12.4f}")

print("\nsecond-order model versus the exact ratio along the worst direction:")
print(f"{'shift [m]':>10} {'exact':>10} {'2nd order':>10}")
for r in (0.05, 0.1, 0.15, 0.2, report.d_c / 2):
    exact = growth_rate_exact(scene, r * d)
    taylor = growth_rate_taylor(coeffs, r * d)
    print(f"{r:>10.3f} {exact:>10.4f} {taylor:>10.4f}")
print(f"\nat half of d_c the predicted change hits the {report.xi_c} band edge")
