"""Reflected gain of a single LED -> mirror element -> PD link.

The desk-scale study geometry of the default config: LED at (1, 2, 3)
pointing down, PD at (2, 2, 0) pointing up, a 5 cm reflecting element at
(1, 2, 1.5) whose mirror normal is set by the reflection law. We evaluate
the point-source gain, compare it with the aperture-averaged gain, and sweep
the element along the mirror surface to see how slowly the gain changes.
"""

import math

import numpy as np

from oirsvlc import ExperimentConfig, alignment_normal, build_csi_tensor

# the default config's single-link scene: one LED, one PD and a one-element
# grid of 5 cm elements spanning the mirror surface
scene = ExperimentConfig().single_link
led, pd, element = scene.led_positions[0], scene.pd_positions[0], scene.grid.center
d1 = np.linalg.norm(element - led)
d2 = np.linalg.norm(element - pd)
print(f"leg lengths: d1 = {d1:.3f} m, d2 = {d2:.3f} m")
cos_theta = scene.led_normal @ (element - led) / d1
cos_phi = scene.pd_normal @ (element - pd) / d2
print(f"emission cosine {cos_theta:.4f}, arrival cosine {cos_phi:.4f}")

mirror = alignment_normal(led, element, pd)
print(f"mirror normal from the reflection law: "
      f"({mirror[0]:+.4f}, {mirror[1]:+.4f}, {mirror[2]:+.4f})")

g_point = scene.gains(element)[0, 0]
print(f"\npoint-source gain (unit constant): {g_point:.6f}")

# absolute scale is the noise sweep's alone: its "lambertian" mode multiplies
# the unit gains by the Lambertian constant C = rho (m + 1) A_pd / (2 pi)
config = ExperimentConfig()
c = config.grid_reflectivity * (config.lambertian_order + 1.0) * config.pd_side**2 / (2 * math.pi)
print(f"absolute gain, 0.9-reflective element, 5 cm PD: C x unit = {c:.3e} x {g_point:.6f} "
      f"= {c * g_point:.3e}")
for order in (1, 2, 4, 8, 16):
    g = build_csi_tensor(scene, order)[0, 0, 0]
    print(f"aperture average, {order}x{order} sub-points: {g:.8f} "
          f"(vs point {abs(g - g_point) / g_point:.2e} relative)")

print("\ngain versus shift of the element along the mirror surface:")
print(f"{'shift [m]':>10} {'normalized gain':>16}")
for t in np.linspace(-0.5, 0.5, 11):
    g = scene.gains(element + t * scene.grid.axis_u)[0, 0]
    print(f"{t:>10.2f} {g / g_point:>16.4f}")
