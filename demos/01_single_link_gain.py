"""Reflected gain of a single LED -> mirror element -> PD link.

The desk-scale study geometry: LED at (1, 2, 3) pointing down, PD at
(2, 2, 0) pointing up, a 5 cm reflecting element at (1, 2, 1.5) whose
mirror normal is set by the reflection law. We evaluate the point-source
gain, compare it with the aperture-averaged gain, and sweep the element
along the mirror surface to see how slowly the gain changes.
"""

from dataclasses import replace

import numpy as np

from oirsvlc import (
    ExperimentConfig,
    LinkGeometry,
    alignment_normal,
    build_csi_tensor,
    plane_basis_from,
    point_gain,
)

LED = (1.0, 2.0, 3.0)
ELEMENT = (1.0, 2.0, 1.5)
PD = (2.0, 2.0, 0.0)

link = LinkGeometry(LED, ELEMENT, PD, led_normal=(0, 0, -1), pd_normal=(0, 0, 1))
print(f"leg lengths: d1 = {link.d1:.3f} m, d2 = {link.d2:.3f} m")
print(f"emission cosine {link.cos_theta:.4f}, arrival cosine {link.cos_phi:.4f}")

mirror = alignment_normal(LED, ELEMENT, PD)
print(f"mirror normal from the reflection law: "
      f"({mirror[0]:+.4f}, {mirror[1]:+.4f}, {mirror[2]:+.4f})")

g_point = point_gain(link)
print(f"\npoint-source gain (unit constant): {g_point:.6f}")

# the default config's single-link scene is this geometry, with a one-element
# grid of 5 cm elements spanning the mirror surface
scene, _ = ExperimentConfig().build_single_link()
absolute, _ = replace(ExperimentConfig(), gain_mode="lambertian").build_single_link()
print(f"absolute gain, 0.9-reflective element, 5 cm PD: "
      f"{absolute.gains(ELEMENT)[0, 0]:.3e}")
u, v = plane_basis_from(mirror)
for order in (1, 2, 4, 8, 16):
    g = build_csi_tensor(scene, "quadrature", order)[0, 0, 0]
    print(f"aperture average, {order}x{order} sub-points: {g:.8f} "
          f"(vs point {abs(g - g_point) / g_point:.2e} relative)")

print("\ngain versus shift of the element along the mirror surface:")
print(f"{'shift [m]':>10} {'normalized gain':>16}")
for t in np.linspace(-0.5, 0.5, 11):
    g = point_gain(link.shifted(t * u))
    print(f"{t:>10.2f} {g / g_point:>16.4f}")
