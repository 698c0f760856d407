"""Spatial-coherence channel estimation for optical-IRS-assisted VLC.

Layers, bottom up: `geometry` (points, grids, reflection-law normals),
`channel` (Lambertian reflected gains, CSI tensors, pilot statistics),
`coherence` (growth-rate expansion and coherence distance),
`estimator` (three-phase spatial-sampling estimation),
`experiments` (configs, sweeps, CSV emission) and the `oirsvlc` CLI.
"""

from .channel import (
    SceneConfig,
    aperture_gain,
    aperture_points,
    build_csi_tensor,
    pair_gains,
    trial_statistics,
)
from .coherence import (
    CoherenceReport,
    TaylorCoeffs,
    coherence_distance,
    coherence_length_1d,
    coherence_profile,
    growth_rate_exact,
    growth_rate_taylor,
    taylor_coeffs,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    IdentifiabilityError,
    LayoutError,
    OirsVlcError,
    ShapeError,
    SingularGeometryError,
    SingularSystemError,
    ZeroGainError,
    ZeroReferenceError,
)
from .estimator import (
    SubarrayLayout,
    block_schedule,
    flops_estimate,
    interpolate_full,
    mmse_estimate,
    nmse,
    recovery_operators,
    run_algorithm1,
    spline_weights,
)
from .experiments import (
    ExperimentConfig,
    load_config,
    loads,
    dumps,
    nmse_db,
    run_coherence,
    run_fig4,
    run_noise_sweep,
    run_overhead_report,
)
from .geometry import (
    OirsGrid,
    alignment_normal,
    element_positions,
    normalize,
    plane_basis_from,
)

__version__ = "0.1.0"
