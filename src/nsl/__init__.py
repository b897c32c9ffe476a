"""nsl: numerical laboratory for nonlocal energies on finite metric measure spaces."""

from .constants import BodyError, ConvexBody, gauge_distance, k_pn, parse_body, zstar_norm
from .energies import (
    ScaleEnergies,
    g_scale,
    gagliardo_p,
    h_energy,
    k_energy,
    mollify,
    nguyen_a,
    nguyen_b,
    scale_energies,
    scale_s_by_balls,
    scale_s_by_pairs,
)
from .fields import EnergySpec, PiecewiseLinearMap, ScalarField
from .gradients import HajlaszResult, cheeger_surrogate, hajlasz_minimal, path_integral
from .kernels import KernelSpec, kernel_comparability
from .parallel import get_workers, set_workers
from .space import (
    DoublingReport,
    MetricMeasureSpace,
    SpaceError,
    SpaceSpec,
    build_space,
    doubling_constant,
    load_space,
    save_space,
)
from .sweeps import (
    LimitEstimate,
    SweepResult,
    bbm_sweep,
    extrapolate,
    ks_sweep,
    nguyen_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BodyError",
    "ConvexBody",
    "DoublingReport",
    "EnergySpec",
    "HajlaszResult",
    "KernelSpec",
    "LimitEstimate",
    "MetricMeasureSpace",
    "PiecewiseLinearMap",
    "ScalarField",
    "ScaleEnergies",
    "SpaceError",
    "SpaceSpec",
    "SweepResult",
    "bbm_sweep",
    "build_space",
    "cheeger_surrogate",
    "doubling_constant",
    "extrapolate",
    "g_scale",
    "gagliardo_p",
    "gauge_distance",
    "get_workers",
    "h_energy",
    "hajlasz_minimal",
    "k_energy",
    "k_pn",
    "kernel_comparability",
    "ks_sweep",
    "load_space",
    "mollify",
    "nguyen_a",
    "nguyen_b",
    "nguyen_sweep",
    "parse_body",
    "path_integral",
    "save_space",
    "scale_energies",
    "scale_s_by_balls",
    "scale_s_by_pairs",
    "set_workers",
    "zstar_norm",
]
