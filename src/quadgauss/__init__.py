"""quadgauss: deterministic Gaussian measure of degree-2 threshold regions,
conditioned sampling, subset-sum hard-instance generation, and a densifier
loop for learning quadratic threshold regions from positive samples.
"""

from .counter import (
    CompressedCDF,
    CountResult,
    count,
    count_ptf_gaussian,
    mc_count,
)
from .densifier import (
    BudgetExhaustedError,
    DensifierConfig,
    DensifyResult,
    KappaFlipError,
    densify,
    feature_map,
    planted_experiment,
)
from .grid import GridSpec
from .hardness import (
    QuarticForm,
    SubsetSumInstance,
    alpha_beta_deg2,
    classify_point_deg2,
    classify_point_deg4,
    gen_deg2_cube_instance,
    gen_deg4_gauss_instance,
    region_mass_mc,
    sample_region_gauss_deg4,
    sample_region_uniform_deg2,
)
from .numerics import (
    Rng,
    interval_mass,
    std_normal_cdf,
    truncated_normal_sample,
)
from .quadform import (
    DecoupledConstraint,
    QuadraticForm,
    RoundingConfig,
    decouple,
    evaluate,
    load_instance,
    normalize,
    round_coefficients,
    save_instance,
    sign_at,
)
from .sampler import (
    PtfSampler,
    lift_to_continuous,
    sample_grid_point,
    sample_ptf_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CompressedCDF",
    "CountResult",
    "DecoupledConstraint",
    "DensifierConfig",
    "DensifyResult",
    "GridSpec",
    "KappaFlipError",
    "PtfSampler",
    "QuadraticForm",
    "QuarticForm",
    "Rng",
    "RoundingConfig",
    "SubsetSumInstance",
    "alpha_beta_deg2",
    "classify_point_deg2",
    "classify_point_deg4",
    "count",
    "count_ptf_gaussian",
    "decouple",
    "densify",
    "evaluate",
    "feature_map",
    "gen_deg2_cube_instance",
    "gen_deg4_gauss_instance",
    "interval_mass",
    "lift_to_continuous",
    "load_instance",
    "mc_count",
    "normalize",
    "planted_experiment",
    "region_mass_mc",
    "round_coefficients",
    "sample_grid_point",
    "sample_ptf_gaussian",
    "sample_region_gauss_deg4",
    "sample_region_uniform_deg2",
    "save_instance",
    "sign_at",
    "std_normal_cdf",
    "truncated_normal_sample",
]
