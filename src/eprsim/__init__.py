"""Two-photon entanglement benches with tunable source entanglement.

The package models a source whose degree of entanglement is set by a
single angle, feeds it into three measurement benches (polarization
correlation, path interferometry, and a wedge-mirror imaging bench),
and checks in each one that nothing Alice does moves Bob's
non-coincident singles statistics.
"""

from .core import (
    JointDistribution,
    MarginalDistribution,
    UnitarityError,
    entanglement_degree,
)
from .pathbench import (
    AliceMode,
    PathConfig,
    expected_bob_marginals,
    mz_bob_marginals,
    mz_joint_amplitudes,
    mz_joint_probabilities,
)
from .polarization import (
    PolarizationConfig,
    polar_bob_marginals,
    polar_joint_amplitudes,
    polar_joint_probabilities,
)
from .sampler import (
    ChshEstimate,
    SamplerSpec,
    empirical_marginals,
    estimate_chsh,
    sample_outcome_codes,
    sample_outcome_counts,
)
from .wedge import (
    SamplingError,
    WedgeGeometry,
    fresnel_propagate,
    signal_difference_map,
    truncated_aperture_field,
    wedge_bob_singles,
)

__version__ = "0.1.0"

__all__ = [
    "AliceMode",
    "ChshEstimate",
    "JointDistribution",
    "MarginalDistribution",
    "PathConfig",
    "PolarizationConfig",
    "SamplerSpec",
    "SamplingError",
    "UnitarityError",
    "WedgeGeometry",
    "empirical_marginals",
    "entanglement_degree",
    "estimate_chsh",
    "expected_bob_marginals",
    "fresnel_propagate",
    "mz_bob_marginals",
    "mz_joint_amplitudes",
    "mz_joint_probabilities",
    "polar_bob_marginals",
    "polar_joint_amplitudes",
    "polar_joint_probabilities",
    "sample_outcome_codes",
    "sample_outcome_counts",
    "signal_difference_map",
    "truncated_aperture_field",
    "wedge_bob_singles",
    "__version__",
]
