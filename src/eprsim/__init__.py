"""Two-photon entanglement benches with tunable source entanglement.

The package models a source whose degree of entanglement is set by a
single angle, feeds it into three measurement benches (polarization
correlation, path interferometry, and a wedge-mirror imaging bench),
and checks in each one that nothing Alice does moves Bob's
non-coincident singles statistics.

``import eprsim`` loads no module: each public name imports its module
(and numpy with it) on first use, so the CLI entry point can run before
numpy starts.
"""

from importlib import import_module

_EXPORTS = {
    **dict.fromkeys(["JointDistribution", "MarginalDistribution", "UnitarityError",
                     "entanglement_degree"], "core"),
    **dict.fromkeys(["AliceMode", "PathConfig", "expected_bob_marginals", "mz_bob_marginals",
                     "mz_joint_amplitudes", "mz_joint_probabilities"], "pathbench"),
    **dict.fromkeys(["PolarizationConfig", "polar_bob_marginals", "polar_joint_amplitudes",
                     "polar_joint_probabilities"], "polarization"),
    **dict.fromkeys(["ChshEstimate", "SamplerSpec", "empirical_marginals", "estimate_chsh",
                     "sample_outcome_codes", "sample_outcome_counts"], "sampler"),
    **dict.fromkeys(["SamplingError", "WedgeGeometry", "fresnel_propagate",
                     "signal_difference_map", "truncated_aperture_field",
                     "wedge_bob_singles"], "wedge"),
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + _EXPORTS[name], __name__), name)
