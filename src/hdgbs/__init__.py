"""High-dimensional Gaussian boson sampling toolkit.

Exact Hafnian and permanent evaluation, delay-line instance construction,
outcome probabilities and lossy photon-number statistics, random-matrix
ensemble comparisons, Fock-basis tensor networks, and the Hafnian cost
model with per-sample estimates. ``import hdgbs`` loads no submodule: a
public name imports the module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, in ``__all__`` order
_PUBLIC = {
    "bench": ("BenchRecord", "CostModel", "bench_hafnian", "extrapolate",
              "fit_cost_model", "sample_time_estimate"),
    "circuit": ("GbsInstance", "LossBudget", "adjacency", "adjacency_general",
                "build_instance", "light_cone_band", "loss_budget", "loss_budget_report"),
    "errors": ("ContractViolationError", "ResourceLimitError"),
    "focknet": ("ContractionPlan", "FockTensor", "TensorNetwork", "beamsplitter_tensor",
                "build_network", "contract", "contraction_cost", "squeezed_vacuum_tensor"),
    "hafnian": ("hafnian_enum", "hafnian_fast", "permanent", "permanent_enum",
                "permanent_via_hafnian"),
    "hiding": ("EnsembleSpec", "SpectrumHistogram", "hiding_scan", "sample_ensemble",
               "singular_spectrum", "spectra_tv_distance"),
    "matrices": ("ginibre", "haar_unitary", "matrix_from_json", "matrix_to_json",
                 "reduce_by_pattern"),
    "probability": ("PhotonNumberDist", "exact_sample", "lossy_total_dist_closed",
                    "mean_total_photons", "most_probable_even", "outcome_probability",
                    "photon_moments", "squeezed_vacuum_dist", "total_dist_convolution"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that owns public ``name`` and keep the value."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
