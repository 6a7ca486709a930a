"""High-dimensional Gaussian boson sampling toolkit.

Exact Hafnian and permanent evaluation, delay-line instance construction,
outcome probabilities and lossy photon-number statistics, random-matrix
ensemble comparisons, Fock-basis tensor networks, and the Hafnian cost
model with per-sample estimates.
"""

from .bench import (BenchRecord, CostModel, bench_hafnian, extrapolate,
                    fit_cost_model, sample_time_estimate)
from .circuit import (GbsInstance, LossBudget, adjacency, adjacency_general,
                      build_instance, light_cone_band, loss_budget,
                      loss_budget_report)
from .errors import ContractViolationError, ResourceLimitError
from .focknet import (ContractionPlan, FockTensor, TensorNetwork,
                      beamsplitter_tensor, build_network, contract,
                      contraction_cost, squeezed_vacuum_tensor)
from .hafnian import (hafnian_enum, hafnian_fast, permanent, permanent_enum,
                      permanent_via_hafnian)
from .hiding import (EnsembleSpec, SpectrumHistogram, hiding_scan,
                     sample_ensemble, singular_spectrum, spectra_tv_distance)
from .matrices import (ginibre, haar_unitary, matrix_from_json, matrix_to_json,
                       reduce_by_pattern)
from .probability import (PhotonNumberDist, exact_sample,
                          lossy_total_dist_closed, mean_total_photons,
                          most_probable_even, outcome_probability,
                          photon_moments, squeezed_vacuum_dist,
                          total_dist_convolution)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord", "CostModel", "bench_hafnian", "extrapolate",
    "fit_cost_model", "sample_time_estimate",
    "GbsInstance", "LossBudget", "adjacency", "adjacency_general",
    "build_instance", "light_cone_band", "loss_budget", "loss_budget_report",
    "ContractViolationError", "ResourceLimitError",
    "ContractionPlan", "FockTensor", "TensorNetwork", "beamsplitter_tensor",
    "build_network", "contract", "contraction_cost", "squeezed_vacuum_tensor",
    "hafnian_enum", "hafnian_fast", "permanent", "permanent_enum",
    "permanent_via_hafnian",
    "EnsembleSpec", "SpectrumHistogram", "hiding_scan", "sample_ensemble",
    "singular_spectrum", "spectra_tv_distance",
    "ginibre", "haar_unitary", "matrix_from_json", "matrix_to_json",
    "reduce_by_pattern",
    "PhotonNumberDist", "exact_sample",
    "lossy_total_dist_closed", "mean_total_photons", "most_probable_even",
    "outcome_probability", "photon_moments", "squeezed_vacuum_dist",
    "total_dist_convolution",
]
