"""The public API surface: every name in ``hdgbs.__all__`` and the parameter
names of each public callable. A change that adds, removes or renames a
name or an option must change this table in the same diff. Value types
that hold arrays compare and hash by identity."""
import inspect

import numpy as np
import pytest

import hdgbs
from hdgbs.hiding import histogram_from_values
from hdgbs.logmath import log_hyp2f1
from hdgbs.matrices import assert_symmetric, assert_unitary

# name -> parameter names; None marks an exception class
API = {
    "BenchRecord": ("n", "wall_seconds", "reps", "threads"),
    "CostModel": ("c", "r_squared", "machine_label"),
    "bench_hafnian": ("sizes", "reps", "seed", "workers"),
    "extrapolate": ("model", "rmax_ratio", "machine_label"),
    "fit_cost_model": ("records", "machine_label"),
    "sample_time_estimate": ("dist", "model", "overhead", "p_min"),
    "GbsInstance": ("r", "a", "dim", "cycles", "seed", "gates"),
    "LossBudget": ("eta_bs", "eta_unit", "eta_recirc"),
    "adjacency": ("instance",),
    "adjacency_general": ("u", "r_vec"),
    "build_instance": ("r", "a", "dim", "cycles", "seed"),
    "light_cone_band": ("a", "dim", "cycles"),
    "loss_budget": ("a", "dim", "cycles", "budget"),
    "loss_budget_report": ("a", "dim", "cycles", "budget"),
    "ContractViolationError": None,
    "ResourceLimitError": None,
    "ContractionPlan": ("order", "est_flops", "max_tensor_elems"),
    "FockTensor": ("labels", "values"),
    "TensorNetwork": ("tensors", "open_labels"),
    "beamsplitter_tensor": ("v", "cutoff", "labels"),
    "build_network": ("instance", "cutoff", "pattern"),
    "contract": ("network", "plan", "memory_guard", "count_ops"),
    "contraction_cost": ("network", "trials", "seed"),
    "squeezed_vacuum_tensor": ("r", "cutoff", "label"),
    "hafnian_enum": ("b",),
    "hafnian_fast": ("b", "workers"),
    "permanent": ("g",),
    "permanent_enum": ("g",),
    "permanent_via_hafnian": ("g",),
    "EnsembleSpec": ("kind", "m", "n", "k"),
    "SpectrumHistogram": ("bin_edges", "masses", "sample_count"),
    "hiding_scan": ("pairs", "samples", "bins", "seed"),
    "sample_ensemble": ("spec", "seed"),
    "singular_spectrum": ("a",),
    "spectra_tv_distance": ("a", "b"),
    "ginibre": ("n", "k", "variance", "seed"),
    "haar_unitary": ("m", "seed"),
    "matrix_from_json": ("obj",),
    "matrix_to_json": ("a",),
    "reduce_by_pattern": ("a", "pattern"),
    "PhotonNumberDist": ("log_probs", "eta"),
    "exact_sample": ("instance", "n_max", "count", "seed"),
    "lossy_total_dist_closed": ("modes", "r", "eta", "n_max"),
    "mean_total_photons": ("k", "r"),
    "most_probable_even": ("modes", "r"),
    "outcome_probability": ("a", "r_vec", "pattern", "workers"),
    "photon_moments": ("r", "eta", "modes"),
    "squeezed_vacuum_dist": ("r", "n_max"),
    "total_dist_convolution": ("r_vec", "eta", "n_max"),
}

# module-level helpers whose limits and tolerances are constants, not options
HELPERS = {
    assert_unitary: ("u",),
    assert_symmetric: ("a",),
    log_hyp2f1: ("a", "b", "c", "z"),
}


def _parameters(obj):
    if isinstance(obj, type) and issubclass(obj, Exception):
        return None
    return tuple(inspect.signature(obj).parameters)


def test_public_api_is_pinned():
    assert list(hdgbs.__all__) == list(API)
    assert {name: _parameters(getattr(hdgbs, name)) for name in hdgbs.__all__} == API


def test_helper_parameters_are_pinned():
    assert {fn: _parameters(fn) for fn in HELPERS} == HELPERS


# value types that hold numpy arrays: the generated __eq__ would compare the
# arrays and raise on their truth value, so equality and hashing go by identity
ARRAY_VALUES = {
    "PhotonNumberDist": lambda: hdgbs.squeezed_vacuum_dist(0.5, 4),
    "GbsInstance": lambda: hdgbs.build_instance(0.3, 2, 2, 1, 7),
    "SpectrumHistogram": lambda: histogram_from_values(
        np.array([0.2, 0.7]), np.linspace(0.0, 1.0, 3), 1),
    "FockTensor": lambda: hdgbs.squeezed_vacuum_tensor(0.5, 3),
    "TensorNetwork": lambda: hdgbs.build_network(hdgbs.build_instance(0.3, 2, 1, 1, 0), 2, [0, 0]),
}


@pytest.mark.parametrize("make", ARRAY_VALUES.values(), ids=ARRAY_VALUES.keys())
def test_array_values_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True
    assert len({a, b, a}) == 2
