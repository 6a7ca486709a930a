"""Every real parameter a public routine takes goes through
``matrices._real``: a bool, a numpy bool, a string, an array, NaN or a value
past the bound of its interval is a contract violation with one message
that names the parameter and the interval. An accepted value, an int
included, is kept as a Python float."""
import math
import re

import numpy as np
import pytest

from hdgbs.bench import BenchRecord, CostModel, extrapolate, sample_time_estimate
from hdgbs.circuit import LossBudget, build_instance
from hdgbs.errors import ContractViolationError
from hdgbs.focknet import build_network, contract, contraction_cost
from hdgbs.matrices import _real, ginibre
from hdgbs.probability import (PhotonNumberDist, binomial_thinning_matrix,
                               lossy_total_dist_closed, photon_moments,
                               total_dist_convolution)

INF = math.inf
_MODEL = CostModel(1e-9, 0.99, "desk")
_DIST = lossy_total_dist_closed(8, 0.6, 0.5, 20)
_NET = build_network(build_instance(0.3, 2, 1, 1, 0), 2, [0, 0])
_PLAN = contraction_cost(_NET, 1, 0)

# parameter name, and the routine where several take it -> (call with the
# value, the attribute that stores it or None, the interval's low and high
# ends and their kind, a value inside it)
INTAKES = {
    "variance": (lambda v: ginibre(2, 2, v, 0), None, 0, INF, "()", 1.0),
    "wall_seconds": (lambda v: BenchRecord(4, v, 1, 1), "wall_seconds", 0, INF, "()", 1e-3),
    "model constant c": (lambda v: CostModel(v, 0.9, "m"), "c", 0, INF, "()", 1e-9),
    "rmax_ratio": (lambda v: extrapolate(_MODEL, v), None, 0, INF, "()", 2.0),
    "memory_guard": (lambda v: contract(_NET, _PLAN, memory_guard=v), None,
                     0, INF, "(]", 1e8),
    "r_squared": (lambda v: CostModel(1e-9, v, "m"), "r_squared", 0, 1, "[]", 0.5),
    "transmission eta": (lambda v: PhotonNumberDist([0.0], eta=v), "eta", 0, 1, "[]", 0.5),
    "transmission eta (closed form)": (lambda v: lossy_total_dist_closed(4, 0.5, v, 4),
                                       "eta", 0, 1, "[]", 0.5),
    "transmission eta (thinning)": (lambda v: binomial_thinning_matrix(v, 3), None,
                                    0, 1, "[]", 0.5),
    "transmission eta (convolution)": (lambda v: total_dist_convolution([0.5, 0.5], v, 4),
                                       "eta", 0, 1, "[]", 0.5),
    "transmission eta (moments)": (lambda v: photon_moments(0.5, v, 4), None,
                                   0, 1, "[]", 0.5),
    "eta_bs": (lambda v: LossBudget(v, 0.9), "eta_bs", 0, 1, "(]", 0.9),
    "eta_unit": (lambda v: LossBudget(0.9, v), "eta_unit", 0, 1, "(]", 0.9),
    "eta_recirc": (lambda v: LossBudget(0.9, 0.9, v), "eta_recirc", 0, 1, "(]", 0.9),
    "p_min": (lambda v: sample_time_estimate(_DIST, _MODEL, 1.0, v), None,
              0, 1, "()", 1e-7),
    "overhead": (lambda v: sample_time_estimate(_DIST, _MODEL, v, 1e-7), None,
                 1, INF, "[)", 100.0),
}


def _past_bounds(low, high, ends):
    """The values just outside the interval: an open end itself, and the
    next float beyond each finite end."""
    past = [low] if ends[0] == "(" else []
    past.append(np.nextafter(low, -INF))
    if math.isfinite(high):
        past += [high] if ends[1] == ")" else []
        past.append(np.nextafter(high, INF))
    elif ends[1] == ")":
        past.append(high)
    return past


def _accepted(low, high, ends, inside):
    """A value inside, the closed ends, and each closed finite end as an int."""
    values = [inside]
    for end, kind in ((low, ends[0]), (high, ends[1])):
        if kind in "[]":
            values.append(float(end))
            if math.isfinite(end):
                values.append(int(end))
    return values


REFUSED = [
    pytest.param(name, value, id=f"{name}-{label}")
    for name, (_, _, low, high, ends, inside) in INTAKES.items()
    for label, value in [("bool", True), ("numpy-bool", np.True_), ("str", str(inside)),
                         ("array", np.array([inside])), ("NaN", math.nan)]
    + [(f"past-{v!r}", v) for v in map(float, _past_bounds(low, high, ends))]
]
ACCEPTED = [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, (_, _, low, high, ends, inside) in INTAKES.items()
    for value in _accepted(low, high, ends, inside)
]


@pytest.mark.parametrize("name, value", REFUSED)
def test_real_parameter_refuses(name, value):
    call, _, low, high, ends, _ = INTAKES[name]
    interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
    message = f"{name.split(' (')[0]} must be a real number in {interval}, got "
    with pytest.raises(ContractViolationError, match="^" + re.escape(message)):
        call(value)


@pytest.mark.parametrize("name, value", ACCEPTED)
def test_real_parameter_keeps_a_float(name, value):
    call, attr = INTAKES[name][:2]
    result = call(value)
    if attr is not None:
        stored = getattr(result, attr)
        assert type(stored) is float and stored == value


def test_real_takes_numpy_reals_and_saturates_huge_ints():
    assert type(_real(np.float32(0.5), "x", 0, 1)) is float
    assert type(_real(np.int64(1), "x", 0, 1)) is float
    assert _real(10 ** 400, "x", 0, INF) == INF
    with pytest.raises(ContractViolationError, match=r"x must be a real number in \(0, inf\)"):
        _real(10 ** 400, "x", 0, INF, "()")
    with pytest.raises(ContractViolationError):
        _real(-10 ** 400, "x", 0, INF)
