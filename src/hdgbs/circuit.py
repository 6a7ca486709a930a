"""Construction of high-dimensional time-bin GBS instances.

An (r, a, D, C) instance couples M = a^D temporal modes through delay
lines of lengths 1, a, ..., a^(D-1): for each cycle and each delay length
tau, a 2 x 2 beam-splitter acts on modes (i, i + tau) for ascending i, and
the unitary is the ordered product of these gates. The module also
evaluates the delay-line loss budget and the light-cone bandwidth.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .matrices import (_json_int, _squeezing, as_rng, assert_unitary, haar_isometry,
                       matrix_from_json, matrix_to_json)

MODE_LIMIT = 4096
GATE_PRODUCT_TOL = 1e-10


class Gate(NamedTuple):
    i: int
    j: int
    v: np.ndarray     # 2 x 2 unitary


@dataclass(frozen=True)
class GbsInstance:
    """An (r, a, D, C) instance: parameters, gates and unitary.

    Every instance, built or loaded, is checked here: a valid lattice of at
    most MODE_LIMIT modes, a finite r >= 0 and exactly the 2 x 2 gates of
    the delay-line order.
    ``unitary`` is the read-only ordered product of the gates; a unitary
    passed in must match it to GATE_PRODUCT_TOL (max-norm) and is dropped.
    """

    r: float
    a: int
    dim: int
    cycles: int
    seed: int
    gates: tuple
    unitary: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _validate_lattice(self.a, self.dim, self.cycles)
        # a >= 2, so a D above log2(MODE_LIMIT) is refused before a^D is formed
        if self.dim >= MODE_LIMIT.bit_length() or self.modes > MODE_LIMIT:
            raise ResourceLimitError(f"a^D for a={self.a}, D={self.dim} exceeds "
                                     f"the mode limit of {MODE_LIMIT}")
        object.__setattr__(self, "r", float(_squeezing(self.r)))
        m, given = self.modes, self.unitary
        if given is not None and np.shape(given) != (m, m):
            raise ContractViolationError(f"unitary is {np.shape(given)}, expected {m}x{m}")
        count = expected_gate_count(self.a, self.dim, self.cycles)
        if len(self.gates) != count:
            raise ContractViolationError(
                f"gate list has {len(self.gates)} entries, expected {count}")
        pairs = chain.from_iterable(_layers(self.a, self.dim, self.cycles))
        for k, (g, pair) in enumerate(zip(self.gates, pairs)):
            if (g.i, g.j) != pair or np.shape(g.v) != (2, 2):
                raise ContractViolationError(
                    f"gate {k}, a {np.shape(g.v)} matrix on modes ({g.i}, {g.j}), is not "
                    f"the 2 x 2 gate on {m} modes at {pair} of the delay-line order")
        unitary = _gate_product(m, self.gates)
        unitary.setflags(write=False)
        defect = 0.0 if given is None else float(np.max(np.abs(unitary - given)))
        if not defect <= GATE_PRODUCT_TOL:     # a NaN defect fails too
            raise ContractViolationError(
                f"unitary differs from the product of the gates by {defect:.3e} "
                f"(> {GATE_PRODUCT_TOL:.1e})")
        object.__setattr__(self, "unitary", unitary)

    @property
    def modes(self) -> int:
        return self.a ** self.dim


def expected_gate_count(a: int, dim: int, cycles: int) -> int:
    return cycles * sum(a ** dim - a ** d for d in range(dim))


def delay_path_length(a: int, dim: int) -> int:
    """Total delay-line length traversed per cycle, sum_{d<D} a^d."""
    return sum(a ** d for d in range(dim))


def light_cone_band(a: int, dim: int, cycles: int) -> int:
    """One-sided bandwidth of the instance unitary.

    With gates applied in ascending mode order, amplitude can only move
    toward lower mode indices by a^d per delay-d sweep, so entries with
    column - row > C * sum_d a^d are exactly zero.
    """
    _validate_lattice(a, dim, cycles)
    return cycles * delay_path_length(a, dim)


def _validate_lattice(a: int, dim: int, cycles: int) -> None:
    if a < 2:
        raise ContractViolationError(f"lattice size must be >= 2, got a={a}")
    if dim < 1:
        raise ContractViolationError(f"lattice dimension must be >= 1, got D={dim}")
    if cycles < 1:
        raise ContractViolationError(f"cycle count must be >= 1, got C={cycles}")


def _layers(a: int, dim: int, cycles: int):
    """The delay-line order: for each cycle and each delay tau = a^d, d < D,
    one layer of (i, i + tau) mode pairs, i ascending from 0 to a^D - tau - 1."""
    m = a ** dim
    for tau in [a ** d for d in range(dim)] * cycles:
        yield zip(range(m - tau), range(tau, m))


def _gate_product(m: int, gates) -> np.ndarray:
    """Total m x m unitary of a gate list, each gate applied in order to
    rows (i, j) of the running matrix: O(gates * m)."""
    unitary = np.eye(m, dtype=complex)
    for i, j, v in gates:
        unitary[[i, j], :] = v @ unitary[[i, j], :]
    return unitary


def build_instance(r: float, a: int, dim: int, cycles: int, seed: int,
                   mode_limit: int = MODE_LIMIT,
                   shared_layer_gate: bool = False) -> GbsInstance:
    """Build an (r, a, D, C) instance.

    Each beam-splitter of the delay-line order receives an independent
    fresh Haar-random 2 x 2 unitary, drawn in gate order (pass
    ``shared_layer_gate=True`` to reuse one per layer for experiments).
    ``mode_limit`` can only lower the bound: ``GbsInstance`` refuses more
    than MODE_LIMIT modes whatever is passed.
    """
    _validate_lattice(a, dim, cycles)
    mode_limit = min(mode_limit, MODE_LIMIT)
    if dim >= mode_limit.bit_length() or a ** dim > mode_limit:
        raise ResourceLimitError(
            f"a^D for a={a}, D={dim} exceeds the mode limit of {mode_limit}")
    seed = int(seed)
    rng = as_rng(seed)
    gates = []
    for layer in _layers(a, dim, cycles):
        v_layer = haar_isometry(2, 2, rng) if shared_layer_gate else None
        gates.extend(Gate(i, j, v_layer if shared_layer_gate else haar_isometry(2, 2, rng))
                     for i, j in layer)
    return GbsInstance(r=r, a=a, dim=dim, cycles=cycles, seed=seed,
                       gates=tuple(gates))


def adjacency(instance: GbsInstance) -> np.ndarray:
    """Adjacency matrix tanh(r) U U^T of the instance's Gaussian state."""
    u = instance.unitary
    return math.tanh(instance.r) * (u @ u.T)


def adjacency_general(u: np.ndarray, r_vec) -> np.ndarray:
    """U diag(tanh r_i) U^T for per-mode squeezing parameters.

    Vacuum modes are expressed by r_i = 0. The result is complex
    symmetric by construction.
    """
    u = np.asarray(u)
    r = _squeezing(r_vec)
    if r.ndim != 1 or r.shape[0] != u.shape[0]:
        raise ContractViolationError(
            f"r_vec length {r.shape} does not match matrix size {u.shape[0]}")
    return (u * np.tanh(r)[None, :]) @ u.T


@dataclass(frozen=True)
class LossBudget:
    """Component transmissions of the delay-line architecture.

    ``eta_bs`` is the per-beam-splitter energy transmission, ``eta_unit``
    the transmission per unit delay length, and ``eta_recirc`` the
    recirculation-loop transmission per unit length, required in
    recirculator mode and rejected in copies mode, which never reads it.
    ``mode`` selects between building C physical copies of the delay stack
    and rerouting through a single recirculation loop.
    """

    eta_bs: float
    eta_unit: float
    eta_recirc: float | None = None
    mode: str = "copies"

    def __post_init__(self):
        for name in ("eta_bs", "eta_unit"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ContractViolationError(f"{name} must lie in (0, 1], got {v}")
        if self.eta_recirc is not None and not 0.0 < self.eta_recirc <= 1.0:
            raise ContractViolationError(
                f"eta_recirc must lie in (0, 1], got {self.eta_recirc}")
        if self.mode not in ("copies", "recirculator"):
            raise ContractViolationError(f"unknown loss mode {self.mode!r}")
        if self.mode == "recirculator" and self.eta_recirc is None:
            raise ContractViolationError("recirculator mode requires eta_recirc")
        if self.mode == "copies" and self.eta_recirc is not None:
            raise ContractViolationError("eta_recirc applies only in recirculator mode")


def loss_budget(a: int, dim: int, cycles: int, budget: LossBudget) -> float:
    """Total end-to-end transmission of an (a, D, C) instance.

    In copies mode every mode crosses C*D beam-splitters and propagates
    a delay length of C * (a^D - 1)/(a - 1) units (the exact geometric
    sum; see ``loss_budget_report`` for the a^(D-1) large-a shorthand).
    Recirculator mode multiplies in the loop transmission over the
    L = M - (a^D - 1)/(a - 1) units spent parked in the recirculation
    delay.
    """
    return loss_budget_report(a, dim, cycles, budget)["total_transmission"]


def loss_budget_report(a: int, dim: int, cycles: int, budget: LossBudget) -> dict:
    """Loss budget with both the exact path length and the large-a
    approximation reported. Path lengths that do not fit a float are
    refused: the transmissions take them as float exponents."""
    _validate_lattice(a, dim, cycles)
    # a >= 2, so the path is at least 2^(D-1): refuse before forming a^D
    if dim > sys.float_info.max_exp:
        raise ResourceLimitError(f"delay path length for a={a}, D={dim} exceeds float range")
    m = a ** dim
    path = delay_path_length(a, dim)
    loop_length = m - path if budget.mode == "recirculator" else 0
    if max(cycles * path, loop_length) > sys.float_info.max:
        raise ResourceLimitError(
            f"delay path length for a={a}, D={dim}, C={cycles} exceeds float range")
    eta_bs_total = budget.eta_bs ** (cycles * dim)
    exact = eta_bs_total * budget.eta_unit ** (cycles * path)
    approx = eta_bs_total * budget.eta_unit ** (cycles * a ** (dim - 1))
    report = {
        "mode": budget.mode,
        "modes": m,
        "beamsplitter_crossings": cycles * dim,
        "path_length_exact": cycles * path,
        "path_length_approx": cycles * a ** (dim - 1),
        "total_transmission_approx": approx,
    }
    if budget.mode == "recirculator":
        exact *= budget.eta_recirc ** loop_length
        report["recirculator_length"] = loop_length
    report["total_transmission"] = exact
    return report


def instance_to_json(instance: GbsInstance) -> dict:
    return {
        "r": instance.r,
        "a": instance.a,
        "D": instance.dim,
        "C": instance.cycles,
        "seed": instance.seed,
        "unitary": matrix_to_json(instance.unitary),
        "gates": [{"i": g.i, "j": g.j, "v": matrix_to_json(g.v)} for g in instance.gates],
    }


def instance_from_json(obj: dict) -> GbsInstance:
    """Instance from its JSON form, checked by ``GbsInstance``; the product
    of its gates must also be unitary."""
    gates = tuple(Gate(_json_int(g["i"], "gate i"), _json_int(g["j"], "gate j"),
                       matrix_from_json(g["v"]))
                  for g in obj["gates"])
    inst = GbsInstance(r=obj["r"], a=_json_int(obj["a"], "a"),
                       dim=_json_int(obj["D"], "D"), cycles=_json_int(obj["C"], "C"),
                       seed=_json_int(obj["seed"], "seed"), gates=gates,
                       unitary=matrix_from_json(obj["unitary"]))
    assert_unitary(inst.unitary)
    return inst


def load_instance(path: str) -> GbsInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
