"""Metric-preconditioned gradient descent on the moment functional.

Three metrics are supported for the update ``theta <- theta - eta R^+ grad``:
plain gradient descent (R = identity), the imaginary-time metric
``Re <d_i psi | d_j psi>``, and the natural-gradient (Fubini-Study) metric
which subtracts the rank-one ``<d_i psi|psi><psi|d_j psi>`` part.  A nearly
singular metric is lifted by an eigenvalue shift; the resulting large inverse
eigenvalues are what lets the preconditioned flow leave regions where the
plain gradient stalls.

The same amplification can overshoot: with a fixed ``eta`` the
preconditioned step may jump across a narrow valley of the functional and
back, and the iterates then cycle or crawl instead of descending.  With exact
moments the driver therefore takes the preconditioned step only when it
decreases the functional sufficiently,

    F(trial) <= F(theta) - SUFFICIENT_DECREASE * grad . (theta - trial),

and otherwise takes the plain step ``theta - eta grad``.  A solver failure
at the trial point counts as a rejection.  The rule looks only at the
current point, so a run restarted from any recorded iterate reproduces the
rest of the trajectory.  An accepted trial point's state, Krylov vectors
and moments are reused as the next iterate's, so only a rejected step costs
an extra (energy-only) evaluation.  Plain gradient descent and finite-shot
runs, whose functional values are estimates, always take the step as
computed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import MeasurementPlan, MomentTable
from .moments import hamiltonian_powers, sampled_moments
from .moments import _Krylov, _analytic_rows, _exact_moments, _operator
from .moments import _shift_rows, _values_from_state
from .pauli import PauliSum
from .pds import (
    ComplexRoots,
    RegPolicy,
    SingularMoments,
    VanishingDenominator,
    pds_gradient,
    pds_solve,
)
from .statesim import (
    Circuit,
    State,
    apply_circuit,
    exact_eigensystem,
    _basis_adjoint,
    _derivative_states,
)

__all__ = [
    "metric",
    "step",
    "IterationRecord",
    "Trajectory",
    "run",
]

_METRIC_KINDS = ("gd", "ngd", "ite")
_GRADIENT_METHODS = ("analytic", "shift")
_SCHEDULES = ("constant", "inv_iter")
_SOLVER_ERRORS = (SingularMoments, ComplexRoots, VanishingDenominator)

# Fraction of the first-order decrease ``grad . (theta - trial)`` that a
# preconditioned step must realise to be accepted (the Armijo constant).
SUFFICIENT_DECREASE = 1e-4


def metric(
    circuit: Circuit,
    theta: np.ndarray,
    kind: str = "gd",
    derivs: list[np.ndarray] | None = None,
    amps: np.ndarray | None = None,
) -> np.ndarray:
    """Preconditioning matrix for the chosen flavor at one parameter point.

    Precomputed derivative states and the circuit state can be passed in so a
    driver evaluating the gradient anyway does not simulate twice.
    """
    if kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    n = circuit.n_params
    if kind == "gd":
        return np.eye(n)
    theta = np.asarray(theta, dtype=float)
    if derivs is None:
        derivs = _derivative_states(circuit, theta)
    matrix = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            matrix[i, j] = matrix[j, i] = np.vdot(derivs[i], derivs[j]).real
    if kind == "ngd":
        if amps is None:
            amps = apply_circuit(circuit, theta).amplitudes
        overlaps = np.array([np.vdot(amps, d) for d in derivs])
        matrix = matrix - np.real(np.outer(overlaps.conj(), overlaps))
        matrix = 0.5 * (matrix + matrix.T)
    return matrix


def step(
    theta: np.ndarray,
    grad: np.ndarray,
    metric_matrix: np.ndarray | None,
    eta: float,
    eps: float = 1e-6,
) -> np.ndarray:
    """One preconditioned descent update.

    ``metric_matrix=None`` means plain gradient descent and reproduces
    ``theta - eta * grad`` exactly.  Otherwise the (symmetric positive
    semidefinite) metric is inverted through its eigendecomposition; when the
    smallest eigenvalue falls to ``eps`` relative scale, ``eps`` is added to
    all eigenvalues, so near-null directions get amplified rather than
    crashing the solve.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if metric_matrix is None:
        return theta - eta * grad
    w, v = np.linalg.eigh(0.5 * (metric_matrix + metric_matrix.T))
    if w[0] <= eps * max(1.0, float(w[-1])):
        w = w + eps
    direction = v @ ((v.T @ grad) / w)
    return theta - eta * direction


@dataclass
class IterationRecord:
    iteration: int
    theta: np.ndarray
    energy: float
    roots: np.ndarray
    expval_h: float
    fidelity: float
    grad_norm: float
    metric_cond: float
    step_size: float


@dataclass
class Trajectory:
    """Per-iteration records plus the terminal status.

    ``status`` is ``"converged"`` (gradient norm under tolerance),
    ``"max_iters"``, or ``"error"`` with the failure message; on error the
    records cover every successfully evaluated iterate.
    """

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iters"
    message: str = ""

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    @property
    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]


def _pad_roots(roots: np.ndarray, order: int) -> np.ndarray:
    padded = np.full(order, np.nan)
    padded[: roots.size] = roots
    return padded


def run(
    hamiltonian: PauliSum,
    circuit: Circuit,
    theta0,
    functional: str = "pds",
    order: int = 2,
    metric_kind: str = "gd",
    eta: float = 0.05,
    schedule: str = "constant",
    max_iters: int = 100,
    grad_tol: float = 1e-8,
    pds_policy: RegPolicy | None = None,
    metric_eps: float = 1e-6,
    gradient_method: str = "analytic",
    shots: int | None = None,
    seed: int = 0,
    ground_basis: np.ndarray | None = None,
) -> Trajectory:
    """Drive the optimization loop and record the full trajectory.

    ``functional`` is ``"pds"`` (moment functional of the given order) or
    ``"vqe"`` (plain energy expectation; equivalent to order 1).  The schedule
    is a constant step size or ``eta / iteration``.  With ``shots`` set, the
    moments and their shift-rule gradients are estimated from simulated
    measurements of every string of the expanded powers of H, seeded per
    (seed, iteration); the powers are expanded and grouped into one
    ``MeasurementPlan`` per call, which every sampled circuit reuses.
    Otherwise they are exact: H is compiled once, and each iterate's moments
    and analytic gradient rows come from one list of Krylov vectors
    ``H^j psi``, ``2K - 1`` applications of H in all;
    ``ngd``/``ite`` steps follow the sufficient-decrease rule of the module
    docstring, and an accepted trial point hands its Krylov list on.
    Sampled and ``gradient_method="shift"`` rows share one shift-rule loop.
    Derivative states are built once per iterate, and ``ground_basis`` (by
    default the exact ground space up to 12 qubits) is checked once, on entry.

    Solver failures do not raise: the trajectory comes back with
    ``status="error"`` and the records collected so far.
    """
    if functional not in ("pds", "vqe"):
        raise ValueError(f"unknown functional {functional!r}")
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if metric_kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    if gradient_method not in _GRADIENT_METHODS:
        raise ValueError(f"unknown gradient method {gradient_method!r}")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    if functional == "vqe":
        order = 1
    if order < 1:
        raise ValueError("order must be at least 1")
    if pds_policy is None:
        pds_policy = RegPolicy.auto()
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (circuit.n_params,):
        raise ValueError("theta0 does not match the circuit parameter count")
    max_order = max(1, 2 * order - 1)
    if shots is None:
        op = _operator(hamiltonian, max_order)
    else:
        plan = MeasurementPlan(hamiltonian_powers(hamiltonian, max_order))
    if ground_basis is None and hamiltonian.n_qubits <= 12:
        _, ground_basis = exact_eigensystem(hamiltonian)
    if ground_basis is not None:
        ground_adjoint = _basis_adjoint(ground_basis, 1 << circuit.n_qubits)

    def solved(values: np.ndarray):
        """PDS result (None for vqe) and functional value of the moments."""
        if functional == "vqe":
            return None, float(values[1])
        result = pds_solve(MomentTable(max_order, values), order, pds_policy)
        return result, result.energy

    def functional_at(point: np.ndarray):
        """State, Krylov list, exact moments, PDS result and value at a point."""
        state = apply_circuit(circuit, point)
        krylov = _Krylov(op, state.amplitudes)
        values = _values_from_state(krylov, max_order)
        return state, krylov, values, *solved(values)

    trajectory = Trajectory()
    accepted = None
    for iteration in range(max_iters + 1):
        derivs = None
        # Built once per iterate, for the analytic rows and the ngd/ite metric.
        if metric_kind != "gd" or (shots is None and gradient_method == "analytic"):
            derivs = _derivative_states(circuit, theta)
        try:
            if shots is None:
                state, krylov, values, result, energy = accepted or functional_at(theta)
                accepted = None
                if gradient_method == "analytic":
                    rows = _analytic_rows(krylov, derivs, max_order)
                else:
                    moments_of = _exact_moments(op, max_order)
                    rows = _shift_rows(circuit, theta, moments_of, max_order + 1)
            else:
                state = apply_circuit(circuit, theta)
                values, rows = _sampled_table(
                    circuit, theta, state, plan, shots, seed, iteration
                )
                result, energy = solved(values)
            if functional == "vqe":
                grad = rows[:, 1].copy()
                roots = np.array([energy])
            else:
                grad = pds_gradient(MomentTable(max_order, values, rows), order, result)
                roots = _pad_roots(result.roots, order)
        except _SOLVER_ERRORS as exc:
            trajectory.status = "error"
            trajectory.message = f"iteration {iteration}: {exc}"
            return trajectory

        if metric_kind == "gd":
            metric_matrix = None
            metric_cond = 1.0
        else:
            metric_matrix = metric(
                circuit, theta, metric_kind, derivs=derivs, amps=state.amplitudes
            )
            w = np.linalg.eigvalsh(metric_matrix)
            metric_cond = float("inf") if w[0] <= 0 else float(w[-1] / w[0])

        fid = float("nan")
        if ground_basis is not None:
            fid = float(np.sum(np.abs(ground_adjoint @ state.amplitudes) ** 2))
        grad_norm = float(np.linalg.norm(grad))
        eta_k = eta if schedule == "constant" else eta / (iteration + 1)
        trajectory.records.append(
            IterationRecord(
                iteration=iteration,
                theta=theta.copy(),
                energy=energy,
                roots=roots,
                expval_h=float(values[1]),
                fidelity=fid,
                grad_norm=grad_norm,
                metric_cond=metric_cond,
                step_size=eta_k,
            )
        )
        if grad_norm < grad_tol or iteration == max_iters:
            trajectory.status = "converged" if grad_norm < grad_tol else "max_iters"
            trajectory.records[-1].step_size = math.nan
            return trajectory
        trial = step(theta, grad, metric_matrix, eta_k, metric_eps)
        if metric_matrix is None or shots is not None:
            theta = trial
            continue
        try:
            accepted = functional_at(trial)
        except _SOLVER_ERRORS:
            accepted = None
        bound = energy - SUFFICIENT_DECREASE * float(grad @ (theta - trial))
        if accepted is not None and accepted[4] <= bound:
            theta = trial
        else:
            accepted = None
            theta = step(theta, grad, None, eta_k)
    return trajectory


def _sampled_table(
    circuit: Circuit,
    theta: np.ndarray,
    state: State,
    plan: MeasurementPlan,
    shots: int,
    seed: int,
    iteration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment values and shift-rule gradient rows from simulated shots.

    ``state`` is the circuit's state at ``theta``, which the caller has
    already simulated.  Each sampled state gets its own seed, tagged 0 for
    ``state`` and 1, 2, ... for the shifted states in ``_shift_rows`` order.
    """
    seeds = (_mix(seed, iteration, tag) for tag in itertools.count())

    def sampled(point: State) -> np.ndarray:
        return sampled_moments(point, plan, shots, seed=next(seeds))[0]

    return sampled(state), _shift_rows(circuit, theta, sampled, plan.orders)


def _mix(seed: int, iteration: int, tag: int) -> int:
    return (seed * 1000003 + iteration * 10007 + tag) & 0x7FFFFFFF
