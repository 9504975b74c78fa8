"""Metric-preconditioned gradient descent on the moment functional.

The functional is the order-K PDS energy estimate of ``pds``; at K = 1 it
is the plain energy expectation that VQE minimizes, so VQE needs no route of
its own.

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
rest of the trajectory.  When the whole stack accepted, the trial points'
states, Krylov vectors and moments are reused as the next iterate's;
otherwise the next iterate evaluates every row again.  Plain gradient
descent, which every finite-shot run is, always takes the step as computed.

``run_batch`` advances many starting points in lockstep, each layer acting on
one stack of rows, and applies the rule above row by row; ``run`` is its
one-start case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .moments import MeasurementPlan, hamiltonian_powers
from .moments import _analytic_rows, _check_shots, _krylov
from .moments import _shift_rows, _values_from_state, sampled_moments
from .pauli import PauliSum
from .pds import (
    RegPolicy,
    _SolvedRows,
    _no_error,
    _solve_rows,
    _weights,
)
from .statesim import (
    Circuit,
    _basis_adjoint,
    _compiled,
    _derivative_states,
    _simulate,
    _vdot,
)

__all__ = [
    "step",
    "IterationRecord",
    "Trajectory",
    "run",
    "run_batch",
]

_METRIC_KINDS = ("gd", "ngd", "ite")
_SCHEDULES = ("constant", "inv_iter")

# Fraction of the first-order decrease ``grad . (theta - trial)`` that a
# preconditioned step must realise to be accepted (the Armijo constant).
SUFFICIENT_DECREASE = 1e-4


def _metric_rows(kind: str, derivs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Metrics (B, P, P) from derivative states (B, P, 2**n) and states (B, 2**n)."""
    matrix = _vdot(derivs[..., :, None, :], derivs[..., None, :, :]).real
    if kind == "ngd":
        overlaps = _vdot(amps[..., None, :], derivs)
        matrix = matrix - np.real(overlaps.conj()[..., :, None] * overlaps[..., None, :])
    return matrix


def step(
    theta: np.ndarray,
    grad: np.ndarray,
    metric_matrix: np.ndarray | None,
    eta: float,
    eps: float = 1e-6,
) -> np.ndarray:
    """One preconditioned descent update, of one point or of a stack of rows.

    ``metric_matrix=None`` means plain gradient descent and reproduces
    ``theta - eta * grad`` exactly.  Otherwise the (symmetric positive
    semidefinite) metric is inverted through its eigendecomposition; when the
    smallest eigenvalue falls to ``eps`` relative scale, ``eps`` is added to
    all eigenvalues, so near-null directions get amplified rather than
    crashing the solve.  ``theta`` and ``grad`` are (..., P) and the metric
    (..., P, P).  An ``eta`` or ``eps`` that is not finite and positive
    raises ``ValueError``.
    """
    for name, value in (("eta", eta), ("eps", eps)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if metric_matrix is None:
        return theta - eta * grad
    w, v = np.linalg.eigh(0.5 * (metric_matrix + np.swapaxes(metric_matrix, -1, -2)))
    lift = w[..., :1] <= eps * np.maximum(1.0, w[..., -1:])
    w = np.where(lift, w + eps, w)
    along = (np.swapaxes(v, -1, -2) @ grad[..., None])[..., 0] / w
    direction = (v @ along[..., None])[..., 0]
    return theta - eta * direction


@dataclass
class IterationRecord:
    """One iterate.  ``preconditioned`` tells an accepted (True) from a
    rejected (False) ngd/ite trial step; it is None for gd (every finite-shot
    run is gd) and for the final record."""

    iteration: int
    theta: np.ndarray
    energy: float
    roots: np.ndarray
    expval_h: float
    fidelity: float
    grad_norm: float
    metric_cond: float
    step_size: float
    preconditioned: bool | None = None

    def __eq__(self, other) -> bool:
        """Field by field: arrays elementwise, NaN equal to NaN (None reads NaN)."""
        if not isinstance(other, IterationRecord):
            return NotImplemented
        return all(
            np.array_equal(np.asarray(getattr(self, f.name), dtype=float),
                           np.asarray(getattr(other, f.name), dtype=float), equal_nan=True)
            for f in fields(self)
        )


class _Records(Sequence):
    """The records of one ``run_batch`` trajectory, each built on access.

    A batch keeps its iterates as one float array per iteration, shared by
    its rows: the parameters, the roots, then energy, ``<H>``, fidelity,
    gradient norm, metric condition number, step size and ``preconditioned``
    (1, 0, or NaN for None).  ``rows[i]`` is this trajectory's row in the
    array of iteration i.  Holding arrays rather than record objects keeps a
    many-start batch as small as its numbers.
    """

    def __init__(self, blocks: list[np.ndarray], rows: list[int], n_params: int) -> None:
        self.blocks = blocks
        self.rows = rows
        self.n_params = n_params

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        row = self.blocks[i][self.rows[i]]
        p, k = self.n_params, row.size - self.n_params - 7
        energy, expval, fid, grad_norm, cond, step_size, pre = row[p + k :].tolist()
        return IterationRecord(
            i, row[:p].copy(), energy, row[p : p + k].copy(), expval, fid,
            grad_norm, cond, step_size, None if math.isnan(pre) else bool(pre),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _Records)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class Trajectory:
    """Per-iteration records plus the terminal status.

    ``status`` is ``"converged"`` (gradient norm under tolerance),
    ``"max_iters"``, or ``"error"``.  ``records`` holds every iterate that
    evaluated, as a list or, from ``run_batch``, a sequence that builds each
    record when it is read.  On error, ``error`` is the solver's exception
    object and ``failed`` the record of the iterate that failed, iteration
    ``len(records)``: its energy is NaN where the solve failed (a row whose
    gradient alone failed keeps its energy), and its gradient norm and step
    size are NaN.  Both are None otherwise.
    """

    records: Sequence[IterationRecord] = field(default_factory=list)
    status: str = "max_iters"
    error: Exception | None = None
    failed: IterationRecord | None = None

    @property
    def message(self) -> str:
        """The failure as text, ``""`` unless ``status == "error"``."""
        return "" if self.error is None else f"iteration {len(self.records)}: {self.error}"

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    @property
    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]


@dataclass
class _Points:
    """The functional at a stack of points: every field has one row per point.

    ``vectors`` holds the Krylov vectors ``[v_0 .. v_K]`` the moments used,
    ``v_0`` being the circuit states (in shot mode it is ``[amps]`` alone),
    and ``solved`` the PDS rows, with each row's energy and solver error.
    """

    vectors: list[np.ndarray]
    values: np.ndarray
    solved: _SolvedRows


def _exact_points(op, circuit, thetas, order, policy, amps=None) -> _Points:
    """Krylov vectors, exact moments and functional at ``thetas``, from the
    circuit states ``amps`` (simulated when not given)."""
    if amps is None:
        amps = _simulate(circuit, thetas)
    vectors = _krylov(op, amps, order)
    values = _values_from_state(vectors, 2 * order - 1)
    return _Points(vectors, values, _solve_rows(values, order, policy))


def _check_thetas(circuit: Circuit, thetas) -> np.ndarray:
    thetas = np.array(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != circuit.n_params:
        raise ValueError(
            f"thetas must have shape (B, {circuit.n_params}), got {thetas.shape}"
        )
    if len(thetas) == 0:
        raise ValueError("thetas holds no starting points")
    if not np.isfinite(thetas).all():
        raise ValueError("thetas must be finite")
    return thetas


def run(
    hamiltonian: PauliSum,
    circuit: Circuit,
    theta0,
    **options,
) -> Trajectory:
    """Drive the optimization loop from one start and record its trajectory.

    ``run`` is ``run_batch`` with one starting point; it takes the same
    keyword options, documented there.
    """
    theta = np.asarray(theta0, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError("theta0 does not match the circuit parameter count")
    return run_batch(hamiltonian, circuit, theta[None], **options)[0]


def run_batch(
    hamiltonian: PauliSum,
    circuit: Circuit,
    thetas,
    order: int = 2,
    metric_kind: str = "gd",
    eta: float = 0.05,
    schedule: str = "constant",
    max_iters: int = 100,
    grad_tol: float = 1e-8,
    pds_policy: RegPolicy = RegPolicy("auto"),
    metric_eps: float = 1e-6,
    shots: int | None = None,
    seed: int = 0,
    ground_basis: np.ndarray | None = None,
) -> list[Trajectory]:
    """Run the optimization from every row of ``thetas`` (B, P) in lockstep.

    Returns B trajectories; trajectory b is the one ``run`` gives from
    ``thetas[b]`` (with ``seed + b`` in shot mode).  Every layer, from the
    circuit simulation to the PDS solve, the metric and the step, acts on one
    stack of the live rows.  Each iterate writes the record of every live
    row, a failing row's too, before any row leaves; then the rows that
    converged, reached ``max_iters`` or hit a solver error leave the stack at
    once.  ``max_iters=0`` evaluates the functional at each start, without a
    step.

    ``order`` is the order K of the moment functional, at least 1.  Order 1
    is the plain energy expectation (VQE): its 1 x 1 moment matrix is exactly
    1, so the default ``auto`` policy solves it directly.  The schedule is a
    constant step size or ``eta / iteration``.  Fidelity is the overlap with
    the span of ``ground_basis``, checked once on entry, and NaN when no
    basis is passed.

    Each mode has one gradient route, which contracts the energy weights
    ``g = dE/dm`` of ``pds``.  An exact run (no ``shots``) compiles H once;
    an iterate's moments and its adjoint vector ``w = sum_n g_n H^n psi``
    come from one list of Krylov vectors, ``2K - 1`` applications of H.  A
    ``gd`` iterate sweeps its states and ``w`` back through the circuit.  An
    ``ngd`` or ``ite`` iterate builds its states and the derivative states
    its metric needs in one forward walk and dots them with ``w``; it steps
    by the sufficient-decrease rule of the module docstring, row by row, and
    when the whole stack accepted, its trial points are the next iterate's.
    A finite-shot run is ``gd`` that contracts g with shift-rule rows; its
    moments and rows are sampled from every string of the expanded powers of
    H, grouped into one ``MeasurementPlan``.  An iterate samples its states
    and every shifted state in one pass, each from one generator seeded by
    (seed, iteration, its place in the iterate), so equal calls give equal
    bits.

    Solver failures do not raise: that row's trajectory comes back with
    ``status="error"``, the records before the failing iterate, the error
    object and the failing iterate's record (see ``Trajectory``).  ``thetas``
    of another shape, with no rows or with a non-finite entry raises
    ``ValueError``, as does an ``order``, ``max_iters`` or ``seed`` that is
    not an integer (numpy integers count, bools do not), an order below 1, a
    negative ``max_iters``, an ``eta`` or ``metric_eps``
    that is not finite and positive, a ``grad_tol`` that is not finite and
    non-negative, ``shots`` that are not an integer from 2 up to
    ``2**63 - 1``, or ``shots`` with ``metric_kind`` ``ngd`` or ``ite``.
    """
    for name, value in (("order", order), ("max_iters", max_iters), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    order, max_iters, seed = int(order), int(max_iters), int(seed)
    if order < 1:
        raise ValueError("order must be at least 1")
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if metric_kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    for name, value in (("eta", eta), ("metric_eps", metric_eps)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not (math.isfinite(grad_tol) and grad_tol >= 0):
        raise ValueError(f"grad_tol must be finite and non-negative, got {grad_tol!r}")
    theta = _check_thetas(circuit, thetas)
    max_order = 2 * order - 1
    if shots is None:
        if not hamiltonian.is_hermitian():
            raise ValueError("moments require a Hermitian operator")
        op = _compiled(hamiltonian)
    else:
        shots = _check_shots(shots)
        if metric_kind != "gd":  # the ngd/ite metrics have no sampled estimate
            raise ValueError(f"finite-shot runs take metric_kind 'gd', not {metric_kind!r}")
        plan = MeasurementPlan(hamiltonian_powers(hamiltonian, max_order))
    if ground_basis is not None:
        ground_adjoint = _basis_adjoint(ground_basis, 1 << circuit.n_qubits)

    blocks: list[np.ndarray] = []  # one record array per iteration
    slots: list[list[int]] = [[] for _ in theta]  # each start's row in them
    status, error = ["max_iters"] * len(theta), [None] * len(theta)
    live = np.arange(len(theta))  # start index of each row in the stack
    points = None  # the trial points, when the whole stack accepted
    for iteration in range(max_iters + 1):
        walk = derivs = None
        if shots is not None:
            seeds = [seed + int(b) for b in live]
            amps, values, rows = _sampled_table(circuit, theta, plan, shots, seeds, iteration)
            points = _Points([amps], values, _solve_rows(values, order, pds_policy))
        else:
            # The ngd/ite metric needs derivative states; one walk builds them.
            if metric_kind != "gd":
                walk = _derivative_states(circuit, theta)
                derivs = walk[:, 1:]
            if points is None:
                points = _exact_points(op, circuit, theta, order, pds_policy,
                                       None if walk is None else walk[:, 0])
        # Every mode contracts the same energy weights; a failed row's read 0.
        weights, errors = _weights(points.solved)
        grad = ((rows @ weights[..., None])[..., 0] if shots is not None else
                _analytic_rows(op, points.vectors, weights, circuit, theta, derivs))
        failed = ~_no_error(errors)
        grad[failed] = math.nan

        if metric_kind == "gd":
            metric_matrix = None
            metric_cond = np.ones(len(theta))
        else:
            metric_matrix = _metric_rows(metric_kind, derivs, points.vectors[0])
            w = np.linalg.eigvalsh(metric_matrix)
            metric_cond = np.divide(
                w[:, -1], w[:, 0], out=np.full(len(w), np.inf), where=w[:, 0] > 0
            )
        fid = np.full(len(theta), np.nan)
        if ground_basis is not None:
            overlaps = (ground_adjoint @ points.vectors[0][..., None])[..., 0]
            fid = np.sum(np.abs(overlaps) ** 2, axis=-1)
        grad_norm = np.sqrt(_vdot(grad, grad))
        eta_k = eta if schedule == "constant" else eta / (iteration + 1)
        block = np.column_stack([
            theta, points.solved.roots, points.solved.energy, points.values[:, 1], fid,
            grad_norm, metric_cond, np.full(len(theta), eta_k), np.full(len(theta), np.nan),
        ])
        blocks.append(block)
        for r, b in enumerate(live.tolist()):
            slots[b].append(r)
        # Every row wrote its record; the ones that are done leave here.  A
        # failed row's NaN gradient norm never converges.
        converged = grad_norm < grad_tol
        done = failed | converged | (iteration == max_iters)
        energy, go = points.solved.energy, ~done
        if done.any():
            for i in np.flatnonzero(done):
                b = live[i]
                status[b] = "error" if failed[i] else "converged" if converged[i] else "max_iters"
                error[b] = errors[i]
            block[done, -2] = math.nan
            if done.all():
                break
            theta, grad, live, energy = theta[go], grad[go], live[go], energy[go]
            metric_matrix = None if metric_matrix is None else metric_matrix[go]
        trial = step(theta, grad, metric_matrix, eta_k, metric_eps)
        if metric_matrix is None:
            theta, points = trial, None
            continue
        bound = energy - SUFFICIENT_DECREASE * _vdot(grad, theta - trial)
        points = _exact_points(op, circuit, trial, order, pds_policy)
        accepted = _no_error(points.solved.errors) & (points.solved.energy <= bound)
        if not accepted.all():
            trial[~accepted] = step(theta[~accepted], grad[~accepted], None, eta_k)
            points = None
        theta = trial
        block[go, -1] = accepted
    # A failed iterate is not a record; it is the trajectory's failed one.
    return [
        Trajectory(_Records(blocks, r[: len(r) - (e is not None)], circuit.n_params), st, e,
                   None if e is None else _Records(blocks, r, circuit.n_params)[-1])
        for r, st, e in zip(slots, status, error)
    ]


def _sampled_table(circuit: Circuit, thetas: np.ndarray, plan: MeasurementPlan, shots: int,
                   seeds: list[int], iteration: int) -> tuple:
    """States (B, 2**n), sampled moments (B, m) and shift-rule gradient rows
    (B, P, m) from ``_shift_rows``, all sampled in one pass.  State i of its
    stack is row ``i % B`` with seed ``_mix(seeds[i % B], iteration, i // B)``:
    tag 0 for the iterate's state and 1, 2, ... for the shifts in their order.
    """
    def sampled(states: np.ndarray) -> np.ndarray:
        b = len(thetas)
        mixed = [_mix(seeds[i % b], iteration, i // b) for i in range(len(states))]
        return sampled_moments(states, plan, shots, mixed)[0]

    return _shift_rows(circuit, thetas, sampled, plan.orders)


def _mix(seed: int, iteration: int, tag: int) -> int:
    return (seed * 1000003 + iteration * 10007 + tag) & 0x7FFFFFFF
