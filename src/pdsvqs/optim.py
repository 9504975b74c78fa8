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

``run_batch`` advances many starting points in lockstep, each layer acting on
one stack of rows, and applies the rule above row by row; ``run`` is its
one-start case.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .moments import MeasurementPlan
from .moments import hamiltonian_powers, sampled_moments
from .moments import _Krylov, _analytic_rows, _check_shots, _exact_moments, _operator
from .moments import _shift_rows, _values_from_state
from .pauli import PauliSum
from .pds import (
    RegPolicy,
    _SolvedRows,
    _gradient_rows,
    _no_error,
    _solve_rows,
)
from .statesim import (
    Circuit,
    State,
    _basis_adjoint,
    _derivative_states,
    _simulate,
    _vdot,
)

__all__ = [
    "step",
    "IterationRecord",
    "Trajectory",
    "evaluate",
    "run",
    "run_batch",
]

_METRIC_KINDS = ("gd", "ngd", "ite")
_GRADIENT_METHODS = ("analytic", "shift")
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
        matrix = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
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
    (..., P, P).
    """
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
    rejected (False) ngd/ite trial step; it is None for gd, finite-shot runs
    and the final record."""

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
    ``"max_iters"``, or ``"error"`` with the failure message; on error the
    records cover every successfully evaluated iterate.  ``records`` is a
    list or, from ``run_batch``, a sequence that builds each record when
    it is read.
    """

    records: Sequence[IterationRecord] = field(default_factory=list)
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


@dataclass
class _Points:
    """The functional at a stack of points: every field has one row per point.

    ``krylov`` holds the Krylov vectors the moments used (empty in shot mode)
    and ``solved`` the PDS rows, with each row's energy and solver error.
    """

    amps: np.ndarray
    krylov: list[np.ndarray]
    values: np.ndarray
    solved: _SolvedRows


def _take(obj, rows):
    """``obj`` (array, list of arrays or dataclass of those) at ``rows``;
    anything else is shared by every row and passes through."""
    if isinstance(obj, np.ndarray):
        return obj[rows]
    if isinstance(obj, list):
        return [_take(item, rows) for item in obj]
    if is_dataclass(obj):
        return type(obj)(**{f.name: _take(getattr(obj, f.name), rows) for f in fields(obj)})
    return obj


def _put(dst, rows, src):
    """Write ``src`` into the ``rows`` of ``dst``, in place; returns ``dst``."""
    if isinstance(dst, list):
        for d, v in zip(dst, src):
            _put(d, rows, v)
    elif is_dataclass(dst):
        for f in fields(dst):
            _put(getattr(dst, f.name), rows, getattr(src, f.name))
    elif isinstance(dst, np.ndarray):
        dst[rows] = src
    return dst


def _exact_points(op, circuit, thetas, order, policy, amps=None) -> _Points:
    """Krylov vectors, exact moments and functional at ``thetas``, from the
    circuit states ``amps`` (simulated when not given)."""
    if amps is None:
        amps = _simulate(circuit, thetas)
    krylov = _Krylov(op, [amps])
    values = _values_from_state(krylov, 2 * order - 1)
    return _Points(amps, krylov.vectors, values, _solve_rows(values, order, policy))


def _functional(functional: str, order: int, policy: RegPolicy | None):
    """The order and policy the functional is solved with, after checks.

    The energy expectation (vqe) is the order-1 functional: its 1 x 1 moment
    matrix is exactly 1, so it is solved without regularization whatever the
    policy.
    """
    if functional not in ("pds", "vqe"):
        raise ValueError(f"unknown functional {functional!r}")
    if functional == "vqe":
        return 1, RegPolicy.none()
    if order < 1:
        raise ValueError("order must be at least 1")
    return order, RegPolicy.auto() if policy is None else policy


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


def evaluate(
    hamiltonian: PauliSum,
    circuit: Circuit,
    thetas,
    functional: str = "pds",
    order: int = 2,
    pds_policy: RegPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Exact functional values, ``<H>`` and solver errors at each row of ``thetas``.

    ``thetas`` has shape (B, n_params).  A row whose solve fails has a NaN
    value and its ``SingularMoments`` or ``ComplexRoots`` in the error list,
    which is None elsewhere.  This is the evaluation ``run_batch`` applies
    to its iterates.
    """
    order, policy = _functional(functional, order, pds_policy)
    thetas = _check_thetas(circuit, thetas)
    op = _operator(hamiltonian, 2 * order - 1)
    points = _exact_points(op, circuit, thetas, order, policy)
    return points.solved.energy, points.values[:, 1].copy(), list(points.solved.errors)


def run(
    hamiltonian: PauliSum,
    circuit: Circuit,
    theta0,
    **options,
) -> Trajectory:
    """Drive the optimization loop from one start and record its trajectory.

    ``run`` is ``run_batch`` with one starting point; it takes the same
    keyword options, documented there.  With ``shots`` set, ``ngd`` and
    ``ite`` runs estimate the moments and the gradient from shots but still
    precondition with the exact statevector metric.
    """
    theta = np.asarray(theta0, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError("theta0 does not match the circuit parameter count")
    return run_batch(hamiltonian, circuit, theta[None], **options)[0]


def run_batch(
    hamiltonian: PauliSum,
    circuit: Circuit,
    thetas,
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
) -> list[Trajectory]:
    """Run the optimization from every row of ``thetas`` (B, P) in lockstep.

    Returns B trajectories; trajectory b is the one ``run`` gives from
    ``thetas[b]`` (with ``seed + b`` in shot mode).  Every layer, from the
    circuit simulation to the PDS solve, the metric and the step, acts on one
    stack of the live rows; a row leaves the stack when it converges, reaches
    ``max_iters`` or hits a solver error.

    ``functional`` is ``"pds"`` (moment functional of the given order) or
    ``"vqe"`` (plain energy expectation), which is solved as the order-1
    functional and ignores ``pds_policy``.  The schedule is a constant step
    size or ``eta / iteration``.  With ``shots`` set, the moments and their
    shift-rule gradients are estimated from simulated measurements of every
    string of the expanded powers of H, grouped into one ``MeasurementPlan``
    per call; each sampled state draws from one generator seeded by (seed,
    iteration, its place in the iterate), so equal calls give equal bits.
    ``ngd``/``ite`` shot runs still precondition with the exact statevector
    metric, built from simulated derivative states, not with a measured one.
    Otherwise the moments are exact: H is compiled once, and each iterate's
    moments and analytic gradient rows come from one list of Krylov vectors
    ``H^j psi``, ``2K - 1`` applications of H in all; ``ngd``/``ite`` steps
    follow the sufficient-decrease rule of the module docstring, row by row,
    and an accepted trial point hands its Krylov vectors on.  Sampled and
    ``gradient_method="shift"`` rows share one shift-rule loop.  An iterate
    that needs derivative states builds them and its circuit states in one
    forward walk.  Fidelity is the overlap with the span of ``ground_basis``,
    checked once on entry, and NaN when no basis is passed.

    Solver failures do not raise: that row's trajectory comes back with
    ``status="error"`` and the records collected so far.  ``thetas`` of
    another shape, with no rows or with a non-finite entry raises
    ``ValueError``, as does an ``eta`` or ``metric_eps`` that is not finite
    and positive, a ``grad_tol`` that is not finite and non-negative, or
    ``shots`` that are not an integer from 2 up to ``2**63 - 1``.
    """
    order, pds_policy = _functional(functional, order, pds_policy)
    if schedule not in _SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if metric_kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    if gradient_method not in _GRADIENT_METHODS:
        raise ValueError(f"unknown gradient method {gradient_method!r}")
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
        op = _operator(hamiltonian, max_order)
    else:
        shots = _check_shots(shots)
        plan = MeasurementPlan(hamiltonian_powers(hamiltonian, max_order))
    if ground_basis is not None:
        ground_adjoint = _basis_adjoint(ground_basis, 1 << circuit.n_qubits)

    blocks: list[np.ndarray] = []  # one record array per iteration
    slots: list[list[int]] = [[] for _ in theta]  # each start's row in them
    status, message = ["max_iters"] * len(theta), [""] * len(theta)
    live = np.arange(len(theta))  # start index of each row in the stack
    points = None  # accepted trial points, handed on row by row
    carried = np.zeros(len(theta), dtype=bool)
    for iteration in range(max_iters + 1):
        walk = derivs = None
        # The analytic rows and the ngd/ite metric need derivative states: one
        # walk per iterate builds them together with the states.
        if metric_kind != "gd" or (shots is None and gradient_method == "analytic"):
            walk = _derivative_states(circuit, theta)
            derivs = walk[:, 1:]
        if shots is None:
            if not carried.all():
                fresh = _exact_points(
                    op, circuit, theta[~carried], order, pds_policy,
                    None if walk is None else walk[~carried, 0],
                )
                points = _put(points, ~carried, fresh) if carried.any() else fresh
            if gradient_method == "analytic":
                krylov = _Krylov(op, points.krylov)
                rows = _analytic_rows(krylov, derivs, max_order)
            else:
                moments_of = _exact_moments(op, max_order)
                rows = _shift_rows(circuit, theta, moments_of, max_order + 1)
        else:
            amps = _simulate(circuit, theta) if walk is None else walk[:, 0]
            seeds = [seed + int(b) for b in live]
            values, rows = _sampled_table(
                circuit, theta, amps, plan, shots, seeds, iteration
            )
            points = _Points(amps, [], values, _solve_rows(values, order, pds_policy))
        grad, errors = _gradient_rows(points.values, rows, points.solved)
        roots = points.solved.roots.copy()
        failed = ~_no_error(errors)
        if failed.any():
            for i in np.flatnonzero(failed):
                status[live[i]] = "error"
                message[live[i]] = f"iteration {iteration}: {errors[i]}"
            # The rows that evaluated go on to their records and steps.
            keep = ~failed
            if not keep.any():
                break
            theta, grad, roots, live = theta[keep], grad[keep], roots[keep], live[keep]
            points, derivs = _take(points, keep), _take(derivs, keep)

        if metric_kind == "gd":
            metric_matrix = None
            metric_cond = np.ones(len(theta))
        else:
            metric_matrix = _metric_rows(metric_kind, derivs, points.amps)
            w = np.linalg.eigvalsh(metric_matrix)
            metric_cond = np.divide(
                w[:, -1], w[:, 0], out=np.full(len(w), np.inf), where=w[:, 0] > 0
            )
        fid = np.full(len(theta), np.nan)
        if ground_basis is not None:
            overlaps = (ground_adjoint @ points.amps[..., None])[..., 0]
            fid = np.sum(np.abs(overlaps) ** 2, axis=-1)
        grad_norm = np.sqrt(_vdot(grad, grad))
        eta_k = eta if schedule == "constant" else eta / (iteration + 1)
        block = np.column_stack([
            theta, roots, points.solved.energy, points.values[:, 1], fid, grad_norm,
            metric_cond, np.full(len(theta), eta_k), np.full(len(theta), np.nan),
        ])
        blocks.append(block)
        for r, b in enumerate(live.tolist()):
            slots[b].append(r)
        done = (grad_norm < grad_tol) | (iteration == max_iters)
        if done.any():
            for i in np.flatnonzero(done):
                status[live[i]] = "converged" if grad_norm[i] < grad_tol else "max_iters"
            block[done, -2] = math.nan
            # The rows that go on take their step.
            go = ~done
            if not go.any():
                break
            theta, grad, live = theta[go], grad[go], live[go]
            points, metric_matrix = _take(points, go), _take(metric_matrix, go)
        stepping = np.flatnonzero(~done)
        trial = step(theta, grad, metric_matrix, eta_k, metric_eps)
        if metric_matrix is None or shots is not None:
            theta = trial
            points, carried = None, np.zeros(len(theta), dtype=bool)
            continue
        bound = points.solved.energy - SUFFICIENT_DECREASE * _vdot(grad, theta - trial)
        points = _exact_points(op, circuit, trial, order, pds_policy)
        carried = _no_error(points.solved.errors) & (points.solved.energy <= bound)
        if not carried.all():
            trial[~carried] = step(theta[~carried], grad[~carried], None, eta_k)
        theta = trial
        block[stepping, -1] = carried
    return [
        Trajectory(_Records(blocks, r, circuit.n_params), st, msg)
        for r, st, msg in zip(slots, status, message)
    ]


def _sampled_table(
    circuit: Circuit,
    thetas: np.ndarray,
    amps: np.ndarray,
    plan: MeasurementPlan,
    shots: int,
    seeds: list[int],
    iteration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment values (B, m) and shift-rule gradient rows (B, P, m) from shots.

    ``amps`` are the circuit states at ``thetas``, which the caller has
    already simulated.  Row b is sampled on its own with seed ``seeds[b]``:
    each sampled state gets its own seed, tagged 0 for the state and 1, 2,
    ... for the shifted states in ``_shift_rows`` order.
    """
    tags = itertools.count()

    def sampled(states: np.ndarray) -> np.ndarray:
        tag = next(tags)
        return np.array([
            sampled_moments(State(a), plan, shots, seed=_mix(s, iteration, tag))[0]
            for a, s in zip(states, seeds)
        ])

    return sampled(amps), _shift_rows(circuit, thetas, sampled, plan.orders)


def _mix(seed: int, iteration: int, tag: int) -> int:
    return (seed * 1000003 + iteration * 10007 + tag) & 0x7FFFFFFF
