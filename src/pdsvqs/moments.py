"""Hamiltonian moments, their parameter derivatives, and shot-noise emulation.

The moment table collects ``<psi(theta)| H^n |psi(theta)>`` for n up to a
configured order.  Exact moments need only H applied to a vector: with the
Krylov vectors ``v_j = H^j psi`` of the compiled H, ``<H^n>`` is
``<v_floor(n/2)| v_ceil(n/2)>``, so orders up to ``2K - 1`` cost K
applications.  Derivative rows come either from the analytic form
``2 Re <d_k psi| v_n>``, which continues the same Krylov list to ``v_{2K-1}``,
or from the two-point rotation shift rule applied per gate occurrence;
controlled rotations are rewritten to one-qubit rotations before shifting.
One shift-rule loop serves exact and sampled moments alike: it is handed the
function that gives a shifted state's moment values.  These routines act on
stacks of states, one row per parameter point; ``moment_table`` and
``moment_gradients`` are their one-point calls.

Pauli expansions of the powers of H (``hamiltonian_powers``) serve the
measurement side only: the cost model and the finite-shot emulation, which
measure every string of every power.  A ``MeasurementPlan`` groups the union
of those strings into qubit-wise commuting sets once and stacks the groups'
basis rotations and readout rows; every sampled circuit then costs at most n
rotation kernels, one multinomial draw per group and one readout product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, PauliTerm, qwc_groups
from .statesim import (
    Circuit,
    CompiledSum,
    State,
    _apply_single,
    _derivative_states,
    _index_masks,
    _one_row,
    _parity,
    _simulate,
    _vdot,
)

__all__ = [
    "MomentTable",
    "MeasurementPlan",
    "hamiltonian_powers",
    "moment_table",
    "moment_gradients",
    "union_of_powers",
    "sampled_moments",
]

# Expanded powers drop strings whose coefficient magnitude is at most this.
DROP_TOL = 1e-12
# Highest power ``hamiltonian_powers`` expands; string counts grow fast.
MAX_POWER = 12


@dataclass
class MomentTable:
    """Moments ``values[n] = <H^n>`` and optional rows ``gradients[k, n]``."""

    max_order: int
    values: np.ndarray
    gradients: np.ndarray | None = None


def hamiltonian_powers(h: PauliSum, max_order: int) -> list[PauliSum]:
    """Pauli expansions of ``h**n`` for ``n = 0 .. max_order``.

    Every product is pruned at ``DROP_TOL``; orders above ``MAX_POWER`` raise.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    powers = [PauliSum.identity(h.n_qubits)]
    base = h.simplify(DROP_TOL)
    if not base.is_hermitian():
        raise ValueError("moment powers require a Hermitian operator")
    if max_order > MAX_POWER:
        raise ValueError(f"max_order {max_order} exceeds the power cap {MAX_POWER}")
    for _ in range(max_order):
        powers.append((powers[-1] * base).simplify(DROP_TOL))
    return powers


# The last sum ``_operator`` compiled: (the sum, a copy of its coefficients,
# its CompiledSum).  One slot serves callers that evaluate many points of one H.
_last_compiled: tuple[PauliSum, dict, CompiledSum] | None = None


def _operator(h: PauliSum | None, max_order: int | None) -> CompiledSum:
    """Compiled ``h`` for the exact moments, after the argument checks.

    The compiled operator is reused when the same sum object comes back with
    equal coefficients; any other sum is compiled anew.
    """
    global _last_compiled
    if h is None or max_order is None:
        raise ValueError("need both h and max_order")
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if not h.is_hermitian():
        raise ValueError("moments require a Hermitian operator")
    last = _last_compiled
    if (
        last is not None
        and last[0] is h
        and last[2].n_qubits == h.n_qubits
        and last[1] == h._coeffs
    ):
        return last[2]
    op = CompiledSum(h)
    _last_compiled = (h, dict(h._coeffs), op)
    return op


class _Krylov:
    """Krylov vectors ``v_j = H^j psi``, each applied on first use.

    ``vectors`` starts as ``[psi]`` or as a list already extended; every
    vector holds one row per state, shape (..., 2**n).
    """

    def __init__(self, op: CompiledSum, vectors: list[np.ndarray]) -> None:
        self.op = op
        self.vectors = list(vectors)

    def __getitem__(self, j: int) -> np.ndarray:
        while len(self.vectors) <= j:
            self.vectors.append(self.op.apply(self.vectors[-1]))
        return self.vectors[j]


def _values_from_state(krylov: _Krylov, max_order: int) -> np.ndarray:
    # <H^n> = <v_floor(n/2) | v_ceil(n/2)>, so order 2K-1 needs K applications.
    values = np.empty(krylov.vectors[0].shape[:-1] + (max_order + 1,))
    values[..., 0] = 1.0
    for n in range(1, max_order + 1):
        values[..., n] = _vdot(krylov[n // 2], krylov[(n + 1) // 2]).real
    return values


def _exact_moments(op: CompiledSum, max_order: int):
    """``moments_of`` for ``_shift_rows``: the exact moments of amplitude rows."""
    return lambda amps: _values_from_state(_Krylov(op, [amps]), max_order)


def moment_table(
    circuit: Circuit,
    theta: np.ndarray,
    h: PauliSum | None = None,
    max_order: int | None = None,
) -> MomentTable:
    """Evaluate ``<H^n>`` for ``n = 0 .. max_order`` at one parameter point.

    The zeroth entry is exactly 1 for the normalized circuit state.
    """
    op = _operator(h, max_order)
    amps = _simulate(circuit, _one_row(circuit, theta))
    return MomentTable(max_order, _exact_moments(op, max_order)(amps)[0])


def _analytic_rows(
    krylov: _Krylov, derivs: np.ndarray, max_order: int
) -> np.ndarray:
    """Rows ``2 Re <d_k psi| v_n>`` of shape (..., n_params, max_order + 1)
    from derivative states ``derivs`` of shape (..., n_params, 2**n)."""
    rows = np.zeros(derivs.shape[:-1] + (max_order + 1,))
    for n in range(1, max_order + 1):
        rows[..., n] = 2.0 * _vdot(derivs, krylov[n][..., None, :]).real
    return rows


def _shift_rows(
    circuit: Circuit, thetas: np.ndarray, moments_of, width: int
) -> np.ndarray:
    """Shift-rule rows ``d m_n / d theta_k`` of shape (B, n_params, width).

    ``moments_of`` gives the moments (exact or sampled), shape (B, width), of
    the amplitude rows shifted by +pi/2, then -pi/2, at one occurrence of k;
    each adds with weight ``0.5 * multiplier * sign``.  Controlled rotations
    are rewritten first.
    """
    rows = np.zeros((len(thetas), circuit.n_params, width))
    decomposed = circuit.decompose_controlled()
    for k in range(circuit.n_params):
        for pos, mult in decomposed.occurrences(k):
            for sign in (1.0, -1.0):
                shift = (pos, sign * math.pi / 2.0)
                est = moments_of(_simulate(decomposed, thetas, shift))
                rows[:, k] += 0.5 * mult * sign * est
    rows[..., 0] = 0.0
    return rows


def moment_gradients(
    circuit: Circuit,
    theta: np.ndarray,
    h: PauliSum | None = None,
    max_order: int | None = None,
    method: str = "analytic",
) -> np.ndarray:
    """Matrix of ``d<H^n>/d theta_k`` with shape (n_params, max_order + 1).

    ``method`` selects the analytic derivative-state form or the two-point
    shift rule; the two agree to near machine precision and the shift path
    exists so the gradient pipeline mirrors what hardware can measure.
    """
    thetas = _one_row(circuit, theta)
    op = _operator(h, max_order)
    if method == "analytic":
        walk = _derivative_states(circuit, thetas)
        return _analytic_rows(_Krylov(op, [walk[:, 0]]), walk[:, 1:], max_order)[0]
    if method == "shift":
        moments_of = _exact_moments(op, max_order)
        return _shift_rows(circuit, thetas, moments_of, max_order + 1)[0]
    raise ValueError(f"unknown gradient method {method!r}")


def union_of_powers(powers: list[PauliSum]) -> PauliSum:
    """One sum holding every string appearing in ``powers[1:]``.

    Each string carries its largest coefficient magnitude across the powers,
    so grouping the union visits dominant strings first and a single pass of
    measurements covers every moment order.
    """
    if len(powers) < 2:
        raise ValueError("need at least the first power")
    n = powers[1].n_qubits
    weights: dict[tuple[int, int], float] = {}
    for s in powers[1:]:
        for key, c in s._coeffs.items():
            weights[key] = max(weights.get(key, 0.0), abs(c))
    return PauliSum(n, {k: complex(w) for k, w in weights.items()})


# Basis changes that turn X and Y readout into Z readout.
_X_TO_Z = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_Y_TO_Z = _X_TO_Z @ np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


def _term_signs(term: PauliTerm, n: int, idx: np.ndarray) -> np.ndarray:
    support_idx, _ = _index_masks(term.x_mask | term.z_mask, 0, n)
    return 1.0 - 2.0 * _parity(idx & support_idx)


class MeasurementPlan:
    """Grouped measurement of every string of ``powers[1:]``, built once.

    The union of the strings is split into G qubit-wise commuting groups
    (``qwc_groups`` of ``union_of_powers``), which the plan keeps stacked.
    ``turns`` holds one ``(q, U)`` per qubit that some group reads in X or Y,
    in qubit order; ``U`` has shape (G, 2, 2), and its row g turns group g's
    letter on q into Z readout, or is the identity where the group reads q in
    Z or not at all (an exact map, so the probabilities keep their bits).
    Each group has a readout row per order whose power has strings in it,
    ``sum_P c_P s_P`` with ``s_P`` the +-1 eigenvalue of string P on each
    basis outcome.  ``readout`` (R, 2**n) stacks the rows of every group,
    group by group, and ``readout_sq`` is its square; row r belongs to group
    ``row_group[r]``, estimates order ``row_order[r]`` and carries that
    order's identity constant ``constants[r]`` (0.0 where there is none).
    Sampling a state then costs at most n rotation kernels, one multinomial
    draw per group and one readout product.
    """

    def __init__(self, powers: list[PauliSum]) -> None:
        union = union_of_powers(powers)
        self.n_qubits = n = powers[1].n_qubits
        self.orders = len(powers)
        idx = np.arange(1 << n)
        # The real coefficient of each union string in each of powers[1:],
        # 0.0 where the power lacks the string.
        rank = {key: i for i, key in enumerate(union._coeffs)}
        table = np.zeros((len(rank), self.orders - 1))
        for j, s in enumerate(powers[1:]):
            table[[rank[k] for k in s._coeffs], j] = [c.real for c in s._coeffs.values()]
        groups = qwc_groups(union)
        self.n_groups = len(groups)
        # Per group and qubit, the basis read: 0 for Z (or none), 1 for X, 2 for Y.
        letters = np.zeros((len(groups), n), dtype=int)
        row_group, row_order, constants, readout = [], [], [], []
        for gi, group in enumerate(groups):
            coeffs = table[[rank[term.key] for term in group]]
            columns = np.flatnonzero(coeffs.any(axis=0))
            consts = np.zeros(columns.size)
            rows = np.zeros((columns.size, idx.size))
            x_mask = z_mask = 0
            # Each term adds into the rows of every order, in group order.
            for term, c in zip(group, coeffs[:, columns]):
                x_mask |= term.x_mask
                z_mask |= term.z_mask
                if term.is_identity():
                    consts = c
                else:
                    rows += c[:, None] * _term_signs(term, n, idx)
            letters[gi] = [(x_mask >> q & 1) * (1 + (z_mask >> q & 1)) for q in range(n)]
            row_group += [gi] * columns.size
            row_order += list(columns + 1)
            constants += list(consts)
            readout += list(rows)
        bases = np.stack([np.eye(2, dtype=complex), _X_TO_Z, _Y_TO_Z])
        self.turns = [(q, bases[letters[:, q]]) for q in range(n) if letters[:, q].any()]
        self.row_group = np.array(row_group, dtype=int)
        self.row_order = np.array(row_order, dtype=int)
        self.constants = np.array(constants, dtype=float)
        self.readout = np.array(readout, dtype=float).reshape(-1, idx.size)
        self.readout_sq = self.readout**2
        # Moments add group by group, each group's constants before its means:
        # positions in ``concatenate([constants, means])`` and their orders.
        self._sequence = np.argsort(
            np.concatenate([2 * self.row_group, 2 * self.row_group + 1]), kind="stable"
        )
        self._sequence_order = np.tile(self.row_order, 2)[self._sequence]


def _check_shots(shots) -> int:
    """``shots`` as an int: an integer, not a bool, with 2 <= shots < 2**63."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if not 2 <= int(shots) < 2**63:
        raise ValueError(f"shots must be at least 2 and below 2**63, got {shots!r}")
    return int(shots)


def sampled_moments(
    state: State,
    plan: MeasurementPlan,
    shots: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment estimates with standard errors from a shared measurement pass.

    Each group of ``plan`` is sampled once, ``shots`` outcomes drawn from the
    exact distribution in its rotated basis with a generator seeded by
    (seed, group index), and every ``<H^n>`` is assembled from the same
    counts, so covariances between strings measured together propagate into
    the per-order standard errors exactly as they would on hardware.  The
    state is rotated into every group's basis at once, one stacked kernel per
    entry of ``plan.turns``.  ``shots`` must be an integer (not a bool) from 2
    up to ``2**63 - 1``; anything else raises ``ValueError``.
    """
    shots = _check_shots(shots)
    if state.n_qubits != plan.n_qubits:
        raise ValueError("state and measurement plan differ in qubit count")
    amps = np.broadcast_to(state.amplitudes, (plan.n_groups, state.amplitudes.size))
    for q, u in plan.turns:
        amps = _apply_single(amps, q, u)
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    counts = np.empty(probs.shape, dtype=np.int64)
    for gi, p in enumerate(probs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, gi]))
        counts[gi] = rng.multinomial(shots, p)
    # One BLAS dot per row, the bits of a row-by-row ``counts @ row``.
    row_counts = counts[plan.row_group]
    mean = _vdot(plan.readout, row_counts) / shots
    second = _vdot(plan.readout_sq, row_counts) / shots
    # ``add.at`` is unbuffered: it adds one term at a time, in sequence order.
    values = np.zeros(plan.orders)
    values[0] = 1.0
    terms = np.concatenate([plan.constants, mean])[plan._sequence]
    np.add.at(values, plan._sequence_order, terms)
    variances = np.zeros(plan.orders)
    row_var = np.maximum(0.0, second - mean**2) * shots / (shots - 1)
    np.add.at(variances, plan.row_order, row_var)
    return values, np.sqrt(variances / shots)
