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
stacks of states, one row per parameter point.

Pauli expansions of the powers of H (``hamiltonian_powers``) serve the
measurement side only: the cost model and the finite-shot emulation, which
measure every string of every power.  A ``MeasurementPlan`` groups the union
of those strings into qubit-wise commuting sets once and stacks the groups'
basis rotations and readout rows; every sampled circuit then costs at most n
rotation kernels, one seeded multinomial call and one readout product.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import PauliSum, _abs, _bits, _merged, _qwc_rows
from .statesim import (
    Circuit,
    CompiledSum,
    State,
    _apply_single,
    _index_masks,
    _parity,
    _simulate,
    _vdot,
)

__all__ = [
    "MeasurementPlan",
    "hamiltonian_powers",
    "union_of_powers",
    "sampled_moments",
]

# Expanded powers drop strings whose coefficient magnitude is at most this.
DROP_TOL = 1e-12
# Highest power ``hamiltonian_powers`` expands; string counts grow fast.
MAX_POWER = 12


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


# The last sum ``_operator`` compiled, and its CompiledSum.  One slot serves
# callers that evaluate many points of one H.
_last_compiled: tuple[PauliSum, CompiledSum] | None = None


def _operator(h: PauliSum, max_order: int) -> CompiledSum:
    """Compiled ``h`` for the exact moments, after the argument checks.

    The compiled operator is reused when the same sum object comes back,
    which cannot have changed since a sum's arrays are read-only; any other
    sum is compiled anew.
    """
    global _last_compiled
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if not h.is_hermitian():
        raise ValueError("moments require a Hermitian operator")
    if _last_compiled is None or _last_compiled[0] is not h:
        _last_compiled = (h, CompiledSum(h))
    return _last_compiled[1]


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


def _union(powers: list[PauliSum]) -> tuple[PauliSum, np.ndarray]:
    """``union_of_powers(powers)`` and, for every row of ``powers[1:]`` taken
    in order, the union row holding its string."""
    if len(powers) < 2:
        raise ValueError("need at least the first power")
    parts = ((s.x, s.z, _abs(s.coeffs)) for s in powers[1:])
    return _merged(powers[1].n_qubits, *parts, add=np.maximum)


def union_of_powers(powers: list[PauliSum]) -> PauliSum:
    """One sum holding every string appearing in ``powers[1:]``, first seen first.

    Each string carries its largest coefficient magnitude across the powers,
    so grouping the union visits dominant strings first and a single pass of
    measurements covers every moment order.
    """
    return _union(powers)[0]


# Basis changes that turn X and Y readout into Z readout.
_X_TO_Z = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_Y_TO_Z = _X_TO_Z @ np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


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
    Sampling a state then costs at most n rotation kernels, one generator's
    multinomial call for all G groups and one readout product.
    """

    def __init__(self, powers: list[PauliSum]) -> None:
        union, at = _union(powers)
        self.n_qubits = n = union.n_qubits
        self.orders = len(powers)
        idx = np.arange(1 << n)
        # The real coefficient of each union string in each of powers[1:],
        # 0.0 where the power lacks the string.
        table = np.zeros((len(union), self.orders - 1))
        order_of = np.repeat(np.arange(self.orders - 1), [len(s) for s in powers[1:]])
        table[at, order_of] = np.concatenate([s.coeffs.real for s in powers[1:]])
        groups = _qwc_rows(union)
        self.n_groups = len(groups)
        support = _index_masks(union.x | union.z, n)
        # Per group and qubit, the basis read: 0 for Z (or none), 1 for X, 2 for Y.
        letters = np.zeros((len(groups), n), dtype=int)
        row_group, row_order, constants, readout = [], [], [], []
        for gi, group in enumerate(groups):
            coeffs = table[group]
            columns = np.flatnonzero(coeffs.any(axis=0))
            consts = np.zeros(columns.size)
            rows = np.zeros((columns.size, idx.size))
            # Each string adds into the rows of every order, in group order.
            for mask, c in zip(support[group].tolist(), coeffs[:, columns]):
                if mask == 0:
                    consts = c
                else:
                    rows += c[:, None] * (1.0 - 2.0 * _parity(idx & mask))
            xb, zb = (_bits(np.bitwise_or.reduce(m[group]), n) for m in (union.x, union.z))
            letters[gi] = xb * (1 + zb)
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
    exact distribution in its rotated basis by one generator per state,
    ``default_rng(seed)``, in one call.  Every ``<H^n>`` is assembled from the
    same counts, so covariances between strings measured together propagate
    into the per-order standard errors exactly as they would on hardware.  The
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
    counts = np.random.default_rng(seed).multinomial(shots, probs)
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
