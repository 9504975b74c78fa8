"""Hamiltonian moments, their parameter derivatives, and shot-noise emulation.

The moment table collects ``<psi(theta)| H^n |psi(theta)>`` for n up to a
configured order.  Exact moments need only H applied to a vector: with the
Krylov vectors ``v_j = H^j psi`` of the compiled H, a plain list
``[v_0 .. v_K]``, ``<H^n>`` is ``<v_floor(n/2)| v_ceil(n/2)>``, so orders up
to ``2K - 1`` cost K applications.  An exact gradient is
``2 Re <d_k psi| w>`` for one adjoint vector ``w = sum_n g_n v_n`` of the
energy weights g of ``pds``, which applies H past ``v_K`` up to
``v_{2K-1}``.  The derivative states that an ngd or ite iterate holds for
its metric are dotted with w; otherwise a backward sweep carries ``psi, w``
back through the circuit: two vectors, where the walk holds n_params + 1.
Finite-shot runs take the two-point rotation shift rule per gate occurrence,
with controlled rotations rewritten to one-qubit rotations first.  The
circuit states and all the shifted states make one stack, simulated in one
pass of the rewritten circuit, and one call of a function of that stack gives
every moment value: sampled ones in a run, exact ones as the reference for
the analytic rows.  These routines act on stacks of states, one row per
point.

Pauli expansions of the powers of H (``hamiltonian_powers``) serve the
measurement side only: the cost model and the finite-shot emulation, which
measure every string of every power.  A ``MeasurementPlan`` groups the union
of those strings into qubit-wise commuting sets once, turns each distinct
letter prefix once on a shared tree and stacks the readout rows.
``sampled_moments`` samples a stack of states, one seed each, in one pass: a
block costs at most two turn kernels per turned qubit, a seeded multinomial
call per state, one product and two accumulates.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import PauliSum, _abs, _bits, _merged, _qwc_rows
from .statesim import (
    Circuit,
    CompiledSum,
    _adjoint_rows,
    _apply_single,
    _index_masks,
    _parity,
    _simulate,
    _vdot,
)

__all__ = [
    "MeasurementPlan",
    "hamiltonian_powers",
    "sampled_moments",
]

# Expanded powers drop strings whose coefficient magnitude is at most this
# fraction of the largest in the same sum, so the pruning keeps its strings
# whatever the units of H.
DROP_TOL = 1e-12
# Highest power ``hamiltonian_powers`` expands; string counts grow fast.
MAX_POWER = 12


def hamiltonian_powers(h: PauliSum, max_order: int) -> list[PauliSum]:
    """Pauli expansions of ``h**n`` for ``n = 0 .. max_order``.

    ``h`` and every product are pruned at ``DROP_TOL`` times their own
    largest coefficient magnitude; orders above ``MAX_POWER`` raise.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    powers = [PauliSum.identity(h.n_qubits)]
    base = _pruned(h)
    if not base.is_hermitian():
        raise ValueError("moment powers require a Hermitian operator")
    if max_order > MAX_POWER:
        raise ValueError(f"max_order {max_order} exceeds the power cap {MAX_POWER}")
    for _ in range(max_order):
        powers.append(_pruned(powers[-1] * base))
    return powers


def _pruned(s: PauliSum) -> PauliSum:
    return s.simplify(DROP_TOL * _abs(s.coeffs).max(initial=0.0))


def _krylov(op: CompiledSum, amps: np.ndarray, k: int) -> list[np.ndarray]:
    """Krylov vectors ``[v_0 .. v_k]``, ``v_j = H^j psi`` for the states
    ``amps`` (..., 2**n), each with one row per state."""
    vectors = [amps]
    for _ in range(k):
        vectors.append(op.apply(vectors[-1]))
    return vectors


def _values_from_state(vectors: list[np.ndarray], max_order: int) -> np.ndarray:
    # <H^n> = <v_floor(n/2) | v_ceil(n/2)>, so order 2K-1 needs v_0 .. v_K.
    values = np.empty(vectors[0].shape[:-1] + (max_order + 1,))
    values[..., 0] = 1.0
    for n in range(1, max_order + 1):
        values[..., n] = _vdot(vectors[n // 2], vectors[(n + 1) // 2]).real
    return values


def _analytic_rows(
    op: CompiledSum,
    vectors: list[np.ndarray],
    weights: np.ndarray,
    circuit: Circuit,
    thetas: np.ndarray,
    derivs: np.ndarray | None = None,
) -> np.ndarray:
    """``sum_n weights_n d<H^n>/d theta_k`` (B, n_params) for weights (B, N),
    as ``2 Re <d_k psi| w>`` with ``w = sum_(n >= 1) weights_n v_n``: the
    Krylov vectors ``vectors`` start at the states ``v_0``, and ``op`` applies
    the ones past them.  The derivative states ``derivs`` (B, n_params, 2**n)
    an ngd or ite iterate holds are dotted with w; otherwise the backward
    sweep carries ``psi, w``.
    """
    w, v = np.zeros_like(vectors[0]), vectors[0]
    for n in range(1, weights.shape[1]):
        # Vectors past the held ones are applied here and not kept.
        v = vectors[n] if n < len(vectors) else op.apply(v)
        w += weights[:, n, None] * v
    if derivs is None:
        return _adjoint_rows(circuit, thetas, vectors[0], w)
    return 2.0 * _vdot(derivs, w[:, None, :]).real


def _shift_rows(circuit: Circuit, thetas: np.ndarray, moments_of, width: int) -> tuple:
    """States (B, 2**n) at ``thetas``, their moments (B, width) and the
    shift-rule rows ``d m_n / d theta_k`` (B, n_params, width).

    Controlled rotations are rewritten first, and one pass of the rewritten
    circuit simulates a stack of offset blocks of B states each: block 0
    holds the unshifted offsets, so it is the states, and each later block
    one shift, +pi/2 then -pi/2 at each occurrence of k, added to one
    rotation's offset.  ``moments_of`` gives the moments (exact or sampled)
    of the stack, and a shift adds with weight ``0.5 * multiplier * sign``.
    """
    b, decomposed = len(thetas), circuit.decomposed
    _, columns, multipliers, offsets, _ = decomposed._rotations
    cols = columns.tolist()
    # A stable sort on the parameter column keeps gate order; frozen rotations drop.
    shifts = [(j, sign) for j in sorted(range(len(cols)), key=cols.__getitem__)
              if cols[j] < circuit.n_params for sign in (1.0, -1.0)]
    table = np.repeat(offsets[None], 1 + len(shifts), axis=0)
    for s, (j, sign) in enumerate(shifts, 1):
        table[s, j] += sign * math.pi / 2.0
    states = _simulate(decomposed, np.tile(thetas, (len(table), 1)), table.repeat(b, axis=0))
    values = moments_of(states)
    rows = np.zeros((b, circuit.n_params, width))
    for (j, sign), e in zip(shifts, values[b:].reshape(-1, b, width)):
        rows[:, cols[j]] += 0.5 * multipliers[j] * sign * e  # m_0 = 1: each pair cancels
    return states[:b].copy(), values[:b], rows  # a copy frees the stack on return


def _union(powers: list[PauliSum]) -> tuple[PauliSum, np.ndarray]:
    """One sum holding every string of ``powers[1:]``, first seen first, and,
    for every row of ``powers[1:]`` taken in order, the union row holding its
    string.  ``MeasurementPlan`` and ``measure.reduction_stats`` group it.

    Each string carries its largest coefficient magnitude across the powers,
    so grouping the union visits dominant strings first and a single pass of
    measurements covers every moment order.
    """
    if len(powers) < 2:
        raise ValueError("need at least the first power")
    parts = ((s.x, s.z, _abs(s.coeffs)) for s in powers[1:])
    return _merged(powers[1].n_qubits, *parts, add=np.maximum)


# Basis changes that turn X and Y readout into Z readout.
_X_TO_Z = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_Y_TO_Z = _X_TO_Z @ np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


class MeasurementPlan:
    """Grouped measurement of every string of ``powers[1:]``, built once.

    The union of the strings (``_union``) is split into G qubit-wise
    commuting groups (``pauli._qwc_rows``), which the plan keeps stacked.
    On each qubit some group reads in X or Y, in qubit order, groups that
    read the same letters on the qubits turned so far share a ``tree`` node:
    step ``(q, parent, x, y)`` continues node ``parent[i]`` as node i (the
    states are node 0 at the start), turns nodes ``x:y`` with ``_X_TO_Z`` and
    ``y:`` with ``_Y_TO_Z``, and leaves the rest (Z or no read) alone, which
    is exact.  Group g is read at node ``final[g]``.
    Each group has a readout row per order whose power has strings in it,
    ``sum_P c_P s_P`` with ``s_P`` the +-1 eigenvalue of string P on each
    basis outcome.  ``readout`` (R, 2**n) stacks the rows of every group,
    group by group, and ``readout_sq`` is its square; row r belongs to group
    ``row_group[r]``, estimates order ``row_order[r]`` and carries that
    order's identity constant ``constants[r]`` (0.0 where there is none).
    """

    def __init__(self, powers: list[PauliSum]) -> None:
        union, at = _union(powers)
        self.n_qubits = n = union.n_qubits
        self.orders = len(powers)
        idx = np.arange(1 << n)
        signs = 1.0 - 2.0 * _parity(idx)  # s_P on outcome i is signs[i & mask_P]
        # The real coefficient of each union string in each of powers[1:],
        # 0.0 where the power lacks the string.
        table = np.zeros((len(union), self.orders - 1))
        order_of = np.repeat(np.arange(self.orders - 1), [len(s) for s in powers[1:]])
        table[at, order_of] = np.concatenate([s.coeffs.real for s in powers[1:]])
        groups = _qwc_rows(union)
        self.n_groups = g = len(groups)
        support = _index_masks(union.x | union.z, n)
        # Per group and qubit, the basis read: 0 for Z (or none), 1 for X, 2 for Y.
        letters = np.zeros((g, n), dtype=int)
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
                    rows += c[:, None] * signs[idx & mask]
            xb, zb = (_bits(np.bitwise_or.reduce(m[group]), n) for m in (union.x, union.z))
            letters[gi] = xb * (1 + zb)
            row_group += [gi] * columns.size
            row_order += list(columns + 1)
            constants += list(consts)
            readout += list(rows)
        # Nodes keyed letter-major, so the X and the Y nodes of a step are runs.
        self.final, self.tree = np.zeros(g, dtype=int), []
        for q in np.flatnonzero(letters.any(axis=0)):
            keys, self.final = np.unique(letters[:, q] * g + self.final, return_inverse=True)
            self.tree.append((int(q), keys % g, *np.searchsorted(keys, [g, 2 * g]).tolist()))
        self.row_group = np.array(row_group, dtype=int)
        self.row_order = np.array(row_order, dtype=int)
        self.constants = np.array(constants, dtype=float)
        self.readout = np.array(readout, dtype=float).reshape(-1, idx.size)
        self.readout_sq = self.readout**2
        # Per order, 1 + r for its rows r in group order, zero-led and zero-padded.
        by_order = [1 + np.flatnonzero(self.row_order == k) for k in range(1, self.orders)]
        self._fold = np.array([np.pad(r, (1, max(map(len, by_order)) - r.size)) for r in by_order])


def _probabilities(amps: np.ndarray, plan: MeasurementPlan) -> np.ndarray:
    """Probabilities (nodes, B, 2**n) of ``amps`` (B, 2**n) at the tree's last nodes."""
    turned = amps[None].astype(complex, copy=False)
    for q, parent, x, y in plan.tree:
        turned = turned.take(parent, axis=0)
        for nodes, u in ((slice(x, y), _X_TO_Z), (slice(y, None), _Y_TO_Z)):
            if turned[nodes].size:
                turned[nodes] = _apply_single(turned[nodes], q, u)
    probs = np.abs(turned) ** 2
    return probs / probs.sum(axis=-1, keepdims=True)


def _check_shots(shots) -> int:
    """``shots`` as an int: an integer, not a bool, with 2 <= shots < 2**63."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if not 2 <= int(shots) < 2**63:
        raise ValueError(f"shots must be at least 2 and below 2**63, got {shots!r}")
    return int(shots)


# Rotated amplitudes per sampling block, which holds max(1, this // (G * 2**n)) states.
_BLOCK_AMPS = 1 << 16


def sampled_moments(
    amps: np.ndarray, plan: MeasurementPlan, shots: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Moment estimates with standard errors, each (S, orders), of every
    amplitude row (S, 2**n) from a shared measurement pass.

    Each group of ``plan`` is sampled once per row, ``shots`` outcomes drawn
    from the exact distribution in its rotated basis, all of row s's groups
    by one ``default_rng(seeds[s])`` call, so a row gets the bits it gets
    alone.  Every ``<H^n>`` is assembled from the same counts, so covariances
    between strings measured together propagate into the per-order standard
    errors exactly as they would on hardware.  A block of rows goes down
    ``plan.tree`` as one (nodes, rows, 2**n) stack, at most two kernels per
    turned qubit, is read out with one product, and each order's terms add
    one at a time, group by group (an accumulate).  ``shots`` must be an
    integer (not a bool) from 2 up to ``2**63 - 1``, and the rows must span
    the plan's qubits, with one seed each; anything else raises
    ``ValueError``.
    """
    shots = _check_shots(shots)
    if amps.ndim != 2 or amps.shape[1] != 1 << plan.n_qubits:
        raise ValueError(f"amplitudes {amps.shape} do not match the plan's qubit count")
    if len(seeds) != len(amps):
        raise ValueError(f"{len(amps)} states need as many seeds, got {len(seeds)}")
    values, variances = np.zeros((2, len(amps), plan.orders))
    values[:, 0] = 1.0
    size = max(1, _BLOCK_AMPS // max(1, plan.n_groups * amps.shape[-1]))
    for start in range(0, len(amps), size):
        rows = slice(start, start + size)
        probs = _probabilities(amps[rows], plan)
        # Float counts, cast as a product with the readout would cast them.
        counts = np.array([np.random.default_rng(seed).multinomial(shots, probs[plan.final, s])
                           for s, seed in enumerate(seeds[rows])], dtype=float)
        # One BLAS dot per row, the bits of a row-by-row ``counts @ row``.
        row_counts = counts[:, plan.row_group]
        mean = _vdot(plan.readout, row_counts) / shots
        second = _vdot(plan.readout_sq, row_counts) / shots
        # Per state a zero, then each readout row's constant, mean and variance.
        terms = np.zeros((len(mean), 1 + len(plan.row_order), 3))
        row_var = np.maximum(0.0, second - mean**2) * shots / (shots - 1)
        terms[:, 1:, 0], terms[:, 1:, 1], terms[:, 1:, 2] = plan.constants, mean, row_var
        # Accumulated, not summed pairwise: each order's terms add in group order.
        folded = terms.take(plan._fold, axis=1)
        values[rows, 1:] = folded[..., :2].reshape(folded.shape[:2] + (-1,)).cumsum(-1)[..., -1]
        variances[rows, 1:] = folded[..., 2].cumsum(-1)[..., -1]
        del probs, counts, row_counts  # freed before the next block's
    return values, np.sqrt(variances / shots)
