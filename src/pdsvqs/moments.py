"""Hamiltonian moments, their parameter derivatives, and shot-noise emulation.

The moment table collects ``<psi(theta)| H^n |psi(theta)>`` for n up to a
configured order.  Exact moments need only H applied to a vector: with the
Krylov vectors ``v_j = H^j psi`` of the compiled H, ``<H^n>`` is
``<v_floor(n/2)| v_ceil(n/2)>``, so orders up to ``2K - 1`` cost K
applications.  Derivative rows come either from the analytic form
``2 Re <d_k psi| v_n>``, which continues the same Krylov list to ``v_{2K-1}``,
or from the two-point rotation shift rule applied per gate occurrence;
controlled rotations are rewritten to one-qubit rotations before shifting.

Pauli expansions of the powers of H (``hamiltonian_powers``) serve the
measurement side only: the cost model and the finite-shot emulation, which
measure every string of every power.
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
    apply_circuit,
    state_derivative,
    _index_masks,
    _parity,
)

__all__ = [
    "MomentTable",
    "hamiltonian_powers",
    "moment_table",
    "moment_gradients",
    "union_of_powers",
    "sampled_expectation",
    "sampled_moments",
]


@dataclass
class MomentTable:
    """Moments ``values[n] = <H^n>`` and optional rows ``gradients[k, n]``."""

    max_order: int
    values: np.ndarray
    gradients: np.ndarray | None = None


def hamiltonian_powers(
    h: PauliSum, max_order: int, drop_tol: float = 1e-12, max_power: int = 12
) -> list[PauliSum]:
    """Pauli expansions of ``h**n`` for ``n = 0 .. max_order``."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    powers = [PauliSum.identity(h.n_qubits)]
    base = h.simplify(drop_tol)
    if not base.is_hermitian():
        raise ValueError("moment powers require a Hermitian operator")
    if max_order > max_power:
        raise ValueError(f"max_order {max_order} exceeds the power cap {max_power}")
    for _ in range(max_order):
        powers.append((powers[-1] * base).simplify(drop_tol))
    return powers


def _operator(h: PauliSum | None, max_order: int | None) -> CompiledSum:
    """Compiled ``h`` for the exact moments, after the argument checks."""
    if h is None or max_order is None:
        raise ValueError("need both h and max_order")
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if not h.is_hermitian():
        raise ValueError("moments require a Hermitian operator")
    return CompiledSum(h)


class _Krylov:
    """Krylov vectors ``v_j = H^j psi`` of one state, each applied on first use."""

    def __init__(self, op: CompiledSum, amps: np.ndarray) -> None:
        self.op = op
        self.vectors = [amps]

    def __getitem__(self, j: int) -> np.ndarray:
        while len(self.vectors) <= j:
            self.vectors.append(self.op.apply(self.vectors[-1]))
        return self.vectors[j]


def _values_from_state(krylov: _Krylov, max_order: int) -> np.ndarray:
    # <H^n> = <v_floor(n/2) | v_ceil(n/2)>, so order 2K-1 needs K applications.
    values = np.empty(max_order + 1)
    values[0] = 1.0
    for n in range(1, max_order + 1):
        values[n] = np.vdot(krylov[n // 2], krylov[(n + 1) // 2]).real
    return values


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
    state = apply_circuit(circuit, np.asarray(theta, dtype=float))
    return MomentTable(
        max_order, _values_from_state(_Krylov(op, state.amplitudes), max_order)
    )


def _analytic_rows(
    krylov: _Krylov, derivs: list[np.ndarray], max_order: int
) -> np.ndarray:
    rows = np.zeros((len(derivs), max_order + 1))
    for n in range(1, max_order + 1):
        v = krylov[n]
        for k, d in enumerate(derivs):
            rows[k, n] = 2.0 * np.vdot(d, v).real
    return rows


def _shift_rows(
    circuit: Circuit, theta: np.ndarray, op: CompiledSum, max_order: int
) -> np.ndarray:
    decomposed = circuit.decompose_controlled()
    rows = np.zeros((circuit.n_params, max_order + 1))
    for k in range(circuit.n_params):
        for pos, mult in decomposed.occurrences(k):
            plus = decomposed.with_offset_shift(pos, math.pi / 2.0)
            minus = decomposed.with_offset_shift(pos, -math.pi / 2.0)
            v_plus = _values_from_state(
                _Krylov(op, apply_circuit(plus, theta).amplitudes), max_order
            )
            v_minus = _values_from_state(
                _Krylov(op, apply_circuit(minus, theta).amplitudes), max_order
            )
            rows[k] += 0.5 * mult * (v_plus - v_minus)
    rows[:, 0] = 0.0
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
    theta = np.asarray(theta, dtype=float)
    op = _operator(h, max_order)
    if method == "analytic":
        amps = apply_circuit(circuit, theta).amplitudes
        derivs = [
            state_derivative(circuit, theta, k).amplitudes
            for k in range(circuit.n_params)
        ]
        return _analytic_rows(_Krylov(op, amps), derivs, max_order)
    if method == "shift":
        return _shift_rows(circuit, theta, op, max_order)
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
        for term in s.terms():
            key = term.key
            weights[key] = max(weights.get(key, 0.0), abs(term.coefficient))
    return PauliSum(n, {k: complex(w) for k, w in weights.items()})


def _group_basis(group: list[PauliTerm], n_qubits: int) -> list[str]:
    letters = ["I"] * n_qubits
    for term in group:
        for q in range(n_qubits):
            x = (term.x_mask >> q) & 1
            z = (term.z_mask >> q) & 1
            if (x, z) == (0, 0):
                continue
            letter = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(x, z)]
            if letters[q] not in ("I", letter):
                raise ValueError("group is not qubit-wise commuting")
            letters[q] = letter
    return letters


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_SDG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


def _rotated_probabilities(amps: np.ndarray, letters: list[str]) -> np.ndarray:
    n = len(letters)
    work = amps
    for q, letter in enumerate(letters):
        if letter == "X":
            u = _HADAMARD
        elif letter == "Y":
            u = _HADAMARD @ _SDG
        else:
            continue
        block = work.reshape(1 << q, 2, -1)
        work = np.einsum("ab,xbz->xaz", u, block).reshape(-1)
    probs = np.abs(work) ** 2
    return probs / probs.sum()


def _term_signs(term: PauliTerm, n: int, idx: np.ndarray) -> np.ndarray:
    support_idx, _ = _index_masks(
        term.x_mask | term.z_mask, 0, n
    )
    return 1.0 - 2.0 * _parity(idx & support_idx)


def _sample_group_counts(
    amps: np.ndarray, group: list[PauliTerm], shots: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[str]]:
    n = int(round(math.log2(amps.size)))
    letters = _group_basis(group, n)
    probs = _rotated_probabilities(amps, letters)
    counts = rng.multinomial(shots, probs)
    return counts, letters


def sampled_expectation(
    state: State, groups: list[list[PauliTerm]], shots: int, seed: int = 0
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Estimate every grouped term from simulated projective measurements.

    Each group is rotated into its shared product basis, ``shots`` bitstrings
    are drawn from the exact outcome distribution with a seed derived from
    (seed, group index), and member expectations are reconstructed from the
    outcome counts.  Returns per-term estimates and standard errors keyed by
    the term's mask pair.
    """
    if shots < 2:
        raise ValueError("need at least two shots for a standard error")
    amps = state.amplitudes
    n = state.n_qubits
    idx = np.arange(amps.size)
    estimates: dict[tuple[int, int], float] = {}
    errors: dict[tuple[int, int], float] = {}
    for gi, group in enumerate(groups):
        rng = np.random.default_rng(np.random.SeedSequence([seed, gi]))
        counts, _ = _sample_group_counts(amps, group, shots, rng)
        for term in group:
            if term.is_identity():
                estimates[term.key] = 1.0
                errors[term.key] = 0.0
                continue
            signs = _term_signs(term, n, idx)
            mean = float(counts @ signs) / shots
            var = max(0.0, (float(counts @ signs**2) - shots * mean**2)) / (
                shots - 1
            )
            estimates[term.key] = mean
            errors[term.key] = math.sqrt(var / shots)
    return estimates, errors


def sampled_moments(
    state: State,
    powers: list[PauliSum],
    shots: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Moment estimates with standard errors from a shared measurement pass.

    The union of all strings over the given powers is grouped once; each group
    is sampled once and every ``<H^n>`` is assembled from the same counts, so
    covariances between strings measured together propagate into the per-order
    standard errors exactly as they would on hardware.
    """
    if shots < 2:
        raise ValueError("need at least two shots for a standard error")
    amps = state.amplitudes
    n = state.n_qubits
    idx = np.arange(amps.size)
    groups = qwc_groups(union_of_powers(powers))
    orders = len(powers)
    values = np.zeros(orders)
    variances = np.zeros(orders)
    values[0] = 1.0
    coeff_maps = [
        {t.key: t.coefficient.real for t in s.terms()} for s in powers
    ]
    for gi, group in enumerate(groups):
        rng = np.random.default_rng(np.random.SeedSequence([seed, gi]))
        counts, _ = _sample_group_counts(amps, group, shots, rng)
        sign_rows = {
            term.key: _term_signs(term, n, idx)
            for term in group
            if not term.is_identity()
        }
        for order in range(1, orders):
            cmap = coeff_maps[order]
            row = np.zeros(amps.size)
            active = False
            for term in group:
                c = cmap.get(term.key)
                if c is None:
                    continue
                if term.is_identity():
                    values[order] += c
                    continue
                row += c * sign_rows[term.key]
                active = True
            if not active:
                continue
            mean = float(counts @ row) / shots
            second = float(counts @ row**2) / shots
            values[order] += mean
            variances[order] += max(0.0, second - mean**2) * shots / (shots - 1)
    return values, np.sqrt(variances / shots)
