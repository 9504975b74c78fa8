"""Statevector simulation of parametrized circuits.

Basis convention: qubit 0 is the leftmost tensor factor and therefore the most
significant bit of the basis index, so ``|01>`` on two qubits is index 1 with
qubit 0 in ``|0>``.  Rotation gates use the half-angle convention
``R_s(a) = exp(-i a s / 2)``; a gate bound to parameter k realizes the angle
``multiplier * theta[k] + offset``, which also encodes frozen rotations
(no parameter, fixed offset).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .pauli import _PHASES, PauliSum, _bits, _cmul, _label_order, _popcount

__all__ = [
    "Gate",
    "Circuit",
    "State",
    "apply_circuit",
    "CompiledSum",
    "exact_eigensystem",
]

_ROTATION_KINDS = ("rx", "ry", "rz", "cry")
_FIXED_KINDS = ("x", "cnot")

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I = np.eye(2)
_GENERATORS = {"rx": _X, "ry": _Y, "rz": _Z, "cry": _Y}


@dataclass(frozen=True)
class Gate:
    """One circuit element; ``param`` is None for fixed gates."""

    kind: str
    target: int
    control: int | None = None
    param: int | None = None
    multiplier: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class Circuit:
    """Gate list in application order plus the initial basis state.  A gate
    that does not fit the register or the parameters, or whose multiplier or
    offset is not finite, raises ``ValueError``."""

    n_qubits: int
    n_params: int
    gates: tuple[Gate, ...]
    initial_bits: str = ""

    def __post_init__(self) -> None:
        if not self.initial_bits:
            object.__setattr__(self, "initial_bits", "0" * self.n_qubits)
        if len(self.initial_bits) != self.n_qubits or set(self.initial_bits) - {"0", "1"}:
            raise ValueError("initial_bits must be a 0/1 string of length n_qubits")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            if g.kind not in _ROTATION_KINDS + _FIXED_KINDS:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            if not 0 <= g.target < self.n_qubits:
                raise ValueError("gate target out of range")
            needs_control = g.kind in ("cnot", "cry")
            if needs_control:
                if g.control is None or not 0 <= g.control < self.n_qubits:
                    raise ValueError(f"{g.kind} needs a valid control qubit")
                if g.control == g.target:
                    raise ValueError("control and target must differ")
            elif g.control is not None:
                raise ValueError(f"{g.kind} takes no control qubit")
            if g.kind in _FIXED_KINDS and g.param is not None:
                raise ValueError(f"{g.kind} is not parametrized")
            if g.param is not None and not 0 <= g.param < self.n_params:
                raise ValueError("gate parameter index out of range")
            if not (math.isfinite(g.multiplier) and math.isfinite(g.offset)):
                raise ValueError(f"gate {i}: multiplier {g.multiplier!r} and offset "
                                 f"{g.offset!r} must be finite")

    @functools.cached_property
    def _rotations(self) -> tuple:
        """Positions, parameter columns (``n_params`` for a frozen rotation),
        multipliers, offsets and generators of the rotation gates."""
        rotations = [(pos, g) for pos, g in enumerate(self.gates) if g.kind in _ROTATION_KINDS]
        frozen = self.n_params
        return (
            [pos for pos, _ in rotations],
            np.array([frozen if g.param is None else g.param for _, g in rotations], dtype=int),
            np.array([0.0 if g.param is None else g.multiplier for _, g in rotations]),
            np.array([g.offset for _, g in rotations]),
            np.array([_GENERATORS[g.kind] for _, g in rotations]).reshape(-1, 2, 2),
        )

    @functools.cached_property
    def decomposed(self) -> "Circuit":
        """The circuit with controlled rotations rewritten into one-qubit
        rotations plus CNOTs, built once.

        ``CRY(a)`` on (control c, target t) becomes ``CNOT(c,t)``,
        ``RY_t(-a/2)``, ``CNOT(c,t)``, ``RY_t(a/2)`` in application order; the
        two half-rotations inherit the parameter binding with halved
        multipliers, which is what the shift rule differentiates.
        """
        gates: list[Gate] = []
        for g in self.gates:
            if g.kind != "cry":
                gates.append(g)
                continue
            half = Gate(
                "ry",
                g.target,
                param=g.param,
                multiplier=g.multiplier / 2.0,
                offset=g.offset / 2.0,
            )
            neg = replace(half, multiplier=-half.multiplier, offset=-half.offset)
            gates.extend(
                [
                    Gate("cnot", g.target, control=g.control),
                    neg,
                    Gate("cnot", g.target, control=g.control),
                    half,
                ]
            )
        return replace(self, gates=tuple(gates))


@dataclass
class State:
    """Complex amplitudes over the computational basis."""

    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return int(round(math.log2(self.amplitudes.size)))


# The gate kernels act on amplitudes of shape (..., 2**n), split from the
# trailing end, so every leading axis folds into the first einsum axis; ``u``
# is one (2, 2) matrix or one per row, (B, 2, 2), whose row axis then leads
# the amplitudes.  The einsum subscripts are spelled out per ``u.ndim``: an
# ellipsis costs time on every call.
_SINGLE = {2: "ab,xbz->xaz", 3: "wab,wxbz->wxaz"}
_CONTROL_LOW = {2: "ab,xybz->xyaz", 3: "wab,wxybz->wxyaz"}
_CONTROL_HIGH = {2: "ab,xbyz->xayz", 3: "wab,wxbyz->wxayz"}


def _apply_single(amps: np.ndarray, target: int, u: np.ndarray) -> np.ndarray:
    block = amps.reshape(u.shape[:-2] + (-1, 2, amps.shape[-1] >> (target + 1)))
    return np.einsum(_SINGLE[u.ndim], u, block).reshape(amps.shape)


def _apply_controlled(
    amps: np.ndarray, control: int, target: int, u: np.ndarray
) -> np.ndarray:
    """Apply ``u`` to ``target`` where ``control`` is 1 and return the result.

    The update is in place when the kernel's reshape of ``amps`` is a view;
    otherwise it acts on a copy, so callers keep the return value.
    """
    lo, hi = sorted((control, target))
    view = amps.reshape(
        u.shape[:-2] + (-1, 2, 1 << (hi - lo - 1), 2, amps.shape[-1] >> (hi + 1))
    )
    if control == lo:
        sub = view[..., 1, :, :, :]
        sub[...] = np.einsum(_CONTROL_LOW[u.ndim], u, sub)
    else:
        sub = view[..., 1, :]
        sub[...] = np.einsum(_CONTROL_HIGH[u.ndim], u, sub)
    return view.reshape(amps.shape)


def _gate_matrices(circuit: Circuit, thetas: np.ndarray, offsets=None) -> list:
    """Every gate's matrix at the rows of ``thetas`` (B, n_params): (B, 2, 2)
    for a rotation, one shared X otherwise.

    All rotation angles come from one product: column ``n_params`` of the
    padded parameters reads 0, so a frozen rotation's angle is its offset.
    ``R(a) = cos(a/2) I - i sin(a/2) G`` for the generator G.  ``offsets``,
    one row per state (B, rotations) or one for all, replaces the rotations'
    offsets in ``circuit._rotations`` order.
    """
    positions, columns, multipliers, own, generators = circuit._rotations
    padded = np.concatenate([thetas, np.zeros((len(thetas), 1))], axis=1)
    half = (padded[:, columns] * multipliers + (own if offsets is None else offsets)) / 2.0
    u = np.cos(half)[..., None, None] * _I - (1j * np.sin(half))[..., None, None] * generators
    matrices = [_X] * len(circuit.gates)
    for j, pos in enumerate(positions):
        matrices[pos] = u[:, j]
    return matrices


def _apply_gate(amps: np.ndarray, gate: Gate, u: np.ndarray) -> np.ndarray:
    if gate.control is None:
        return _apply_single(amps, gate.target, u)
    return _apply_controlled(amps, gate.control, gate.target, u)


def _simulate(circuit: Circuit, thetas: np.ndarray, offsets=None) -> np.ndarray:
    """Final amplitudes, shape (B, 2**n), at each row of ``thetas`` (B, n_params),
    with the rotation offsets ``_gate_matrices`` takes."""
    amps = np.zeros((len(thetas), 1 << circuit.n_qubits), dtype=complex)
    amps[:, int(circuit.initial_bits, 2)] = 1.0
    for gate, u in zip(circuit.gates, _gate_matrices(circuit, thetas, offsets)):
        amps = _apply_gate(amps, gate, u)
    return amps


def apply_circuit(circuit: Circuit, theta: np.ndarray) -> State:
    """Run the circuit on its initial basis state and return the final state."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(
            f"expected {circuit.n_params} parameters, got shape {theta.shape}"
        )
    return State(_simulate(circuit, theta[None])[0])


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``<a|b>`` over the last axis, broadcast over the leading ones.

    Each product is one BLAS dot, so a row gets exactly the bits ``np.vdot``
    gives it, whatever the stacking.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _index_masks(words: np.ndarray, n: int) -> np.ndarray:
    """Basis-index masks (T,) of (T, W) words: qubit q is index bit n-1-q."""
    return _bits(words, n).astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))


def _parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of non-negative integers, folding every bit of their dtype."""
    v = np.array(values)
    shift = v.dtype.itemsize * 4
    while shift:
        v ^= v >> shift
        shift //= 2
    return v & 1


class CompiledSum:
    """A Pauli sum as (flip index, diagonal) pairs, one pair per X-mask.

    A string with X-mask ``x`` sends basis index ``i ^ x`` to ``i`` with a
    phase that depends only on ``i``, so all strings sharing ``x`` add into
    one complex diagonal ``d_x`` and the sum acts as
    ``out[i] = sum_x d_x[i] * amps[i ^ x]``: one gather and one multiply per
    distinct X-mask, however many strings share it.  The diagonal pair
    (``x = 0``) carries no flip index.
    """

    def __init__(self, s: PauliSum) -> None:
        n = s.n_qubits
        self.n_qubits = n
        idx = np.arange(1 << n)
        # Strings in label order, so a diagonal's sum does not depend on the
        # storage order; i^(x z) turns each X^x Z^z into its letters.
        order = _label_order(s)
        x, z = s.x[order], s.z[order]
        weights = _cmul(s.coeffs[order], _PHASES[_popcount(x & z) & 3])
        diagonals: dict[int, np.ndarray] = {}
        for x_idx, z_idx, w in zip(
            _index_masks(x, n).tolist(), _index_masks(z, n).tolist(), weights.tolist()
        ):
            signs = 1.0 - 2.0 * _parity((idx ^ x_idx) & z_idx)
            if x_idx not in diagonals:
                diagonals[x_idx] = np.zeros(idx.size, dtype=complex)
            diagonals[x_idx] += w * signs
        self.pairs = [
            (None if x_idx == 0 else idx ^ x_idx, diag)
            for x_idx, diag in sorted(diagonals.items())
        ]

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Return the sum applied to amplitude rows of shape (..., 2**n)."""
        if amps.shape[-1] != 1 << self.n_qubits:
            raise ValueError("state size does not match operator register")
        out = np.zeros(amps.shape, dtype=complex)
        for flip, diag in self.pairs:
            out += diag * (amps if flip is None else amps[..., flip])
        return out


# One slot serves a command that diagonalizes H and then takes its moments,
# and callers that evaluate many points of one H.
@functools.lru_cache(maxsize=1)
def _compiled(s: PauliSum) -> CompiledSum:
    """``CompiledSum(s)``, reused when the same sum object comes back: a sum's
    arrays are read-only, so it cannot have changed, and a sum hashes by its
    identity.  Any other sum is compiled anew."""
    return CompiledSum(s)


def _derivative_states(circuit: Circuit, thetas: np.ndarray) -> np.ndarray:
    """Circuit states and all derivative states from one forward walk.

    Returns shape (B, 1 + n_params, 2**n): row 0 is the state at each row of
    ``thetas`` and row 1 + k its derivative in parameter k.  Right after a
    gate bound to k, ``-(i * multiplier / 2) G psi`` joins row 1 + k; every
    later gate then acts on all rows reached so far, which applies the product
    rule for a parameter shared by several gates.  Rows not yet reached are
    zero and skipped.
    """
    stack = np.zeros(
        (len(thetas), 1 + circuit.n_params, 1 << circuit.n_qubits), dtype=complex
    )
    stack[:, 0, int(circuit.initial_bits, 2)] = 1.0
    live = 1
    for gate, u in zip(circuit.gates, _gate_matrices(circuit, thetas)):
        stack[:, :live] = _apply_gate(stack[:, :live], gate, u)
        if gate.param is None:
            continue
        stack[:, 1 + gate.param] += (-0.5j * gate.multiplier) * _generated(stack[:, 0], gate)
        live = max(live, 2 + gate.param)
    return stack


def _generated(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """``G amps`` (B, 2**n) for the generator G of a bound gate; for CRY the
    projector-controlled generator, which zeroes the control-0 half."""
    gen = _apply_single(amps, gate.target, _GENERATORS[gate.kind])
    if gate.kind == "cry":
        half = gen.reshape(-1, 2, gen.shape[-1] >> (gate.control + 1))
        half[:, 0] = 0.0
        gen = half.reshape(gen.shape)
    return gen


def _adjoint_rows(circuit: Circuit, thetas: np.ndarray, amps, w) -> np.ndarray:
    """Gradient ``2 Re <d_k psi| w>`` (B, n_params) of the circuit states
    ``amps`` (B, 2**n) at ``thetas`` against one vector ``w`` per row, from
    one backward sweep that builds no derivative state.

    The sweep undoes the gates in reverse on the stack ``[psi, w]`` (Jones &
    Gacon, arXiv:2009.02823): just before gate g is undone it holds psi_g,
    the state right after g, and ``lambda = U_{>g}^H w``.  The derivative of
    psi in g's angle is ``U_{>g} (-(i mult / 2) G psi_g)``, so g adds
    ``2 Re((i mult / 2) <G psi_g| lambda>)`` to its parameter's entry, each
    gate of a shared parameter in turn.  It holds two vectors per row, where
    the walk holds 1 + n_params.
    """
    grad = np.zeros((len(thetas), circuit.n_params))
    stack = np.stack([amps, w], axis=1)
    matrices = _gate_matrices(circuit, thetas)
    for gate, u in zip(reversed(circuit.gates), reversed(matrices)):
        if gate.param is not None:
            dots = _vdot(_generated(stack[:, 0], gate), stack[:, 1])
            # 2 Re((i mult / 2) z) = -mult Im z
            grad[:, gate.param] -= gate.multiplier * dots.imag
        stack = _apply_gate(stack, gate, np.conj(np.swapaxes(u, -1, -2)))
    return grad


def _basis_adjoint(basis: np.ndarray, dim: int) -> np.ndarray:
    """Conjugate transpose of orthonormal ``dim``-vectors given as columns or rows."""
    basis = np.atleast_2d(np.asarray(basis, dtype=complex))
    if basis.shape[0] != dim:
        basis = basis.T
    if basis.shape[0] != dim:
        raise ValueError("basis dimension does not match the state")
    adjoint = basis.conj().T
    if not np.allclose(adjoint @ basis, np.eye(basis.shape[1]), atol=1e-8):
        raise ValueError("basis columns are not orthonormal")
    return adjoint


# Relative spread of the eigenvalues ``exact_eigensystem`` counts as ground.
_GROUND_TOL = 1e-9


def exact_eigensystem(s: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and an orthonormal ground-space basis.

    The nonzero entries ``H[i, i ^ x] = d_x[i]`` of the compiled pairs link
    basis indices into blocks (an irreducible sum is one block); the blocks of
    each size go through one stacked symmetric solve, the real one when no
    entry is imaginary.  It reads one triangle, which for real coefficients
    is exact: ``d_x[i ^ x]`` adds the conjugates of ``d_x[i]``'s terms in the
    same order.  The ground space is every eigenvector within
    ``_GROUND_TOL * max(1, max |eigenvalue|)`` of the lowest eigenvalue.
    """
    if not s.is_hermitian():
        raise ValueError("eigensystem requires a Hermitian operator")
    idx = np.arange(1 << s.n_qubits)
    pairs = _compiled(s).pairs or [(None, np.zeros(idx.size))]  # the zero sum
    flips = np.array([idx if flip is None else flip for flip, _ in pairs], dtype=int)
    diags = np.array([diag for _, diag in pairs], dtype=complex).reshape(-1, idx.size)
    term, rows = np.nonzero(diags)
    cols, vals = flips[term, rows], diags[term, rows]
    vals = vals if vals.imag.any() else vals.real
    # Each index takes the least label over its links, then its label's label,
    # until no label moves: every block ends labelled by its least index.
    label, previous = idx, None
    while not np.array_equal(label, previous):
        previous, label = label, label.copy()
        np.minimum.at(label, rows, previous[cols])
        label = label[label]
    order = np.argsort(label, kind="stable")  # block by block, each ascending
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=idx.size)
    row_size = np.bincount(label)[label[rows]]  # each entry's block size
    place, found = np.empty_like(idx), []
    for m in sorted(set(sizes.tolist())):
        members = order[starts[sizes == m][:, None] + np.arange(m)]
        # Member k of block b is row b * m + k of the stack seen as (-1, m).
        place[members] = np.arange(members.size).reshape(members.shape)
        mine = row_size == m
        stack = np.zeros(members.size * m, dtype=vals.dtype)
        stack[place[rows[mine]] * m + place[cols[mine]] % m] += vals[mine]
        found.append((members, *np.linalg.eigh(stack.reshape(-1, m, m))))
    eigenvalues = np.sort(np.concatenate([w.ravel() for _, w, _ in found]))
    tol = _GROUND_TOL * max(1.0, np.abs(eigenvalues[[0, -1]]).max())
    columns = []
    for members, w, v in found:
        j, c = np.nonzero(np.abs(w - eigenvalues[0]) <= tol)
        column = np.zeros((idx.size, len(j)), dtype=v.dtype)
        column[members[j].T, np.arange(len(j))] = v[j, :, c].T
        columns.append(column)
    return eigenvalues, np.concatenate(columns, axis=1)
