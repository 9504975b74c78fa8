"""Built-in benchmark models and Hamiltonian file I/O.

Four models ship with the package:

``toy_a``
    ``1.5 II + 0.5 IZ - ZZ`` (diagonal ``(1, 2, 3, 0)``) with the two-qubit
    ansatz ``CRY(0->1; t2) RX(0; t1) |00>``.  The plain energy expectation
    has a local minimum at the origin of parameter space.

``toy_b``
    ``II + 0.5 IZ - 0.5 ZZ`` (diagonal ``(1, 1, 2, 0)``) with
    ``CRY(0->1; t2) RX(0; t1) RX(1; t1) |01>``; both RX gates share one
    parameter, and the energy expectation has local minima near
    ``(+-3 pi / 8, 0)``.

``h2``
    The two-qubit effective molecular Hamiltonian
    ``0.4 (ZI + IZ) + 0.2 XX`` with ground energy ``-sqrt(0.68)`` and the
    doubled-angle RY/CNOT/RY ansatz started at ``(7 pi/32, pi/2, 0, 0)``,
    where the trial state has (numerically) zero ground-state overlap.
    The Hamiltonian leaves ``span{|01>, |10>}`` invariant and the start
    lies in that span, so every moment derivative ``<d psi|H^n|psi>``
    vanishes there: the start is a stationary point of every moment
    functional.  Descent leaves it only through rounding, seeded by the
    6.1e-17 residue of ``cos(pi/2)`` in the doubled-angle ``RY(pi)``.  Where
    the run then lands on the set of two-level states, and hence its
    ground-state fidelity, is therefore not a property of the model.

``heisenberg``
    The four-site spin model ``J sum_bonds (XX + YY + ZZ) + B sum Z`` on the
    open 2 x 2 plaquette (bonds 0-1, 2-3, 0-2, 1-3), J = 0.1, B = 1.0, exact
    ground energy -3.6 on the fully flipped product state (magnetization -4).
    The published circuit for this system is not reproducible from available
    material, so the model ships a documented substitute: one RY rotation per
    qubit with angles ``(theta, 0, 3, 3)`` (only the first variational) and a
    single entangling ``CNOT(0->1)``.  The CNOT carries the frozen RY(0)
    qubit along with the variational one; at the optimum near
    ``theta = +-pi`` the trial state overlaps the exact ground state with
    fidelity about 0.99.  A full entangling ring was rejected because every
    ring ordering knocks one of the frozen nearly flipped qubits back towards
    ``|0>``, capping the reachable fidelity far below that.

User-supplied Hamiltonians use the text format of :meth:`PauliSum.from_text`
and pair with the generic hardware-efficient ansatz.

A :class:`ModelBundle` holds a problem: the Hamiltonian, its ansatz and the
run defaults.  Its exact reference (ground energy and ground basis) is
diagonalized on first read, never when the bundle is built, so commands that
only expand or group H (``reduce``, ``estimate``) do no exact solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .pauli import PauliSum
from .statesim import Circuit, Gate, exact_eigensystem

__all__ = [
    "ModelBundle",
    "MODEL_NAMES",
    "build_model",
    "hardware_efficient_ansatz",
    "load_hamiltonian",
    "serialize_hamiltonian",
]

MODEL_NAMES = ("toy_a", "toy_b", "h2", "heisenberg")


@dataclass
class ModelBundle:
    """A Hamiltonian, its ansatz and run defaults: the problem ``run`` solves.

    Nothing is diagonalized when a bundle is made.  The first read of
    ``eigensystem``, ``reference_energy`` or ``ground_basis`` computes
    ``exact_eigensystem(hamiltonian)`` and keeps it; the run defaults may be
    set in place, which keeps it too (``dataclasses.replace`` would not).
    """

    name: str
    hamiltonian: PauliSum
    circuit: Circuit
    theta0: np.ndarray
    eta: float
    schedule: str

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and an orthonormal ground-space basis."""
        return exact_eigensystem(self.hamiltonian)

    @property
    def reference_energy(self) -> float:
        return float(self.eigensystem[0][0])

    @property
    def ground_basis(self) -> np.ndarray:
        return self.eigensystem[1]


def _heisenberg_sum(j: float, b: float) -> PauliSum:
    bonds = [(0, 1), (2, 3), (0, 2), (1, 3)]
    terms = []
    for k in range(4):
        label = ["I"] * 4
        label[k] = "Z"
        terms.append((b, "".join(label)))
    for i, k in bonds:
        for letter in ("X", "Y", "Z"):
            label = ["I"] * 4
            label[i] = letter
            label[k] = letter
            terms.append((j, "".join(label)))
    return PauliSum.from_terms(terms)


def build_model(name: str, **options) -> ModelBundle:
    """Construct a built-in model; options override model constants.

    ``heisenberg`` accepts ``j`` and ``b``; other models take no options.
    """
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    defaults = {"j": 0.1, "b": 1.0} if name == "heisenberg" else {}
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise ValueError(f"{name} options are {', '.join(defaults) or 'none'}; got {unknown}")
    options = {**defaults, **options}
    theta0, eta, schedule = (0.1, 0.1), 0.05, "constant"
    if name == "toy_a":
        h = PauliSum.from_terms([(1.5, "II"), (0.5, "IZ"), (-1.0, "ZZ")])
        circuit = Circuit(
            n_qubits=2,
            n_params=2,
            gates=(
                Gate("rx", 0, param=0),
                Gate("cry", 1, control=0, param=1),
            ),
            initial_bits="00",
        )
    elif name == "toy_b":
        h = PauliSum.from_terms([(1.0, "II"), (0.5, "IZ"), (-0.5, "ZZ")])
        circuit = Circuit(
            n_qubits=2,
            n_params=2,
            gates=(
                Gate("rx", 1, param=0),
                Gate("rx", 0, param=0),
                Gate("cry", 1, control=0, param=1),
            ),
            initial_bits="01",
        )
    elif name == "h2":
        h = PauliSum.from_terms([(0.4, "ZI"), (0.4, "IZ"), (0.2, "XX")])
        circuit = Circuit(
            n_qubits=2,
            n_params=4,
            gates=(
                Gate("ry", 1, param=1, multiplier=2.0),
                Gate("ry", 0, param=0, multiplier=2.0),
                Gate("cnot", 1, control=0),
                Gate("ry", 1, param=3, multiplier=2.0),
                Gate("ry", 0, param=2, multiplier=2.0),
            ),
            initial_bits="00",
        )
        theta0 = (7.0 * math.pi / 32.0, math.pi / 2.0, 0.0, 0.0)
    else:
        h = _heisenberg_sum(float(options["j"]), float(options["b"]))
        circuit = Circuit(
            n_qubits=4,
            n_params=1,
            gates=(
                Gate("ry", 0, param=0),
                Gate("ry", 1, offset=0.0),
                Gate("ry", 2, offset=3.0),
                Gate("ry", 3, offset=3.0),
                Gate("cnot", 1, control=0),
            ),
            initial_bits="0000",
        )
        theta0, eta, schedule = (-3.0,), 1.0, "inv_iter"
    return ModelBundle(name, h, circuit, np.array(theta0, dtype=float), eta, schedule)


def hardware_efficient_ansatz(n_qubits: int, layers: int = 1) -> Circuit:
    """RY layers separated by CNOT chains, one parameter per rotation."""
    if n_qubits < 1 or layers < 1:
        raise ValueError("need at least one qubit and one layer")
    gates: list[Gate] = []
    param = 0
    for layer in range(layers):
        for q in range(n_qubits):
            gates.append(Gate("ry", q, param=param))
            param += 1
        if n_qubits > 1:
            for q in range(n_qubits - 1):
                gates.append(Gate("cnot", q + 1, control=q))
    return Circuit(n_qubits=n_qubits, n_params=param, gates=tuple(gates))


def load_hamiltonian(path: str | Path) -> PauliSum:
    """Read a Hamiltonian from a text file, reporting the file on errors."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read Hamiltonian file {path}: {exc}") from None
    try:
        return PauliSum.from_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def serialize_hamiltonian(s: PauliSum, path: str | Path | None = None) -> str:
    """Write the canonical text form, optionally to a file, and return it."""
    text = s.to_text()
    if path is not None:
        Path(path).write_text(text)
    return text
