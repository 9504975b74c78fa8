"""Moment-functional variational quantum solver.

The package simulates parametrized circuits on a statevector, evaluates a
moment-functional ground-state energy estimate of configurable order together
with its parameter gradient from Krylov vectors of the Hamiltonian, and drives
metric-preconditioned gradient descent.  Hamiltonian powers expanded in an
exact Pauli algebra feed a measurement cost model and finite-shot emulation,
which groups the strings of every power once per run into a measurement plan;
a small CLI rounds out the library.
"""

from .pauli import PauliSum, PauliTerm, qwc_groups
from .statesim import (
    Circuit,
    Gate,
    State,
    apply_circuit,
    expectation,
    exact_eigensystem,
    fidelity,
)
from .moments import hamiltonian_powers
from .pds import ComplexRoots, RegPolicy, SingularMoments, VanishingDenominator
from .optim import Trajectory, run, step
from .models import ModelBundle, build_model, load_hamiltonian, serialize_hamiltonian
from .measure import CostReport, estimate_measurements, reduction_stats

__version__ = "0.1.0"

__all__ = [
    "PauliSum",
    "PauliTerm",
    "qwc_groups",
    "Circuit",
    "Gate",
    "State",
    "apply_circuit",
    "expectation",
    "exact_eigensystem",
    "fidelity",
    "hamiltonian_powers",
    "ComplexRoots",
    "RegPolicy",
    "SingularMoments",
    "VanishingDenominator",
    "Trajectory",
    "run",
    "step",
    "ModelBundle",
    "build_model",
    "load_hamiltonian",
    "serialize_hamiltonian",
    "CostReport",
    "estimate_measurements",
    "reduction_stats",
    "__version__",
]
