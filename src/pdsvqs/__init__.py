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
    state_derivative,
)
from .moments import MomentTable, hamiltonian_powers, moment_table, moment_gradients
from .pds import (
    ComplexRoots,
    PdsResult,
    RegPolicy,
    SingularMoments,
    VanishingDenominator,
    pds_gradient,
    pds_solve,
)
from .optim import Trajectory, metric, run, step
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
    "state_derivative",
    "MomentTable",
    "hamiltonian_powers",
    "moment_table",
    "moment_gradients",
    "ComplexRoots",
    "PdsResult",
    "RegPolicy",
    "SingularMoments",
    "VanishingDenominator",
    "pds_gradient",
    "pds_solve",
    "Trajectory",
    "metric",
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
