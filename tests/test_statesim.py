"""Statevector simulator against independently built dense unitaries."""

import numpy as np
import pytest
from pytest import approx

from helpers import (
    chain_pairs,
    dense_circuit_matrix,
    dense_circuit_state,
    dense_from_pairs,
    random_pairs,
    random_state_vector,
)
from pdsvqs.pauli import PauliSum
from pdsvqs.statesim import (
    Circuit,
    CompiledSum,
    Gate,
    State,
    apply_circuit,
    dense_matrix,
    exact_eigensystem,
    expectation,
    fidelity,
)
from pdsvqs import statesim
from pdsvqs.models import build_model, hardware_efficient_ansatz
from pdsvqs.statesim import _derivative_states, _parity, _simulate


def random_circuit(rng, n_qubits, n_gates, n_params):
    """A random mix of rotations, controlled rotations, CNOT and X gates."""
    kinds = ["rx", "ry", "rz", "x"]
    if n_qubits > 1:
        kinds += ["cry", "cnot"]
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        target = int(rng.integers(n_qubits))
        control = None
        if kind in ("cry", "cnot"):
            control = int(rng.integers(n_qubits - 1))
            if control >= target:
                control += 1
        if kind in ("cnot", "x"):
            gates.append(Gate(kind, target, control=control))
        else:
            gates.append(
                Gate(
                    kind,
                    target,
                    control=control,
                    param=int(rng.integers(n_params)),
                    multiplier=float(rng.choice([1.0, 2.0, -1.0])),
                    offset=float(rng.normal()),
                )
            )
    bits = "".join(rng.choice(["0", "1"]) for _ in range(n_qubits))
    return Circuit(n_qubits=n_qubits, n_params=n_params, gates=tuple(gates), initial_bits=bits)


class TestCircuitValidation:
    def test_initial_bits_default(self):
        c = Circuit(n_qubits=3, n_params=0, gates=())
        assert c.initial_bits == "000"

    def test_bad_initial_bits(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="012")

    def test_unknown_gate_kind(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, n_params=0, gates=(Gate("h", 0),))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, n_params=0, gates=(Gate("x", 1),))

    def test_control_rules(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, n_params=0, gates=(Gate("cnot", 0),))
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, n_params=0, gates=(Gate("cnot", 0, control=0),))
        with pytest.raises(ValueError):
            Circuit(n_qubits=2, n_params=0, gates=(Gate("x", 0, control=1),))

    def test_param_rules(self):
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, n_params=1, gates=(Gate("x", 0, param=0),))
        with pytest.raises(ValueError):
            Circuit(n_qubits=1, n_params=1, gates=(Gate("ry", 0, param=1),))

    def test_occurrences(self):
        c = Circuit(
            n_qubits=2,
            n_params=1,
            gates=(
                Gate("ry", 0, param=0, multiplier=2.0),
                Gate("ry", 1, param=0),
                Gate("cnot", 1, control=0),
            ),
        )
        assert c.occurrences(0) == [(0, 2.0), (1, 1.0)]


class TestApplyCircuit:
    def test_empty_circuit_is_initial_state(self):
        c = Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="01")
        amps = apply_circuit(c, np.array([])).amplitudes
        # |01> has qubit 0 (leftmost, most significant bit) in |0>
        assert amps[1] == approx(1.0)
        assert np.count_nonzero(amps) == 1

    @pytest.mark.parametrize("kind", ["rx", "ry", "rz"])
    def test_single_rotation_matches_dense(self, kind):
        c = Circuit(n_qubits=1, n_params=1, gates=(Gate(kind, 0, param=0),))
        theta = np.array([0.731])
        amps = apply_circuit(c, theta).amplitudes
        assert np.allclose(amps, dense_circuit_state(c, theta), atol=1e-14)

    def test_random_circuits_match_dense(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            c = random_circuit(rng, n, int(rng.integers(1, 9)), 3)
            theta = rng.normal(size=3)
            amps = apply_circuit(c, theta).amplitudes
            assert np.allclose(amps, dense_circuit_state(c, theta), atol=1e-13)

    def test_norm_preserved(self, rng):
        c = random_circuit(rng, 3, 10, 2)
        state = apply_circuit(c, rng.normal(size=2))
        assert state.norm() == approx(1.0, abs=1e-12)

    def test_angle_multiplier_and_offset(self):
        c1 = Circuit(
            n_qubits=1, n_params=1,
            gates=(Gate("ry", 0, param=0, multiplier=2.0, offset=0.3),),
        )
        c2 = Circuit(n_qubits=1, n_params=1, gates=(Gate("ry", 0, param=0),))
        a1 = apply_circuit(c1, np.array([0.4])).amplitudes
        a2 = apply_circuit(c2, np.array([2.0 * 0.4 + 0.3])).amplitudes
        assert np.allclose(a1, a2, atol=1e-15)

    def test_cnot_truth_table(self):
        # control qubit 0, target qubit 1: |10> -> |11>
        c = Circuit(
            n_qubits=2, n_params=0,
            gates=(Gate("cnot", 1, control=0),), initial_bits="10",
        )
        amps = apply_circuit(c, np.array([])).amplitudes
        assert amps[0b11] == approx(1.0)


class TestApplyPauliSum:
    def test_matches_dense_small(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            pairs = random_pairs(rng, n, 5, real=False)
            s = PauliSum.from_terms(pairs)
            v = random_state_vector(rng, 1 << n)
            got = CompiledSum(s).apply(v)
            assert np.allclose(got, dense_from_pairs(pairs, n) @ v, atol=1e-12)

    def test_matches_dense_above_cache_limit(self, rng):
        # a register wider than the random small-register cases above
        pairs = random_pairs(rng, 7, 4)
        s = PauliSum.from_terms(pairs)
        v = random_state_vector(rng, 1 << 7)
        got = CompiledSum(s).apply(v)
        assert np.allclose(got, dense_from_pairs(pairs, 7) @ v, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            CompiledSum(PauliSum.identity(3)).apply(np.zeros(4, dtype=complex))

    def test_expectation_matches_dense(self, rng):
        pairs = random_pairs(rng, 3, 6)
        s = PauliSum.from_terms(pairs)
        v = random_state_vector(rng, 8)
        expected = np.real(v.conj() @ dense_from_pairs(pairs, 3) @ v)
        assert expectation(State(v), s) == approx(expected, abs=1e-12)


def derivative_state(circuit, theta, k):
    """Derivative state in parameter k at one point, from the forward walk."""
    return _derivative_states(circuit, np.asarray(theta, dtype=float)[None])[0, 1 + k]


class TestStateDerivative:
    def _fd(self, circuit, theta, k, h=1e-6):
        up = apply_circuit(circuit, theta + h * np.eye(len(theta))[k]).amplitudes
        down = apply_circuit(circuit, theta - h * np.eye(len(theta))[k]).amplitudes
        return (up - down) / (2 * h)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            c = random_circuit(rng, 3, 8, 3)
            theta = rng.normal(size=3)
            for k in range(3):
                analytic = derivative_state(c, theta, k)
                fd = self._fd(c, theta, k)
                assert np.allclose(analytic, fd, atol=1e-8)

    def test_repeated_parameter_sums_occurrences(self, rng):
        # same parameter bound to two gates with different multipliers
        c = Circuit(
            n_qubits=2,
            n_params=1,
            gates=(
                Gate("ry", 0, param=0, multiplier=2.0),
                Gate("rx", 1, param=0, multiplier=-1.0),
            ),
        )
        theta = np.array([0.37])
        analytic = derivative_state(c, theta, 0)
        assert np.allclose(analytic, self._fd(c, theta, 0), atol=1e-8)

    def test_controlled_rotation_derivative(self, rng):
        c = Circuit(
            n_qubits=2,
            n_params=2,
            gates=(Gate("ry", 0, param=0), Gate("cry", 1, control=0, param=1)),
        )
        theta = np.array([0.9, -0.4])
        for k in range(2):
            analytic = derivative_state(c, theta, k)
            assert np.allclose(analytic, self._fd(c, theta, k), atol=1e-8)

    def test_unused_parameter_gives_zero(self):
        c = Circuit(n_qubits=1, n_params=2, gates=(Gate("ry", 0, param=0),))
        d = derivative_state(c, np.array([0.3, 0.7]), 1)
        assert np.allclose(d, 0.0)


class TestForwardWalk:
    """One walk gives the states (row 0) and every derivative state (1 + k)."""

    def test_state_row_equals_the_simulated_state(self, rng):
        for _ in range(5):
            c = random_circuit(rng, 3, 10, 3)
            thetas = rng.normal(size=(4, 3))
            walk = _derivative_states(c, thetas)
            assert walk.shape == (4, 4, 8)
            assert np.array_equal(walk[:, 0], _simulate(c, thetas))

    def test_stacked_rows_equal_one_row_walks(self, rng):
        for _ in range(5):
            c = random_circuit(rng, 3, 10, 3)
            thetas = rng.normal(size=(6, 3))
            walk = _derivative_states(c, thetas)
            for b, theta in enumerate(thetas):
                assert np.array_equal(walk[b], _derivative_states(c, theta[None])[0])

    def test_each_gate_is_applied_once(self, monkeypatch):
        # One kernel call per gate, plus one generator application per gate
        # bound to a parameter; nothing is re-simulated per occurrence.
        circuit = hardware_efficient_ansatz(4, 2)
        calls = []

        def counted(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)
            return wrapper

        for name in ("_apply_single", "_apply_controlled"):
            monkeypatch.setattr(statesim, name, counted(getattr(statesim, name)))
        _derivative_states(circuit, np.full((3, circuit.n_params), 0.3))
        bound = sum(g.param is not None for g in circuit.gates)
        assert len(calls) == len(circuit.gates) + bound

    def test_shared_parameter_matches_finite_differences(self, rng):
        # toy_b binds its first parameter to two RX gates.
        circuit = build_model("toy_b").circuit
        thetas = rng.uniform(-np.pi, np.pi, size=(64, circuit.n_params))
        walk = _derivative_states(circuit, thetas)
        h = 1e-6
        for k in range(circuit.n_params):
            step = h * np.eye(circuit.n_params)[k]
            up, down = _simulate(circuit, thetas + step), _simulate(circuit, thetas - step)
            fd = (up - down) / (2 * h)
            assert np.allclose(walk[:, 1 + k], fd, atol=1e-8)


class TestFidelityAndSpectrum:
    def test_fidelity_projects_onto_subspace(self, rng):
        basis = np.linalg.qr(
            rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        )[0]
        v = random_state_vector(rng, 8)
        overlap = basis.conj().T @ v
        assert fidelity(State(v), basis) == approx(float(np.sum(np.abs(overlap) ** 2)), abs=1e-12)

    def test_fidelity_of_basis_member_is_one(self, rng):
        basis = np.linalg.qr(rng.normal(size=(4, 1)))[0]
        assert fidelity(State(basis[:, 0].astype(complex)), basis) == approx(1.0)

    def test_fidelity_rejects_non_orthonormal(self, rng):
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            fidelity(State(random_state_vector(rng, 4)), bad)

    def test_exact_eigensystem_matches_dense(self, rng):
        pairs = random_pairs(rng, 3, 6)
        s = PauliSum.from_terms(pairs)
        eigenvalues, ground = exact_eigensystem(s)
        reference = np.linalg.eigvalsh(dense_from_pairs(pairs, 3))
        assert np.allclose(eigenvalues, reference, atol=1e-10)
        h = dense_from_pairs(pairs, 3)
        for col in ground.T:
            assert np.allclose(h @ col, eigenvalues[0] * col, atol=1e-9)

    def test_degenerate_ground_space(self):
        s = PauliSum.from_terms([(1.0, "ZZ")])  # two basis states at -1
        eigenvalues, ground = exact_eigensystem(s)
        assert eigenvalues[0] == approx(-1.0)
        assert ground.shape[1] == 2

    @pytest.mark.parametrize(
        "pairs, is_complex, degeneracy",
        [
            # The 5-site chain: an even number of Y letters in every string.
            (chain_pairs(5), False, 1),
            # Odd numbers of Y letters: imaginary entries.
            ([(0.7, "XYZI"), (-0.4, "YIIZ"), (1.1, "ZZYY"), (0.3, "IYXX"),
              (0.9, "ZIZI"), (-0.6, "YYYX"), (0.5, "IZII")], True, 1),
            # The ferromagnetic 3-site chain: its spin-3/2 multiplet at -2.
            ([(-1.0, a + a + "I") for a in "XYZ"] + [(-1.0, "I" + a + a) for a in "XYZ"],
             False, 4),
        ],
    )
    def test_exact_eigensystem_matches_complex_solver(self, pairs, is_complex, degeneracy):
        s = PauliSum.from_terms(pairs)
        matrix = dense_matrix(s)
        assert matrix.imag.any() == is_complex
        eigenvalues, ground = exact_eigensystem(s)
        reference, vectors = np.linalg.eigh(matrix)
        scale = np.abs(reference).max()
        assert np.abs(eigenvalues - reference).max() <= 1e-12 * scale
        in_ground = np.abs(reference - reference[0]) <= 1e-9
        assert ground.shape[1] == in_ground.sum() == degeneracy
        expected = vectors[:, in_ground] @ vectors[:, in_ground].conj().T
        assert np.abs(ground @ ground.conj().T - expected).max() <= 1e-12

    def test_dense_matrix_matches_oracle(self, rng):
        pairs = random_pairs(rng, 2, 5, real=False)
        s = PauliSum.from_terms(pairs)
        assert np.allclose(dense_matrix(s), dense_from_pairs(pairs, 2), atol=1e-13)

    def test_dense_matrix_of_hermitian_sum_is_exactly_hermitian(self, rng):
        # Entry (j, i) adds the same strings in the same order as (i, j), so
        # the eigensolver needs no Hermiticity check of the dense matrix.
        for _ in range(200):
            n = int(rng.integers(1, 7))
            s = PauliSum.from_terms(random_pairs(rng, n, int(rng.integers(1, 61))))
            matrix = dense_matrix(s)
            assert np.array_equal(matrix, matrix.conj().T)


class TestDecomposeControlled:
    def test_cry_decomposition_equivalent(self, rng):
        c = Circuit(
            n_qubits=3,
            n_params=2,
            gates=(
                Gate("ry", 0, param=0),
                Gate("cry", 2, control=0, param=1, multiplier=1.5, offset=0.2),
                Gate("cnot", 1, control=2),
            ),
        )
        decomposed = c.decompose_controlled()
        assert all(g.kind != "cry" for g in decomposed.gates)
        for _ in range(5):
            theta = rng.normal(size=2)
            u1 = dense_circuit_matrix(c, theta)
            a = apply_circuit(c, theta).amplitudes
            b = apply_circuit(decomposed, theta).amplitudes
            assert np.allclose(a, u1 @ np.eye(8)[int(c.initial_bits, 2)], atol=1e-13)
            assert np.allclose(a, b, atol=1e-13)

    def test_with_offset_shift(self):
        # ``_simulate``'s shift adds to the offset of the rotation at a position.
        c = Circuit(
            n_qubits=2, n_params=1,
            gates=(Gate("ry", 0, param=0), Gate("cnot", 1, control=0), Gate("rx", 1)),
        )
        for pos, angle in ((0, 0.3 + np.pi / 2), (2, np.pi / 2)):
            got = _simulate(c, np.array([[0.3]]), (pos, np.pi / 2))[0]
            # The same circuit with that rotation frozen at the shifted angle.
            gates = [Gate("ry", 0, offset=0.3), *c.gates[1:]]
            gates[pos] = Gate(gates[pos].kind, gates[pos].target, offset=angle)
            expected = dense_circuit_state(Circuit(2, 0, gates), np.array([]))
            assert np.allclose(got, expected, atol=1e-15)


class TestParity:
    def test_folds_every_bit_of_wide_indices(self):
        values = [0, 1, 3, 2**31, 2**32, 2**32 + 1, 2**33 + 2**32,
                  2**40 + 7, 2**62 + 2**33 + 5, 2**63 - 1]
        got = _parity(np.array(values, dtype=np.int64))
        assert got.tolist() == [bin(v).count("1") & 1 for v in values]

    def test_narrow_dtype_keeps_its_width(self):
        values = np.arange(1 << 12, dtype=np.int16)
        expected = [bin(int(v)).count("1") & 1 for v in values]
        assert _parity(values).tolist() == expected
