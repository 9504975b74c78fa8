"""Statevector simulator against independently built dense unitaries."""

import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from helpers import (
    chain_pairs,
    dense_circuit_matrix,
    dense_circuit_state,
    dense_from_pairs,
    dense_of,
    random_circuit,
    random_pairs,
    random_state_vector,
)
from pdsvqs.pauli import PauliSum
from pdsvqs.statesim import (
    Circuit,
    CompiledSum,
    Gate,
    apply_circuit,
    exact_eigensystem,
)
from pdsvqs import statesim
from pdsvqs.models import build_model, hardware_efficient_ansatz
from pdsvqs.moments import _krylov, _values_from_state
from pdsvqs.optim import run_batch
from pdsvqs.statesim import _compiled, _derivative_states, _parity, _simulate


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

    @pytest.mark.parametrize("field", ["multiplier", "offset"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_rejected_with_its_gate_index(self, field, value):
        gates = (Gate("ry", 0, param=0), Gate("ry", 1, param=0, **{field: value}))
        with pytest.raises(ValueError, match="gate 1: multiplier"):
            Circuit(n_qubits=2, n_params=1, gates=gates)


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
        assert np.linalg.norm(state.amplitudes) == approx(1.0, abs=1e-12)

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
        # <H> is the first exact moment, read from the Krylov vectors.
        pairs = random_pairs(rng, 3, 6)
        s = PauliSum.from_terms(pairs)
        v = random_state_vector(rng, 8)
        expected = np.real(v.conj() @ dense_from_pairs(pairs, 3) @ v)
        got = _values_from_state(_krylov(_compiled(s), v[None], 1), 1)[0, 1]
        assert got == approx(expected, abs=1e-12)


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


def record_fidelities(circuit, thetas, basis):
    """The fidelity of each start's iterate-0 record against ``basis``."""
    h = PauliSum.from_terms([(1.0, "Z" * circuit.n_qubits)])
    rows = run_batch(h, circuit, thetas, order=1, max_iters=0, ground_basis=basis)
    return [row.records[0].fidelity for row in rows]


class TestFidelityAndSpectrum:
    def test_fidelity_projects_onto_subspace(self, rng):
        basis = np.linalg.qr(
            rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        )[0]
        circuit = random_circuit(rng, 3, 12, 3)
        thetas = rng.normal(size=(4, 3))
        expected = [
            np.sum(np.abs(basis.conj().T @ dense_circuit_state(circuit, t)) ** 2) for t in thetas
        ]
        assert record_fidelities(circuit, thetas, basis) == approx(expected, abs=1e-12)
        # Rows of basis vectors read the same as columns.
        assert record_fidelities(circuit, thetas, basis.T) == approx(expected, abs=1e-12)

    def test_fidelity_of_basis_member_is_one(self, rng):
        circuit = random_circuit(rng, 2, 6, 2)
        theta = rng.normal(size=2)
        basis = dense_circuit_state(circuit, theta)[:, None]
        assert record_fidelities(circuit, theta[None], basis) == approx([1.0])

    def test_fidelity_rejects_non_orthonormal(self, rng):
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            record_fidelities(random_circuit(rng, 2, 6, 2), np.zeros((1, 2)), bad)

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
        matrix = dense_of(s)
        assert matrix.imag.any() == is_complex
        eigenvalues, ground = exact_eigensystem(s)
        reference, vectors = np.linalg.eigh(matrix)
        scale = np.abs(reference).max()
        assert np.abs(eigenvalues - reference).max() <= 1e-12 * scale
        in_ground = np.abs(reference - reference[0]) <= 1e-9
        assert ground.shape[1] == in_ground.sum() == degeneracy
        expected = vectors[:, in_ground] @ vectors[:, in_ground].conj().T
        assert np.abs(ground @ ground.conj().T - expected).max() <= 1e-12

    def test_compiled_pairs_of_hermitian_sum_are_exactly_hermitian(self, rng):
        # d_x[i ^ x] adds the conjugates of d_x[i]'s strings in the same
        # order, so the eigensolver may read one triangle of each block.
        for _ in range(200):
            n = int(rng.integers(1, 7))
            s = PauliSum.from_terms(random_pairs(rng, n, int(rng.integers(1, 61))))
            for flip, diag in CompiledSum(s).pairs:
                mirrored = diag if flip is None else diag[flip]
                assert np.array_equal(mirrored, diag.conj())


def ferromagnetic_chain(n_sites, scale):
    """-scale * sum_i (XX + YY + ZZ)_{i,i+1}: its spin-n/2 multiplet is the ground space."""
    pairs = []
    for i in range(n_sites - 1):
        for letter in "XYZ":
            label = ["I"] * n_sites
            label[i] = label[i + 1] = letter
            pairs.append((-scale, "".join(label)))
    return PauliSum.from_terms(pairs)


def transverse_ising(n_sites, field):
    zz = [(-1.0, "I" * i + "ZZ" + "I" * (n_sites - i - 2)) for i in range(n_sites - 1)]
    x = [(-field, "I" * i + "X" + "I" * (n_sites - i - 1)) for i in range(n_sites)]
    return PauliSum.from_terms(zz + x)


def twisted_chain(n_sites):
    """Heisenberg ZZ plus the XY - YX twist: S_z blocks with imaginary entries."""
    pairs = [(0.3, "Z" + "I" * (n_sites - 1))]
    for i in range(n_sites - 1):
        left, right = "I" * i, "I" * (n_sites - i - 2)
        pairs += [(c, left + ab + right) for c, ab in ((1.0, "ZZ"), (0.6, "XY"), (-0.6, "YX"))]
    return PauliSum.from_terms(pairs)


class TestBlockEigensystem:
    """The block solver against ``np.linalg.eigh`` of the independent dense oracle."""

    @pytest.mark.parametrize(
        "s, degeneracy",
        [
            pytest.param(transverse_ising(5, 0.7), 1, id="ising-one-block"),
            pytest.param(PauliSum.from_terms([(1.0, "ZZI"), (-0.5, "IZZ"), (0.25, "ZIZ"),
                                              (0.5, "IIZ")]), 1, id="diagonal"),
            pytest.param(PauliSum.from_terms([(2.5, "IIII")]), 16, id="identity"),
            pytest.param(PauliSum.zero(2), 4, id="zero"),
            pytest.param(PauliSum.from_terms(chain_pairs(8)), 1, id="chain8-nine-blocks"),
            pytest.param(twisted_chain(5), 1, id="complex-blocks"),
        ],
    )
    def test_matches_dense_solver(self, s, degeneracy):
        eigenvalues, ground = exact_eigensystem(s)
        reference, vectors = np.linalg.eigh(dense_of(s))
        scale = max(1.0, np.abs(reference).max())
        assert np.abs(eigenvalues - reference).max() <= 1e-12 * scale
        in_ground = np.abs(reference - reference[0]) <= 1e-9 * scale
        assert ground.shape[1] == in_ground.sum() == degeneracy
        expected = vectors[:, in_ground] @ vectors[:, in_ground].conj().T
        assert np.abs(ground @ ground.conj().T - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_sites, degeneracy", [(3, 4), (4, 5)])
    def test_ground_tolerance_scales_with_the_spectrum(self, n_sites, degeneracy):
        # At 1e8 the multiplet's rounding spread exceeds an absolute 1e-9.
        eigenvalues, ground = exact_eigensystem(ferromagnetic_chain(n_sites, 1e8))
        assert ground.shape[1] == degeneracy
        assert eigenvalues[0] == approx(-1e8 * (n_sites - 1), rel=1e-12)

    def test_ten_site_chain_never_builds_the_dense_matrix(self):
        s = PauliSum.from_terms(chain_pairs(10))
        tracemalloc.start()
        try:
            exact_eigensystem(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The dense complex 1024 x 1024 matrix alone is 16.8 MB.
        assert peak < 6e6


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
        decomposed = c.decomposed
        assert c.decomposed is decomposed  # built once
        assert all(g.kind != "cry" for g in decomposed.gates)
        for _ in range(5):
            theta = rng.normal(size=2)
            u1 = dense_circuit_matrix(c, theta)
            a = apply_circuit(c, theta).amplitudes
            b = apply_circuit(decomposed, theta).amplitudes
            assert np.allclose(a, u1 @ np.eye(8)[int(c.initial_bits, 2)], atol=1e-13)
            assert np.allclose(a, b, atol=1e-13)

    def test_with_offset_shift(self):
        # ``_simulate``'s offsets replace the rotations' offsets row by row:
        # here each row shifts one rotation by pi/2.
        c = Circuit(
            n_qubits=2, n_params=1,
            gates=(Gate("ry", 0, param=0), Gate("cnot", 1, control=0), Gate("rx", 1)),
        )
        offsets = np.array([[np.pi / 2, 0.0], [0.0, np.pi / 2]])
        states = _simulate(c, np.array([[0.3], [0.3]]), offsets)
        for got, (pos, angle) in zip(states, ((0, 0.3 + np.pi / 2), (2, np.pi / 2))):
            # The same circuit with that rotation frozen at the shifted angle.
            gates = [Gate("ry", 0, offset=0.3), *c.gates[1:]]
            gates[pos] = Gate(gates[pos].kind, gates[pos].target, offset=angle)
            expected = dense_circuit_state(Circuit(2, 0, gates), np.array([]))
            assert np.allclose(got, expected, atol=1e-15)


    def test_offset_rows_equal_one_shift_per_call(self, rng):
        # Every row of a stack with its own offsets gets the bits of a call
        # that simulates just that row's shift.
        for _ in range(5):
            c = random_circuit(rng, 3, 10, 3).decomposed
            offsets = c._rotations[3]
            thetas = rng.normal(size=(2, 3))
            table = np.repeat(offsets[None], len(offsets), axis=0)
            table[np.arange(len(offsets)), np.arange(len(offsets))] += np.pi / 2
            stacked = _simulate(c, np.tile(thetas, (len(table), 1)), table.repeat(2, axis=0))
            alone = np.concatenate([_simulate(c, thetas, row) for row in table])
            assert np.array_equal(stacked, alone)


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
