"""Hamiltonian moments, their parameter derivatives, and shot-noise sampling."""

import numpy as np
import pytest
from pytest import approx

from helpers import (
    chain_pairs,
    dense_from_pairs,
    dense_of,
    per_group_probabilities,
    per_group_sampled_moments,
    per_order_plan,
    per_order_sampled_moments,
    per_string_readout,
    point_moments,
    point_rows,
    random_circuit,
    random_pairs,
    sampled_one,
)
from pdsvqs.models import build_model, hardware_efficient_ansatz
from pdsvqs.moments import (
    MeasurementPlan,
    _analytic_rows,
    _shift_rows,
    _union,
    hamiltonian_powers,
    sampled_moments,
)
from pdsvqs import moments, optim, statesim
from pdsvqs.pauli import PauliSum
from pdsvqs.pds import RegPolicy
from pdsvqs.statesim import (
    Circuit,
    CompiledSum,
    Gate,
    _compiled,
    _derivative_states,
    _simulate,
    apply_circuit,
)


MODEL_NAMES_ALL = ("toy_a", "toy_b", "h2", "heisenberg")


class TestHamiltonianPowers:
    @pytest.mark.parametrize("name", MODEL_NAMES_ALL)
    def test_powers_match_dense_oracle(self, name):
        model = build_model(name)
        dense = dense_of(model.hamiltonian)
        powers = hamiltonian_powers(model.hamiltonian, 4)
        acc = np.eye(dense.shape[0], dtype=complex)
        for n in range(5):
            assert np.allclose(dense_of(powers[n]), acc, atol=1e-10), f"power {n}"
            acc = acc @ dense

    def test_random_hamiltonian_powers(self, rng):
        pairs = random_pairs(rng, 2, 4)
        h = PauliSum.from_terms(pairs)
        dense = dense_from_pairs(pairs, 2)
        powers = hamiltonian_powers(h, 5)
        assert np.allclose(dense_of(powers[5]), np.linalg.matrix_power(dense, 5), atol=1e-9)

    def test_zeroth_power_is_identity(self):
        s = PauliSum.from_terms([(0.7, "XY")])
        assert np.allclose(dense_of(hamiltonian_powers(s, 1)[0]), np.eye(4))

    def test_involution_squares_to_identity(self):
        s = PauliSum.from_terms([(1.0, "XZ")])
        sq = hamiltonian_powers(s, 2)[2]
        assert len(sq) == 1
        assert sq.coefficient("II") == approx(1.0)

    def test_rejects_non_hermitian(self):
        for label in ("X", "Z"):
            with pytest.raises(ValueError):
                hamiltonian_powers(PauliSum.from_terms([(1j, label)]), 2)

    def test_rejects_order_below_one(self):
        for max_order in (0, -1):
            with pytest.raises(ValueError):
                hamiltonian_powers(PauliSum.from_terms([(1.0, "Z")]), max_order)

    def test_power_cap(self):
        h = PauliSum.from_terms([(1.0, "Z")])
        with pytest.raises(ValueError):
            hamiltonian_powers(h, 13)

    def test_every_power_hermitian(self):
        model = build_model("h2")
        for p in hamiltonian_powers(model.hamiltonian, 6):
            assert p.is_hermitian()

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_pruning_does_not_depend_on_units(self, scale):
        # Each power is pruned relative to its own largest coefficient: an
        # absolute threshold kept rounding residues in large units (strings
        # with imaginary parts that to_text refuses) and pruned every string
        # from H^3 on in small ones.
        h = PauliSum.from_terms(chain_pairs(6))
        plain = hamiltonian_powers(h, 5)
        scaled = hamiltonian_powers(h.scaled(scale), 5)
        for p, q in zip(plain, scaled):
            assert [label for _, label in q.terms()] == [label for _, label in p.terms()]
            q.to_text()


class TestMomentTable:
    def test_zeroth_moment_exactly_one(self, h2):
        values = point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 5)
        assert values[0] == 1.0

    def test_values_match_dense_oracle(self, rng):
        pairs = random_pairs(rng, 2, 4)
        h = PauliSum.from_terms(pairs)
        circuit = Circuit(
            n_qubits=2,
            n_params=2,
            gates=(Gate("ry", 0, param=0), Gate("cry", 1, control=0, param=1)),
        )
        theta = rng.normal(size=2)
        values = point_moments(circuit, theta, h, 6)
        dense = dense_from_pairs(pairs, 2)
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        from helpers import dense_circuit_matrix

        v = dense_circuit_matrix(circuit, theta) @ v
        acc = np.eye(4, dtype=complex)
        for n in range(7):
            expected = np.real(v.conj() @ acc @ v)
            assert values[n] == approx(expected, abs=1e-11)
            acc = acc @ dense

    def test_eigenstate_moments_are_eigenvalue_powers(self):
        # |00> is an eigenstate of a diagonal Hamiltonian
        h = PauliSum.from_terms([(1.5, "II"), (0.5, "IZ"), (-1.0, "ZZ")])
        circuit = Circuit(n_qubits=2, n_params=0, gates=())
        values = point_moments(circuit, np.array([]), h, 6)
        e = 1.0  # diag(1, 2, 3, 0) entry for |00>
        assert np.allclose(values, e ** np.arange(7), atol=1e-12)

    def test_precomputed_powers_path(self, h2):
        # The expanded Pauli powers, applied string by string, are the
        # reference for the Krylov moments.
        powers = hamiltonian_powers(h2.hamiltonian, 5)
        amps = apply_circuit(h2.circuit, h2.theta0).amplitudes
        expanded = [np.vdot(amps, CompiledSum(p).apply(amps)).real for p in powers]
        values = point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 5)
        assert np.allclose(values, expanded, rtol=0.0, atol=1e-12)

    def test_variance_nonnegative(self, rng):
        model = build_model("heisenberg")
        for _ in range(5):
            theta = rng.normal(size=1)
            values = point_moments(model.circuit, theta, model.hamiltonian, 2)
            assert values[2] - values[1] ** 2 >= -1e-10


class TestCompiledOperator:
    """H is compiled once and reused only while it is unchanged."""

    def test_same_sum_reuses_its_compilation(self, heisenberg):
        h = heisenberg.hamiltonian
        assert _compiled(h) is _compiled(h)

    def test_equal_copy_is_compiled_anew(self, h2):
        h = h2.hamiltonian
        first = _compiled(h)
        assert _compiled(PauliSum.from_terms(h.terms())) is not first

    def test_sum_cannot_be_edited(self, h2):
        # The compiled operator is keyed on the sum object, so a sum must not
        # change after it is built: its arrays and attributes are read-only.
        h = h2.hamiltonian
        for array in (h.x, h.z, h.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        with pytest.raises(AttributeError):
            h.coeffs = h.coeffs.copy()


class TestMomentGradients:
    def _fd_rows(self, circuit, theta, ham, max_order, h=1e-6):
        rows = np.zeros((circuit.n_params, max_order + 1))
        for k in range(circuit.n_params):
            e = np.eye(circuit.n_params)[k]
            up = point_moments(circuit, theta + h * e, ham, max_order)
            down = point_moments(circuit, theta - h * e, ham, max_order)
            rows[k] = (up - down) / (2 * h)
        return rows

    @pytest.mark.parametrize("name", MODEL_NAMES_ALL)
    def test_analytic_matches_finite_differences(self, name, rng):
        model = build_model(name)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
            analytic = point_rows(model.circuit, theta, model.hamiltonian, 3)
            fd = self._fd_rows(model.circuit, theta, model.hamiltonian, 3)
            assert np.allclose(analytic, fd, atol=5e-9)

    @pytest.mark.parametrize("name", MODEL_NAMES_ALL)
    def test_shift_rule_matches_analytic(self, name, rng):
        model = build_model(name)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
            analytic = point_rows(model.circuit, theta, model.hamiltonian, 4)
            shifted = point_rows(
                model.circuit, theta, model.hamiltonian, 4, method="shift"
            )
            assert np.allclose(analytic, shifted, atol=1e-10)

    def test_zeroth_column_is_zero(self, h2, rng):
        theta = rng.normal(size=4)
        for method in ("analytic", "sweep", "shift"):
            rows = point_rows(h2.circuit, theta, h2.hamiltonian, 3, method=method)
            assert np.allclose(rows[:, 0], 0.0, atol=1e-14)

    def test_unknown_method(self, h2):
        # A run's rows follow its mode; no keyword picks the method.
        starts = np.stack([h2.theta0, -h2.theta0])
        with pytest.raises(TypeError, match="gradient_method"):
            optim.run_batch(h2.hamiltonian, h2.circuit, starts, gradient_method="shift")

    def test_first_column_is_energy_gradient(self, toy_a, rng):
        # d<H>/dtheta via a fine central difference on the expectation itself
        theta = rng.normal(size=2)
        rows = point_rows(toy_a.circuit, theta, toy_a.hamiltonian, 1)
        h = 1e-6
        for k in range(2):
            e = np.eye(2)[k]
            up = point_moments(toy_a.circuit, theta + h * e, toy_a.hamiltonian, 1)[1]
            down = point_moments(toy_a.circuit, theta - h * e, toy_a.hamiltonian, 1)[1]
            assert rows[k, 1] == approx((up - down) / (2 * h), abs=1e-8)


class TestShiftStack:
    """``_shift_rows`` simulates the states and every shift-rule state in one
    stack of the decomposed circuit, whose block 0 holds the unshifted
    offsets and is returned as the states."""

    @staticmethod
    def _states(circuit, thetas):
        stacks = []

        def moments_of(states):
            stacks.append(states)
            return np.ones((len(states), 2))

        amps = _shift_rows(circuit, thetas, moments_of, 2)[0]
        (stack,) = stacks
        bound = np.count_nonzero(circuit.decomposed._rotations[1] < circuit.n_params)
        assert len(stack) == len(thetas) * (1 + 2 * bound)
        assert np.array_equal(amps, stack[: len(thetas)])
        return amps

    def test_block_zero_is_the_state_bit_for_bit_without_cry(self, rng):
        # Shared parameters, frozen rotations and multipliers other than 1;
        # with no CRY the decomposed circuit has the circuit's gates.
        for n in (1, 2, 3, 4):
            kinds = ["rx", "ry", "rz", "x"] + (["cnot"] * (n > 1))
            for _ in range(4):
                gates = [Gate("ry", 0, param=0, multiplier=-1.5),
                         Gate("rz", n - 1, param=0, multiplier=2.0, offset=0.3),
                         Gate("rx", 0, offset=0.7)]
                for _ in range(12):
                    kind, target = str(rng.choice(kinds)), int(rng.integers(n))
                    if kind == "cnot":
                        gates.append(Gate(kind, target, control=(target + 1) % n))
                    elif kind == "x":
                        gates.append(Gate(kind, target))
                    else:
                        param = int(rng.integers(4))  # 3 is frozen
                        gates.append(Gate(kind, target, param=None if param == 3 else param,
                                          multiplier=float(rng.choice([1.0, 2.0, -0.5, 3.7])),
                                          offset=float(rng.normal())))
                circuit = Circuit(n, 3, gates)
                thetas = rng.uniform(-np.pi, np.pi, size=(3, 3))
                assert np.array_equal(self._states(circuit, thetas), _simulate(circuit, thetas))

    @pytest.mark.parametrize("name", ["toy_a", "toy_b"])
    def test_block_zero_is_the_state_to_rounding_with_cry(self, name, rng, request):
        model = request.getfixturevalue(name)
        drawn = rng.uniform(-np.pi, np.pi, size=(5, model.circuit.n_params))
        thetas = np.vstack([model.theta0, drawn])
        got = self._states(model.circuit, thetas)
        assert np.abs(got - _simulate(model.circuit, thetas)).max() <= 1e-14


def _krylov_cases():
    """(Hamiltonian, circuit, theta, order checked against expanded powers)."""
    rng = np.random.default_rng(2024)
    cases = {}
    for name in ("h2", "heisenberg"):
        model = build_model(name)
        theta = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
        cases[name] = (model.hamiltonian, model.circuit, theta, 7)
    random5 = PauliSum.from_terms(random_pairs(rng, 5, 12))
    circuit5 = hardware_efficient_ansatz(5, 1)
    cases["random5"] = (
        random5, circuit5, rng.uniform(-np.pi, np.pi, circuit5.n_params), 5
    )
    circuit8 = hardware_efficient_ansatz(8, 1)
    cases["chain8"] = (
        PauliSum.from_terms(chain_pairs(8)),
        circuit8,
        rng.uniform(-np.pi, np.pi, circuit8.n_params),
        3,
    )
    return cases


KRYLOV_CASES = _krylov_cases()


class TestKrylovMoments:
    """Krylov moments and rows against dense powers and expanded Pauli powers.

    Errors are measured against the scale ``rho**n`` of order n, where rho is
    the spectral radius of H, so the tolerance is relative for every order.
    """

    MAX_ORDER = 13  # past the order-12 cap of the expanded powers

    @staticmethod
    def _oracle(circuit, theta, max_order, apply):
        amps = apply_circuit(circuit, theta).amplitudes
        derivs = _derivative_states(circuit, np.asarray(theta)[None])[0, 1:]
        values = np.ones(max_order + 1)
        rows = np.zeros((circuit.n_params, max_order + 1))
        for n in range(1, max_order + 1):
            w = apply(n, amps)
            values[n] = np.vdot(amps, w).real
            rows[:, n] = [2.0 * np.vdot(d, w).real for d in derivs]
        return values, rows

    @staticmethod
    def _scale(h, max_order):
        rho = max(1.0, float(np.abs(np.linalg.eigvalsh(dense_of(h))).max()))
        return rho ** np.arange(max_order + 1)

    @pytest.mark.parametrize("name", sorted(KRYLOV_CASES))
    def test_match_dense_powers(self, name):
        h, circuit, theta, _ = KRYLOV_CASES[name]
        dense = dense_of(h)
        values, rows = self._oracle(
            circuit, theta, self.MAX_ORDER,
            lambda n, v: np.linalg.matrix_power(dense, n) @ v,
        )
        tol = 1e-10 * self._scale(h, self.MAX_ORDER)
        got = point_moments(circuit, theta, h, self.MAX_ORDER)
        assert got.shape == (self.MAX_ORDER + 1,)
        assert np.all(np.abs(got - values) <= tol)
        for method in ("analytic", "sweep", "shift"):
            got = point_rows(circuit, theta, h, self.MAX_ORDER, method=method)
            assert np.all(np.abs(got - rows) <= tol), method

    @pytest.mark.parametrize("name", sorted(KRYLOV_CASES))
    def test_match_expanded_powers(self, name):
        h, circuit, theta, order = KRYLOV_CASES[name]
        powers = hamiltonian_powers(h, order)
        values, rows = self._oracle(
            circuit, theta, order, lambda n, v: CompiledSum(powers[n]).apply(v)
        )
        tol = 1e-10 * self._scale(h, order)
        assert np.all(np.abs(point_moments(circuit, theta, h, order) - values) <= tol)
        got = point_rows(circuit, theta, h, order)
        assert np.all(np.abs(got - rows) <= tol)


def _sweep_cases():
    """(Hamiltonian, circuit) pairs: the built-in models (toy_a's CRY, toy_b's
    parameter shared by two gates), generated chains of 3-6 sites, and random
    circuits whose complex gates (RX, RZ) follow bound gates, so undoing them
    needs the conjugate transpose."""
    cases = {}
    for name in MODEL_NAMES_ALL:
        model = build_model(name)
        cases[name] = (model.hamiltonian, model.circuit)
    for n in range(3, 7):
        cases[f"chain{n}"] = (PauliSum.from_terms(chain_pairs(n)), hardware_efficient_ansatz(n, 2))
    rng = np.random.default_rng(7)
    for n in (2, 3):
        cases[f"random{n}"] = (
            PauliSum.from_terms(random_pairs(rng, n, 6)), random_circuit(rng, n, 14, 3)
        )
    return cases


SWEEP_CASES = _sweep_cases()


class TestAdjointSweep:
    """The backward sweep against the forward walk's derivative states, one
    unit weight vector per order, relative to each order's largest entry."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_sweep_rows_equal_walk_rows(self, name, batch):
        h, circuit = SWEEP_CASES[name]
        rng = np.random.default_rng(sorted(SWEEP_CASES).index(name))
        thetas = rng.uniform(-np.pi, np.pi, size=(batch, circuit.n_params))
        walk = _derivative_states(circuit, thetas)
        for max_order in (1, 4, 7):
            op = _compiled(h)
            walked, swept = [walk[:, 0]], [_simulate(circuit, thetas)]
            for unit in np.eye(max_order + 1):
                weights = np.tile(unit, (batch, 1))
                expected = _analytic_rows(op, walked, weights, circuit, thetas, walk[:, 1:])
                got = _analytic_rows(op, swept, weights, circuit, thetas)
                assert got.shape == expected.shape == (batch, circuit.n_params)
                scale = np.abs(expected).max()
                assert np.all(np.abs(got - expected) <= 1e-12 * scale), (max_order, unit)

    def test_unbound_parameter_reads_zero(self, heisenberg):
        circuit = Circuit(
            n_qubits=4, n_params=3,
            gates=(Gate("x", 1), Gate("ry", 0, param=2), Gate("cnot", 1, control=0)),
        )
        thetas = np.array([[0.3, -1.1, 0.7], [1.0, 2.0, -0.4]])
        op = _compiled(heisenberg.hamiltonian)
        grad = _analytic_rows(
            op, [_simulate(circuit, thetas)], np.ones((2, 4)), circuit, thetas
        )
        assert np.all(grad[:, :2] == 0.0) and np.abs(grad[:, 2]).max() > 0.1

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_gd_iterate_sweeps_two_vectors_per_row(self, h2, order, monkeypatch):
        # The state and the one adjoint vector, whatever the order.
        apply_gate, swept = statesim._apply_gate, []

        def spy(amps, gate, u):
            if amps.ndim == 3:
                swept.append(amps.shape)
            return apply_gate(amps, gate, u)

        monkeypatch.setattr(statesim, "_apply_gate", spy)
        starts = np.stack([h2.theta0, -h2.theta0])
        rows = optim.run_batch(
            h2.hamiltonian, h2.circuit, starts, order=order, max_iters=0,
            pds_policy=RegPolicy("shift"),
        )
        assert [row.error for row in rows] == [None, None]
        assert swept == [(2, 2, 1 << h2.circuit.n_qubits)] * len(h2.circuit.gates)


class TestUnionOfPowers:
    def test_union_collects_all_strings(self, h2):
        powers = hamiltonian_powers(h2.hamiltonian, 4)
        union = _union(powers)[0]
        labels = {label for _, label in union.terms()}
        for p in powers[1:]:
            assert {label for _, label in p.terms()} <= labels

    def test_union_weight_is_max_magnitude(self, h2):
        powers = hamiltonian_powers(h2.hamiltonian, 3)
        union = _union(powers)[0]
        for c, label in union.terms():
            best = max(
                abs(p.coefficient(label)) for p in powers[1:]
            )
            assert abs(c) == approx(best, abs=1e-14)

    def test_needs_first_power(self):
        with pytest.raises(ValueError):
            _union([PauliSum.identity(2)])


def _plan(h, max_order=1):
    return MeasurementPlan(hamiltonian_powers(h, max_order))


class TestSampledExpectation:
    """Order-1 readout: ``<H>`` sampled through a plan of H alone."""

    def test_deterministic_given_seed(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian)
        est1, err1 = sampled_one(state, plan, 400, 11)
        est2, err2 = sampled_one(state, plan, 400, 11)
        assert np.array_equal(est1, est2) and np.array_equal(err1, err2)

    def test_seed_changes_draws(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian)
        est1, _ = sampled_one(state, plan, 400, 1)
        est2, _ = sampled_one(state, plan, 400, 2)
        assert est1[1] != est2[1]

    def test_basis_state_measured_exactly(self):
        # Z-basis strings on a computational basis state have zero variance
        circuit = Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="10")
        state = apply_circuit(circuit, np.array([]))
        for label, expected in (("ZI", -1.0), ("IZ", 1.0), ("ZZ", -1.0)):
            h = PauliSum.from_terms([(1.0, label)])
            est, err = sampled_one(state, _plan(h), 64, 0)
            assert est[1] == approx(expected) and err[1] == 0.0, label

    def test_plus_state_x_measured_exactly(self):
        # X and Y strings are read out after rotating their eigenstates into
        # the Z basis: |+> = RY(pi/2)|0>, |+i> = RX(-pi/2)|0>, and a product
        # of |+>, |+i> and |1> for XYZ.
        cases = (
            (1, "0", (Gate("ry", 0, offset=np.pi / 2),), "X", 1.0),
            (1, "0", (Gate("rx", 0, offset=-np.pi / 2),), "Y", 1.0),
            (
                3, "001",
                (Gate("ry", 0, offset=np.pi / 2), Gate("rx", 1, offset=-np.pi / 2)),
                "XYZ", -1.0,
            ),
        )
        for n, bits, gates, label, expected in cases:
            circuit = Circuit(n_qubits=n, n_params=0, gates=gates, initial_bits=bits)
            state = apply_circuit(circuit, np.array([]))
            h = PauliSum.from_terms([(1.0, label)])
            est, err = sampled_one(state, _plan(h), 32, 0)
            assert est[1] == approx(expected), label
            assert err[1] == 0.0, label

    def test_estimates_near_exact(self, heisenberg):
        # Each string separately, so that errors cannot cancel in the sum.
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        v = state.amplitudes
        for _, label in heisenberg.hamiltonian.terms():
            string = PauliSum.from_terms([(1.0, label)])
            est, err = sampled_one(state, _plan(string), 20000, 3)
            exact = np.vdot(v, dense_of(string) @ v).real
            assert abs(est[1] - exact) <= 6 * max(err[1], 1e-3), label

    def test_identity_term_is_free(self):
        # An identity string is a constant of every order, never sampled.
        circuit = Circuit(n_qubits=1, n_params=0, gates=())
        state = apply_circuit(circuit, np.array([]))
        h = PauliSum.from_terms([(2.0, "I")])
        est, err = sampled_one(state, _plan(h, 2), shots=16, seed=0)
        assert list(est) == [1.0, 2.0, 4.0] and list(err) == [0.0, 0.0, 0.0]

    def test_too_few_shots(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError):
            sampled_one(state, _plan(h2.hamiltonian), 1)


class TestSampledMoments:
    def test_matches_exact_within_errors(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        exact = point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 5)
        est, se = sampled_one(state, _plan(h2.hamiltonian, 5), shots=200000, seed=5)
        assert est[0] == 1.0 and se[0] == 0.0
        for n in range(1, 6):
            slack = 5 * se[n] if se[n] > 0 else 1e-12
            assert abs(est[n] - exact[n]) <= slack, f"order {n}"

    def test_error_shrinks_with_shots(self, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        plan = _plan(heisenberg.hamiltonian, 3)
        _, se_small = sampled_one(state, plan, 1000, 9)
        _, se_big = sampled_one(state, plan, 100000, 9)
        # 100x the shots should cut the standard error by roughly 10x
        for n in range(1, 4):
            assert se_big[n] < 0.3 * se_small[n]

    def test_deterministic_given_seed(self, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        plan = _plan(heisenberg.hamiltonian, 2)
        a = sampled_one(state, plan, 500, 21)
        b = sampled_one(state, plan, 500, 21)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_eigenstate_zero_error(self):
        # diagonal H and a basis state: every group is Z-only, variance 0
        circuit = Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="01")
        state = apply_circuit(circuit, np.array([]))
        h = PauliSum.from_terms([(1.5, "II"), (0.5, "IZ"), (-1.0, "ZZ")])
        est, se = sampled_one(state, _plan(h, 3), shots=50, seed=0)
        assert np.allclose(se, 0.0)
        # |01> sits at diagonal entry 2 of diag(1,2,3,0)
        assert np.allclose(est, 2.0 ** np.arange(4), atol=1e-12)

    def test_too_few_shots(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError):
            sampled_one(state, _plan(h2.hamiltonian, 2), shots=1)

    def test_plan_width_must_match_state(self, h2, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        with pytest.raises(ValueError, match="qubit count"):
            sampled_one(state, _plan(h2.hamiltonian), 10)

    def test_stack_takes_rows_of_states_with_one_seed_each(self, h2):
        amps = _simulate(h2.circuit, np.stack([h2.theta0, h2.theta0 + 0.1]))
        plan = _plan(h2.hamiltonian)
        with pytest.raises(ValueError, match="2 states need as many seeds, got 1"):
            sampled_moments(amps, plan, 10, [0])
        with pytest.raises(ValueError, match="qubit count"):
            sampled_moments(amps[0], plan, 10, [0])


def _random_state(circuit, seed):
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, circuit.n_params)
    return apply_circuit(circuit, theta)


class TestSampledMatchesPerOrderLoop:
    """One readout matrix per group gives the bits of the per-order loop."""

    def _assert_bitwise(self, h, max_order, state, shots=500):
        powers = hamiltonian_powers(h, max_order)
        plan = MeasurementPlan(powers)
        for seed in range(5):
            values, errors = sampled_one(state, plan, shots, seed)
            ref_values, ref_errors = per_order_sampled_moments(
                state.amplitudes, powers, shots, seed
            )
            assert np.array_equal(values, ref_values), seed
            assert np.array_equal(errors, ref_errors), seed

    @pytest.mark.parametrize("max_order", (3, 5))
    @pytest.mark.parametrize("name", MODEL_NAMES_ALL)
    def test_built_in_models(self, name, max_order):
        model = build_model(name)
        self._assert_bitwise(model.hamiltonian, max_order, _random_state(model.circuit, 1))

    def test_order_with_only_its_constant(self):
        # Up to H^2 = 2.09 II + 0.6 (XX + ZZ) - 2 YY, II leads the first group
        # and YY joins it, so order 1 meets that group only through its
        # identity constant.
        h = PauliSum.from_terms([(0.3, "II"), (1.0, "XX"), (1.0, "ZZ")])
        plan = MeasurementPlan(hamiltonian_powers(h, 2))
        constant_only = [
            order
            for order, c, row in zip(plan.row_order, plan.constants, plan.readout)
            if c != 0.0 and not row.any()
        ]
        assert 1 in constant_only
        self._assert_bitwise(h, 2, _random_state(hardware_efficient_ansatz(2, 1), 2))

    def test_eight_site_chain(self):
        h = PauliSum.from_terms(chain_pairs(8))
        self._assert_bitwise(h, 3, _random_state(hardware_efficient_ansatz(8, 1), 3))

    def test_ten_site_chain(self):
        # 1024 amplitudes: each row's probability sum goes through numpy's
        # blocked pairwise summation.
        h = PauliSum.from_terms(chain_pairs(10))
        self._assert_bitwise(h, 3, _random_state(hardware_efficient_ansatz(10, 1), 4))


def _tree_cases():
    rng = np.random.default_rng(5)
    cases = [(build_model(name).hamiltonian, 5) for name in ("h2", "heisenberg")]
    cases.append((PauliSum.from_terms(chain_pairs(6)), 3))  # Y turns on every qubit
    cases += [(PauliSum.from_terms(random_pairs(rng, 5, 6)), 3) for _ in range(4)]
    cases.append((PauliSum.from_terms([(0.5, "II")]), 3))  # one identity-only group
    cases.append((PauliSum.zero(2), 2))  # no group
    return cases


class TestTurnTree:
    """Groups share the turns of their common letter prefix, and the plan
    builds its sign rows from one parity table; both keep every bit of the
    per-group turns and the per-string loop."""

    @pytest.mark.parametrize("h,max_order", _tree_cases())
    def test_matches_per_group_turns(self, h, max_order):
        powers = hamiltonian_powers(h, max_order)
        plan = MeasurementPlan(powers)
        circuit = hardware_efficient_ansatz(h.n_qubits, 1)
        thetas = np.random.default_rng(h.n_qubits).uniform(-np.pi, np.pi, (3, circuit.n_params))
        amps = _simulate(circuit, thetas)
        turned = moments._probabilities(amps, plan)[plan.final]
        assert turned.tobytes() == per_group_probabilities(amps, powers).tobytes()
        for seeds in ([0, 1, 2], [7, 7, 3]):
            got = sampled_moments(amps, plan, 1000, seeds)
            ref = per_group_sampled_moments(amps, powers, plan, 1000, seeds)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()

    def test_shares_letter_prefixes(self):
        # Over its 6 turned qubits the 6-site chain's tree holds 448 node rows
        # for 181 groups, under half of the 1086 that per-group turns carry.
        plan = _plan(PauliSum.from_terms(chain_pairs(6)), 5)
        nodes = [len(parent) for _, parent, _, _ in plan.tree]
        assert plan.n_groups == 181 and len(nodes) == 6
        assert nodes == sorted(nodes) and nodes[-1] <= plan.n_groups
        assert sum(nodes) < plan.n_groups * len(nodes) / 2

    @pytest.mark.parametrize("n_sites,max_order", [(4, 5), (6, 5), (8, 3)])
    def test_rows_match_per_string_loop(self, n_sites, max_order):
        powers = hamiltonian_powers(PauliSum.from_terms(chain_pairs(n_sites)), max_order)
        plan = MeasurementPlan(powers)
        readout, constants, row_group, row_order = per_string_readout(powers)
        assert plan.readout.tobytes() == readout.tobytes()
        assert plan.readout_sq.tobytes() == (readout**2).tobytes()
        assert plan.constants.tolist() == constants
        assert plan.row_group.tolist() == row_group
        assert plan.row_order.tolist() == row_order


class TestStackedDraw:
    """``sampled_moments`` draws every group's counts with one 2-D
    ``multinomial`` call; numpy must give the draws of one row at a time from
    the same generator, on every numpy the package supports."""

    @staticmethod
    def _row_by_row(seed, shots, probs):
        rng = np.random.default_rng(seed)
        return np.array([rng.multinomial(shots, p) for p in probs])

    @pytest.mark.parametrize("shape", [(1, 2), (21, 16), (5, 1024)])
    def test_random_stacks(self, shape):
        probs = np.random.default_rng(shape[1]).random(shape) ** 4
        probs[:, ::3] = 0.0  # outcomes a rotated state cannot give
        probs /= probs.sum(axis=-1, keepdims=True)
        for seed in range(5):
            for shots in (2, 1000, 10**6):
                stacked = np.random.default_rng(seed).multinomial(shots, probs)
                assert stacked.shape == shape
                assert np.array_equal(stacked, self._row_by_row(seed, shots, probs))


def _turned_qubits(powers):
    """Qubits that some first-fit group of the powers' union reads in X or Y."""
    x_or = 0
    for x, _, _ in per_order_plan(powers):
        x_or |= x
    return [q for q in range(powers[1].n_qubits) if (x_or >> q) & 1]


class TestSampledShape:
    """One turn tree per block of sampled states, and the shot count checked."""

    def test_at_most_two_turn_kernels_per_turned_qubit(self, heisenberg, monkeypatch):
        # One kernel for the X nodes and one for the Y nodes of each step,
        # each a single shared 2 x 2 map, in qubit order.
        powers = hamiltonian_powers(heisenberg.hamiltonian, 5)
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        calls = []

        def counted(*args):
            calls.append((args[1], args[2].shape))
            return statesim._apply_single(*args)

        monkeypatch.setattr(moments, "_apply_single", counted)
        sampled_one(state, MeasurementPlan(powers), 100, 0)
        targets = [q for q, _ in calls]
        assert sorted(set(targets)) == _turned_qubits(powers) != []
        assert targets == sorted(targets)
        assert all(targets.count(q) <= 2 for q in targets)
        assert all(shape == (2, 2) for _, shape in calls)

    @pytest.mark.parametrize("budget,per_block", [(None, 4), ("tight", 1)])
    def test_stack_is_sampled_in_blocks(self, heisenberg, monkeypatch, budget, per_block):
        # Under the default budget the four states go down one tree together;
        # a plan whose G * 2**n exceeds the budget turns one at a time.
        # Either way every state gets the bits it gets alone.
        powers = hamiltonian_powers(heisenberg.hamiltonian, 3)
        plan = MeasurementPlan(powers)
        thetas = heisenberg.theta0 + np.array([[0.0], [0.4], [-1.1], [2.0]])
        amps = _simulate(heisenberg.circuit, thetas)
        if budget == "tight":
            monkeypatch.setattr(moments, "_BLOCK_AMPS", plan.n_groups * amps.shape[1] - 1)
        calls = []

        def counted(*args):
            calls.append((args[1], args[0].shape[1]))
            return statesim._apply_single(*args)

        monkeypatch.setattr(moments, "_apply_single", counted)
        values, errors = sampled_moments(amps, plan, 300, [3, 1, 4, 1])
        blocks = 4 // per_block
        per = len(calls) // blocks
        assert len(calls) == per * blocks and 0 < per <= 2 * len(_turned_qubits(powers))
        assert calls == calls[:per] * blocks
        assert all(rows == per_block for _, rows in calls)
        monkeypatch.setattr(moments, "_apply_single", statesim._apply_single)
        for a, seed, v, e in zip(amps, [3, 1, 4, 1], values, errors):
            alone = sampled_one(statesim.State(a), plan, 300, seed)
            assert v.tolist() == alone[0].tolist() and e.tolist() == alone[1].tolist()

    def test_zero_sum_has_no_groups(self):
        circuit = Circuit(n_qubits=2, n_params=0, gates=())
        state = apply_circuit(circuit, np.array([]))
        plan = _plan(PauliSum.zero(2), 2)
        est, err = sampled_one(state, plan, 10, 0)
        assert plan.n_groups == 0
        assert list(est) == [1.0, 0.0, 0.0] and list(err) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "shots", [2.5, 2.999, 500.0, np.float64(500), True, np.bool_(True),
                  "500", 1, 0, -3, 2**63, 10**19]
    )
    def test_shot_count_must_be_an_integer_in_range(self, h2, shots):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError, match="shots"):
            sampled_one(state, _plan(h2.hamiltonian, 2), shots)

    @pytest.mark.parametrize("shots", [np.int32(400), np.int64(400), np.uint16(400)])
    def test_numpy_integer_shots_count(self, h2, shots):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian, 2)
        a = sampled_one(state, plan, shots, 4)
        b = sampled_one(state, plan, 400, 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
