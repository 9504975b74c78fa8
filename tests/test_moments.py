"""Hamiltonian moments, their parameter derivatives, and shot-noise sampling."""

import numpy as np
import pytest
from pytest import approx

from helpers import (
    chain_pairs,
    dense_from_pairs,
    dense_of,
    per_order_sampled_moments,
    point_moments,
    point_rows,
    random_pairs,
)
from pdsvqs.models import build_model, hardware_efficient_ansatz
from pdsvqs.moments import (
    MeasurementPlan,
    _operator,
    hamiltonian_powers,
    sampled_moments,
    union_of_powers,
)
from pdsvqs import moments, optim, statesim
from pdsvqs.pauli import PauliSum
from pdsvqs.statesim import (
    Circuit,
    CompiledSum,
    Gate,
    _derivative_states,
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
        assert _operator(h, 3) is _operator(h, 5)

    def test_equal_copy_is_compiled_anew(self, h2):
        h = h2.hamiltonian
        first = _operator(h, 1)
        assert _operator(PauliSum.from_terms(h.terms()), 1) is not first

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
        for method in ("analytic", "shift"):
            rows = point_rows(h2.circuit, theta, h2.hamiltonian, 3, method=method)
            assert np.allclose(rows[:, 0], 0.0, atol=1e-14)

    def test_unknown_method(self, h2):
        starts = np.stack([h2.theta0, -h2.theta0])
        with pytest.raises(ValueError, match="unknown gradient method"):
            optim.run_batch(h2.hamiltonian, h2.circuit, starts, gradient_method="bogus")

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
        for method in ("analytic", "shift"):
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

    def test_rejects_non_hermitian(self, h2):
        h = PauliSum.from_terms([(1.0, "XX"), (1j, "ZI")])
        with pytest.raises(ValueError, match="Hermitian"):
            _operator(h, 3)

    def test_rejects_order_below_one(self, h2):
        with pytest.raises(ValueError, match="at least 1"):
            _operator(h2.hamiltonian, 0)


class TestUnionOfPowers:
    def test_union_collects_all_strings(self, h2):
        powers = hamiltonian_powers(h2.hamiltonian, 4)
        union = union_of_powers(powers)
        keys = {t.key for t in union.terms()}
        for p in powers[1:]:
            assert {t.key for t in p.terms()} <= keys

    def test_union_weight_is_max_magnitude(self, h2):
        powers = hamiltonian_powers(h2.hamiltonian, 3)
        union = union_of_powers(powers)
        for term in union.terms():
            best = max(
                abs(p.coefficient(term.label)) for p in powers[1:]
            )
            assert abs(term.coefficient) == approx(best, abs=1e-14)

    def test_needs_first_power(self):
        with pytest.raises(ValueError):
            union_of_powers([PauliSum.identity(2)])


def _plan(h, max_order=1):
    return MeasurementPlan(hamiltonian_powers(h, max_order))


class TestSampledExpectation:
    """Order-1 readout: ``<H>`` sampled through a plan of H alone."""

    def test_deterministic_given_seed(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian)
        est1, err1 = sampled_moments(state, plan, shots=400, seed=11)
        est2, err2 = sampled_moments(state, plan, shots=400, seed=11)
        assert np.array_equal(est1, est2) and np.array_equal(err1, err2)

    def test_seed_changes_draws(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian)
        est1, _ = sampled_moments(state, plan, shots=400, seed=1)
        est2, _ = sampled_moments(state, plan, shots=400, seed=2)
        assert est1[1] != est2[1]

    def test_basis_state_measured_exactly(self):
        # Z-basis strings on a computational basis state have zero variance
        circuit = Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="10")
        state = apply_circuit(circuit, np.array([]))
        for label, expected in (("ZI", -1.0), ("IZ", 1.0), ("ZZ", -1.0)):
            h = PauliSum.from_terms([(1.0, label)])
            est, err = sampled_moments(state, _plan(h), shots=64, seed=0)
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
            est, err = sampled_moments(state, _plan(h), shots=32, seed=0)
            assert est[1] == approx(expected), label
            assert err[1] == 0.0, label

    def test_estimates_near_exact(self, heisenberg):
        # Each string separately, so that errors cannot cancel in the sum.
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        from pdsvqs.statesim import expectation

        for term in heisenberg.hamiltonian.terms():
            string = PauliSum.from_terms([(1.0, term.label)])
            est, err = sampled_moments(state, _plan(string), shots=20000, seed=3)
            exact = expectation(state, string)
            assert abs(est[1] - exact) <= 6 * max(err[1], 1e-3), term.key

    def test_identity_term_is_free(self):
        # An identity string is a constant of every order, never sampled.
        circuit = Circuit(n_qubits=1, n_params=0, gates=())
        state = apply_circuit(circuit, np.array([]))
        h = PauliSum.from_terms([(2.0, "I")])
        est, err = sampled_moments(state, _plan(h, 2), shots=16, seed=0)
        assert list(est) == [1.0, 2.0, 4.0] and list(err) == [0.0, 0.0, 0.0]

    def test_too_few_shots(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError):
            sampled_moments(state, _plan(h2.hamiltonian), shots=1)


class TestSampledMoments:
    def test_matches_exact_within_errors(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        exact = point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 5)
        est, se = sampled_moments(state, _plan(h2.hamiltonian, 5), shots=200000, seed=5)
        assert est[0] == 1.0 and se[0] == 0.0
        for n in range(1, 6):
            slack = 5 * se[n] if se[n] > 0 else 1e-12
            assert abs(est[n] - exact[n]) <= slack, f"order {n}"

    def test_error_shrinks_with_shots(self, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        plan = _plan(heisenberg.hamiltonian, 3)
        _, se_small = sampled_moments(state, plan, shots=1000, seed=9)
        _, se_big = sampled_moments(state, plan, shots=100000, seed=9)
        # 100x the shots should cut the standard error by roughly 10x
        for n in range(1, 4):
            assert se_big[n] < 0.3 * se_small[n]

    def test_deterministic_given_seed(self, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        plan = _plan(heisenberg.hamiltonian, 2)
        a = sampled_moments(state, plan, shots=500, seed=21)
        b = sampled_moments(state, plan, shots=500, seed=21)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_eigenstate_zero_error(self):
        # diagonal H and a basis state: every group is Z-only, variance 0
        circuit = Circuit(n_qubits=2, n_params=0, gates=(), initial_bits="01")
        state = apply_circuit(circuit, np.array([]))
        h = PauliSum.from_terms([(1.5, "II"), (0.5, "IZ"), (-1.0, "ZZ")])
        est, se = sampled_moments(state, _plan(h, 3), shots=50, seed=0)
        assert np.allclose(se, 0.0)
        # |01> sits at diagonal entry 2 of diag(1,2,3,0)
        assert np.allclose(est, 2.0 ** np.arange(4), atol=1e-12)

    def test_too_few_shots(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError):
            sampled_moments(state, _plan(h2.hamiltonian, 2), shots=1)

    def test_plan_width_must_match_state(self, h2, heisenberg):
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        with pytest.raises(ValueError, match="qubit count"):
            sampled_moments(state, _plan(h2.hamiltonian), shots=10)


def _random_state(circuit, seed):
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, circuit.n_params)
    return apply_circuit(circuit, theta)


class TestSampledMatchesPerOrderLoop:
    """One readout matrix per group gives the bits of the per-order loop."""

    def _assert_bitwise(self, h, max_order, state, shots=500):
        powers = hamiltonian_powers(h, max_order)
        plan = MeasurementPlan(powers)
        for seed in range(5):
            values, errors = sampled_moments(state, plan, shots, seed=seed)
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


class TestSampledShape:
    """One rotation stack per sampled state, and the shot count checked."""

    def test_at_most_one_rotation_kernel_per_qubit(self, heisenberg, monkeypatch):
        plan = _plan(heisenberg.hamiltonian, 5)
        state = apply_circuit(heisenberg.circuit, heisenberg.theta0)
        calls = []

        def counted(*args):
            calls.append(args[1])
            return statesim._apply_single(*args)

        monkeypatch.setattr(moments, "_apply_single", counted)
        sampled_moments(state, plan, 100, seed=0)
        assert 0 < len(calls) <= heisenberg.hamiltonian.n_qubits
        assert calls == sorted(set(calls))

    def test_zero_sum_has_no_groups(self):
        circuit = Circuit(n_qubits=2, n_params=0, gates=())
        state = apply_circuit(circuit, np.array([]))
        plan = _plan(PauliSum.zero(2), 2)
        est, err = sampled_moments(state, plan, shots=10, seed=0)
        assert plan.n_groups == 0
        assert list(est) == [1.0, 0.0, 0.0] and list(err) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "shots", [2.5, 2.999, 500.0, np.float64(500), True, np.bool_(True),
                  "500", 1, 0, -3, 2**63, 10**19]
    )
    def test_shot_count_must_be_an_integer_in_range(self, h2, shots):
        state = apply_circuit(h2.circuit, h2.theta0)
        with pytest.raises(ValueError, match="shots"):
            sampled_moments(state, _plan(h2.hamiltonian, 2), shots)

    @pytest.mark.parametrize("shots", [np.int32(400), np.int64(400), np.uint16(400)])
    def test_numpy_integer_shots_count(self, h2, shots):
        state = apply_circuit(h2.circuit, h2.theta0)
        plan = _plan(h2.hamiltonian, 2)
        a = sampled_moments(state, plan, shots, seed=4)
        b = sampled_moments(state, plan, 400, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
