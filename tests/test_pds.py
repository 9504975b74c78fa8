"""Tests for the moment-functional solver: roots, policies, and gradients."""

import numpy as np
import pytest
from pytest import approx

from helpers import dense_of, point_moments, point_rows, point_solve
from pdsvqs.models import build_model
from pdsvqs.pds import (
    ComplexRoots,
    RegPolicy,
    SingularMoments,
    VanishingDenominator,
    _gradient_rows,
)


def moments_of_weights(eigenvalues, weights, max_order):
    """Moment sequence of a state with the given spectral weights."""
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return np.array([np.sum(w * lam**n) for n in range(max_order + 1)])


class TestSolveBasics:
    def test_first_order_energy_is_mean(self):
        res = point_solve([1.0, 0.7, 1.3], 1)
        assert res.energy[0] == approx(0.7, abs=1e-14)
        assert res.order == 1
        assert res.x.shape == (1, 1)
        assert res.roots.shape == (1, 1)

    def test_two_level_support_recovers_both_levels(self):
        values = moments_of_weights([-1.3, 0.8], [0.35, 0.65], 4)
        res = point_solve(values, 2)
        assert res.roots[0] == approx([-1.3, 0.8], abs=1e-12)
        assert res.energy[0] == approx(-1.3, abs=1e-12)

    def test_roots_sorted_ascending_and_energy_is_smallest(self):
        values = moments_of_weights([2.0, -0.5, 1.0], [0.2, 0.5, 0.3], 6)
        res = point_solve(values, 3)
        assert np.all(np.diff(res.roots[0]) > 0)
        assert res.energy[0] == res.roots[0, 0]

    def test_clean_solve_records_no_regularization(self):
        values = moments_of_weights([-1.0, 1.0], [0.5, 0.5], 4)
        res = point_solve(values, 2)
        assert res.applied.tolist() == [False]
        assert res.errors[0] is None
        assert res.imag_residue[0] == approx(0.0, abs=1e-12)
        assert res.cond_m[0] >= 1.0


class TestHandCraftedTables:
    def test_repeated_root_energy_ok_but_gradient_undefined(self):
        # x solves to (2, 1): the polynomial is (E + 1)^2 with a double root.
        values = np.array([1.0, 0.0, -1.0, 2.0])
        res = point_solve(values, 2)
        assert res.energy[0] == approx(-1.0, abs=1e-8)
        grad, errors = _gradient_rows(values[None], np.zeros((1, 1, 4)), res)
        assert isinstance(errors[0], VanishingDenominator)
        assert np.isnan(grad).all()

    def test_complex_root_pair_raises(self):
        # x solves to (0, 1): the polynomial is E^2 + 1 with roots +-i.
        res = point_solve([1.0, 0.0, -1.0, 0.0], 2)
        assert isinstance(res.errors[0], ComplexRoots)
        assert "imaginary" in str(res.errors[0])
        assert np.isnan(res.energy[0])

    def test_eigenstate_moments_singular_at_second_order(self):
        res = point_solve([1.0, 1.0, 1.0, 1.0], 2)
        assert isinstance(res.errors[0], SingularMoments)


class TestPolicies:
    def well_conditioned(self):
        return moments_of_weights([-1.0, 0.5], [0.4, 0.6], 4)

    def near_singular(self):
        # Nearly all weight on one level: the second-order system is still
        # solvable but badly conditioned.
        return moments_of_weights([-1.0, 0.5], [1.0 - 1e-9, 1e-9], 4)

    def test_policy_kind_validation(self):
        with pytest.raises(ValueError, match="unknown regularization kind"):
            RegPolicy(kind="ridge")

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["shift_eps", "rcond", "cond_threshold"])
    def test_policy_magnitudes_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            RegPolicy(kind="auto", **{name: value})

    def test_default_policy_is_strict(self):
        assert RegPolicy().kind == "none"
        assert RegPolicy.none().kind == "none"

    def test_auto_matches_direct_solve_when_well_conditioned(self):
        values = self.well_conditioned()
        strict = point_solve(values, 2)
        adaptive = point_solve(values, 2, RegPolicy.auto())
        assert adaptive.x.tolist() == strict.x.tolist()
        assert adaptive.roots.tolist() == strict.roots.tolist()
        assert adaptive.applied.tolist() == [False]

    def test_auto_switches_to_shift_beyond_threshold(self):
        values = self.near_singular()
        adaptive = point_solve(values, 2, RegPolicy.auto())
        assert adaptive.cond_m[0] > 1e6
        assert adaptive.applied.tolist() == [True]
        assert adaptive.kind == "shift"
        assert adaptive.magnitude == approx(1e-6)
        shifted = point_solve(values, 2, RegPolicy.shift())
        assert adaptive.x.tolist() == shifted.x.tolist()

    def test_auto_threshold_is_configurable(self):
        res = point_solve(self.well_conditioned(), 2, RegPolicy.auto(cond_threshold=1.0))
        assert res.applied.tolist() == [True]
        assert res.kind == "shift"

    def test_shift_solves_displaced_system(self):
        values = self.well_conditioned()
        eps = 1e-3
        res = point_solve(values, 2, RegPolicy.shift(eps))
        m = np.array([[values[2], values[1]], [values[1], values[0]]])
        y = np.array([values[3], values[2]])
        expected = np.linalg.solve(m + eps * np.eye(2), -y)
        assert res.x[0] == approx(expected, abs=1e-15)
        assert res.kind == "shift"
        assert res.magnitude == eps

    def test_truncate_drops_small_singular_values(self):
        res = point_solve([1.0, 1.0, 1.0, 1.0], 2, RegPolicy.truncate())
        # The rank-1 system keeps only the consistent direction; the root
        # stays at the eigenvalue carried by the moments.
        assert res.kind == "truncate"
        assert np.nanmin(abs(res.roots[0] - 1.0)) == approx(0.0, abs=1e-6)

    def test_shift_rescues_singular_table(self):
        res = point_solve([1.0, 1.0, 1.0, 1.0], 2, RegPolicy.shift())
        assert res.applied.tolist() == [True]
        assert res.errors[0] is None
        assert np.nanmin(abs(res.roots[0] - 1.0)) == approx(0.0, abs=1e-3)

    def test_gradient_replays_recorded_mechanism(self):
        values = self.near_singular()
        grads = np.zeros((2, 4))
        grads[0] = [0.0, 0.1, -0.2, 0.05]
        grads[1] = [0.0, -0.3, 0.1, 0.2]
        res = point_solve(values, 2, RegPolicy.auto())
        assert res.applied.tolist() == [True]
        assert res.kind == "shift"
        grad, errors = _gradient_rows(values[None], grads[None], res)
        assert errors[0] is None
        assert np.all(np.isfinite(grad))
        # Rebuild the same implicit derivative using the shifted matrix.
        m = np.array([[values[2], values[1]], [values[1], values[0]]])
        shifted = m + res.magnitude * np.eye(2)
        energy, x = res.energy[0], res.x[0]
        denom = 2 * energy + x[0]
        expected = np.zeros(2)
        for p in range(2):
            g = grads[p]
            d_m = np.array([[g[2], g[1]], [g[1], g[0]]])
            d_y = np.array([g[3], g[2]])
            dx = np.linalg.solve(shifted, -d_y - d_m @ x)
            expected[p] = -(np.array([energy, 1.0]) @ dx) / denom
        assert grad[0] == approx(expected, abs=1e-12)


class TestStartPointAnchors:
    """Regression anchors at the dihydrogen model's published start point."""

    @pytest.fixture(autouse=True)
    def _tables(self, h2):
        self.tables = {
            k: point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 2 * k - 1)
            for k in (2, 3, 4)
        }

    def test_second_order_solves_directly(self):
        res = point_solve(self.tables[2], 2, RegPolicy.auto())
        assert res.applied.tolist() == [False]
        assert res.roots[0] == approx([-0.2, 0.2], abs=1e-12)

    def test_higher_orders_fall_back_to_shift(self):
        for k in (3, 4):
            res = point_solve(self.tables[k], k, RegPolicy.auto())
            assert res.applied.tolist() == [True]
            assert res.kind == "shift"
        assert isinstance(point_solve(self.tables[4], 4).errors[0], SingularMoments)

    def test_fourth_order_shifted_roots(self):
        res = point_solve(self.tables[4], 4, RegPolicy.auto())
        assert res.energy[0] == approx(-0.2, abs=1e-4)


class TestVariationalChain:
    """The smallest root sits between the ground energy and the mean."""

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_bounds_on_random_states(self, name):
        model = build_model(name)
        dense = dense_of(model.hamiltonian)
        evals = np.linalg.eigvalsh(dense)
        ground = evals[0]
        rng = np.random.default_rng(424242)
        dim = dense.shape[0]
        singular = {k: 0 for k in (1, 2, 3, 4)}
        for _ in range(200):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            moments = np.array(
                [np.vdot(vec, np.linalg.matrix_power(dense, n) @ vec).real
                 for n in range(8)]
            )
            moments[0] = 1.0
            for k in (1, 2, 3, 4):
                res = point_solve(moments[: 2 * k], k)
                if isinstance(res.errors[0], SingularMoments):
                    singular[k] += 1
                    continue
                assert res.errors[0] is None
                assert res.energy[0] >= ground - 1e-9
                assert res.energy[0] <= moments[1] + 1e-9
        if name == "toy_b":
            # Three distinct eigenvalues: the fourth-order system is
            # structurally rank-deficient for every trial state.
            assert singular[4] == 200
        assert singular[1] == singular[2] == 0


class TestKrylovExactness:
    """Support on m levels makes the order-m roots the exact eigenvalues."""

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_constructed_support_states(self, name):
        model = build_model(name)
        dense = dense_of(model.hamiltonian)
        evals, vecs = np.linalg.eigh(dense)
        distinct = []
        for idx, lam in enumerate(evals):
            if not distinct or lam - evals[distinct[-1]] > 1e-9:
                distinct.append(idx)
        rng = np.random.default_rng(7)
        max_m = min(4, len(distinct))
        for m in range(1, max_m + 1):
            picks = distinct[:m]
            weights = rng.uniform(0.2, 1.0, size=m)
            weights /= weights.sum()
            lam = evals[picks]
            moments = np.array(
                [np.sum(weights * lam**n) for n in range(2 * m + 2)]
            )
            res = point_solve(moments, m)
            assert res.roots[0] == approx(lam, abs=1e-7)
            if m >= 2:
                below = point_solve(moments, m - 1)
                assert below.energy[0] >= lam[0] - 1e-9
            assert isinstance(point_solve(moments, m + 1).errors[0], SingularMoments)

    def test_single_eigenstate_is_first_order_exact(self, toy_a):
        dense = dense_of(toy_a.hamiltonian)
        evals, vecs = np.linalg.eigh(dense)
        moments = np.array([evals[2] ** n for n in range(4)])
        res = point_solve(moments, 1)
        assert res.energy[0] == approx(evals[2], abs=1e-12)


class TestGradientAgainstDifferences:
    """Analytic root gradients match high-order central differences."""

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_second_order_gradient(self, name):
        model = build_model(name)
        rng = np.random.default_rng(5)
        npar = model.circuit.n_params
        h = 1e-4
        tested = 0
        while tested < 10:
            theta = rng.uniform(-np.pi, np.pi, size=npar)
            values = point_moments(model.circuit, theta, model.hamiltonian, 3)
            res = point_solve(values, 2)
            if res.errors[0] is not None or res.cond_m[0] >= 1e4:
                continue
            fd = np.zeros(npar)
            for k in range(npar):
                e = np.eye(npar)[k]

                def energy(t):
                    moments = point_moments(model.circuit, t, model.hamiltonian, 3)
                    return point_solve(moments, 2).energy[0]

                # A failed solve reads NaN, which fails the norm test below.
                fd[k] = (
                    -energy(theta + 2 * h * e)
                    + 8 * energy(theta + h * e)
                    - 8 * energy(theta - h * e)
                    + energy(theta - 2 * h * e)
                ) / (12 * h)
            if not np.linalg.norm(fd) >= 1e-2:
                continue
            rows = point_rows(model.circuit, theta, model.hamiltonian, 3)
            grad, errors = _gradient_rows(values[None], rows[None], res)
            assert errors[0] is None
            assert np.linalg.norm(grad[0] - fd) <= 1e-6 * np.linalg.norm(fd)
            tested += 1

    def test_flat_surface_has_zero_gradient(self, h2):
        # The fourth-order functional is exact on this model, so the energy
        # root cannot respond to the parameters anywhere.
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=4)
            values = point_moments(h2.circuit, theta, h2.hamiltonian, 8)
            res = point_solve(values, 4)
            if res.errors[0] is not None or res.cond_m[0] >= 1e4:
                continue
            rows = point_rows(h2.circuit, theta, h2.hamiltonian, 8)
            grad, errors = _gradient_rows(values[None], rows[None], res)
            assert errors[0] is None
            assert np.linalg.norm(grad) < 1e-6
