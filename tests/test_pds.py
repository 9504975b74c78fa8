"""Tests for the moment-functional solver: roots, policies, and gradients."""

import numpy as np
import pytest
from pytest import approx

from helpers import dense_of
from pdsvqs.models import build_model
from pdsvqs.moments import MomentTable, moment_gradients, moment_table
from pdsvqs.pds import (
    ComplexRoots,
    PdsResult,
    RegPolicy,
    SingularMoments,
    VanishingDenominator,
    pds_gradient,
    pds_solve,
)


def table_from_moments(values):
    values = np.asarray(values, dtype=float)
    return MomentTable(max_order=values.size - 1, values=values)


def moments_of_weights(eigenvalues, weights, max_order):
    """Moment sequence of a state with the given spectral weights."""
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return np.array([np.sum(w * lam**n) for n in range(max_order + 1)])


class TestSolveBasics:
    def test_first_order_energy_is_mean(self):
        table = table_from_moments([1.0, 0.7, 1.3])
        res = pds_solve(table, 1)
        assert res.energy == approx(0.7, abs=1e-14)
        assert res.order == 1
        assert res.x.shape == (1,)
        assert res.roots.shape == (1,)

    def test_two_level_support_recovers_both_levels(self):
        values = moments_of_weights([-1.3, 0.8], [0.35, 0.65], 4)
        res = pds_solve(table_from_moments(values), 2)
        assert res.roots == approx([-1.3, 0.8], abs=1e-12)
        assert res.energy == approx(-1.3, abs=1e-12)

    def test_roots_sorted_ascending_and_energy_is_smallest(self):
        values = moments_of_weights([2.0, -0.5, 1.0], [0.2, 0.5, 0.3], 6)
        res = pds_solve(table_from_moments(values), 3)
        assert np.all(np.diff(res.roots) > 0)
        assert res.energy == res.roots[0]

    def test_clean_solve_records_no_regularization(self):
        values = moments_of_weights([-1.0, 1.0], [0.5, 0.5], 4)
        res = pds_solve(table_from_moments(values), 2)
        assert res.regularization_applied is False
        assert res.applied_kind is None
        assert res.applied_magnitude == 0.0
        assert res.imag_residue == approx(0.0, abs=1e-12)
        assert res.cond_m >= 1.0

    def test_order_below_one_rejected(self):
        table = table_from_moments([1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="at least 1"):
            pds_solve(table, 0)

    def test_short_table_rejected(self):
        table = table_from_moments([1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="needs moments up to"):
            pds_solve(table, 2)


class TestHandCraftedTables:
    def test_repeated_root_energy_ok_but_gradient_undefined(self):
        # x solves to (2, 1): the polynomial is (E + 1)^2 with a double root.
        table = table_from_moments([1.0, 0.0, -1.0, 2.0])
        table.gradients = np.zeros((1, 4))
        res = pds_solve(table, 2)
        assert res.energy == approx(-1.0, abs=1e-8)
        with pytest.raises(VanishingDenominator):
            pds_gradient(table, 2, res)

    def test_complex_root_pair_raises(self):
        # x solves to (0, 1): the polynomial is E^2 + 1 with roots +-i.
        table = table_from_moments([1.0, 0.0, -1.0, 0.0])
        with pytest.raises(ComplexRoots):
            pds_solve(table, 2)
        try:
            pds_solve(table, 2)
        except ComplexRoots as err:
            assert "imaginary" in str(err)

    def test_eigenstate_moments_singular_at_second_order(self):
        table = table_from_moments([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SingularMoments):
            pds_solve(table, 2)

    def test_gradient_requires_gradient_rows(self):
        values = moments_of_weights([-1.0, 1.0], [0.5, 0.5], 4)
        table = table_from_moments(values)
        res = pds_solve(table, 2)
        with pytest.raises(ValueError, match="no gradient rows"):
            pds_gradient(table, 2, res)


class TestPolicies:
    def well_conditioned(self):
        return table_from_moments(moments_of_weights([-1.0, 0.5], [0.4, 0.6], 4))

    def near_singular(self):
        # Nearly all weight on one level: the second-order system is still
        # solvable but badly conditioned.
        return table_from_moments(
            moments_of_weights([-1.0, 0.5], [1.0 - 1e-9, 1e-9], 4)
        )

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
        table = self.well_conditioned()
        strict = pds_solve(table, 2)
        adaptive = pds_solve(table, 2, RegPolicy.auto())
        assert adaptive.x.tolist() == strict.x.tolist()
        assert adaptive.roots.tolist() == strict.roots.tolist()
        assert adaptive.regularization_applied is False

    def test_auto_switches_to_shift_beyond_threshold(self):
        table = self.near_singular()
        adaptive = pds_solve(table, 2, RegPolicy.auto())
        assert adaptive.cond_m > 1e6
        assert adaptive.regularization_applied is True
        assert adaptive.applied_kind == "shift"
        assert adaptive.applied_magnitude == approx(1e-6)
        shifted = pds_solve(table, 2, RegPolicy.shift())
        assert adaptive.x.tolist() == shifted.x.tolist()

    def test_auto_threshold_is_configurable(self):
        table = self.well_conditioned()
        res = pds_solve(table, 2, RegPolicy.auto(cond_threshold=1.0))
        assert res.applied_kind == "shift"

    def test_shift_solves_displaced_system(self):
        table = self.well_conditioned()
        eps = 1e-3
        res = pds_solve(table, 2, RegPolicy.shift(eps))
        m = np.array(
            [[table.values[2], table.values[1]], [table.values[1], table.values[0]]]
        )
        y = np.array([table.values[3], table.values[2]])
        expected = np.linalg.solve(m + eps * np.eye(2), -y)
        assert res.x == approx(expected, abs=1e-15)
        assert res.applied_kind == "shift"
        assert res.applied_magnitude == eps

    def test_truncate_drops_small_singular_values(self):
        table = table_from_moments([1.0, 1.0, 1.0, 1.0])
        res = pds_solve(table, 2, RegPolicy.truncate())
        # The rank-1 system keeps only the consistent direction; the root
        # stays at the eigenvalue carried by the moments.
        assert res.applied_kind == "truncate"
        assert min(abs(res.roots - 1.0)) == approx(0.0, abs=1e-6)

    def test_shift_rescues_singular_table(self):
        table = table_from_moments([1.0, 1.0, 1.0, 1.0])
        res = pds_solve(table, 2, RegPolicy.shift())
        assert res.regularization_applied is True
        assert min(abs(res.roots - 1.0)) == approx(0.0, abs=1e-3)

    def test_gradient_replays_recorded_mechanism(self):
        table = self.near_singular()
        table.gradients = np.zeros((2, 4))
        table.gradients[0] = [0.0, 0.1, -0.2, 0.05]
        table.gradients[1] = [0.0, -0.3, 0.1, 0.2]
        res = pds_solve(table, 2, RegPolicy.auto())
        assert res.applied_kind == "shift"
        grad = pds_gradient(table, 2, res)
        assert np.all(np.isfinite(grad))
        # Rebuild the same implicit derivative using the shifted matrix.
        m = np.array(
            [[table.values[2], table.values[1]], [table.values[1], table.values[0]]]
        )
        shifted = m + res.applied_magnitude * np.eye(2)
        denom = 2 * res.energy + res.x[0]
        expected = np.zeros(2)
        for p in range(2):
            g = table.gradients[p]
            d_m = np.array([[g[2], g[1]], [g[1], g[0]]])
            d_y = np.array([g[3], g[2]])
            dx = np.linalg.solve(shifted, -d_y - d_m @ res.x)
            expected[p] = -(np.array([res.energy, 1.0]) @ dx) / denom
        assert grad == approx(expected, abs=1e-12)


class TestStartPointAnchors:
    """Regression anchors at the dihydrogen model's published start point."""

    @pytest.fixture(autouse=True)
    def _tables(self, h2):
        self.tables = {
            k: moment_table(h2.circuit, h2.theta0, h2.hamiltonian, 2 * k - 1)
            for k in (2, 3, 4)
        }

    def test_second_order_solves_directly(self):
        res = pds_solve(self.tables[2], 2, RegPolicy.auto())
        assert res.regularization_applied is False
        assert res.roots == approx([-0.2, 0.2], abs=1e-12)

    def test_higher_orders_fall_back_to_shift(self):
        for k in (3, 4):
            res = pds_solve(self.tables[k], k, RegPolicy.auto())
            assert res.applied_kind == "shift"
        with pytest.raises(SingularMoments):
            pds_solve(self.tables[4], 4)

    def test_fourth_order_shifted_roots(self):
        res = pds_solve(self.tables[4], 4, RegPolicy.auto())
        assert res.energy == approx(-0.2, abs=1e-4)


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
                table = MomentTable(max_order=2 * k - 1, values=moments[: 2 * k])
                try:
                    res = pds_solve(table, k)
                except SingularMoments:
                    singular[k] += 1
                    continue
                assert res.energy >= ground - 1e-9
                assert res.energy <= moments[1] + 1e-9
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
            table = MomentTable(max_order=2 * m + 1, values=moments)
            res = pds_solve(table, m)
            assert res.roots == approx(lam, abs=1e-7)
            if m >= 2:
                below = pds_solve(table, m - 1)
                assert below.energy >= lam[0] - 1e-9
            with pytest.raises(SingularMoments):
                pds_solve(
                    MomentTable(
                        max_order=2 * m + 1,
                        values=np.array(
                            [np.sum(weights * lam**n) for n in range(2 * m + 2)]
                        ),
                    ),
                    m + 1,
                )

    def test_single_eigenstate_is_first_order_exact(self, toy_a):
        dense = dense_of(toy_a.hamiltonian)
        evals, vecs = np.linalg.eigh(dense)
        moments = np.array([evals[2] ** n for n in range(4)])
        res = pds_solve(MomentTable(max_order=3, values=moments), 1)
        assert res.energy == approx(evals[2], abs=1e-12)


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
            table = moment_table(model.circuit, theta, model.hamiltonian, 3)
            try:
                res = pds_solve(table, 2)
            except (SingularMoments, ComplexRoots):
                continue
            if res.cond_m >= 1e4:
                continue
            fd = np.zeros(npar)
            ok = True
            for k in range(npar):
                e = np.eye(npar)[k]

                def energy(t):
                    return pds_solve(
                        moment_table(model.circuit, t, model.hamiltonian, 3), 2
                    ).energy

                try:
                    fd[k] = (
                        -energy(theta + 2 * h * e)
                        + 8 * energy(theta + h * e)
                        - 8 * energy(theta - h * e)
                        + energy(theta - 2 * h * e)
                    ) / (12 * h)
                except (SingularMoments, ComplexRoots):
                    ok = False
                    break
            if not ok or np.linalg.norm(fd) < 1e-2:
                continue
            table.gradients = moment_gradients(
                model.circuit, theta, model.hamiltonian, 3
            )
            grad = pds_gradient(table, 2, res)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)
            tested += 1

    def test_flat_surface_has_zero_gradient(self, h2):
        # The fourth-order functional is exact on this model, so the energy
        # root cannot respond to the parameters anywhere.
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=4)
            table = moment_table(h2.circuit, theta, h2.hamiltonian, 8)
            try:
                res = pds_solve(table, 4)
            except (SingularMoments, ComplexRoots):
                continue
            if res.cond_m >= 1e4:
                continue
            table.gradients = moment_gradients(h2.circuit, theta, h2.hamiltonian, 8)
            grad = pds_gradient(table, 4, res)
            assert np.linalg.norm(grad) < 1e-6
