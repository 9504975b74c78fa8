"""Tests for the moment-functional solver: roots, policies, and gradients."""

from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from helpers import (
    dense_of, forward_gradient, point_gradient, point_moments, point_rows, point_solve,
)
from pdsvqs import pds
from pdsvqs.models import build_model
from pdsvqs.optim import run_batch
from pdsvqs.pds import (
    ComplexRoots,
    RegPolicy,
    SingularMoments,
    VanishingDenominator,
    _no_error,
    _solve_rows,
    _weights,
)


def moments_of_weights(eigenvalues, weights, max_order):
    """Moment sequence of a state with the given spectral weights."""
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return np.array([np.sum(w * lam**n) for n in range(max_order + 1)])


def moment_matrix(values, order, shift=0.0):
    """``M[i, j] = m_(2K-i-j)`` (1-based) written out entry by entry, plus
    ``shift`` on the diagonal."""
    k = order
    return np.array([[values[2 * k - i - j] + (shift if i == j else 0.0)
                      for j in range(1, k + 1)] for i in range(1, k + 1)])


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
        weights, errors = _weights(res)
        assert isinstance(errors[0], VanishingDenominator)
        assert weights.tolist() == [[0.0] * 4]

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
        for kind in ("ridge", "truncate"):
            with pytest.raises(ValueError, match="unknown regularization kind"):
                RegPolicy(kind=kind)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["shift_eps"])
    def test_policy_magnitudes_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            RegPolicy(kind="auto", **{name: value})

    def test_default_policy_is_strict(self):
        assert RegPolicy().kind == "none"
        assert RegPolicy("none").kind == "none"

    def test_auto_matches_direct_solve_when_well_conditioned(self):
        values = self.well_conditioned()
        strict = point_solve(values, 2)
        adaptive = point_solve(values, 2, RegPolicy("auto"))
        assert adaptive.x.tolist() == strict.x.tolist()
        assert adaptive.roots.tolist() == strict.roots.tolist()
        assert adaptive.applied.tolist() == [False]

    def test_auto_switches_to_shift_beyond_threshold(self):
        values = self.near_singular()
        adaptive = point_solve(values, 2, RegPolicy("auto"))
        assert adaptive.cond_m[0] > 1e6
        assert adaptive.applied.tolist() == [True]
        assert adaptive.magnitude == approx(1e-6)
        assert adaptive.matrix[0].tolist() == moment_matrix(values, 2, 1e-6).tolist()
        shifted = point_solve(values, 2, RegPolicy("shift"))
        assert adaptive.x.tolist() == shifted.x.tolist()

    def test_auto_threshold_is_configurable(self, monkeypatch):
        monkeypatch.setattr(pds, "_COND_THRESHOLD", 1.0)
        values = self.well_conditioned()
        res = point_solve(values, 2, RegPolicy("auto"))
        assert res.applied.tolist() == [True]
        assert res.magnitude == 1e-6
        assert res.matrix[0].tolist() == moment_matrix(values, 2, 1e-6).tolist()

    def test_shift_solves_displaced_system(self):
        values = self.well_conditioned()
        eps = 1e-3
        res = point_solve(values, 2, RegPolicy("shift", shift_eps=eps))
        m = np.array([[values[2], values[1]], [values[1], values[0]]])
        y = np.array([values[3], values[2]])
        expected = np.linalg.solve(m + eps * np.eye(2), -y)
        assert res.x[0] == approx(expected, abs=1e-15)
        assert res.applied.tolist() == [True]
        assert res.magnitude == eps
        assert res.matrix[0].tolist() == (m + eps * np.eye(2)).tolist()

    def test_mixed_stack_keeps_each_rows_matrix(self):
        # Rows 1 and 3 cross the auto threshold and are shifted; 0 and 2 are not.
        values = np.array([self.well_conditioned(), self.near_singular(),
                           moments_of_weights([-0.7, 1.2], [0.3, 0.7], 4),
                           moments_of_weights([-2.0, 0.1], [1.0 - 1e-10, 1e-10], 4)])
        res = _solve_rows(values, 2, RegPolicy("auto"))
        assert res.applied.tolist() == [False, True, False, True]
        weights, errors = _weights(res)
        assert _no_error(errors).all()
        for b, row in enumerate(values):
            shift = res.magnitude if res.applied[b] else 0.0
            assert res.matrix[b].tobytes() == moment_matrix(row, 2, shift).tobytes()
            alone = _solve_rows(row[None], 2, RegPolicy("auto"))
            assert alone.applied[0] == res.applied[b]
            assert res.x[b].tobytes() == alone.x[0].tobytes()
            assert res.energy[b].tobytes() == alone.energy[0].tobytes()
            assert weights[b].tobytes() == _weights(alone)[0][0].tobytes()

    def test_shift_rescues_singular_table(self):
        res = point_solve([1.0, 1.0, 1.0, 1.0], 2, RegPolicy("shift"))
        assert res.applied.tolist() == [True]
        assert res.errors[0] is None
        assert np.nanmin(abs(res.roots[0] - 1.0)) == approx(0.0, abs=1e-3)

    def test_gradient_replays_recorded_mechanism(self):
        values = self.near_singular()
        grads = np.zeros((2, 4))
        grads[0] = [0.0, 0.1, -0.2, 0.05]
        grads[1] = [0.0, -0.3, 0.1, 0.2]
        res = point_solve(values, 2, RegPolicy("auto"))
        assert res.applied.tolist() == [True]
        assert res.magnitude == approx(1e-6)
        assert res.matrix[0].tolist() == moment_matrix(values, 2, res.magnitude).tolist()
        weights, errors = _weights(res)
        assert errors[0] is None
        grad = grads @ weights[0]
        assert np.all(np.isfinite(grad))
        # The same implicit derivative through the shifted matrix, evaluated
        # in exact rational arithmetic from the same float inputs: at
        # cond(M) ~ 1.8e9 a float evaluation of the formula is itself off by
        # about 1e-11.
        m = np.array([[values[2], values[1]], [values[1], values[0]]])
        (a, c), (_, d) = [[Fraction(v) for v in row] for row in m + res.magnitude * np.eye(2)]
        energy, x = Fraction(res.energy[0]), [Fraction(v) for v in res.x[0]]
        det = a * d - c * c
        denom = 2 * energy + x[0]
        expected = np.zeros(2)
        for p in range(2):
            g = [Fraction(v) for v in grads[p]]
            r0 = -g[3] - (g[2] * x[0] + g[1] * x[1])
            r1 = -g[2] - (g[1] * x[0] + g[0] * x[1])
            dx = ((d * r0 - c * r1) / det, (a * r1 - c * r0) / det)
            expected[p] = float(-(energy * dx[0] + dx[1]) / denom)
        assert grad == approx(expected, abs=1e-12)


class TestWeightsAgainstForward:
    """The weights contracted with the derivative rows against the
    implicit-function rule solved one parameter at a time."""

    @pytest.mark.parametrize("kind", ["none", "shift", "auto"])
    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_contraction_matches_forward_gradient(self, name, kind):
        model = build_model(name)
        rng = np.random.default_rng(11)
        worst, tested = 0.0, 0
        for k in (1, 2, 3, 4):
            for _ in range(6):
                theta = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
                values = point_moments(model.circuit, theta, model.hamiltonian, 2 * k - 1)
                res = point_solve(values, k, RegPolicy(kind))
                if res.errors[0] is not None or res.cond_m[0] >= 1e4:
                    continue
                rows = point_rows(model.circuit, theta, model.hamiltonian, 2 * k - 1)
                weights, errors = _weights(res)
                expected, forward_errors = forward_gradient(values[None], rows[None], res)
                assert errors[0] is None and forward_errors[0] is None
                scale = max(1.0, np.abs(expected).max())
                worst = max(worst, np.abs(rows @ weights[0] - expected[0]).max() / scale)
                tested += 1
        assert tested >= 10 and worst <= 1e-10

    def test_errors_fire_on_the_same_rows(self):
        healthy = moments_of_weights([-1.0, 0.5], [0.4, 0.6], 3)
        # A double root, an eigenstate whose solve fails, and a row that
        # solved but whose gradient sees an exactly singular M.
        values = np.array([healthy, [1.0, 0.0, -1.0, 2.0], [1.0] * 4, healthy])
        res = _solve_rows(values, 2, RegPolicy("none"))
        res.matrix[3] = 0.0
        seen = values.copy()
        seen[3] = 0.0
        grads = np.random.default_rng(2).normal(size=(4, 3, 4))
        weights, errors = _weights(res)
        forward, forward_errors = forward_gradient(seen, grads, res)
        kinds = [type(e) for e in errors]
        assert kinds == [type(e) for e in forward_errors]
        assert kinds == [type(None), VanishingDenominator, SingularMoments, SingularMoments]
        assert not weights[1:].any() and np.isnan(forward[1:]).all()
        assert grads[0] @ weights[0] == approx(forward[0], rel=1e-12)


class TestStartPointAnchors:
    """Regression anchors at the dihydrogen model's published start point."""

    @pytest.fixture(autouse=True)
    def _tables(self, h2):
        self.tables = {
            k: point_moments(h2.circuit, h2.theta0, h2.hamiltonian, 2 * k - 1)
            for k in (2, 3, 4)
        }

    def test_second_order_solves_directly(self):
        res = point_solve(self.tables[2], 2, RegPolicy("auto"))
        assert res.applied.tolist() == [False]
        assert res.roots[0] == approx([-0.2, 0.2], abs=1e-12)

    def test_higher_orders_fall_back_to_shift(self):
        for k in (3, 4):
            res = point_solve(self.tables[k], k, RegPolicy("auto"))
            assert res.applied.tolist() == [True]
            assert res.magnitude == 1e-6
            assert res.matrix[0].tolist() == moment_matrix(self.tables[k], k, 1e-6).tolist()
        assert isinstance(point_solve(self.tables[4], 4).errors[0], SingularMoments)

    def test_fourth_order_shifted_roots(self):
        res = point_solve(self.tables[4], 4, RegPolicy("auto"))
        assert res.energy[0] == approx(-0.2, abs=1e-4)


class TestExactlySingularShift:
    """A shifted M that is still exactly singular is a row error, not a raise."""

    @pytest.mark.parametrize("kind", ["auto", "shift"])
    def test_iterate_zero_keeps_the_error(self, h2, kind):
        # At 1e6 times h2 the 1e-6 shift vanishes against the order-4 moments.
        (traj,) = run_batch(
            h2.hamiltonian.scaled(1e6), h2.circuit, h2.theta0[None], order=4,
            pds_policy=RegPolicy(kind), max_iters=0,
        )
        assert traj.status == "error" and traj.records == []
        assert isinstance(traj.error, SingularMoments)
        assert traj.message == f"iteration 0: {traj.error}"
        assert traj.message.startswith("iteration 0: moment matrix is singular (cond ~ ")
        failed = traj.failed
        assert failed.iteration == 0 and np.isnan(failed.energy)
        assert np.isnan(failed.grad_norm) and np.isnan(failed.step_size)
        assert failed.theta.tolist() == h2.theta0.tolist()
        assert np.isfinite(failed.expval_h)

    def test_singular_row_leaves_the_others_alone(self, h2):
        tables = np.array([
            point_moments(h2.circuit, h2.theta0, h2.hamiltonian.scaled(1e6), 7),
            moments_of_weights([-1.0, 0.5, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1], 7),
        ])
        both = _solve_rows(tables, 4, RegPolicy("shift"))
        alone = _solve_rows(tables[1:], 4, RegPolicy("shift"))
        assert isinstance(both.errors[0], SingularMoments) and both.errors[1] is None
        assert np.isnan(both.x[0]).all()
        assert both.x[1].tolist() == alone.x[0].tolist()
        assert both.roots[1].tolist() == alone.roots[0].tolist()

    def test_healthy_stack_is_one_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", counted)
        values = np.array([moments_of_weights([-1.0, 0.5], [0.4, 0.6], 3)] * 3)
        res = _solve_rows(values, 2, RegPolicy("shift"))
        assert len(calls) == 1 and _no_error(res.errors).all()

    def test_gradient_records_a_singular_solve(self):
        # Rows that solved, then a gradient whose M is exactly singular.
        values = np.array([moments_of_weights([-1.0, 0.5], [0.4, 0.6], 3)] * 2)
        res = _solve_rows(values, 2, RegPolicy("none"))
        res.matrix[1] = 0.0
        weights, errors = _weights(res)
        alone = _solve_rows(values[:1], 2, RegPolicy("none"))
        expected, _ = _weights(alone)
        assert errors[0] is None and weights[0].tolist() == expected[0].tolist()
        assert isinstance(errors[1], SingularMoments)
        assert "gradient solve" in str(errors[1]) and not weights[1].any()


class TestRankDeficientMessage:
    """A row that is singular under a direct solve has cond >= 1/_HARD_SINGULAR;
    its message reports that bound, since the digits past it are rounding."""

    def test_message_reports_the_bound(self, h2):
        (traj,) = run_batch(h2.hamiltonian, h2.circuit, h2.theta0[None], order=3,
                            pds_policy=RegPolicy("none"), max_iters=0)
        assert traj.message == ("iteration 0: moment matrix is rank-deficient (cond >= 1e+14); "
                                "the trial state spans too few eigenvectors")


def svd_cond(values, order):
    """Each row's condition number of M from its singular values."""
    svals = np.linalg.svd(np.array([moment_matrix(row, order) for row in values]), compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    return np.divide(smax, smin, out=np.full(len(svals), np.inf), where=smin != 0.0)


def conditioning_stack(order, rng):
    """Moment rows (B, 2K) of every conditioning kind, and the mask of the
    rows whose M is exactly rank-deficient."""
    k = order
    psd = [moments_of_weights(rng.uniform(-2.0, 2.0, 2 * k + 1), rng.uniform(0.1, 1.0, 2 * k + 1),
                              2 * k - 1) for _ in range(8)]
    indefinite = list(rng.normal(size=(8, 2 * k)))  # a Hankel M of random moments
    deficient = [moments_of_weights(rng.uniform(-2.0, 2.0, k - 1), rng.uniform(0.1, 1.0, k - 1),
                                    2 * k - 1) for _ in range(4 if k > 1 else 0)]
    deficient += [np.zeros(2 * k)]
    near = []
    if k > 1:
        # K levels, one of them weighted delta: cond ~ 1/delta, bisected onto
        # the auto switch and then moved off it by a relative 1e-8 .. 1e-2.
        levels = np.linspace(-2.0, 2.0, k)

        def row(delta):
            return moments_of_weights(levels, [(1 - delta) / (k - 1)] * (k - 1) + [delta], 2 * k - 1)

        lo, hi = -16.0, -2.0  # log10 delta; cond falls as delta grows here
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if svd_cond([row(10**mid)], k)[0] > pds._COND_THRESHOLD else (lo, mid)
        near = [row(10**lo * (1 + t)) for t in (-1e-2, -1e-4, -1e-6, -1e-8, 1e-8, 1e-6, 1e-4, 1e-2)]
    values = np.array(psd + indefinite + deficient + near)
    mask = np.zeros(len(values), dtype=bool)
    mask[len(psd) + len(indefinite):len(values) - len(near)] = True
    return values, mask


class TestEigenvalueConditioning:
    """M is symmetric, so the magnitudes of its eigenvalues are its singular
    values: the condition number and the policy switch are the SVD's."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_cond_matches_the_singular_values(self, order):
        values, deficient = conditioning_stack(order, np.random.default_rng(order))
        res = _solve_rows(values, order, RegPolicy("auto"))
        expected = svd_cond(values, order)
        # Both are backward stable, so they differ by about eps * cond: to
        # 1e-6 on every solvable row, and past the hard limit together on
        # the exactly rank-deficient ones.
        assert (expected[~deficient] <= 1e12).all()
        assert res.cond_m[~deficient] == approx(expected[~deficient], rel=1e-6)
        assert (expected[deficient] > 1 / pds._HARD_SINGULAR).all()
        assert (res.cond_m[deficient] > 1 / pds._HARD_SINGULAR).all()
        assert all(isinstance(e, SingularMoments) for e in
                   _solve_rows(values[deficient], order, RegPolicy("none")).errors)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_auto_switches_where_the_svd_route_did(self, order):
        values, _ = conditioning_stack(order, np.random.default_rng(order))
        res = _solve_rows(values, order, RegPolicy("auto"))
        expected = svd_cond(values, order)
        near = np.abs(expected / pds._COND_THRESHOLD - 1) < 1e-2
        assert near.sum() >= 4 and res.applied[near].any() and not res.applied[near].all()
        outside = np.abs(expected / pds._COND_THRESHOLD - 1) > 1e-6
        assert res.applied[outside].tolist() == (~(expected <= pds._COND_THRESHOLD))[outside].tolist()

    @pytest.mark.parametrize("kind", ["none", "shift", "auto"])
    def test_healthy_stack_is_three_lapack_calls(self, monkeypatch, kind):
        calls = {}
        for name in ("eigvalsh", "solve", "eigvals", "svd"):
            def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        values = np.array([moments_of_weights([-1.0, 0.5, 2.0], w, 3)
                           for w in ([0.4, 0.6, 0.0], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25])])
        res = _solve_rows(values, 2, RegPolicy(kind))
        assert _no_error(res.errors).all()
        assert calls == {"eigvalsh": 1, "solve": 1, "eigvals": 1}
        calls.clear()
        _weights(res)
        assert calls == {"solve": 1}


class TestNonFiniteMoments:
    """A row whose moments overflowed is recorded and kept out of LAPACK."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["none", "shift", "auto"])
    def test_bad_rows_are_recorded_and_the_others_keep_their_bits(self, kind, bad):
        healthy = np.array([moments_of_weights([-1.0, 0.5, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1], 5),
                            moments_of_weights([-2.0, 0.1, 1.0], [0.3, 0.3, 0.4], 5)])
        values = healthy[[0, 0, 1, 1]]
        values[1, 4] = bad
        values[3, 2:] = bad
        res = _solve_rows(values, 3, RegPolicy(kind))
        assert [type(e).__name__ for e in res.errors] == ["NoneType", "SingularMoments"] * 2
        assert str(res.errors[1]) == "moments m_4 are not finite"
        assert str(res.errors[3]) == "moments m_2, m_3, m_4, m_5 are not finite"
        assert np.isnan(res.x[1::2]).all() and np.isnan(res.energy[1::2]).all()
        assert np.isnan(res.cond_m[1::2]).all() and not res.applied[1::2].any()
        alone = _solve_rows(healthy, 3, RegPolicy(kind))
        weights, errors = _weights(res)
        alone_weights, _ = _weights(alone)
        assert errors.tolist() == res.errors.tolist() and not weights[1::2].any()
        for field in ("x", "roots", "energy", "cond_m", "applied", "matrix"):
            assert getattr(res, field)[::2].tobytes() == getattr(alone, field).tobytes()
        assert weights[::2].tobytes() == alone_weights.tobytes()


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
            grad, error = point_gradient(model.circuit, theta, model.hamiltonian, res)
            assert error is None
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)
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
            grad, error = point_gradient(h2.circuit, theta, h2.hamiltonian, res)
            assert error is None
            assert np.linalg.norm(grad) < 1e-6
