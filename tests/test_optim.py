"""Tests for metric construction, the descent step, and the run driver."""

import dataclasses

import numpy as np
import pytest
from pytest import approx

from helpers import (
    dense_fidelity, per_state_sampled_table, point_gradient, point_moments, point_solve,
    random_circuit,
)
from pdsvqs import moments, optim, statesim
from pdsvqs.models import build_model, hardware_efficient_ansatz, load_hamiltonian
from pdsvqs.optim import IterationRecord, Trajectory, _metric_rows, run, run_batch, step
from pdsvqs.pauli import PauliSum
from pdsvqs.pds import RegPolicy, VanishingDenominator
from pdsvqs.statesim import Circuit, Gate, _derivative_states, apply_circuit


def point_metric(circuit, theta, kind):
    """The ngd or ite metric at one point, from one forward walk."""
    walk = _derivative_states(circuit, np.asarray(theta, dtype=float)[None])
    return _metric_rows(kind, walk[:, 1:], walk[:, 0])[0]


class TestMetric:
    def test_gd_metric_is_identity(self, toy_a):
        # gd steps with R = identity: every record reads condition number 1.
        traj = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, max_iters=2)
        assert [r.metric_cond for r in traj.records] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("kind", ["ngd", "ite"])
    def test_controlled_ansatz_closed_form(self, toy_a, kind, rng):
        # First parameter drives a plain rotation; the second only acts on
        # the control-set branch whose weight is sin^2(theta_0 / 2).
        for _ in range(5):
            th = rng.uniform(-np.pi, np.pi, size=2)
            expected = np.diag([0.25, np.sin(th[0] / 2) ** 2 / 4])
            assert point_metric(toy_a.circuit, th, kind) == approx(expected, abs=1e-12)

    def test_singular_at_closed_control(self, toy_a):
        m = point_metric(toy_a.circuit, np.array([0.0, 1.3]), "ite")
        assert np.linalg.det(m) == approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["ngd", "ite"])
    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_symmetric_positive_semidefinite(self, kind, name, rng, request):
        model = request.getfixturevalue(name)
        for _ in range(3):
            th = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
            m = point_metric(model.circuit, th, kind)
            assert m == approx(m.T, abs=1e-12)
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    @pytest.mark.parametrize("kind", ["ngd", "ite"])
    def test_metric_equals_its_transpose_bit_for_bit(self, kind, rng):
        # The Gram and the rank-one parts are built from products that
        # commute term by term, so no symmetrization is needed.
        for n in (2, 3, 4):
            base = random_circuit(rng, n, 14, 3)
            shared = (Gate("cry", 0, control=1, param=0, multiplier=2.0, offset=0.4),
                      Gate("ry", n - 1, param=0, multiplier=-0.5))
            circuit = Circuit(n, 3, base.gates + shared, base.initial_bits)
            walk = _derivative_states(circuit, rng.uniform(-np.pi, np.pi, size=(8, 3)))
            m = _metric_rows(kind, walk[:, 1:], walk[:, 0])
            assert np.array_equal(m, np.swapaxes(m, -1, -2))

    def test_ngd_projects_out_pure_phase_directions(self):
        # A z-rotation on a basis state only moves the global phase.  The
        # natural-gradient metric assigns that direction zero length while
        # the overlap-of-derivatives metric keeps the full 1/4.
        circuit = Circuit(
            n_qubits=1,
            n_params=2,
            gates=[
                Gate(kind="rz", target=0, param=1),
                Gate(kind="rx", target=0, param=0),
            ],
        )
        th = np.array([0.9, 0.4])
        m_ngd = point_metric(circuit, th, "ngd")
        m_ite = point_metric(circuit, th, "ite")
        assert m_ite[1, 1] == approx(0.25, abs=1e-12)
        assert m_ngd[1, 1] == approx(0.0, abs=1e-12)
        assert m_ngd[0, 0] == approx(0.25, abs=1e-12)

    def test_unknown_kind_rejected(self, toy_a):
        starts = np.stack([toy_a.theta0, -toy_a.theta0])
        with pytest.raises(ValueError, match="unknown metric kind"):
            run_batch(toy_a.hamiltonian, toy_a.circuit, starts, metric_kind="newton")


class TestStep:
    def test_plain_update_is_exact(self):
        theta = np.array([0.3, -0.7])
        grad = np.array([0.11, 0.29])
        assert step(theta, grad, None, 0.05) == approx(theta - 0.05 * grad, abs=0)

    def test_identity_metric_reproduces_plain_update(self):
        theta = np.array([1.0, 2.0, -0.5])
        grad = np.array([0.2, -0.1, 0.7])
        plain = step(theta, grad, None, 0.1)
        preconditioned = step(theta, grad, np.eye(3), 0.1)
        assert preconditioned == approx(plain, abs=1e-15)

    def test_quarter_metric_quadruples_the_step(self):
        theta = np.zeros(2)
        grad = np.array([1.0, -2.0])
        new = step(theta, grad, np.diag([0.25, 0.25]), 0.05)
        assert new == approx(-4 * 0.05 * grad, abs=1e-12)

    def test_singular_metric_amplifies_null_direction(self):
        theta = np.zeros(2)
        grad = np.array([1.0, 1.0])
        new = step(theta, grad, np.diag([0.25, 0.0]), 1.0, eps=1e-6)
        # The null eigenvalue is lifted to eps, so that component moves by
        # roughly 1/eps while the regular one stays near 1/0.25.
        assert new[1] == approx(-1e6, rel=1e-3)
        assert new[0] == approx(-4.0, rel=1e-3)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, np.inf])
    def test_rejects_eps_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            step(np.zeros(2), np.ones(2), np.zeros((2, 2)), 0.1, eps=eps)

    @pytest.mark.parametrize("metric", [None, np.eye(2)])
    @pytest.mark.parametrize("eta", [0.0, -0.05, np.nan, np.inf])
    def test_rejects_eta_that_is_not_finite_and_positive(self, eta, metric):
        # The message run_batch gives for the same eta.
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            step(np.zeros(2), np.ones(2), metric, eta)

    def test_asymmetric_input_symmetrized(self):
        theta = np.zeros(2)
        grad = np.array([1.0, 0.0])
        skew = np.array([[0.5, 0.1], [0.3, 0.5]])
        sym = 0.5 * (skew + skew.T)
        assert step(theta, grad, skew, 0.1) == approx(
            step(theta, grad, sym, 0.1), abs=1e-15
        )


class TestRunDriver:
    def test_record_layout_and_count(self, toy_a):
        traj = run(
            toy_a.hamiltonian,
            toy_a.circuit,
            toy_a.theta0,
            order=2,
            max_iters=5,
            grad_tol=0.0,
            ground_basis=toy_a.ground_basis,
        )
        assert traj.status == "max_iters"
        assert len(traj.records) == 6
        assert [r.iteration for r in traj.records] == list(range(6))
        for r in traj.records:
            assert 0.0 <= r.fidelity <= 1.0
            assert r.roots.shape == (2,)
            assert np.isfinite(r.energy)
        assert np.isnan(traj.final.step_size)

    def test_first_record_is_the_start_point(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, max_iters=3
        )
        assert traj.records[0].theta == approx(np.asarray(toy_a.theta0))

    def test_gd_iterates_follow_explicit_updates(self, toy_a):
        traj = run(
            toy_a.hamiltonian,
            toy_a.circuit,
            toy_a.theta0,
            order=2,
            eta=0.05,
            max_iters=4,
            grad_tol=0.0,
        )
        # Each recorded point must be the previous one moved by eta times
        # the recorded gradient direction; recompute from scratch.
        for prev, cur in zip(traj.records, traj.records[1:]):
            assert np.linalg.norm(cur.theta - prev.theta) == approx(
                0.05 * prev.grad_norm, rel=1e-12
            )

    def test_first_order_functional_matches_vqe(self, toy_b):
        # VQE is the order-1 functional: its one root is <H> itself.
        traj = run(
            toy_b.hamiltonian, toy_b.circuit, toy_b.theta0,
            order=1, eta=0.05, max_iters=20, grad_tol=0.0,
        )
        assert len(traj.records) == 21
        assert all(r.roots.tolist() == [r.energy] for r in traj.records)
        assert [r.energy for r in traj.records] == [r.expval_h for r in traj.records]

    def test_grad_tol_reports_converged(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            order=2, grad_tol=1e-3, max_iters=2000,
        )
        assert traj.status == "converged"
        assert traj.final.grad_norm < 1e-3
        assert np.isnan(traj.final.step_size)

    def test_inv_iter_schedule_recorded(self, heisenberg):
        traj = run(
            heisenberg.hamiltonian,
            heisenberg.circuit,
            heisenberg.theta0,
            order=2,
            eta=1.0,
            schedule="inv_iter",
            max_iters=4,
            grad_tol=0.0,
        )
        steps = [r.step_size for r in traj.records[:-1]]
        assert steps == approx([1.0, 0.5, 1 / 3, 0.25])

    def test_strict_policy_failure_sets_error_status(self, h2):
        traj = run(
            h2.hamiltonian,
            h2.circuit,
            h2.theta0,
            order=4,
            pds_policy=RegPolicy("none"),
            max_iters=10,
        )
        assert traj.status == "error"
        assert "iteration 0" in traj.message
        assert traj.records == []

    def test_default_policy_survives_degenerate_start(self, h2):
        traj = run(h2.hamiltonian, h2.circuit, h2.theta0, order=4, max_iters=3)
        assert traj.status in ("converged", "max_iters")
        assert len(traj.records) >= 1

    def test_metric_cond_recorded_for_ngd(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            order=2, metric_kind="ngd", max_iters=2, grad_tol=0.0,
        )
        assert all(r.metric_cond >= 1.0 for r in traj.records)
        gd = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            order=2, metric_kind="gd", max_iters=2, grad_tol=0.0,
        )
        assert all(r.metric_cond == 1.0 for r in gd.records)

    def test_sampled_run_is_seed_deterministic(self, toy_a):
        kw = dict(order=2, max_iters=3, grad_tol=0.0, shots=2000)
        a = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=5, **kw)
        b = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=5, **kw)
        c = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=6, **kw)
        assert a.thetas == approx(b.thetas, abs=0)
        assert not np.allclose(a.thetas, c.thetas)

    def test_validation_errors(self, toy_a):
        with pytest.raises(ValueError, match="unknown schedule"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, schedule="cosine")
        with pytest.raises(ValueError, match="unknown metric kind"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, metric_kind="adam")
        with pytest.raises(ValueError, match="parameter count"):
            run(toy_a.hamiltonian, toy_a.circuit, np.zeros(3))
        with pytest.raises(ValueError, match="at least 1"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, order=0)

    @pytest.mark.parametrize("shots", [None, 500])
    def test_rejects_unknown_gradient_method(self, toy_a, shots):
        # Each mode has one gradient route, so there is no method to pick.
        with pytest.raises(TypeError, match="gradient_method"):
            run(
                toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
                gradient_method="shift", shots=shots, max_iters=2,
            )

    @pytest.mark.parametrize("option", [
        {"order": 2.5}, {"order": True}, {"order": 2.0}, {"max_iters": 1.5},
        {"max_iters": False}, {"max_iters": "3"}, {"seed": 1.5}, {"seed": True},
    ])
    @pytest.mark.parametrize("shots", [None, 200])
    def test_rejects_non_integer_counts(self, toy_a, option, shots):
        (name, value), = option.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, shots=shots, **option)

    def test_numpy_integer_counts_match_python_ints(self, toy_a):
        h, circuit, start = toy_a.hamiltonian, toy_a.circuit, toy_a.theta0
        want = run(h, circuit, start, order=2, max_iters=2, seed=3, shots=200, grad_tol=0.0)
        got = run(h, circuit, start, order=np.int64(2), max_iters=np.int64(2), seed=np.int32(3),
                  shots=200, grad_tol=0.0)
        assert got.records == want.records and got.status == want.status

    def test_rejects_negative_max_iters(self, toy_a):
        with pytest.raises(ValueError, match="max_iters must be non-negative"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, max_iters=-1)
        traj = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, max_iters=0)
        assert len(traj.records) == 1 and traj.status == "max_iters"

    def test_non_orthonormal_ground_basis_rejected_before_simulating(
        self, toy_a, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a circuit was simulated")

        monkeypatch.setattr(optim, "_simulate", refuse)
        monkeypatch.setattr(moments, "_simulate", refuse)
        monkeypatch.setattr(optim, "_derivative_states", refuse)
        basis = np.array([[1.0, 1.0, 0.0, 0.0]]).T
        with pytest.raises(ValueError, match="orthonormal"):
            run(
                toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
                metric_kind="ngd", ground_basis=basis,
            )

    def test_run_without_basis_builds_no_eigensystem(self, heisenberg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the driver diagonalized H")

        monkeypatch.setattr(optim, "exact_eigensystem", refuse, raising=False)
        monkeypatch.setattr(statesim, "exact_eigensystem", refuse)
        traj = run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=2, max_iters=2, grad_tol=0.0,
        )
        assert len(traj.records) == 3
        assert all(np.isnan(r.fidelity) for r in traj.records)

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2", "heisenberg"])
    def test_exact_analytic_gd_builds_no_derivative_states(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a gd iterate walked the derivative states")

        monkeypatch.setattr(optim, "_derivative_states", refuse)
        monkeypatch.setattr(statesim, "_derivative_states", refuse)
        model = build_model(name)
        starts = np.stack([model.theta0, model.theta0 + 0.3])
        for traj in run_batch(
            model.hamiltonian, model.circuit, starts,
            order=3, metric_kind="gd", max_iters=3, grad_tol=0.0,
        ):
            assert traj.status == "max_iters" and len(traj.records) == 4

    @pytest.mark.parametrize("kind,trials", [("gd", 0), ("ngd", 2)])
    def test_iterate_walks_once_and_reuses_its_state(
        self, toy_b, kind, trials, monkeypatch
    ):
        # An exact analytic ngd iterate walks the circuit once, for its state
        # and derivative states, and only its trial points simulate on their
        # own.  A gd iterate walks never: it simulates its state once and
        # takes its rows from the backward sweep.
        calls = {"walk": 0, "simulate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        walk = counted("walk", statesim._derivative_states)
        simulate = counted("simulate", statesim._simulate)
        monkeypatch.setattr(optim, "_derivative_states", walk)
        monkeypatch.setattr(optim, "_simulate", simulate)
        monkeypatch.setattr(moments, "_simulate", simulate)
        run(
            toy_b.hamiltonian, toy_b.circuit, toy_b.theta0,
            order=2, metric_kind=kind, max_iters=2, grad_tol=0.0,
        )
        iterates = 3
        if kind == "gd":
            assert calls == {"walk": 0, "simulate": iterates + trials}
        else:
            assert calls == {"walk": iterates, "simulate": trials}

    @pytest.mark.parametrize("kind,shots", [("gd", None), ("gd", 500), ("ngd", None)])
    def test_vqe_is_the_order_one_functional(self, toy_b, kind, shots):
        # Order 1 is VQE: under the default auto policy its 1 x 1 moment
        # matrix, exactly 1, is solved directly, with the bits of "none".
        kw = dict(order=1, metric_kind=kind, shots=shots,
                  max_iters=10, grad_tol=0.0, ground_basis=toy_b.ground_basis)
        start = (3 * np.pi / 8 + 0.05, 0.05)
        default = run(toy_b.hamiltonian, toy_b.circuit, start, **kw)
        strict = run(toy_b.hamiltonian, toy_b.circuit, start,
                     pds_policy=RegPolicy("none"), **kw)
        assert_same_trajectory(default, strict)

    def test_ground_basis_checked_once_per_run(self, h2, monkeypatch):
        checks = []

        def counted(*args, **kwargs):
            checks.append(args)
            return statesim._basis_adjoint(*args, **kwargs)

        monkeypatch.setattr(optim, "_basis_adjoint", counted)
        traj = run(
            h2.hamiltonian, h2.circuit, h2.theta0, order=2, metric_kind="ngd",
            max_iters=4, grad_tol=0.0, ground_basis=h2.ground_basis,
        )
        assert len(checks) == 1 and len(traj.records) == 5
        for rec in traj.records:
            state = apply_circuit(h2.circuit, rec.theta)
            assert rec.fidelity == dense_fidelity(state.amplitudes, h2.ground_basis)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_moment_functional_escapes_vqe_trap_points(self, toy_b, sign):
        # Plain energy descent with a metric stalls near these starts; the
        # second-order functional under plain descent reaches the ground
        # energy from both of them.
        start = (sign * 3 * np.pi / 8 + 0.05, 0.05)
        traj = run(
            toy_b.hamiltonian, toy_b.circuit, start,
            order=2, eta=0.05,
            max_iters=2000, grad_tol=0.0,
        )
        assert np.abs(traj.energies - 0.0).min() <= 1e-6

    def test_energy_decreases_on_the_toy_landscape(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, (0.8, 0.8),
            order=2, eta=0.05, max_iters=600, grad_tol=0.0,
        )
        energies = traj.energies
        assert energies[-1] <= energies[0]
        assert energies[-1] == approx(0.0, abs=1e-3)


class TestPreconditionedStepRule:
    @staticmethod
    def energy_and_gradient(model, theta):
        values = point_moments(model.circuit, theta, model.hamiltonian, 3)
        solved = point_solve(values, 2, RegPolicy("auto"))
        grad, error = point_gradient(model.circuit, theta, model.hamiltonian, solved)
        assert error is None
        return solved.energy[0], grad

    @pytest.mark.parametrize("name", ["toy_a", "toy_b"])
    def test_ngd_reaches_ground_from_former_cycling_start(self, name, request):
        # With the bare preconditioned step, toy_a alternates across the
        # valley at theta_2 = -pi (E = 0.018 after 250 steps) and toy_b locks
        # into the 2-cycle theta_2 <-> -theta_2 at E = 0.44.
        model = request.getfixturevalue(name)
        traj = run(
            model.hamiltonian, model.circuit, (-np.pi / 8, -np.pi / 8),
            order=2, metric_kind="ngd", eta=0.05, max_iters=250, grad_tol=0.0,
        )
        assert np.abs(traj.energies).min() <= 1e-6

    @pytest.mark.parametrize("kind", ["ngd", "ite"])
    def test_step_that_does_not_lower_the_functional_falls_back(
        self, toy_b, kind
    ):
        theta = np.array([-np.pi / 8, -np.pi / 8])
        energy, grad = self.energy_and_gradient(toy_b, theta)
        trial = step(theta, grad, point_metric(toy_b.circuit, theta, kind), 0.05)
        assert self.energy_and_gradient(toy_b, trial)[0] > energy
        kw = dict(order=2, eta=0.05, max_iters=1, grad_tol=0.0)
        pre = run(toy_b.hamiltonian, toy_b.circuit, theta, metric_kind=kind, **kw)
        # The fallback is the plain step along the iterate's own gradient
        # (walk rows; a gd run's swept rows differ in the last bits).
        assert pre.thetas[1] == approx(theta - 0.05 * grad, abs=0)
        assert pre.records[0].preconditioned is False

    def test_step_that_lowers_the_functional_is_taken(self, toy_a):
        theta = np.array([0.8, 0.8])
        energy, grad = self.energy_and_gradient(toy_a, theta)
        trial = step(theta, grad, point_metric(toy_a.circuit, theta, "ngd"), 0.05)
        assert self.energy_and_gradient(toy_a, trial)[0] < energy
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, theta,
            order=2, metric_kind="ngd", eta=0.05, max_iters=1, grad_tol=0.0,
        )
        assert traj.thetas[1] == approx(trial, abs=1e-12)

    def test_restart_from_an_iterate_reproduces_the_run(self, toy_b):
        kw = dict(order=2, metric_kind="ngd", eta=0.05, grad_tol=0.0)
        start = (-np.pi / 8, -np.pi / 8)
        whole = run(toy_b.hamiltonian, toy_b.circuit, start, max_iters=40, **kw)
        head = run(toy_b.hamiltonian, toy_b.circuit, start, max_iters=20, **kw)
        tail = run(
            toy_b.hamiltonian, toy_b.circuit, head.final.theta, max_iters=20, **kw
        )
        assert tail.thetas == approx(whole.thetas[20:], abs=0)
        assert tail.energies == approx(whole.energies[20:], abs=0)


def assert_same_trajectory(a, b):
    """Two trajectories agree bit for bit, record by record, the failed
    iterate's record included."""
    assert (a.status, a.message, len(a.records)) == (b.status, b.message, len(b.records))
    assert type(a.error) is type(b.error)
    assert a.records == b.records and a.failed == b.failed


class TestRunBatch:
    """``run_batch`` moves every start at once; each row is ``run`` from it."""

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2"])
    @pytest.mark.parametrize("kind", ["gd", "ngd", "ite"])
    @pytest.mark.parametrize("order", [2, 3])
    def test_each_row_equals_run_from_its_start(self, name, kind, order, request):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng([order, len(kind), len(name)])
        starts = np.vstack(
            [model.theta0, rng.uniform(-np.pi, np.pi, (3, model.circuit.n_params))]
        )
        kw = dict(order=order, metric_kind=kind, eta=model.eta,
                  max_iters=15, grad_tol=1e-7)
        rows = run_batch(model.hamiltonian, model.circuit, starts, **kw)
        assert len(rows) == len(starts)
        for start, row in zip(starts, rows):
            assert_same_trajectory(
                row, run(model.hamiltonian, model.circuit, start, **kw)
            )

    def test_rows_stop_at_their_own_iterations(self, toy_a):
        grid = [-np.pi + (k + 0.5) * np.pi / 2 for k in range(4)]
        starts = [(a, b) for a in grid for b in grid]
        kw = dict(order=2, metric_kind="ngd", max_iters=300, grad_tol=1e-6)
        rows = run_batch(toy_a.hamiltonian, toy_a.circuit, starts, **kw)
        lengths = {len(row.records) for row in rows}
        assert all(row.status == "converged" for row in rows)
        assert len(lengths) > 1 and max(lengths) < 301
        for start, row in zip(starts, rows):
            alone = run(toy_a.hamiltonian, toy_a.circuit, start, **kw)
            assert len(row.records) == len(alone.records)
            assert row.final.theta == approx(alone.final.theta, abs=0)

    def test_trial_points_are_handed_on_only_when_all_accepted(self, toy_a, monkeypatch):
        # A stepping iterate evaluates its trial points once.  When every row
        # accepted, they are the next iterate's; otherwise the next iterate
        # evaluates the whole stack again from its walk's states.
        calls, walks = [], []
        exact_points, derivative_states = optim._exact_points, optim._derivative_states

        def walked(circuit, thetas):
            walks.append(derivative_states(circuit, thetas))
            return walks[-1]

        def counted(op, amps, order, policy):
            calls.append(("walk" if np.shares_memory(amps, walks[-1]) else "trial", len(amps)))
            return exact_points(op, amps, order, policy)

        monkeypatch.setattr(optim, "_derivative_states", walked)
        monkeypatch.setattr(optim, "_exact_points", counted)
        grid = [-np.pi + (k + 0.5) * np.pi / 2 for k in range(4)]
        starts = [(a, b) for a in grid for b in grid]
        rows = run_batch(toy_a.hamiltonian, toy_a.circuit, starts, order=2,
                         metric_kind="ngd", max_iters=300, grad_tol=1e-6)
        expected, seen = [("walk", 16)], set()
        for i in range(max(len(row.records) for row in rows)):
            kinds = [row.records[i].preconditioned for row in rows
                     if len(row.records) > i and row.records[i].preconditioned is not None]
            if kinds:
                expected.append(("trial", len(kinds)))
                if not all(kinds):
                    expected.append(("walk", len(kinds)))
                seen.add(all(kinds))
        assert calls == expected
        assert seen == {True, False}

    def test_failing_row_leaves_the_others_alone(self, h2):
        good = np.array([0.3, -1.2, 2.0, 0.5])
        kw = dict(order=4, pds_policy=RegPolicy("none"), max_iters=3, grad_tol=0.0)
        rows = run_batch(h2.hamiltonian, h2.circuit, [h2.theta0, good, h2.theta0], **kw)
        failed = run(h2.hamiltonian, h2.circuit, h2.theta0, **kw)
        assert failed.status == "error" and "rank-deficient" in failed.message
        assert_same_trajectory(rows[0], failed)
        assert_same_trajectory(rows[2], failed)
        alone = run(h2.hamiltonian, h2.circuit, good, **kw)
        assert alone.status == "max_iters" and len(alone.records) == 4
        assert_same_trajectory(rows[1], alone)

    def test_rows_failing_at_different_iterations(self, toy_a, monkeypatch):
        # Iterate k's gradient fails on the first row of the stack, k < 3:
        # start k fails at iteration k, and start 3 runs on to max_iters.
        def failing(solved):
            weights, errors = weights_of(solved)
            if len(calls) < 3:
                errors[0] = VanishingDenominator(f"injected {len(calls)}")
            calls.append(len(solved.energy))
            return weights, errors

        weights_of, calls = optim._weights, []
        starts = [(0.3 * b - 1.0, 0.2 * b + 0.5) for b in range(4)]
        kw = dict(order=2, max_iters=5, grad_tol=0.0)
        clean = run_batch(toy_a.hamiltonian, toy_a.circuit, starts, **kw)
        monkeypatch.setattr(optim, "_weights", failing)
        rows = run_batch(toy_a.hamiltonian, toy_a.circuit, starts, **kw)
        assert calls == [4, 3, 2, 1, 1, 1]
        assert [row.status for row in rows] == ["error"] * 3 + ["max_iters"]
        for k, (row, whole) in enumerate(zip(rows[:3], clean)):
            assert isinstance(row.error, VanishingDenominator)
            assert row.failed.iteration == len(row.records) == k
            assert row.message == f"iteration {k}: injected {k}"
            # The solve held, so the failed iterate keeps the clean run's energy.
            assert row.failed.energy == whole.records[k].energy
            assert row.failed.theta.tolist() == whole.records[k].theta.tolist()
            assert np.isnan(row.failed.grad_norm) and np.isnan(row.failed.step_size)
            for ra, rb in zip(row.records, whole.records):
                assert ra.theta.tolist() == rb.theta.tolist() and ra.energy == rb.energy
        assert_same_trajectory(rows[3], clean[3])
        assert rows[3].error is None and rows[3].failed is None

    def test_records_read_like_a_list_of_copies(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            order=2, metric_kind="ngd", max_iters=3, grad_tol=0.0,
        )
        assert len(traj.records) == 4 and traj.records != []
        assert [r.iteration for r in traj.records[1:]] == [1, 2, 3]
        assert traj.records[-1].iteration == traj.final.iteration == 3
        first = traj.records[0]
        first.theta += 1.0
        first.roots[:] = 0.0
        again = traj.records[0]
        assert again.theta == approx(toy_a.theta0, abs=0)
        assert not np.array_equal(again.roots, first.roots)
        with pytest.raises(IndexError):
            traj.records[4]

    @pytest.mark.parametrize(
        "shape", [(2,), (3, 3), (1, 1), (0, 2), (2, 2, 1)]
    )
    def test_rejects_other_shapes_and_no_rows(self, toy_a, shape):
        with pytest.raises(ValueError, match="thetas"):
            run_batch(toy_a.hamiltonian, toy_a.circuit, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_thetas(self, toy_a, bad):
        thetas = np.zeros((2, toy_a.circuit.n_params))
        thetas[1, 0] = bad
        with pytest.raises(ValueError, match="thetas must be finite"):
            run_batch(toy_a.hamiltonian, toy_a.circuit, thetas)

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("eta", np.nan, "eta must be finite and positive"),
            ("eta", np.inf, "eta must be finite and positive"),
            ("eta", 0.0, "eta must be finite and positive"),
            ("eta", -0.05, "eta must be finite and positive"),
            ("grad_tol", np.nan, "grad_tol must be finite and non-negative"),
            ("grad_tol", np.inf, "grad_tol must be finite and non-negative"),
            ("grad_tol", -1e-8, "grad_tol must be finite and non-negative"),
            ("metric_eps", np.nan, "metric_eps must be finite and positive"),
            ("metric_eps", 0.0, "metric_eps must be finite and positive"),
            ("metric_eps", -1.0, "metric_eps must be finite and positive"),
        ],
    )
    def test_rejects_bad_step_options(self, toy_a, option, value, message):
        with pytest.raises(ValueError, match=message):
            run_batch(
                toy_a.hamiltonian, toy_a.circuit, toy_a.theta0[None],
                metric_kind="ngd", max_iters=1, **{option: value},
            )

    @pytest.mark.parametrize("kind", ["gd"])
    def test_shot_row_draws_the_seeds_of_its_own_run(self, heisenberg, kind):
        model = heisenberg
        starts = [model.theta0, model.theta0 + 0.1, model.theta0 - 0.2]
        kw = dict(order=3, metric_kind=kind, shots=500, max_iters=3, grad_tol=0.0)
        rows = run_batch(model.hamiltonian, model.circuit, starts, seed=7, **kw)
        for b, (start, row) in enumerate(zip(starts, rows)):
            alone = run(model.hamiltonian, model.circuit, start, seed=7 + b, **kw)
            assert_same_trajectory(row, alone)


    @pytest.mark.parametrize("name", ["toy_b", "h2", "file"])
    def test_shot_pass_matches_the_per_state_loop(self, name, request, tmp_path, monkeypatch):
        # One sampling pass per iterate draws every state's bits as the loop
        # over states, one shift and one ``sampled_moments`` call each, does;
        # toy_b's CRY makes the shift rule act on the decomposed circuit.
        if name == "file":
            path = tmp_path / "h.txt"
            path.write_text("0.5 ZZI\n0.3 XIX\n-0.4 IYY\n0.2 IIZ\n")
            h, circuit = load_hamiltonian(path), hardware_efficient_ansatz(3, 2)
            start = np.full(circuit.n_params, 0.3)
        else:
            model = request.getfixturevalue(name)
            h, circuit, start = model.hamiltonian, model.circuit, model.theta0
        starts = [start, start + 0.2]
        kw = dict(order=3, shots=400, seed=5, max_iters=4, grad_tol=0.0)
        stacked = run_batch(h, circuit, starts, **kw)
        monkeypatch.setattr(optim, "_sampled_table", per_state_sampled_table)
        for got, want in zip(stacked, run_batch(h, circuit, starts, **kw)):
            assert len(got.records) == 5
            assert_same_trajectory(got, want)


    def test_shot_run_of_a_circuit_with_no_bound_gate(self):
        # No shift-rule state at all: the pass samples the iterates' states
        # alone, and the zero gradient converges at once.
        h = PauliSum.from_terms([(0.5, "ZI"), (0.3, "XX")])
        circuit = Circuit(2, 0, (Gate("ry", 0, offset=0.4), Gate("cnot", 1, control=0)))
        trajectories = run_batch(h, circuit, np.zeros((2, 0)), shots=100, max_iters=2)
        for t in trajectories:
            assert t.status == "converged" and len(t.records) == 1
            assert np.isfinite(t.records[0].energy)


class TestStepKind:
    """Records tell an accepted preconditioned step from the plain fallback."""

    def test_rejected_trials_match_fallback_steps(self, toy_a, monkeypatch):
        fallbacks = []

        def counted(theta, grad, metric_matrix, eta, eps=1e-6):
            if metric_matrix is None:
                fallbacks.append(eta)
            return step(theta, grad, metric_matrix, eta, eps)

        monkeypatch.setattr(optim, "step", counted)
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, (-np.pi / 8, -np.pi / 8),
            order=2, metric_kind="ngd", eta=0.05, max_iters=250, grad_tol=0.0,
        )
        kinds = [r.preconditioned for r in traj.records]
        assert kinds.count(False) == len(fallbacks) > 0
        assert kinds.count(True) > 0
        assert kinds[-1] is None and None not in kinds[:-1]

    @pytest.mark.parametrize("shots", [None, 500])
    def test_gd_and_shot_records_carry_none(self, toy_a, shots):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, order=2,
            metric_kind="gd", shots=shots, max_iters=3, grad_tol=0.0,
        )
        assert [r.preconditioned for r in traj.records] == [None] * 4


class TestHamiltonianWork:
    """Exact runs apply the compiled H; only shot runs expand its powers."""

    @pytest.mark.parametrize("kind", ["gd", "ngd"])
    def test_exact_run_never_expands_powers(self, heisenberg, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact run expanded Hamiltonian powers")

        monkeypatch.setattr(optim, "hamiltonian_powers", refuse)
        monkeypatch.setattr(moments, "hamiltonian_powers", refuse)
        traj = run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=3, metric_kind=kind, max_iters=3, grad_tol=0.0,
        )
        assert traj.status == "max_iters" and len(traj.records) == 4

    def test_shot_run_expands_powers_once(self, heisenberg, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return moments.hamiltonian_powers(*args, **kwargs)

        monkeypatch.setattr(optim, "hamiltonian_powers", counted)
        run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=3, shots=500, max_iters=2, grad_tol=0.0,
        )
        assert len(calls) == 1

    def test_shot_run_groups_the_power_union_once(self, heisenberg, monkeypatch):
        # Every sampled circuit of every iteration reuses one measurement plan.
        calls = {"_union": 0, "_qwc_rows": 0}

        def counted(name):
            original = getattr(moments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(moments, name, counted(name))
        traj = run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=3, shots=500, max_iters=2, grad_tol=0.0,
        )
        assert len(traj.records) == 3
        assert calls == {"_union": 1, "_qwc_rows": 1}

    def test_shot_iteration_simulates_the_circuit_once_per_point(
        self, heisenberg, monkeypatch
    ):
        # One stack: the state at theta, then both shifted circuits of its
        # one angle, counted wherever the driver and the shift-rule loop
        # simulate.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return statesim._simulate(*args, **kwargs)

        monkeypatch.setattr(optim, "_simulate", counted)
        monkeypatch.setattr(moments, "_simulate", counted)
        run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=3, shots=500, max_iters=0, grad_tol=0.0,
        )
        assert len(calls) == 1
        assert len(calls[0][1]) == 3

    @pytest.mark.parametrize(
        "shots", [2.5, 2.999, 1000.0, True, np.float32(8), 1, 2**63, 10**19]
    )
    def test_shot_count_checked_before_expanding_powers(
        self, heisenberg, shots, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("powers were expanded for a bad shot count")

        monkeypatch.setattr(optim, "hamiltonian_powers", refuse)
        with pytest.raises(ValueError, match="shots"):
            run_batch(
                heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0[None],
                order=3, shots=shots, max_iters=2,
            )

    @pytest.mark.parametrize("kind", ["ngd", "ite"])
    def test_shot_metric_rejected_before_expanding_powers(
        self, heisenberg, kind, monkeypatch
    ):
        # The ngd and ite metrics have no sampled estimate, so a finite-shot
        # run takes gd rather than precondition with an exact metric.
        def refuse(*args, **kwargs):
            raise AssertionError("powers were expanded for a rejected metric")

        monkeypatch.setattr(optim, "hamiltonian_powers", refuse)
        with pytest.raises(ValueError, match="finite-shot runs take metric_kind 'gd'"):
            run_batch(
                heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0[None],
                order=3, shots=500, metric_kind=kind, max_iters=2,
            )

    def test_numpy_integer_shots_count(self, toy_a):
        kw = dict(order=2, max_iters=2, grad_tol=0.0, seed=3)
        a = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, shots=np.int64(300), **kw)
        b = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, shots=300, **kw)
        assert_same_trajectory(a, b)

    def test_exact_run_rejects_non_hermitian(self, toy_a):
        h = PauliSum.from_terms([(1.0, "ZZ"), (1j, "XI")])
        with pytest.raises(ValueError, match="Hermitian"):
            run(h, toy_a.circuit, toy_a.theta0)


class TestTrajectoryContainer:
    def test_properties_round_trip(self):
        rec = IterationRecord(
            iteration=0,
            theta=np.array([0.1]),
            energy=-1.0,
            roots=np.array([-1.0]),
            expval_h=-0.5,
            fidelity=0.9,
            grad_norm=0.2,
            metric_cond=1.0,
            step_size=0.05,
        )
        traj = Trajectory(records=[rec], status="max_iters")
        assert traj.final is rec
        assert traj.energies == approx([-1.0])
        assert traj.thetas == approx(np.array([[0.1]]))

    def test_records_compare_field_by_field(self, toy_a):
        # No ground basis, so every fidelity is NaN; the final record's step
        # size is NaN and gd's ``preconditioned`` None.
        kw = dict(order=2, max_iters=2, grad_tol=0.0)
        a = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, **kw)
        b = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, **kw)
        assert np.isnan(a.final.fidelity) and np.isnan(a.final.step_size)
        assert a.records == b.records and a.records[-1] == b.records[-1] and a == b
        record = a.records[1]
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            other = True if value is None else value + 1 if np.isfinite(value).all() else 0.5
            assert dataclasses.replace(record, **{f.name: other}) != record, f.name
        assert dataclasses.replace(record, theta=record.theta[:1]) != record
        assert a.records != b.records[:2]


# Energies of a 20-iterate, 1000-shot order-3 heisenberg run with seed 7, as
# the one-generator-per-state sampler recorded them (each sampled state draws
# all its groups' counts from one ``default_rng`` in one multinomial call),
# with the shift-rule rows contracted with the energy weights.
# A change of seeds, group order or draw order moves an estimate by about
# 1/sqrt(shots), far beyond the tolerance.
RECORDED_SHOT_ENERGIES = [
    -3.5968962254465455, -3.5974514284343333, -3.59974300555637,
    -3.6004278979526143, -3.5977566365692417, -3.5976086674148693,
    -3.602129199743121, -3.6000533527291325, -3.5986760850539534,
    -3.598453403533876, -3.601247047829077, -3.596727726219018,
    -3.598615015717746, -3.598640402274942, -3.601452252036359,
    -3.598663167752044, -3.600633581701532, -3.5997016819517578,
    -3.596240588970831, -3.6008216542137115, -3.597973602394562,
]


def test_recorded_shot_energies_sit_at_the_ground_energy():
    # Guards the recording itself: its median lies within a quarter of the
    # gap to the first excited level (-2.4) of the ground energy -3.6.
    assert abs(np.median(RECORDED_SHOT_ENERGIES) - (-3.6)) <= 0.3


def test_shot_run_reproduces_recorded_energies(heisenberg):
    traj = run(
        heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
        order=3, shots=1000, seed=7, max_iters=20,
    )
    assert traj.status == "max_iters"
    assert traj.energies == approx(RECORDED_SHOT_ENERGIES, rel=1e-9, abs=0)
