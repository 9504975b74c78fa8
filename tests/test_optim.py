"""Tests for metric construction, the descent step, and the run driver."""

import numpy as np
import pytest
from pytest import approx

from helpers import point_moments, point_rows, point_solve
from pdsvqs import moments, optim, statesim
from pdsvqs.optim import IterationRecord, Trajectory, _metric_rows, run, run_batch, step
from pdsvqs.pauli import PauliSum
from pdsvqs.pds import RegPolicy, _gradient_rows
from pdsvqs.statesim import Circuit, Gate, _derivative_states, apply_circuit, fidelity


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
        kw = dict(eta=0.05, max_iters=20, grad_tol=0.0)
        pds1 = run(
            toy_b.hamiltonian, toy_b.circuit, toy_b.theta0,
            functional="pds", order=1, **kw,
        )
        vqe = run(
            toy_b.hamiltonian, toy_b.circuit, toy_b.theta0,
            functional="vqe", **kw,
        )
        assert pds1.energies == approx(vqe.energies, abs=1e-12)
        assert pds1.thetas == approx(vqe.thetas, abs=1e-12)

    def test_vqe_forces_first_order_roots(self, toy_a):
        traj = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            functional="vqe", order=3, max_iters=2,
        )
        assert traj.records[0].roots.shape == (1,)
        assert traj.records[0].energy == approx(traj.records[0].expval_h)

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
            pds_policy=RegPolicy.none(),
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

    def test_shift_rule_gradient_matches_analytic_run(self, toy_a):
        kw = dict(order=2, eta=0.05, max_iters=10, grad_tol=0.0)
        analytic = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            gradient_method="analytic", **kw,
        )
        shifted = run(
            toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
            gradient_method="shift", **kw,
        )
        assert shifted.thetas == approx(analytic.thetas, abs=1e-9)

    def test_sampled_run_is_seed_deterministic(self, toy_a):
        kw = dict(order=2, max_iters=3, grad_tol=0.0, shots=2000)
        a = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=5, **kw)
        b = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=5, **kw)
        c = run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, seed=6, **kw)
        assert a.thetas == approx(b.thetas, abs=0)
        assert not np.allclose(a.thetas, c.thetas)

    def test_validation_errors(self, toy_a):
        with pytest.raises(ValueError, match="unknown functional"):
            run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, functional="qaoa")
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
        with pytest.raises(ValueError, match="unknown gradient method"):
            run(
                toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
                gradient_method="bogus", shots=shots, max_iters=2,
            )

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

    @pytest.mark.parametrize("kind,trials", [("gd", 0), ("ngd", 2)])
    def test_iterate_walks_once_and_reuses_its_state(
        self, toy_b, kind, trials, monkeypatch
    ):
        # Each exact analytic iterate walks the circuit once, for its state
        # and derivative states; only ngd's trial points simulate on their own.
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
        assert calls == {"walk": 3, "simulate": trials}

    @pytest.mark.parametrize("shots", [None, 500])
    @pytest.mark.parametrize("kind", ["gd", "ngd"])
    @pytest.mark.parametrize("method", ["analytic", "shift"])
    def test_vqe_is_the_order_one_functional(self, toy_b, kind, method, shots):
        kw = dict(metric_kind=kind, gradient_method=method, shots=shots,
                  max_iters=10, grad_tol=0.0, ground_basis=toy_b.ground_basis)
        start = (3 * np.pi / 8 + 0.05, 0.05)
        vqe = run(toy_b.hamiltonian, toy_b.circuit, start, functional="vqe",
                  pds_policy=RegPolicy.shift(), **kw)
        pds = run(toy_b.hamiltonian, toy_b.circuit, start, functional="pds",
                  order=1, pds_policy=RegPolicy.none(), **kw)
        assert_same_trajectory(vqe, pds)

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
            assert rec.fidelity == fidelity(state, h2.ground_basis)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_moment_functional_escapes_vqe_trap_points(self, toy_b, sign):
        # Plain energy descent with a metric stalls near these starts; the
        # second-order functional under plain descent reaches the ground
        # energy from both of them.
        start = (sign * 3 * np.pi / 8 + 0.05, 0.05)
        traj = run(
            toy_b.hamiltonian, toy_b.circuit, start,
            functional="pds", order=2, eta=0.05,
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
        solved = point_solve(values, 2, RegPolicy.auto())
        rows = point_rows(model.circuit, theta, model.hamiltonian, 3)
        grad, errors = _gradient_rows(values[None], rows[None], solved)
        assert errors[0] is None
        return solved.energy[0], grad[0]

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
        plain = run(toy_b.hamiltonian, toy_b.circuit, theta, metric_kind="gd", **kw)
        assert pre.thetas[1] == approx(plain.thetas[1], abs=0)

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
    """Two trajectories agree bit for bit, record by record."""
    assert (a.status, a.message, len(a.records)) == (b.status, b.message, len(b.records))
    for ra, rb in zip(a.records, b.records):
        for name in ("theta", "energy", "roots", "expval_h", "fidelity",
                     "grad_norm", "metric_cond", "step_size"):
            assert np.array_equal(
                getattr(ra, name), getattr(rb, name), equal_nan=True
            ), (ra.iteration, name)
        assert (ra.iteration, ra.preconditioned) == (rb.iteration, rb.preconditioned)


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

    def test_failing_row_leaves_the_others_alone(self, h2):
        good = np.array([0.3, -1.2, 2.0, 0.5])
        kw = dict(order=4, pds_policy=RegPolicy.none(), max_iters=3, grad_tol=0.0)
        rows = run_batch(h2.hamiltonian, h2.circuit, [h2.theta0, good, h2.theta0], **kw)
        failed = run(h2.hamiltonian, h2.circuit, h2.theta0, **kw)
        assert failed.status == "error" and "rank-deficient" in failed.message
        assert_same_trajectory(rows[0], failed)
        assert_same_trajectory(rows[2], failed)
        alone = run(h2.hamiltonian, h2.circuit, good, **kw)
        assert alone.status == "max_iters" and len(alone.records) == 4
        assert_same_trajectory(rows[1], alone)

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

    @pytest.mark.parametrize("kind", ["gd", "ngd"])
    def test_shot_row_draws_the_seeds_of_its_own_run(self, heisenberg, kind):
        model = heisenberg
        starts = [model.theta0, model.theta0 + 0.1, model.theta0 - 0.2]
        kw = dict(order=3, metric_kind=kind, shots=500, max_iters=3, grad_tol=0.0)
        rows = run_batch(model.hamiltonian, model.circuit, starts, seed=7, **kw)
        for b, (start, row) in enumerate(zip(starts, rows)):
            alone = run(model.hamiltonian, model.circuit, start, seed=7 + b, **kw)
            assert_same_trajectory(row, alone)


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
        for kind in ("gd", "ngd") if shots else ("gd",):
            traj = run(
                toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, order=2,
                metric_kind=kind, shots=shots, max_iters=3, grad_tol=0.0,
            )
            assert [r.preconditioned for r in traj.records] == [None] * 4


class TestHamiltonianWork:
    """Exact runs apply the compiled H; only shot runs expand its powers."""

    @pytest.mark.parametrize("kind", ["gd", "ngd"])
    @pytest.mark.parametrize("method", ["analytic", "shift"])
    def test_exact_run_never_expands_powers(
        self, heisenberg, kind, method, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact run expanded Hamiltonian powers")

        monkeypatch.setattr(optim, "hamiltonian_powers", refuse)
        monkeypatch.setattr(moments, "hamiltonian_powers", refuse)
        traj = run(
            heisenberg.hamiltonian, heisenberg.circuit, heisenberg.theta0,
            order=3, metric_kind=kind, gradient_method=method,
            max_iters=3, grad_tol=0.0,
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
        # The state at theta plus the two shifted circuits of its one angle,
        # counted wherever the driver and the shift-rule loop simulate.
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
        assert len(calls) == 3

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


# Energies of a 20-iterate, 1000-shot order-3 heisenberg run with seed 7, as
# the one-generator-per-state sampler recorded them (each sampled state draws
# all its groups' counts from one ``default_rng`` in one multinomial call).
# A change of seeds, group order or draw order moves an estimate by about
# 1/sqrt(shots), far beyond the tolerance.
RECORDED_SHOT_ENERGIES = [
    -3.5968962254465455, -3.597409706607788, -3.598568972732489,
    -7.711230896545647, -4.412586739930429, -3.596645168546292,
    -3.598172220305616, -3.5950134512303653, -3.5958935328958344,
    -3.5972349297291837, -3.596631379520915, -3.596463082101528,
    -3.5979445440676425, -3.5968119221463626, -3.599682387256282,
    -3.598335811871358, -3.5989735912473164, -3.594219368287136,
    -3.5945875533300105, -3.5992482882860566, -3.5973534033469807,
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
