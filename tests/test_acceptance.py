"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one line ``criterion <id>: PASS|FAIL -- <measured values>``
before asserting, so a full run of this module yields a scorecard of the
package's quantitative claims.
"""

import numpy as np
import pytest
from pytest import approx

from helpers import (
    PAULI,
    dense_of,
    kron_all,
    point_gradient,
    point_moments,
    point_rows,
    point_solve,
    random_pairs,
)
from pdsvqs.measure import estimate_measurements
from pdsvqs.models import build_model
from pdsvqs.moments import MeasurementPlan, hamiltonian_powers, sampled_moments
from pdsvqs.optim import run, run_batch
from pdsvqs.pauli import PauliSum
from pdsvqs.pds import SingularMoments
from pdsvqs.statesim import apply_circuit


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def grid_starts(n=8):
    return [-np.pi + (k + 0.5) * 2.0 * np.pi / n for k in range(n)]


def reaches_ground(model, metric_kind, starts,
                   tol=1e-6, max_iters=2000, chunk=250):
    """Whether a second-order descent from each start hits the ground energy
    within budget.

    All starts advance together through ``run_batch``, in restartable chunks
    (the constant-step update depends only on the current point, so chunking
    reproduces the straight-through iterates).  A start stops at the first
    record within ``tol`` of the reference energy, or on a solver error.
    Returns one flag and the best deviation seen per start.
    """
    thetas = np.array(starts, dtype=float)
    reached = np.zeros(len(thetas), dtype=bool)
    best = np.full(len(thetas), np.inf)
    pending = list(range(len(thetas)))
    todo = max_iters
    while todo > 0 and pending:
        n = min(chunk, todo)
        trajectories = run_batch(
            model.hamiltonian, model.circuit, thetas[pending],
            order=2, metric_kind=metric_kind, eta=0.05,
            max_iters=n, grad_tol=0.0,
            ground_basis=model.ground_basis,
        )
        going = []
        for b, traj in zip(pending, trajectories):
            if not traj.records:
                continue
            devs = np.abs(traj.energies - model.reference_energy)
            best[b] = min(best[b], float(devs.min()))
            if best[b] <= tol:
                reached[b] = True
            elif traj.status != "error":
                thetas[b] = traj.final.theta
                going.append(b)
        pending = going
        todo -= n
    return reached, best


def test_criterion_1_exact_reference_values():
    toy_a = build_model("toy_a")
    heis = build_model("heisenberg")
    h2 = build_model("h2")
    dense = dense_of(toy_a.hamiltonian)
    diagonal_exact = np.array_equal(dense, np.diag([1.0, 2.0, 3.0, 0.0]))
    heis_dev = abs(heis.reference_energy - (-3.6))
    ground = heis.ground_basis[:, 0]
    z_total = sum(
        kron_all([PAULI["Z"] if q == k else PAULI["I"] for q in range(4)])
        for k in range(4)
    )
    mag_dev = abs(np.vdot(ground, z_total @ ground).real - (-4.0))
    h2_dev = abs(h2.reference_energy - (-np.sqrt(0.68)))
    ok = diagonal_exact and heis_dev <= 1e-12 and mag_dev <= 1e-12 and h2_dev <= 1e-12
    assert report(
        1, ok,
        f"diagonal exact={diagonal_exact}, spin ground dev={heis_dev:.2e}, "
        f"magnetization dev={mag_dev:.2e}, molecular ground dev={h2_dev:.2e}",
    )


def test_criterion_2_fourth_order_fast_convergence():
    h2 = build_model("h2")
    traj = run(
        h2.hamiltonian, h2.circuit, h2.theta0,
        order=4, metric_kind="gd", eta=0.05, max_iters=10,
    )
    devs = np.abs(traj.energies - h2.reference_energy)
    ok = bool((devs < 1e-12).any())
    first = int(np.argmax(devs < 1e-12)) if ok else -1
    assert report(
        2, ok,
        f"min deviation {devs.min():.3e} (tol 1e-12), first below at "
        f"iteration {first} of {len(devs) - 1}",
    )


def test_criterion_3_second_order_slow_convergence():
    # The h2 start lies in the invariant span{|01>, |10>} with zero ground
    # overlap, so it is a stationary point of the functional, and the escape
    # is seeded by floating-point residues (see the h2 model docstring).
    # Where the run lands on the two-level set, and so its fidelity, spreads
    # over 0.05..0.59 under offsets of 1e-16..1e-10 from the start; what the
    # method determines is the accurate energy from a two-level trial state
    # of modest quality.  The listed start and its +-1e-12 offsets along each
    # parameter are all checked.
    h2 = build_model("h2")
    e0 = h2.reference_energy
    levels = np.linalg.eigvalsh(dense_of(h2.hamiltonian))
    offsets = [np.zeros(4)] + [
        sign * 1e-12 * np.eye(4)[k] for k in range(4) for sign in (1, -1)
    ]
    start = None
    worst_dev, worst_level, worst_mix = 0.0, 0.0, 0.0
    fids, gaps = [], []
    for offset in offsets:
        traj = run(
            h2.hamiltonian, h2.circuit, h2.theta0 + offset,
            order=2, metric_kind="gd", eta=0.05, max_iters=100, grad_tol=0.0,
            ground_basis=h2.ground_basis,
        )
        if start is None:
            start = traj.records[0]
        final = traj.records[100]
        fid, root_2 = final.fidelity, final.roots[1]
        worst_dev = max(worst_dev, abs(final.energy - e0))
        worst_level = max(worst_level, float(np.abs(levels - root_2).min()))
        worst_mix = max(
            worst_mix, abs(final.expval_h - (fid * e0 + (1.0 - fid) * root_2))
        )
        fids.append(fid)
        gaps.append(final.expval_h - e0)
    trapped = start.fidelity <= 1e-12 and start.grad_norm <= 1e-10
    two_level = worst_level <= 1e-3 and worst_mix <= 1e-3
    modest = 0.01 <= min(fids) and max(fids) <= 0.9 and min(gaps) >= 0.1
    ok = trapped and worst_dev < 1e-3 and two_level and modest
    assert report(
        3, ok,
        f"start fidelity {start.fidelity:.1e} (tol 1e-12), gradient norm "
        f"{start.grad_norm:.1e} (tol 1e-10); over {len(offsets)} starts at "
        f"iteration 100: deviation <= {worst_dev:.3e} (tol 1e-3), root_2 "
        f"off a level by <= {worst_level:.1e}, two-level mixture residual "
        f"<= {worst_mix:.1e} (tol 1e-3), fidelity {min(fids):.4f}..."
        f"{max(fids):.4f} (band [0.01, 0.9]), <H> - E0 >= {min(gaps):.3f} "
        f"(min 0.1)",
    )


def test_criterion_4_vqe_plateau_all_metrics():
    h2 = build_model("h2")
    finals = {}
    for kind in ("gd", "ngd", "ite"):
        traj = run(
            h2.hamiltonian, h2.circuit, h2.theta0,
            order=1, metric_kind=kind, eta=0.05,
            max_iters=100, grad_tol=0.0,
        )
        finals[kind] = traj.records[100].energy
    devs = {k: abs(e - (-0.2)) for k, e in finals.items()}
    ok = all(d <= 0.02 for d in devs.values())
    assert report(
        4, ok,
        "energy at iteration 100: "
        + ", ".join(f"{k}={finals[k]:.4f} (|dev|={devs[k]:.4f})" for k in finals)
        + " vs plateau -0.2 within 0.02",
    )


def test_criterion_5a_second_order_grid_robustness():
    counts = {}
    for name in ("toy_a", "toy_b"):
        model = build_model(name)
        for kind in ("gd", "ngd", "ite"):
            starts = [(ti, tj) for ti in grid_starts() for tj in grid_starts()]
            converged, _ = reaches_ground(model, kind, starts)
            counts[name, kind] = int(converged.sum())
    detail = ", ".join(f"{n}/{k}={c}/64" for (n, k), c in counts.items())
    ok = all(c == 64 for c in counts.values())
    assert report("5a", ok, f"starts converged to E=0 within tol 1e-6: {detail}")


def test_criterion_5b_vqe_gd_trapped_at_origin_plateau():
    toy_a = build_model("toy_a")
    traj = run(
        toy_a.hamiltonian, toy_a.circuit, (0.01, 0.01),
        order=1, metric_kind="gd", eta=0.05,
        max_iters=500, grad_tol=0.0,
    )
    worst = float(np.abs(traj.energies - 1.0).max())
    ok = worst <= 1e-3 and len(traj.records) == 501
    assert report(
        "5b", ok,
        f"max |E - 1| over 500 iterations = {worst:.3e} (tol 1e-3)",
    )


def test_criterion_5c_vqe_metric_flows_stay_trapped():
    toy_b = build_model("toy_b")
    finals = {}
    for sign in (+1, -1):
        start = (sign * 3 * np.pi / 8 + 0.05, 0.05)
        for kind in ("ngd", "ite"):
            traj = run(
                toy_b.hamiltonian, toy_b.circuit, start,
                order=1, metric_kind=kind, eta=0.05,
                max_iters=2000, grad_tol=0.0,
            )
            finals[f"{kind}@{sign:+d}"] = traj.final.energy
    ok = all(e > 0.5 for e in finals.values())
    assert report(
        "5c", ok,
        "final energies "
        + ", ".join(f"{k}={v:.4f}" for k, v in finals.items())
        + " (all must stay above 0.5)",
    )


def test_criterion_6_spin_model_fast_convergence():
    heis = build_model("heisenberg")
    traj = run(
        heis.hamiltonian, heis.circuit, heis.theta0,
        order=2, metric_kind="gd", eta=1.0, schedule="inv_iter",
        max_iters=10, grad_tol=0.0, ground_basis=heis.ground_basis,
    )
    hit = [
        r.iteration
        for r in traj.records
        if r.fidelity >= 0.95 and abs(r.energy + 3.6) <= 0.05
    ]
    final = traj.final
    ok = bool(hit)
    assert report(
        6, ok,
        f"fidelity >= 0.95 and |E + 3.6| <= 0.05 first met at iteration "
        f"{hit[0] if hit else 'never'}; at iteration 10 fidelity="
        f"{final.fidelity:.4f}, deviation={abs(final.energy + 3.6):.3e}",
    )


MODELS = ("toy_a", "toy_b", "h2", "heisenberg")


def test_criterion_7a_variational_chain():
    rng = np.random.default_rng(424242)
    worst_low, worst_high, solved, singular = 0.0, 0.0, 0, 0
    for name in MODELS:
        model = build_model(name)
        dense = dense_of(model.hamiltonian)
        ground = np.linalg.eigvalsh(dense)[0]
        dim = dense.shape[0]
        mats = [np.linalg.matrix_power(dense, n) for n in range(8)]
        for _ in range(200):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            moments = np.array([np.vdot(vec, m @ vec).real for m in mats])
            moments[0] = 1.0
            for k in (1, 2, 3, 4):
                res = point_solve(moments[: 2 * k], k)
                if isinstance(res.errors[0], SingularMoments):
                    singular += 1
                    continue
                assert res.errors[0] is None
                solved += 1
                worst_low = max(worst_low, ground - res.energy[0])
                worst_high = max(worst_high, res.energy[0] - moments[1])
    ok = worst_low <= 1e-9 and worst_high <= 1e-9
    assert report(
        "7a", ok,
        f"{solved} solves over 200 states x 4 models x K=1..4 "
        f"({singular} rank-deficient skips); worst E0 undershoot "
        f"{worst_low:.2e}, worst mean overshoot {worst_high:.2e} (tol 1e-9)",
    )


def test_criterion_7b_krylov_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = 0
    for name in MODELS:
        model = build_model(name)
        dense = dense_of(model.hamiltonian)
        evals, _ = np.linalg.eigh(dense)
        distinct = []
        for idx, lam in enumerate(evals):
            if not distinct or lam - evals[distinct[-1]] > 1e-9:
                distinct.append(idx)
        for m in range(1, min(4, len(distinct)) + 1):
            lam = evals[distinct[:m]]
            weights = rng.uniform(0.2, 1.0, size=m)
            weights /= weights.sum()
            moments = np.array(
                [np.sum(weights * lam**n) for n in range(2 * m)]
            )
            res = point_solve(moments, m)
            worst = max(worst, float(np.abs(res.roots[0] - lam).max()))
            cases += 1
    ok = worst <= 1e-7
    assert report(
        "7b", ok,
        f"{cases} constructed support states; worst root error {worst:.2e} "
        f"against the supported eigenvalues",
    )


def test_criterion_7c_gradient_vs_finite_differences():
    h = 1e-4
    rng = np.random.default_rng(90210)
    worst_overall, lines = 0.0, []
    for name in MODELS:
        model = build_model(name)
        npar = model.circuit.n_params

        def energy_at(theta, k):
            values = point_moments(model.circuit, theta, model.hamiltonian, 2 * k - 1)
            return point_solve(values, k).energy[0]

        for k in (1, 2, 3, 4):
            tested, draws, worst = 0, 0, 0.0
            while tested < 50 and draws < 500:
                draws += 1
                theta = rng.uniform(-np.pi, np.pi, size=npar)
                values = point_moments(model.circuit, theta, model.hamiltonian, 2 * k - 1)
                res = point_solve(values, k)
                if res.errors[0] is not None or res.cond_m[0] >= 1e4:
                    continue
                fd = np.zeros(npar)
                for p in range(npar):
                    e = np.eye(npar)[p]
                    # A failed solve reads NaN, which fails the norm test below.
                    fd[p] = (
                        -energy_at(theta + 2 * h * e, k)
                        + 8 * energy_at(theta + h * e, k)
                        - 8 * energy_at(theta - h * e, k)
                        + energy_at(theta - 2 * h * e, k)
                    ) / (12 * h)
                if not np.linalg.norm(fd) >= 1e-2:
                    continue
                # The contracted gradient through the walk and through the
                # backward sweep, each checked.
                for method in ("analytic", "sweep"):
                    grad, error = point_gradient(
                        model.circuit, theta, model.hamiltonian, res, method=method
                    )
                    assert error is None
                    worst = max(
                        worst,
                        float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)),
                    )
                tested += 1
            worst_overall = max(worst_overall, worst)
            lines.append(f"{name}/K={k}:{tested}pts,{worst:.1e}")
    ok = worst_overall <= 1e-6
    assert report(
        "7c", ok,
        f"worst relative error {worst_overall:.2e} (tol 1e-6), contracted through "
        f"the walk and the sweep, over " + " ".join(lines),
    )


def test_criterion_7d_shift_rule_matches_analytic():
    rng = np.random.default_rng(31)
    worst = 0.0
    for name in MODELS:
        model = build_model(name)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=model.circuit.n_params)
            shifted = point_rows(
                model.circuit, theta, model.hamiltonian, 7, method="shift"
            )
            # The walk's analytic rows and the backward sweep's, each checked.
            for method in ("analytic", "sweep"):
                analytic = point_rows(
                    model.circuit, theta, model.hamiltonian, 7, method=method
                )
                worst = max(worst, float(np.abs(analytic - shifted).max()))
    ok = worst <= 1e-10
    assert report(
        "7d", ok,
        f"worst |analytic - shift-rule| moment derivative {worst:.2e} "
        f"(tol 1e-10) over 5 points x 4 models, orders to 7, walk and sweep rows",
    )


def test_criterion_7e_pauli_power_vs_dense():
    rng = np.random.default_rng(1055)
    worst = 0.0
    for name in MODELS:
        h = build_model(name).hamiltonian
        dense = dense_of(h)
        powers = hamiltonian_powers(h, 4)
        for n in range(5):
            diff = np.abs(
                dense_of(powers[n]) - np.linalg.matrix_power(dense, n)
            ).max()
            worst = max(worst, float(diff))
    for _ in range(20):
        n_qubits = int(rng.integers(1, 5))
        s = PauliSum.from_terms(random_pairs(rng, n_qubits, 5))
        dense = dense_of(s)
        powers = hamiltonian_powers(s, 3)
        for n in range(4):
            diff = np.abs(
                dense_of(powers[n]) - np.linalg.matrix_power(dense, n)
            ).max()
            worst = max(worst, float(diff))
    ok = worst <= 1e-10
    assert report(
        "7e", ok,
        f"worst |symbolic power - dense power| entry {worst:.2e} (tol 1e-10) "
        f"on the models and 20 random sums up to 4 qubits",
    )


def test_criterion_7f_grouped_vs_ungrouped_budget():
    rng = np.random.default_rng(1234)
    worst_excess, checked = -np.inf, 0
    for _ in range(100):
        n_qubits = int(rng.integers(1, 5))
        n_terms = int(rng.integers(2, 9))
        s = PauliSum.from_terms(random_pairs(rng, n_qubits, n_terms))
        grouped = estimate_measurements(s, 1e-2)
        split = estimate_measurements(s, 1e-2, groups=[[i] for i in range(len(s))])
        worst_excess = max(worst_excess, grouped - split)
        checked += 1
    ok = worst_excess <= 1e-9
    assert report(
        "7f", ok,
        f"{checked} random sums; max (grouped - ungrouped) shot budget "
        f"{worst_excess:.2e} (at most rounding-level 1e-9)",
    )


def test_criterion_7g_inverse_square_scaling():
    rng = np.random.default_rng(55)
    exact_halving = True
    worst_rel = 0.0
    for _ in range(20):
        n_qubits = int(rng.integers(1, 4))
        s = PauliSum.from_terms(random_pairs(rng, n_qubits, 4))
        base = estimate_measurements(s, 1e-3)
        exact_halving &= estimate_measurements(s, 5e-4) == 4.0 * base
        tripled = estimate_measurements(s, 1e-3 / 3.0)
        worst_rel = max(worst_rel, abs(tripled - 9.0 * base) / (9.0 * base))
    ok = exact_halving and worst_rel <= 1e-12
    assert report(
        "7g", ok,
        f"halving epsilon quadruples exactly: {exact_halving}; worst relative "
        f"drift for factor 3 = {worst_rel:.2e}",
    )


def test_criterion_8_shot_noise_consistency():
    worst_z = 0.0
    for name in ("h2", "heisenberg"):
        model = build_model(name)
        powers = hamiltonian_powers(model.hamiltonian, 7)
        state = apply_circuit(model.circuit, model.theta0)
        exact = point_moments(model.circuit, model.theta0, model.hamiltonian, 7)
        plan = MeasurementPlan(powers)
        values, errors = (r[0] for r in sampled_moments(state.amplitudes[None], plan, 10**6, [7]))
        for n in range(1, 8):
            if errors[n] == 0.0:
                assert values[n] == approx(exact[n], abs=1e-9)
                continue
            worst_z = max(worst_z, abs(values[n] - exact[n]) / errors[n])
    ok = worst_z <= 5.0
    assert report(
        8, ok,
        f"million-shot moment estimates, orders 1..7: worst deviation "
        f"{worst_z:.2f} standard errors (limit 5)",
    )
