"""End-to-end tests for the command-line interface."""

import json
import math
import re

import numpy as np
import pytest
from pytest import approx

from helpers import chain_pairs, dense_circuit_state, dense_of, point_moments, point_solve
from pdsvqs import cli, models, optim, statesim
from pdsvqs.cli import SCHEMA_LINE, main, parse_angle, parse_angles
from pdsvqs.optim import run_batch
from pdsvqs.pds import RegPolicy, VanishingDenominator
from pdsvqs.models import serialize_hamiltonian
from pdsvqs.pauli import PauliSum


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("7pi/32", 7 * math.pi / 32),
            ("pi/2", math.pi / 2),
            ("-pi/4", -math.pi / 4),
            ("0.5", 0.5),
            ("2*pi/3", 2 * math.pi / 3),
            ("1.5pi", 1.5 * math.pi),
            ("+0.25", 0.25),
            ("(1+3)/8", 0.5),
            ("3pi/8+0.05", 3 * math.pi / 8 + 0.05),
        ],
    )
    def test_expressions(self, text, value):
        assert parse_angle(text) == approx(value, abs=1e-15)

    @pytest.mark.parametrize("text", ["pi**2", "two", "0.1;0.2", ""])
    def test_rejects_other_constructs(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["1/0", "pi/(1-1)", "1e400", "-1e400", "1e308*10"])
    def test_rejects_division_by_zero_and_non_finite_values(self, text):
        with pytest.raises(ValueError, match="division by zero|not finite"):
            parse_angle(text)

    def test_angles_broadcast_single_value(self):
        assert parse_angles("0.3", 4) == approx([0.3] * 4)

    def test_angles_exact_count(self):
        assert parse_angles("0.1, pi, -1", 3) == approx([0.1, math.pi, -1.0])

    def test_angles_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 2 angles"):
            parse_angles("1,2,3", 2)

    @pytest.mark.parametrize("text", ["1,,2", "0.3,", ",0.3", " , "])
    def test_angles_reject_empty_fields(self, text):
        with pytest.raises(ValueError, match="empty angle"):
            parse_angles(text, 2)


class TestRunCommand:
    def test_converged_run_exits_zero(self, capsys):
        code = main(["run", "--model", "h2", "--order", "4", "--max-iters", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("status=converged")
        assert "deviation=" in out and "fidelity=" in out

    def test_unconverged_run_exits_two(self, capsys):
        code = main(
            ["run", "--model", "toy_a", "--max-iters", "3", "--grad-tol", "0"]
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("status=max_iters")

    def test_trajectory_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        main(
            [
                "run", "--model", "toy_a", "--order", "2",
                "--max-iters", "4", "--grad-tol", "0", "--out", str(out),
            ]
        )
        header, rows = read_csv(out)
        assert header == [
            "iter", "energy", "root_1", "root_2", "expval_H", "deviation",
            "fidelity", "grad_norm", "metric_cond", "theta_1", "theta_2",
        ]
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        first = rows[0]
        assert float(first[-2]) == approx(0.1)
        assert float(first[-1]) == approx(0.1)
        # deviation is energy minus the exact ground energy (0 here)
        assert float(first[1]) == approx(float(first[5]))

    def test_identical_invocations_are_bitwise_equal(self, tmp_path, capsys):
        args = [
            "run", "--model", "toy_b", "--order", "2", "--metric", "ngd",
            "--max-iters", "6", "--grad-tol", "0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_run_is_seed_reproducible(self, tmp_path, capsys):
        args = [
            "run", "--model", "toy_a", "--shots", "500", "--seed", "11",
            "--max-iters", "3", "--grad-tol", "0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_theta0_flag_accepts_pi_arithmetic(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(
            [
                "run", "--model", "h2", "--theta0", "7pi/32,pi/2,0,0",
                "--max-iters", "1", "--grad-tol", "0", "--out", str(out),
            ]
        )
        _, rows = read_csv(out)
        assert float(rows[0][-4]) == approx(7 * math.pi / 32, abs=1e-15)

    def test_empty_theta0_field_exits_one(self, capsys):
        code = main(["run", "--model", "toy_a", "--theta0", "1,,2"])
        assert code == 1
        assert "empty angle" in capsys.readouterr().err

    def test_bad_theta0_count_exits_one(self, capsys):
        code = main(["run", "--model", "toy_a", "--theta0", "1,2,3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_strict_regularization_failure_exits_two(self, capsys):
        code = main(
            ["run", "--model", "h2", "--order", "4", "--pds-reg", "none",
             "--max-iters", "5"]
        )
        assert code == 2
        assert "status=error" in capsys.readouterr().out

    def test_singular_shifted_moments_exit_two(self, tmp_path, capsys):
        # At 1e6 Z the 1e-6 shift vanishes against the order-4 moments, so
        # the shifted M stays exactly singular: a row error, not a raise.
        path = tmp_path / "big.txt"
        path.write_text("1000000 Z\n")
        code = main(["run", "--file", str(path), "--order", "4", "--max-iters", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "status=error" in captured.out
        assert "message='iteration 0: moment matrix is singular" in captured.out

    # The Krylov vectors overflow on the way; only the solve's answer is tested here.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale, order, bad", [("1e200", 3, "m_2, m_3, m_4, m_5"),
                                                   ("1e100", 4, "m_4, m_5, m_6, m_7")])
    def test_overflowing_moments_exit_two(self, tmp_path, capfd, scale, order, bad):
        # LAPACK is never handed the non-finite moments, so it neither raises
        # nor prints its own complaint to stdout.
        path = tmp_path / "huge.txt"
        path.write_text(f"{scale} ZI\n{scale} XX\n")
        code = main(["run", "--file", str(path), "--order", str(order), "--max-iters", "3"])
        out = capfd.readouterr().out
        assert code == 2 and "DLASCL" not in out
        assert out.startswith(f"status=error message='iteration 0: moments {bad} are not finite'")

    def test_negative_max_iters_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["run", "--model", "toy_a", "--max-iters", "-1", "--out", str(out)]
        )
        assert code == 1
        assert "max_iters must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_flag_sets_the_run_schedule(self, tmp_path, capsys, toy_a):
        out = tmp_path / "f.csv"
        main(["run", "--model", "toy_a", "--schedule", "inv-iter", "--max-iters", "3",
              "--out", str(out)])
        header, rows = read_csv(out)
        written = np.array([[float(r[header.index(f"theta_{i}")]) for i in (1, 2)] for r in rows])
        kw = dict(eta=toy_a.eta, max_iters=3)
        expected = optim.run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0,
                             schedule="inv_iter", **kw).thetas
        constant = optim.run(toy_a.hamiltonian, toy_a.circuit, toy_a.theta0, **kw).thetas
        assert np.array_equal(written, expected)
        assert not np.array_equal(written, constant)

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["run", "--model", "h2", "--max-iters", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"pdsvqs: error: cannot write {out}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--pds-reg", "shift", "--reg-eps", "-1"], "shift_eps must be finite"),
            (["--pds-reg", "shift", "--reg-eps", "nan"], "shift_eps must be finite"),
            (["--eta", "nan"], "eta must be finite"),
            (["--eta", "0"], "eta must be finite"),
            (["--theta0", "1e400"], "not finite"),
            (["--theta0", "1/0"], "division by zero"),
            (["--grad-tol", "nan"], "grad_tol must be finite"),
            (["--metric", "ngd", "--metric-eps", "nan"], "metric_eps must be finite"),
            (["--metric", "ngd", "--metric-eps", "-1"], "metric_eps must be finite"),
            (["--shots", "500", "--metric", "ngd"],
             "pdsvqs: error: finite-shot runs take metric_kind 'gd', not 'ngd'"),
        ],
    )
    def test_bad_numeric_inputs_exit_one(self, tmp_path, capsys, flags, message):
        out = tmp_path / "t.csv"
        argv = ["run", "--model", "toy_a", "--max-iters", "3", "--out", str(out)]
        code = main(argv + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eig", "--model", "toy_a", "--j", "0.5"], "toy_a options are none; got ['j']"),
            (["eig", "--file", "{file}", "--b", "1"], "--j and --b set the heisenberg model"),
            (["run", "--model", "h2", "--layers", "2"], "--layers sets the ansatz of --file"),
            (["reduce", "--model", "heisenberg", "--layers", "1"], "--layers sets the ansatz"),
            (["run", "--model", "h2", "--seed", "3"], "--seed seeds --shots runs only"),
            (["run", "--model", "h2", "--pds-reg", "none", "--reg-eps", "1e-3"],
             "--reg-eps is the shift of --pds-reg shift and auto, not none"),
            (["scan", "--model", "toy_a", "--pds-reg", "none", "--reg-eps", "1e-3",
              "--out", "{dir}/s"], "--reg-eps is the shift of --pds-reg shift and auto, not none"),
            (["eig", "--file", "{file}", "--layers", "3"], "--layers sets the ansatz"),
            (["reduce", "--file", "{file}", "--layers", "1"], "--layers sets the ansatz"),
            (["estimate", "--file", "{file}", "--layers", "2"], "--layers sets the ansatz"),
            (["run", "--model", "h2", "--functional", "vqe", "--order", "3"],
             "--order sets the pds functional, not --functional vqe"),
            (["run", "--model", "h2", "--functional", "vqe", "--pds-reg", "auto"],
             "--pds-reg sets the pds functional, not --functional vqe"),
            (["scan", "--model", "toy_a", "--functional", "vqe", "--reg-eps", "1e-3",
              "--out", "{dir}/s"], "--reg-eps sets the pds functional, not --functional vqe"),
            (["run", "--model", "h2", "--metric-eps", "1e-3"],
             "--metric-eps regularizes the metric of --metric ngd and ite, not gd"),
            (["scan", "--model", "toy_a", "--metric", "gd", "--metric-eps", "1e-3",
              "--out", "{dir}/s"],
             "--metric-eps regularizes the metric of --metric ngd and ite, not gd"),
        ],
    )
    def test_flags_that_select_nothing_exit_one(self, tmp_path, capsys, argv, message):
        path = tmp_path / "tiny.txt"
        path.write_text("0.5 ZI\n0.5 IZ\n")
        code = main([a.format(file=path, dir=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and f"pdsvqs: error: {message}" in captured.err
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_problem_source_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--max-iters", "2"])
        assert err.value.code == 1

    def test_file_run_announces_its_reference(self, tmp_path, capsys):
        path = tmp_path / "chain4.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(4)), path)
        code = main(["run", "--file", str(path), "--max-iters", "1", "--grad-tol", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2 and len(lines) == 2
        assert lines[0].startswith("status=max_iters") and "deviation=" in lines[0]
        match = re.fullmatch(r"reference=exact qubits=4 seconds=(\S+)", lines[1])
        assert match and float(match[1]) >= 0.0

    def test_wide_file_run_announces_the_skipped_reference(self, tmp_path, capsys):
        path = tmp_path / "chain13.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(13)), path)
        main(["run", "--file", str(path), "--max-iters", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("status=") and "deviation=" not in lines[0]
        assert lines[1:] == ["reference=skipped qubits=13 limit=12"]

    def test_model_run_prints_only_its_summary(self, capsys):
        main(["run", "--model", "toy_a", "--max-iters", "1"])
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_file_run_compiles_h_once(self, tmp_path, capsys, monkeypatch):
        # The reference and the moments share one compilation of H.
        compiled = []

        class Counted(statesim.CompiledSum):
            def __init__(self, s):
                compiled.append(s)
                super().__init__(s)

        monkeypatch.setattr(statesim, "CompiledSum", Counted)
        statesim._compiled.cache_clear()
        path = tmp_path / "chain4.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(4)), path)
        main(["run", "--file", str(path), "--max-iters", "2"])
        assert len(compiled) == 1


class TestScanCommand:
    def test_outputs_and_shapes(self, tmp_path, capsys):
        prefix = tmp_path / "scan"
        code = main(
            [
                "scan", "--model", "toy_a", "--grid", "3",
                "--max-iters", "5", "--grad-tol", "0", "--out", str(prefix),
            ]
        )
        assert code == 0
        s_header, s_rows = read_csv(tmp_path / "scan_starts.csv")
        assert s_header == [
            "theta_i0", "theta_j0", "status", "iterations",
            "final_energy", "final_fidelity",
        ]
        assert len(s_rows) == 9
        assert all(r[2] in ("converged", "max_iters", "error") for r in s_rows)
        f_header, f_rows = read_csv(tmp_path / "scan_surface.csv")
        assert f_header == ["theta_i", "theta_j", "energy", "expval_H", "flag"]
        assert len(f_rows) == 9
        assert all(
            r[4] in ("ok", "SingularMoments", "ComplexRoots") for r in f_rows
        )

    def test_file_scan_announces_its_reference(self, tmp_path, capsys):
        path = tmp_path / "chain3.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(3)), path)
        prefix = tmp_path / "f"
        code = main(["scan", "--file", str(path), "--grid", "2", "--max-iters", "1",
                     "--out", str(prefix)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines[0].startswith("scan complete: 4 starts")
        assert re.fullmatch(r"reference=exact qubits=3 seconds=\S+", lines[1])

    def test_reg_eps_sets_the_auto_shift(self, tmp_path, capsys, monkeypatch):
        policies = []

        def spy(*args, **kwargs):
            policies.append(kwargs["pds_policy"])
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", spy)
        main(["scan", "--model", "toy_a", "--grid", "1", "--max-iters", "0",
              "--pds-reg", "auto", "--reg-eps", "1e-3", "--out", str(tmp_path / "s")])
        assert policies == [RegPolicy("auto", shift_eps=1e-3)]

    def test_grid_points_centered_in_cells(self, tmp_path, capsys):
        prefix = tmp_path / "grid"
        main(
            ["scan", "--model", "toy_a", "--grid", "4", "--max-iters", "1",
             "--grad-tol", "0", "--out", str(prefix)]
        )
        _, rows = read_csv(tmp_path / "grid_starts.csv")
        starts = sorted({float(r[0]) for r in rows})
        expected = [-math.pi + (k + 0.5) * math.pi / 2 for k in range(4)]
        assert starts == approx(expected)

    def test_vqe_surface_equals_expectation(self, tmp_path, capsys):
        prefix = tmp_path / "v"
        main(
            ["scan", "--model", "toy_a", "--functional", "vqe", "--grid", "3",
             "--max-iters", "1", "--grad-tol", "0", "--out", str(prefix)]
        )
        _, rows = read_csv(tmp_path / "v_surface.csv")
        for r in rows:
            assert float(r[2]) == approx(float(r[3]), abs=0)

    def test_failing_starts_match_the_oracle(self, tmp_path, capsys):
        # At K = 3 without regularization a third of the h2 starts span too
        # few levels: their surface rows read NaN, a finite <H> and the error.
        code = main(["scan", "--model", "h2", "--order", "3", "--pds-reg", "none",
                     "--grid", "6", "--max-iters", "2", "--out", str(tmp_path / "h")])
        assert code == 0
        _, rows = read_csv(tmp_path / "h_surface.csv")
        flags = [r[4] for r in rows]
        assert flags.count("SingularMoments") == 12 and flags.count("ok") == 24
        h2 = models.build_model("h2")
        h = dense_of(h2.hamiltonian)
        for ti, tj, energy, expval, flag in rows:
            theta = h2.theta0.copy()
            theta[[0, 1]] = float(ti), float(tj)
            psi = dense_circuit_state(h2.circuit, theta)
            assert float(expval) == approx(np.vdot(psi, h @ psi).real, abs=1e-12)
            solved = point_solve(point_moments(h2.circuit, theta, h2.hamiltonian, 5), 3,
                                 RegPolicy("none"))
            error = solved.errors[0]
            assert flag == ("ok" if error is None else type(error).__name__)
            assert np.array_equal(float(energy), solved.energy[0], equal_nan=True)
        assert "0.17320508075688773" in [r[3] for r in rows if r[4] != "ok"]

    def test_failing_gradient_keeps_an_ok_surface_row(self, tmp_path, capsys, monkeypatch):
        # A start whose solve holds but whose gradient fails reads "ok".
        def failing(solved):
            weights, errors = weights_of(solved)
            if not calls:
                errors[2] = VanishingDenominator("injected")
            calls.append(len(solved.energy))
            return weights, errors

        weights_of, calls = optim._weights, []
        argv = ["scan", "--model", "toy_a", "--grid", "2", "--max-iters", "3"]
        main(argv + ["--out", str(tmp_path / "clean")])
        monkeypatch.setattr(optim, "_weights", failing)
        main(argv + ["--out", str(tmp_path / "hit")])
        assert calls[0] == 4 and calls[1] == 3
        _, clean = read_csv(tmp_path / "clean_surface.csv")
        _, hit = read_csv(tmp_path / "hit_surface.csv")
        assert hit == clean
        assert hit[2][4] == "ok" and math.isfinite(float(hit[2][2]))
        _, starts = read_csv(tmp_path / "hit_starts.csv")
        assert [r[2] for r in starts].count("error") == 1 and starts[2][2:4] == ["error", "-1"]

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_one(self, tmp_path, capsys, grid):
        code = main(
            ["scan", "--model", "toy_a", "--grid", grid, "--out", str(tmp_path / "g")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "--grid must be at least 1" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        code = main(["scan", "--model", "toy_a", "--grid", "2", "--max-iters", "2",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"pdsvqs: error: cannot write {out}_starts.csv" in err and "Traceback" not in err

    def test_param_index_validation(self, capsys, tmp_path):
        base = ["scan", "--model", "toy_a", "--out", str(tmp_path / "x")]
        assert main(base + ["--params", "0,0"]) == 1
        assert main(base + ["--params", "0,7"]) == 1
        assert main(base + ["--params", "zero,one"]) == 1

    def test_one_parameter_problem_says_so(self, capsys, tmp_path):
        code = main(["scan", "--model", "heisenberg", "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "pdsvqs: error: heisenberg has 1 variational parameter; scan needs 2" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestReportCommands:
    def test_reduce_counts_for_second_toy(self, capsys):
        code = main(["reduce", "--model", "toy_b", "--max-order", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "order,strings,cumulative,measurements"
        assert lines[1].startswith("1,3,3,")
        assert lines[2].startswith("2,4,4,")
        assert lines[3].startswith("groups=1 ")

    def test_estimate_epsilon_scaling(self, capsys):
        main(["estimate", "--model", "h2", "--epsilon", "1e-3"])
        coarse = float(capsys.readouterr().out.split("measurements=")[1])
        main(["estimate", "--model", "h2", "--epsilon", "2e-3"])
        halved = float(capsys.readouterr().out.split("measurements=")[1])
        assert coarse == approx(4.0 * halved, rel=1e-12)

    def test_estimate_reports_group_count(self, capsys):
        main(["estimate", "--model", "h2"])
        out = capsys.readouterr().out
        assert "groups=2" in out and "power=1" in out

    @pytest.mark.parametrize(
        "argv", [["reduce", "--max-order", "5"], ["estimate", "--power", "5"]]
    )
    def test_large_unit_chain_is_hermitian(self, capsys, tmp_path, argv):
        # Rounding residues in the powers grow with the coefficients; both
        # commands accept the same file.
        path = tmp_path / "chain6e6.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(6)).scaled(1e6), path)
        code = main([*argv, "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "measurements=" in captured.out

    @pytest.mark.parametrize("power", ["0", "-1"])
    def test_estimate_rejects_power_below_one(self, capsys, power):
        code = main(["estimate", "--model", "h2", "--power", power])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "--power must be at least 1" in captured.err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-0.001"])
    @pytest.mark.parametrize("command", ["reduce", "estimate"])
    def test_epsilon_must_be_finite_and_positive(self, capsys, command, epsilon):
        code = main([command, "--model", "h2", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "epsilon must be finite and positive" in captured.err

    @pytest.mark.parametrize(
        "argv,calls",
        [
            (["reduce", "--model", "heisenberg", "--max-order", "2"], 0),
            (["estimate", "--model", "heisenberg"], 0),
            (["eig", "--model", "heisenberg"], 1),
            (["run", "--model", "h2", "--max-iters", "1"], 1),
            (["run", "--file", "{file}", "--max-iters", "1"], 1),
            (["run", "--file", "{file}", "--theta0", "1,2"], 0),  # rejected first
        ],
    )
    def test_diagonalizes_only_what_is_read(self, tmp_path, capsys, monkeypatch, argv, calls):
        counted = []

        def counting(*args, **kwargs):
            counted.append(args)
            return statesim.exact_eigensystem(*args, **kwargs)

        monkeypatch.setattr(models, "exact_eigensystem", counting)
        monkeypatch.setattr(cli, "exact_eigensystem", counting, raising=False)
        path = tmp_path / "chain4.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(4)), path)
        main([a.format(file=path) for a in argv])
        assert len(counted) == calls

    @pytest.mark.parametrize("command", [["reduce", "--max-order", "2"], ["estimate"], ["eig"]])
    def test_file_reports_build_no_ansatz(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("an ansatz was built")

        monkeypatch.setattr(cli, "hardware_efficient_ansatz", refuse)
        path = tmp_path / "tiny.txt"
        path.write_text("0.5 ZI\n0.5 IZ\n")
        assert main([command[0], "--file", str(path), *command[1:]]) == 0

    def test_eig_prints_spectrum(self, capsys):
        code = main(["eig", "--model", "toy_a"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "0 1 2 3"
        assert lines[1] == "ground=0 degeneracy=1"

    def test_eig_with_coupling_overrides(self, capsys):
        main(["eig", "--model", "heisenberg", "--j", "0", "--b", "1"])
        lines = capsys.readouterr().out.splitlines()
        values = [float(v) for v in lines[0].split()]
        assert values[0] == approx(-4.0)
        assert values[-1] == approx(4.0)

    def test_file_hamiltonian_round_trip(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("# two qubits\n0.5 ZI\n0.5 IZ\n")
        code = main(["eig", "--file", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [float(v) for v in lines[0].split()] == approx([-1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["reduce", "--max-order", "2"], ["estimate"], ["run"], ["eig"]]
    )
    def test_non_finite_coefficient_exits_one(self, capsys, tmp_path, command, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"{token} ZZ\n1.0 XI\n")
        code = main(command + ["--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "line 1: coefficient of ZZ is not finite" in captured.err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code = main(["eig", "--file", str(tmp_path / "absent.txt")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a", "max_iters": 2, "grad_tol": 0.0}))
        out = tmp_path / "t.csv"
        code = main(["--config", str(config), "run", "--out", str(out)])
        assert code == 2
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_explicit_flags_beat_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a", "order": 4, "max_iters": 1}))
        out = tmp_path / "t.csv"
        main(
            ["--config", str(config), "run", "--order", "2", "--grad-tol", "0",
             "--out", str(out)]
        )
        header, _ = read_csv(out)
        assert "root_2" in header and "root_3" not in header

    def test_explicit_source_eclipses_config_source(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("1.0 Z\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a"}))
        code = main(["--config", str(config), "eig", "--file", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "-1 1"

    def test_config_cannot_set_both_sources(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a", "file": "x.txt"}))
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "eig"])
        assert err.value.code == 1
        assert "both model and file" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a", "stepsize": 0.1}))
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "run"])
        assert err.value.code == 1
        assert "unknown keys: stepsize" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "run", "--model", "toy_a"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"functional": "vqe", "order": 3}, "--order sets the pds functional"),
            ({"functional": "vqe", "pds_reg": "none"}, "--pds-reg sets the pds functional"),
            ({"functional": "vqe", "reg_eps": 1e-3}, "--reg-eps sets the pds functional"),
            ({"metric_eps": 1e-3}, "--metric-eps regularizes the metric of --metric ngd"),
        ],
    )
    def test_config_keys_that_select_nothing_exit_one(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "toy_a", "max_iters": 2, **config}))
        out = tmp_path / "t.csv"
        code = main(["--config", str(path), "run", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and f"pdsvqs: error: {message}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_truncate_regularization_exits_one(self, tmp_path, capsys, source):
        out = tmp_path / "t.csv"
        argv = ["run", "--model", "h2", "--order", "3", "--max-iters", "1", "--out", str(out)]
        if source == "flag":
            argv += ["--pds-reg", "truncate"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"pds_reg": "truncate"}))
            argv = ["--config", str(path)] + argv
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 1
        assert captured.out == "" and "invalid choice: 'truncate'" in captured.err
        assert not out.exists()

    def test_unset_pds_flags_keep_their_defaults(self, tmp_path, capsys, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", spy)
        for functional in ("pds", "vqe"):
            main(["scan", "--model", "toy_a", "--grid", "1", "--max-iters", "0",
                  "--functional", functional, "--out", str(tmp_path / functional)])
        pds, vqe = calls
        assert (pds["order"], vqe["order"]) == (2, 1)
        assert pds["pds_policy"] == vqe["pds_policy"] == RegPolicy("auto")
        assert "metric_eps" not in pds and "metric_eps" not in vqe

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"pds_reg": "bogus"}, "argument --pds-reg: invalid choice: 'bogus'"),
            ({"order": 2.5}, "argument --order: invalid int value: '2.5'"),
            ({"gradient": "shift"}, "unknown keys: gradient"),
        ],
    )
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "toy_a", "max_iters": 2, **config}))
        with pytest.raises(SystemExit) as err:
            main(["--config", str(path), "run"])
        assert err.value.code == 1
        assert message in capsys.readouterr().err

    def test_config_values_may_start_with_a_minus(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "toy_a", "theta0": "-pi/4", "seed": None}))
        out = tmp_path / "t.csv"
        main(["--config", str(config), "run", "--max-iters", "0", "--out", str(out)])
        header, rows = read_csv(out)
        assert float(rows[0][header.index("theta_1")]) == -math.pi / 4

    def test_joined_config_values_are_checked(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "toy_a", "pds_reg": "bogus"}))
        with pytest.raises(SystemExit) as err:
            main([f"--config={path}", "run"])
        assert err.value.code == 1
        assert "argument --pds-reg: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_joined_config_form_matches_two_tokens(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"order": 3}))
        outs = tmp_path / "joined.csv", tmp_path / "split.csv"
        tail = ["run", "--model", "toy_a", "--max-iters", "2", "--grad-tol", "0"]
        main([f"--config={path}", *tail, "--out", str(outs[0])])
        main(["--config", str(path), *tail, "--out", str(outs[1])])
        header, _ = read_csv(outs[0])
        assert "root_3" in header
        assert outs[0].read_text() == outs[1].read_text()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--conf", "{path}", "run"], "argument command: invalid choice"),
            (["run", "--model", "toy_a", "--max-it", "1"], "unrecognized arguments: --max-it"),
            (["run", "--model", "toy_a", "--gradient", "shift"],
             "unrecognized arguments: --gradient shift"),
        ],
    )
    def test_abbreviated_flags_are_usage_errors(self, tmp_path, capsys, argv, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "toy_a", "pds_reg": "bogus"}))
        with pytest.raises(SystemExit) as err:
            main([a.format(path=path) for a in argv])
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: ") and message in err_text

    def test_config_layers_meet_a_model(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "h2", "layers": 2}))
        assert main(["--config", str(config), "eig"]) == 1
        assert "pdsvqs: error: --layers sets the ansatz" in capsys.readouterr().err

    def test_config_file_missing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--config", str(tmp_path / "no.json"), "run", "--model", "toy_a"])
        assert err.value.code == 1

    def test_config_flag_without_a_path(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--config=", "run", "--model", "h2"])
        assert err.value.code == 1
        assert "--config needs a path" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["--config", "--config="])
    def test_repeated_config_rejected(self, tmp_path, capsys, second):
        first, other = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps({"max_iters": 1}))
        other.write_text(json.dumps({"max_iters": 3}))
        repeated = [second, str(other)] if second == "--config" else [second + str(other)]
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as err:
            main(["--config", str(first), *repeated, "run", "--model", "toy_a",
                  "--out", str(out)])
        assert err.value.code == 1
        assert "--config may be given once" in capsys.readouterr().err
        assert not out.exists()


class TestVqeIsOrderOne:
    """``--functional vqe`` is ``--order 1``, byte for byte."""

    @staticmethod
    def _outputs(argv, out, capsys):
        code = main([*argv, "--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        return code, stdout, [f.read_bytes() for f in sorted(out.parent.glob(out.name + "*"))]

    @pytest.mark.parametrize(
        "argv",
        [
            *(["run", "--model", m, "--metric", k]
              for m in ("toy_a", "toy_b", "h2", "heisenberg") for k in ("gd", "ngd", "ite")),
            ["run", "--model", "heisenberg", "--shots", "500", "--max-iters", "20"],
            ["scan", "--model", "h2", "--grid", "4", "--max-iters", "5"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_same_csv_and_stdout(self, tmp_path, capsys, argv):
        vqe = self._outputs([*argv, "--functional", "vqe"], tmp_path / "vqe", capsys)
        one = self._outputs([*argv, "--order", "1"], tmp_path / "one", capsys)
        assert vqe[2] and vqe == one


# Standard output of the measurement-cost commands as the term-by-term
# first-fit grouping printed it; the vectorized group sweep must match it
# byte for byte.
GOLDEN_REDUCE_CHAIN8 = """\
order,strings,cumulative,measurements
1,29,29,68749015.732775077
2,318,318,21997048673.423264
3,1500,1540,4076039305800.3301
4,4052,4112,875138455877155.25
groups=376 total_measurements=879236560980644.75
"""
# The benchmark's own reduce command: the 12-site chain to order 4.
GOLDEN_REDUCE_CHAIN12 = """\
order,strings,cumulative,measurements
1,45,45,107638694.58396339
2,846,846,95568778720.694107
3,8060,8132,29173636526281.957
4,45092,45784,15399415332633784
groups=924 total_measurements=15428684645577482
"""
GOLDEN_REDUCE_HEISENBERG = """\
order,strings,cumulative,measurements
1,16,16,5807980.099379343
2,58,58,58189022.718243249
3,56,72,1079621018.4919753
4,64,72,13298694480.064804
5,56,72,246216113061.96155
6,64,72,3736773631834.9736
groups=29 total_measurements=3997432057398.3096
"""
GOLDEN_ESTIMATE_HEISENBERG = (
    "power=4 groups=29 epsilon=0.001 measurements=13298694480.064804\n"
)


class TestGoldenOutputs:
    def test_reduce_chain8(self, capsys, tmp_path):
        path = tmp_path / "chain8.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(8)), path)
        argv = ["reduce", "--file", str(path), "--max-order", "4", "--epsilon", "1e-3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN_REDUCE_CHAIN8

    def test_reduce_chain12(self, capsys, tmp_path):
        path = tmp_path / "chain12.txt"
        serialize_hamiltonian(PauliSum.from_terms(chain_pairs(12)), path)
        argv = ["reduce", "--file", str(path), "--max-order", "4", "--epsilon", "1e-3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN_REDUCE_CHAIN12

    def test_reduce_heisenberg(self, capsys):
        assert main(["reduce", "--model", "heisenberg", "--max-order", "6"]) == 0
        assert capsys.readouterr().out == GOLDEN_REDUCE_HEISENBERG

    def test_estimate_heisenberg(self, capsys):
        assert main(["estimate", "--model", "heisenberg", "--power", "4"]) == 0
        assert capsys.readouterr().out == GOLDEN_ESTIMATE_HEISENBERG
