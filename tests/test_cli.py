"""End-to-end tests for the command-line interface."""

import json
import math

import numpy as np
import pytest
from pytest import approx

from helpers import chain_pairs
from pdsvqs.cli import SCHEMA_LINE, _fmt, main, parse_angle, parse_angles
from pdsvqs.models import serialize_hamiltonian
from pdsvqs.optim import run_batch
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

    def test_negative_max_iters_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["run", "--model", "toy_a", "--max-iters", "-1", "--out", str(out)]
        )
        assert code == 1
        assert "max_iters must be non-negative" in capsys.readouterr().err
        assert not out.exists()

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

    def test_missing_problem_source_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--max-iters", "2"])
        assert err.value.code == 1


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

    def test_gradient_flag_reaches_the_runs(self, tmp_path, capsys, toy_b):
        prefix = tmp_path / "s"
        code = main(["scan", "--model", "toy_b", "--grid", "4",
                     "--gradient", "shift", "--out", str(prefix)])
        assert code == 0
        grid = [-math.pi + (k + 0.5) * 2.0 * math.pi / 4 for k in range(4)]
        starts = [(ti, tj) for ti in grid for tj in grid]
        trajectories = run_batch(
            toy_b.hamiltonian, toy_b.circuit, starts, gradient_method="shift",
            ground_basis=toy_b.ground_basis,
        )
        _, rows = read_csv(tmp_path / "s_starts.csv")
        assert [row[2:] for row in rows] == [
            [t.status, str(t.final.iteration), _fmt(t.final.energy), _fmt(t.final.fidelity)]
            for t in trajectories
        ]

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_one(self, tmp_path, capsys, grid):
        code = main(
            ["scan", "--model", "toy_a", "--grid", grid, "--out", str(tmp_path / "g")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "--grid must be at least 1" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_param_index_validation(self, capsys, tmp_path):
        base = ["scan", "--model", "toy_a", "--out", str(tmp_path / "x")]
        assert main(base + ["--params", "0,0"]) == 1
        assert main(base + ["--params", "0,7"]) == 1
        assert main(base + ["--params", "zero,one"]) == 1


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
            ({"pds_reg": "bogus"}, "argument --pds-reg: invalid choice: 'bogus'"),
            ({"order": 2.5}, "argument --order: invalid int value: '2.5'"),
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

    def test_config_file_missing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--config", str(tmp_path / "no.json"), "run", "--model", "toy_a"])
        assert err.value.code == 1


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

    def test_reduce_heisenberg(self, capsys):
        assert main(["reduce", "--model", "heisenberg", "--max-order", "6"]) == 0
        assert capsys.readouterr().out == GOLDEN_REDUCE_HEISENBERG

    def test_estimate_heisenberg(self, capsys):
        assert main(["estimate", "--model", "heisenberg", "--power", "4"]) == 0
        assert capsys.readouterr().out == GOLDEN_ESTIMATE_HEISENBERG
