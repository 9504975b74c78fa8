"""Tests for the built-in benchmark models and Hamiltonian file I/O."""

import hashlib

import numpy as np
import pytest
from pytest import approx

from helpers import chain_pairs, dense_fidelity, dense_of, kron_all, PAULI
from pdsvqs import models
from pdsvqs.models import (
    MODEL_NAMES,
    build_model,
    hardware_efficient_ansatz,
    load_hamiltonian,
    serialize_hamiltonian,
)
from pdsvqs.pauli import PauliSum
from pdsvqs.statesim import apply_circuit, exact_eigensystem


class TestCatalog:
    def test_model_names(self):
        assert MODEL_NAMES == ("toy_a", "toy_b", "h2", "heisenberg")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("h3")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bundle_is_self_consistent(self, name):
        model = build_model(name)
        assert model.name == name
        assert model.theta0.shape == (model.circuit.n_params,)
        dense = dense_of(model.hamiltonian)
        evals = np.linalg.eigvalsh(dense)
        assert model.reference_energy == approx(evals[0], abs=1e-12)
        basis = model.ground_basis
        assert basis.shape == (dense.shape[0], np.count_nonzero(evals < evals[0] + 1e-9))
        assert basis.conj().T @ basis == approx(np.eye(basis.shape[1]), abs=1e-12)
        for col in basis.T:
            assert dense @ col == approx(model.reference_energy * col, abs=1e-10)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_building_diagonalizes_nothing(self, name, monkeypatch):
        counted = []

        def counting(s, *args):
            counted.append(s)
            return exact_eigensystem(s, *args)

        monkeypatch.setattr(models, "exact_eigensystem", counting)
        model = build_model(name)
        assert counted == []
        model.eta = 0.5  # a run default set in place keeps the reference
        assert model.reference_energy == model.eigensystem[0][0]
        assert model.ground_basis is model.eigensystem[1]
        assert counted == [model.hamiltonian]

    @pytest.mark.parametrize("name", ["toy_a", "toy_b", "h2"])
    def test_non_heisenberg_models_take_no_options(self, name):
        with pytest.raises(ValueError, match="options"):
            build_model(name, j=0.3)


class TestDiagonalToys:
    def test_first_toy_matrix_is_exact(self, toy_a):
        dense = dense_of(toy_a.hamiltonian)
        assert np.array_equal(dense, np.diag([1.0, 2.0, 3.0, 0.0]))
        assert toy_a.reference_energy == 0.0
        assert toy_a.ground_basis.shape[1] == 1

    def test_second_toy_matrix_is_exact(self, toy_b):
        dense = dense_of(toy_b.hamiltonian)
        assert np.array_equal(dense, np.diag([1.0, 1.0, 2.0, 0.0]))
        assert toy_b.reference_energy == 0.0

    def test_shared_parameter_in_second_toy(self, toy_b):
        params = [g.param for g in toy_b.circuit.gates if g.param is not None]
        assert params.count(0) == 2
        assert toy_b.circuit.n_params == 2

    def test_initial_bits(self, toy_a, toy_b):
        assert toy_a.circuit.initial_bits == "00"
        assert toy_b.circuit.initial_bits == "01"
        state = apply_circuit(toy_b.circuit, np.zeros(2))
        assert state.amplitudes == approx(np.array([0, 1, 0, 0]), abs=1e-15)

    def test_run_defaults(self, toy_a):
        assert toy_a.eta == 0.05
        assert toy_a.schedule == "constant"
        assert toy_a.theta0 == approx([0.1, 0.1])


class TestMolecularModel:
    def test_terms(self, h2):
        assert h2.hamiltonian.coefficient("ZI") == approx(0.4)
        assert h2.hamiltonian.coefficient("IZ") == approx(0.4)
        assert h2.hamiltonian.coefficient("XX") == approx(0.2)
        assert len(h2.hamiltonian.terms()) == 3

    def test_ground_energy(self, h2):
        assert h2.reference_energy == approx(-np.sqrt(0.68), abs=1e-12)

    def test_doubled_angles(self, h2):
        rotations = [g for g in h2.circuit.gates if g.kind == "ry"]
        assert len(rotations) == 4
        assert all(g.multiplier == 2.0 for g in rotations)

    def test_start_state_has_no_ground_overlap(self, h2):
        state = apply_circuit(h2.circuit, h2.theta0)
        assert dense_fidelity(state.amplitudes, h2.ground_basis) == approx(0.0, abs=1e-12)

    def test_start_point(self, h2):
        assert h2.theta0 == approx([7 * np.pi / 32, np.pi / 2, 0.0, 0.0])


class TestSpinModel:
    def test_reference_values(self, heisenberg):
        assert heisenberg.reference_energy == approx(-3.6, abs=1e-12)
        assert heisenberg.ground_basis.shape[1] == 1
        ground = heisenberg.ground_basis[:, 0]
        z_total = sum(
            kron_all([PAULI["Z"] if q == k else PAULI["I"] for q in range(4)])
            for k in range(4)
        )
        magnetization = np.vdot(ground, z_total @ ground).real
        assert magnetization == approx(-4.0, abs=1e-12)

    def test_ground_state_is_fully_flipped(self, heisenberg):
        ground = heisenberg.ground_basis[:, 0]
        assert abs(ground[-1]) == approx(1.0, abs=1e-12)

    def test_coupling_options(self):
        model = build_model("heisenberg", j=0.25, b=0.5)
        assert model.hamiltonian.coefficient("XXII") == approx(0.25)
        assert model.hamiltonian.coefficient("ZIII") == approx(0.5)
        default = build_model("heisenberg")
        assert default.hamiltonian.coefficient("XXII") == approx(0.1)

    def test_bond_structure(self, heisenberg):
        for label in ("XXII", "IIXX", "XIXI", "IXIX"):
            assert heisenberg.hamiltonian.coefficient(label) == approx(0.1)
        assert heisenberg.hamiltonian.coefficient("XXXX") == 0.0
        # 4 field terms + 3 letters on each of 4 bonds
        assert len(heisenberg.hamiltonian.terms()) == 16

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="heisenberg options"):
            build_model("heisenberg", g=1.0)

    def test_single_variational_angle(self, heisenberg):
        assert heisenberg.circuit.n_params == 1
        assert heisenberg.theta0 == approx([-3.0])
        assert heisenberg.schedule == "inv_iter"
        assert heisenberg.eta == 1.0

    def test_substitute_ansatz_reaches_high_fidelity(self, heisenberg):
        state = apply_circuit(heisenberg.circuit, np.array([np.pi]))
        assert dense_fidelity(state.amplitudes, heisenberg.ground_basis) > 0.95


class TestGenericAnsatz:
    def test_parameter_and_gate_counts(self):
        circuit = hardware_efficient_ansatz(3, layers=2)
        assert circuit.n_qubits == 3
        assert circuit.n_params == 6
        kinds = [g.kind for g in circuit.gates]
        assert kinds.count("ry") == 6
        assert kinds.count("cnot") == 4

    def test_single_qubit_has_no_entanglers(self):
        circuit = hardware_efficient_ansatz(1, layers=3)
        assert all(g.kind == "ry" for g in circuit.gates)
        assert circuit.n_params == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            hardware_efficient_ansatz(0)
        with pytest.raises(ValueError, match="at least one"):
            hardware_efficient_ansatz(2, layers=0)


class TestFileRoundTrip:
    def test_serialize_then_load(self, tmp_path, heisenberg):
        path = tmp_path / "spin.txt"
        text = serialize_hamiltonian(heisenberg.hamiltonian, path)
        assert path.read_text() == text
        loaded = load_hamiltonian(path)
        assert loaded.terms() == heisenberg.hamiltonian.terms()

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("toy_a", "0d242ad3891ee8cf86e49069956818869810170b263f29946784ae07809e853c"),
            ("toy_b", "f4bc2093002c5fea306c05503fa70a74c300170eb18996e36e85bd62d9bc99ed"),
            ("h2", "d9f64879dcaef90cb9b4bfc9fdb3a52b26a7733431c53189b608aeda337b08a6"),
            ("heisenberg", "f6789bc88d1be2ef5d62a5677f4690d4785b78444e6f1a01579a38ba80c5deb3"),
            ("chain12", "a85c900be6bbbfeb15a39b53e9c9619bc10ba0ee709d87e9910f4f005841a7a7"),
        ],
    )
    def test_serialized_text_is_unchanged(self, name, digest):
        # SHA-256 of the canonical text: saved Hamiltonian files keep their bytes.
        if name == "chain12":
            h = PauliSum.from_terms(chain_pairs(12))
        else:
            h = build_model(name).hamiltonian
        text = serialize_hamiltonian(h)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_serialize_without_path_returns_text(self, h2):
        text = serialize_hamiltonian(h2.hamiltonian)
        assert "ZI" in text and "XX" in text

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_hamiltonian(tmp_path / "absent.txt")

    def test_malformed_content_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 XQ\n")
        with pytest.raises(ValueError, match="bad.txt"):
            load_hamiltonian(path)
