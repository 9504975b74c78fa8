"""Tests for measurement budget estimates and string-growth statistics."""

import numpy as np
import pytest
from pytest import approx

from helpers import chain_pairs, random_pairs
from pdsvqs import measure
from pdsvqs.measure import CostReport, estimate_measurements, reduction_stats
from pdsvqs.moments import hamiltonian_powers
from pdsvqs.pauli import PauliSum, _qwc_rows


def singleton_groups(s):
    return [[i] for i in range(len(s))]


class TestEstimate:
    def test_single_string_worst_case(self):
        s = PauliSum.from_terms([(0.2, "Z")])
        assert estimate_measurements(s, 0.01) == approx(400.0)

    def test_known_expectation_shrinks_the_budget(self):
        s = PauliSum.from_terms([(0.2, "Z")])
        shots = estimate_measurements(s, 0.01, expectations={"Z": 0.8})
        # Variance drops from 1 to 1 - 0.64 = 0.36.
        assert shots == approx(400.0 * 0.36)

    def test_certain_outcome_costs_nothing(self):
        s = PauliSum.from_terms([(0.5, "Z")])
        assert estimate_measurements(s, 0.01, expectations={"Z": 1.0}) == 0.0

    @pytest.mark.parametrize("value", [2.0, -1.5, float("nan"), float("inf")])
    def test_expectation_outside_the_unit_interval_is_rejected(self, value):
        # 2.0 would read variance 0 and a budget of 250000; NaN a NaN budget.
        s = PauliSum.from_terms([(1.0, "XZ"), (0.5, "ZZ")])
        with pytest.raises(ValueError, match="expectation of XZ must lie in"):
            estimate_measurements(s, 0.001, expectations={"ZZ": 0.5, "XZ": value})

    def test_identity_is_free(self):
        s = PauliSum.from_terms([(3.0, "II"), (0.2, "ZI")])
        only_z = PauliSum.from_terms([(0.2, "ZI")])
        assert estimate_measurements(s, 0.01) == approx(
            estimate_measurements(only_z, 0.01)
        )
        assert estimate_measurements(PauliSum.from_terms([(3.0, "II")]), 0.01) == 0.0

    def test_one_group_beats_two(self):
        # Jointly measurable strings share shots: one group costs
        # (sqrt(h1^2+h2^2))^2 while singleton groups cost (h1+h2)^2.
        s = PauliSum.from_terms([(0.3, "ZI"), (0.4, "IZ")])
        joint = estimate_measurements(s, 0.01)
        split = estimate_measurements(s, 0.01, groups=singleton_groups(s))
        assert joint == approx((0.3**2 + 0.4**2) / 1e-4)
        assert split == approx((0.3 + 0.4) ** 2 / 1e-4)
        assert joint < split

    def test_halving_epsilon_quadruples_exactly(self):
        s = PauliSum.from_terms([(0.3, "ZI"), (0.4, "IZ"), (0.2, "XX")])
        base = estimate_measurements(s, 1e-3)
        assert estimate_measurements(s, 5e-4) == approx(4.0 * base, rel=1e-14)

    def test_scaling_is_inverse_square(self):
        s = PauliSum.from_terms([(0.5, "XY"), (0.25, "ZZ")])
        for factor in (2.0, 3.0, 10.0):
            assert estimate_measurements(s, 1e-3 / factor) == approx(
                factor**2 * estimate_measurements(s, 1e-3), rel=1e-12
            )

    def test_grouped_never_exceeds_singletons(self, rng):
        for _ in range(20):
            n_qubits = int(rng.integers(1, 4))
            s = PauliSum.from_terms(random_pairs(rng, n_qubits, 6))
            grouped = estimate_measurements(s, 1e-2)
            split = estimate_measurements(s, 1e-2, groups=singleton_groups(s))
            assert grouped <= split + 1e-9

    def test_strictly_decreasing_in_epsilon(self):
        s = PauliSum.from_terms([(0.3, "ZI"), (0.2, "XX")])
        values = [estimate_measurements(s, eps) for eps in (1e-2, 5e-3, 1e-3)]
        assert values[0] < values[1] < values[2]

    def test_covariance_bound_dominates_diagonal(self):
        s = PauliSum.from_terms([(0.3, "ZI"), (0.4, "IZ"), (0.2, "ZZ")])
        diag = estimate_measurements(s, 1e-2, covariance="diagonal")
        bound = estimate_measurements(s, 1e-2, covariance="bound")
        assert bound >= diag

    def test_validation(self):
        s = PauliSum.from_terms([(0.2, "Z")])
        with pytest.raises(ValueError, match="positive"):
            estimate_measurements(s, 0.0)
        with pytest.raises(ValueError, match="covariance"):
            estimate_measurements(s, 1e-2, covariance="full")
        with pytest.raises(ValueError, match="Hermitian"):
            estimate_measurements(PauliSum.from_terms([(1j, "Z")]), 1e-2)

    @pytest.mark.parametrize(
        "epsilon", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")]
    )
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        s = PauliSum.from_terms([(0.2, "Z")])
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_measurements(s, epsilon)

    def test_expectations_are_keyed_by_label(self):
        s = PauliSum.from_terms([(0.3, "ZI"), (0.4, "IZ")])
        shots = estimate_measurements(s, 0.01, expectations={"IZ": 0.5, "XX": 0.9})
        # One group; only IZ's variance drops, to 1 - 0.25; XX is not in s.
        assert shots == approx((0.3**2 + 0.4**2 * 0.75) / 1e-4)

    @pytest.mark.parametrize("covariance", ["diagonal", "bound"])
    def test_row_groups_give_the_bits_of_the_default(self, covariance):
        # ``estimate`` groups its target once and hands the row groups on.
        target = hamiltonian_powers(PauliSum.from_terms(chain_pairs(8)), 3)[3]
        rows = _qwc_rows(target)
        rng = np.random.default_rng(3)
        labels = [label for _, label in target.terms()]
        for expectations in (None, dict(zip(labels, rng.uniform(-1, 1, len(labels))))):
            default = estimate_measurements(target, 1e-3, expectations, covariance=covariance)
            for groups in (rows, [g.tolist() for g in rows]):
                by_rows = estimate_measurements(target, 1e-3, expectations, groups, covariance)
                assert by_rows.hex() == default.hex()

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([[0, 2], [1, 2]], "the groups repeat row 2"),
            ([[3], [0, 1, 1]], "the groups repeat row 1"),
            ([[0], [3, 1]], "the groups miss row 2"),
            ([], "the groups miss row 0"),
            ([[0, 1, 2, 3, 4]], "row 4 of a sum of 4 rows"),
            ([[0, 1, 2, -1]], "row -1 of a sum of 4 rows"),
        ],
    )
    def test_row_groups_must_partition_the_rows(self, groups, message):
        s = PauliSum.from_terms([(0.3, "ZI"), (0.4, "IZ"), (0.2, "XX"), (0.1, "YY")])
        with pytest.raises(ValueError, match=message):
            estimate_measurements(s, 1e-2, groups=groups)


class TestReductionStats:
    def test_second_toy_counts(self, toy_b):
        report = reduction_stats(toy_b.hamiltonian, 2)
        # Squaring the three diagonal strings only adds IZ*ZZ = ZI.
        assert report.per_order_counts == [3, 4]
        assert report.cumulative_counts == [3, 4]
        assert report.max_order == 2

    def test_single_z_never_grows(self):
        s = PauliSum.from_terms([(0.7, "Z")])
        report = reduction_stats(s, 6)
        assert report.per_order_counts == [1] * 6
        # The square brings in the identity, after which nothing new appears.
        assert report.cumulative_counts == [1, 2, 2, 2, 2, 2]
        assert report.group_count == 1

    def test_diagonal_model_is_one_group(self, toy_a):
        report = reduction_stats(toy_a.hamiltonian, 4)
        assert report.group_count == 1

    def test_cumulative_saturates_on_closed_algebra(self, h2):
        report = reduction_stats(h2.hamiltonian, 6)
        assert report.cumulative_counts == sorted(report.cumulative_counts)
        # Powers of this Hamiltonian close on {II, ZI, IZ, ZZ, XX, YY, XY, YX}.
        assert report.cumulative_counts[-1] == report.cumulative_counts[2]
        assert report.cumulative_counts[-1] <= 8

    def test_per_order_measurements_positive_and_summed(self, h2):
        report = reduction_stats(h2.hamiltonian, 3, epsilon=1e-3)
        assert all(m > 0 for m in report.per_order_measurements)
        assert report.total_measurements == approx(
            sum(report.per_order_measurements)
        )

    def test_epsilon_carried_through(self, toy_a):
        coarse = reduction_stats(toy_a.hamiltonian, 2, epsilon=1e-2)
        fine = reduction_stats(toy_a.hamiltonian, 2, epsilon=5e-3)
        assert fine.total_measurements == approx(
            4.0 * coarse.total_measurements, rel=1e-12
        )
        assert coarse.epsilon == 1e-2

    def test_term_permutation_invariance(self, rng):
        pairs = random_pairs(rng, 3, 8)
        forward = PauliSum.from_terms(pairs)
        backward = PauliSum.from_terms(list(reversed(pairs)))
        a = reduction_stats(forward, 3)
        b = reduction_stats(backward, 3)
        assert a.per_order_counts == b.per_order_counts
        assert a.group_count == b.group_count
        assert a.total_measurements == approx(b.total_measurements, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_expansion(self, monkeypatch, h2, epsilon):
        def expand(*args, **kwargs):
            raise AssertionError("a power was expanded")

        monkeypatch.setattr(measure, "hamiltonian_powers", expand)
        with pytest.raises(ValueError, match="finite and positive"):
            reduction_stats(h2.hamiltonian, 4, epsilon)

    def test_large_unit_sums_are_hermitian(self, rng):
        # Rounding residues in the expanded powers grow with the coefficients.
        for _ in range(20):
            h = PauliSum.from_terms(random_pairs(rng, 4, 6)).scaled(10.0)
            report = reduction_stats(h, 4)
            assert report.total_measurements > 0

    @pytest.mark.parametrize("max_order", [0, 13])
    def test_bad_max_order_rejected_before_expansion(self, monkeypatch, h2, max_order):
        def multiply(*args, **kwargs):
            raise AssertionError("a power was expanded")

        monkeypatch.setattr(PauliSum, "__mul__", multiply)
        with pytest.raises(ValueError, match="max_order"):
            reduction_stats(h2.hamiltonian, max_order)
