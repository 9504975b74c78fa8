"""Measurement budget estimates for moment evaluation.

For a target precision ``epsilon`` on the expectation of a weighted Pauli sum,
measuring the qubit-wise commuting groups jointly needs

    M = ( sum_G sqrt( sum_{i,j in G} h_i h_j cov(P_i, P_j) ) / epsilon )^2

shots in total.  Single-string variances are ``1 - <P>^2`` (worst case 1 when
no trial state is supplied); covariances between co-measured strings default
to zero, with an optional worst-case bound ``|cov| <= sqrt(var_i var_j)``.
Identity strings are exact and never enter the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import hamiltonian_powers, union_of_powers
from .pauli import PauliSum, PauliTerm, qwc_groups

__all__ = ["CostReport", "estimate_measurements", "reduction_stats"]


@dataclass
class CostReport:
    """Per-order string statistics and shot estimates for one Hamiltonian."""

    max_order: int
    epsilon: float
    per_order_counts: list[int]
    cumulative_counts: list[int]
    group_count: int
    per_order_measurements: list[float]
    total_measurements: float


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")


def estimate_measurements(
    s: PauliSum,
    epsilon: float,
    expectations: dict[tuple[int, int], float] | None = None,
    groups: list[list[PauliTerm]] | None = None,
    covariance: str = "diagonal",
) -> float:
    """Total shots to estimate ``<s>`` to precision ``epsilon``.

    Args:
        s: Hermitian weighted Pauli sum.
        epsilon: Target standard error on the total.
        expectations: Optional per-string ``<P>`` keyed by mask pair; strings
            without an entry use the worst-case variance 1.
        groups: Measurement grouping; defaults to the qubit-wise commuting
            grouping of ``s``.
        covariance: ``"diagonal"`` treats co-measured strings as
            uncorrelated; ``"bound"`` charges the worst-case covariance.
    """
    _check_epsilon(epsilon)
    if covariance not in ("diagonal", "bound"):
        raise ValueError(f"unknown covariance mode {covariance!r}")
    if not s.is_hermitian():
        raise ValueError("measurement estimate requires a Hermitian sum")
    if groups is None:
        groups = qwc_groups(s)
    total = 0.0
    for group in groups:
        weights = []
        for term in group:
            if term.is_identity():
                continue
            mean = 0.0
            if expectations is not None:
                mean = float(expectations.get(term.key, 0.0))
            var = max(0.0, 1.0 - mean * mean)
            weights.append((abs(term.coefficient), var))
        if not weights:
            continue
        if covariance == "diagonal":
            inner = sum(h * h * var for h, var in weights)
        else:
            inner = sum(h * math.sqrt(var) for h, var in weights) ** 2
        total += math.sqrt(inner)
    return (total / epsilon) ** 2


def reduction_stats(h: PauliSum, max_order: int, epsilon: float = 1e-3) -> CostReport:
    """String growth and worst-case shot budget across moment orders.

    Reports, for each order n up to ``max_order``, the simplified string
    count of ``h**n``, the cumulative count of distinct strings seen so far,
    the qubit-wise commuting group count of the cumulative union, and the
    worst-case measurement estimate for each order at precision ``epsilon``.
    ``epsilon`` is checked, and ``max_order`` by ``hamiltonian_powers``,
    before any power is expanded.
    """
    _check_epsilon(epsilon)
    powers = hamiltonian_powers(h, max_order)
    per_order = [len(powers[n]) for n in range(1, max_order + 1)]
    seen: set[tuple[int, int]] = set()
    cumulative = []
    for n in range(1, max_order + 1):
        seen.update(powers[n]._coeffs)
        cumulative.append(len(seen))
    union = union_of_powers(powers)
    group_count = len(qwc_groups(union))
    per_order_m = [
        estimate_measurements(powers[n], epsilon) for n in range(1, max_order + 1)
    ]
    return CostReport(
        max_order=max_order,
        epsilon=epsilon,
        per_order_counts=per_order,
        cumulative_counts=cumulative,
        group_count=group_count,
        per_order_measurements=per_order_m,
        total_measurements=sum(per_order_m),
    )
