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

import numpy as np

from .moments import _union, hamiltonian_powers
from .pauli import PauliSum, _abs, _labels, _qwc_rows

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


def _row_groups(groups, n_rows: int) -> list[np.ndarray]:
    """``groups`` as row-index arrays, checked to partition ``range(n_rows)``."""
    groups = [np.asarray(g, dtype=np.intp).reshape(-1) for g in groups]
    rows = np.concatenate([np.empty(0, dtype=np.intp), *groups])
    outside = rows[(rows < 0) | (rows >= n_rows)]
    if outside.size:
        raise ValueError(f"the groups name row {outside[0]} of a sum of {n_rows} rows")
    counts = np.bincount(rows, minlength=n_rows)
    wrong = np.flatnonzero(counts != 1)
    if wrong.size:
        r = wrong[0]
        raise ValueError(f"the groups {'miss' if counts[r] == 0 else 'repeat'} row {r}")
    return groups


def estimate_measurements(
    s: PauliSum,
    epsilon: float,
    expectations: dict[str, float] | None = None,
    groups: list | None = None,
    covariance: str = "diagonal",
) -> float:
    """Total shots to estimate ``<s>`` to precision ``epsilon``.

    Args:
        s: Hermitian weighted Pauli sum.
        epsilon: Target standard error on the total.
        expectations: Optional per-string ``<P>`` keyed by label; strings
            without an entry use the worst-case variance 1.  A value
            outside [-1, 1] (NaN too) raises ``ValueError`` naming its label.
        groups: Row-index groups into ``s``, as ``pauli._qwc_rows`` returns,
            that partition its rows (a ``ValueError`` names the first row they
            miss or repeat); defaults to the qubit-wise commuting grouping.
        covariance: ``"diagonal"`` treats co-measured strings as
            uncorrelated; ``"bound"`` charges the worst-case covariance.
    """
    _check_epsilon(epsilon)
    if covariance not in ("diagonal", "bound"):
        raise ValueError(f"unknown covariance mode {covariance!r}")
    if not s.is_hermitian():
        raise ValueError("measurement estimate requires a Hermitian sum")
    groups = _qwc_rows(s) if groups is None else _row_groups(groups, len(s))
    h, identity, var = _abs(s.coeffs), ~(s.x | s.z).any(axis=1), np.ones(len(s))
    if expectations is not None:
        for label, value in expectations.items():
            if not -1.0 <= float(value) <= 1.0:
                raise ValueError(f"expectation of {label} must lie in [-1, 1], got {value!r}")
        mean = [float(expectations.get(k, 0.0)) for k in _labels(s.x, s.z, s.n_qubits)]
        var = np.maximum(0.0, 1.0 - np.square(mean))
    # Left folds over Python floats, so the total keeps its bits.
    total = 0.0
    for group in groups:
        group = group[~identity[group]]
        if not group.size:
            continue
        if covariance == "diagonal":
            inner = sum((h[group] * h[group] * var[group]).tolist())
        else:
            inner = sum((h[group] * np.sqrt(var[group])).tolist()) ** 2
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
    per_order = [len(p) for p in powers[1:]]
    union, at = _union(powers)
    # Union rows are in first-seen order, so the first m rows of the
    # concatenated powers hold max(at[:m]) + 1 distinct strings.
    seen = np.concatenate([[0], np.maximum.accumulate(at + 1)])
    cumulative = seen[np.cumsum(per_order)].tolist()
    group_count = len(_qwc_rows(union))
    per_order_m = [estimate_measurements(p, epsilon) for p in powers[1:]]
    return CostReport(
        max_order=max_order,
        epsilon=epsilon,
        per_order_counts=per_order,
        cumulative_counts=cumulative,
        group_count=group_count,
        per_order_measurements=per_order_m,
        total_measurements=sum(per_order_m),
    )
