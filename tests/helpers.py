"""Independent dense oracles and loop references used across the test modules.

The dense oracles are built from first principles with ``np.kron`` and
explicit 4x4 / 2x2 matrices, deliberately not reusing the package's own Pauli
algebra or simulator, so agreement between the two is a real cross-check.
The product reference is the term-pair loop over dicts of Python-int mask
pairs, which keep their strings in first-seen order.  The grouping reference
is the plain first-fit loop over label-sorted terms.  The shot-sampling
reference is the per-order readout loop; it shares the package's groups and
one-qubit kernel, so it checks how a plan reads the counts, not those parts.
The one-point helpers call the package's stacked moment routines on a stack
of one row.
"""

from __future__ import annotations

import numpy as np

from pdsvqs.moments import _X_TO_Z, _Y_TO_Z, union_of_powers
from pdsvqs.moments import _Krylov, _analytic_rows, _exact_moments, _operator, _shift_rows
from pdsvqs.pauli import qwc_groups
from pdsvqs.pds import RegPolicy, _solve_rows
from pdsvqs.statesim import _apply_single, _derivative_states, _simulate

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(factors):
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def dense_from_pairs(pairs, n_qubits=None):
    """Dense matrix of a list of ``(coefficient, label)`` pairs.

    The leftmost letter of each label acts on qubit 0, which is the most
    significant bit of the basis index.
    """
    if n_qubits is None:
        n_qubits = len(pairs[0][1])
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, label in pairs:
        out += coeff * kron_all(PAULI[ch] for ch in label)
    return out


def pairs_of(s):
    """``(coefficient, label)`` view of a package ``PauliSum``."""
    return [(t.coefficient, t.label) for t in s.terms()]


def dense_of(s):
    """Dense oracle matrix of a package ``PauliSum``."""
    return dense_from_pairs(pairs_of(s), s.n_qubits)


def one_qubit_embedded(u, target, n_qubits):
    factors = [I2] * n_qubits
    factors[target] = u
    return kron_all(factors)


def rotation(kind, angle):
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]])
    if kind == "rz":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(kind)


def controlled(u, control, target, n_qubits):
    """|0><0|_c (x) 1 + |1><1|_c (x) U_t embedded in the full register."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    idle = [I2] * n_qubits
    left = list(idle)
    left[control] = p0
    right = list(idle)
    right[control] = p1
    right[target] = u
    return kron_all(left) + kron_all(right)


def dense_circuit_matrix(circuit, theta):
    """Full unitary of a package ``Circuit``, built gate by gate with kron."""
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        if g.kind == "x":
            m = one_qubit_embedded(PAULI["X"], g.target, n)
        elif g.kind == "cnot":
            m = controlled(PAULI["X"], g.control, g.target, n)
        elif g.kind == "cry":
            m = controlled(rotation("ry", g.angle(theta)), g.control, g.target, n)
        else:
            m = one_qubit_embedded(rotation(g.kind, g.angle(theta)), g.target, n)
        u = m @ u
    return u


def dense_circuit_state(circuit, theta):
    amps = np.zeros(1 << circuit.n_qubits, dtype=complex)
    amps[int(circuit.initial_bits, 2)] = 1.0
    return dense_circuit_matrix(circuit, theta) @ amps


def random_label(rng, n_qubits):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))


def random_pairs(rng, n_qubits, n_terms, real=True):
    pairs = []
    for _ in range(n_terms):
        coeff = rng.standard_normal()
        if not real:
            coeff = coeff + 1j * rng.standard_normal()
        pairs.append((coeff, random_label(rng, n_qubits)))
    return pairs


def random_state_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def chain_pairs(n_sites):
    """Open Heisenberg chain sum_i (XX + YY + ZZ)_{i,i+1} + 0.5 sum_i Z_i."""
    pairs = []
    for i in range(n_sites - 1):
        for letter in "XYZ":
            label = ["I"] * n_sites
            label[i] = label[i + 1] = letter
            pairs.append((1.0, "".join(label)))
    for i in range(n_sites):
        label = ["I"] * n_sites
        label[i] = "Z"
        pairs.append((0.5, "".join(label)))
    return pairs


def product_phase_exponent(x1, z1, x2, z2):
    """Exponent p of the unit phase i^p picked up by the string product.

    With the convention that a letter is ``i^(x z) X^x Z^z`` on every qubit,
    composing two strings gives ``i^(x1 z1) i^(x2 z2) (-1)^(z1 x2)`` relative
    to the normalized result ``i^(x3 z3) X^x3 Z^z3``.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    p = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
    p += 2 * (x2 & z1).bit_count()
    return p % 4


_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _mask(words):
    return sum(int(w) << 64 * k for k, w in enumerate(words))


def dict_of(s):
    """A package ``PauliSum`` as a dict ``{(x_mask, z_mask): coefficient}``
    in its storage order."""
    keys = ((_mask(x), _mask(z)) for x, z in zip(s.x, s.z))
    return dict(zip(keys, s.coeffs.tolist()))


def dict_from_pairs(pairs):
    """``(coefficient, label)`` pairs merged into a dict, first seen first;
    bit q of a mask is the letter on qubit q (the leftmost)."""
    out = {}
    for c, label in pairs:
        key = tuple(
            sum((ch in letters) << q for q, ch in enumerate(label)) for letters in ("XY", "ZY")
        )
        out[key] = out.get(key, 0.0 + 0.0j) + complex(c)
    return out


def dict_product(a, b):
    """Product of two mask dicts, one term pair at a time, left term outer."""
    out = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            key = (x1 ^ x2, z1 ^ z2)
            phase = _PHASES[product_phase_exponent(x1, z1, x2, z2)]
            out[key] = out.get(key, 0.0 + 0.0j) + c1 * c2 * phase
    return out


def dict_powers(h, max_order, drop_tol=1e-12):
    """Expansions of ``h**n`` (h a mask dict) for n = 0..max_order, each
    product pruned at ``drop_tol`` as ``hamiltonian_powers`` prunes."""
    base = {k: c for k, c in h.items() if abs(c) > drop_tol}
    powers = [{(0, 0): 1.0 + 0.0j}]
    for _ in range(max_order):
        product = dict_product(powers[-1], base)
        powers.append({k: c for k, c in product.items() if abs(c) > drop_tol})
    return powers


def assert_same_dict(s, expected):
    """``s`` holds the keys of ``expected`` in the same order, with
    coefficients equal bit for bit."""
    got = dict_of(s)
    assert list(got) == list(expected)
    got_bits = np.array(list(got.values()), dtype=complex).view(np.uint64)
    want_bits = np.array(list(expected.values()), dtype=complex).view(np.uint64)
    assert np.array_equal(got_bits, want_bits)


def first_fit_qwc_groups(s):
    """Greedy qubit-wise commuting groups of a package ``PauliSum``, one term
    at a time: terms sorted by (-|c|, label) each join the first group whose
    pinned letters they agree with wherever the supports overlap."""
    ordered = sorted(s.terms(), key=lambda t: (-abs(t.coefficient), t.label))
    groups = []
    # Per group: (x_mask, z_mask, support_mask) of the letters pinned so far.
    pinned = []
    for term in ordered:
        support = term.x_mask | term.z_mask
        for gi, (gx, gz, gsup) in enumerate(pinned):
            if ((gx ^ term.x_mask) | (gz ^ term.z_mask)) & gsup & support:
                continue
            groups[gi].append(term)
            pinned[gi] = (gx | term.x_mask, gz | term.z_mask, gsup | support)
            break
        else:
            groups.append([term])
            pinned.append((term.x_mask, term.z_mask, support))
    return groups


def per_order_plan(powers):
    """Measurement plan as the per-order readout loop builds it.

    Per group of the union's first-fit QWC groups: the OR-ed ``(x_mask,
    z_mask)`` and, for each order whose power has strings in the group, the
    tuple (order, identity constant or None, outcome row or None, row squared
    or None), each row summed term by term in group order.
    """
    groups = qwc_groups(union_of_powers(powers))
    n = powers[1].n_qubits
    idx = np.arange(1 << n)
    # Column q: the bit of qubit q in each basis outcome, qubit 0 most significant.
    outcome_bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    coeff_maps = [{t.key: t.coefficient.real for t in s.terms()} for s in powers]
    plan = []
    for group in groups:
        sign_rows = {}
        for term in group:
            if not term.is_identity():
                support = [q for q in range(n) if ((term.x_mask | term.z_mask) >> q) & 1]
                parity = outcome_bits[:, support].sum(axis=1) & 1
                sign_rows[term.key] = 1.0 - 2.0 * parity
        readout = []
        for order in range(1, len(powers)):
            cmap = coeff_maps[order]
            constant = None
            row = np.zeros(idx.size)
            active = False
            for term in group:
                c = cmap.get(term.key)
                if c is None:
                    continue
                if term.is_identity():
                    constant = c
                    continue
                row += c * sign_rows[term.key]
                active = True
            if active:
                readout.append((order, constant, row, row**2))
            elif constant is not None:
                readout.append((order, constant, None, None))
        x_mask = z_mask = 0
        for term in group:
            x_mask |= term.x_mask
            z_mask |= term.z_mask
        plan.append((x_mask, z_mask, readout))
    return plan


def per_order_sampled_moments(amps, powers, shots, seed):
    """Sampled moments and standard errors from ``per_order_plan``: per group
    one rotation per X/Y letter, one multinomial draw from a single
    ``default_rng(seed)`` (one row at a time, in group order), and one dot
    product per order."""
    n = powers[1].n_qubits
    values = np.zeros(len(powers))
    variances = np.zeros(len(powers))
    values[0] = 1.0
    rng = np.random.default_rng(seed)
    for x_mask, z_mask, readout in per_order_plan(powers):
        rotated = amps
        for q in range(n):
            if (x_mask >> q) & 1:
                u = _Y_TO_Z if (z_mask >> q) & 1 else _X_TO_Z
                rotated = _apply_single(rotated, q, u)
        probs = np.abs(rotated) ** 2
        counts = rng.multinomial(shots, probs / probs.sum())
        for order, constant, row, row_sq in readout:
            if constant is not None:
                values[order] += constant
            if row is None:
                continue
            mean = float(counts @ row) / shots
            second = float(counts @ row_sq) / shots
            values[order] += mean
            variances[order] += max(0.0, second - mean**2) * shots / (shots - 1)
    return values, np.sqrt(variances / shots)


def point_moments(circuit, theta, h, max_order):
    """Exact ``<H^n>``, n = 0 .. max_order, at one parameter point."""
    amps = _simulate(circuit, np.asarray(theta, dtype=float)[None])
    return _exact_moments(_operator(h, max_order), max_order)(amps)[0]


def point_solve(values, order, policy=RegPolicy()):
    """``_solve_rows`` of one moment row: every field keeps its row axis."""
    return _solve_rows(np.asarray(values, dtype=float)[None], order, policy)


def point_rows(circuit, theta, h, max_order, method="analytic"):
    """Exact ``d<H^n>/d theta_k``, shape (n_params, max_order + 1), at one point."""
    thetas = np.asarray(theta, dtype=float)[None]
    op = _operator(h, max_order)
    if method == "shift":
        return _shift_rows(circuit, thetas, _exact_moments(op, max_order), max_order + 1)[0]
    walk = _derivative_states(circuit, thetas)
    return _analytic_rows(_Krylov(op, [walk[:, 0]]), walk[:, 1:], max_order)[0]
