"""Independent dense oracles and loop references used across the test modules.

The dense oracles are built from first principles with ``np.kron`` and
explicit 4x4 / 2x2 matrices, deliberately not reusing the package's own Pauli
algebra or simulator, so agreement between the two is a real cross-check.
The product reference is the term-pair loop over dicts of Python-int mask
pairs, which keep their strings in first-seen order; the helpers parse those
masks themselves, from labels or from a sum's words.  The grouping reference
is the plain first-fit loop over label-sorted terms.  The shot-sampling
reference is the per-order readout loop; it shares the package's groups and
one-qubit kernel, so it checks how a plan reads the counts, not those parts.
The turn reference rotates every group on its own, one (G, 2, 2) stack of
maps per turned qubit, and folds the moments with unbuffered ``np.add.at``,
as plans did before they shared letter prefixes on a tree; the readout
reference builds each string's sign row from its own parity.
The finite-shot table reference samples one state at a time, simulating one
shift per call, so it checks the stacking of a run's sampling pass.
The one-point helpers and ``sampled_one`` call the package's stacked moment
and sampling routines on a stack of one row.  The forward gradient reference
is the implicit-function rule one parameter at a time, each parameter's
derivative rows its own right side, which the energy weights replace.
"""

from __future__ import annotations

import math

import numpy as np

from pdsvqs.moments import _X_TO_Z, _Y_TO_Z, _union, sampled_moments
from pdsvqs.moments import _analytic_rows, _krylov, _shift_rows, _values_from_state
from pdsvqs.pauli import _qwc_rows
from pdsvqs.optim import _mix
from pdsvqs.pds import (
    RegPolicy, SingularMoments, VanishingDenominator, _hankel, _no_error, _solve_rows, _weights,
)
from pdsvqs.statesim import (
    Circuit, Gate, State, _apply_single, _compiled, _derivative_states, _index_masks, _parity,
    _simulate,
)

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


def dense_of(s):
    """Dense oracle matrix of a package ``PauliSum``."""
    return dense_from_pairs(s.terms(), s.n_qubits)


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
        angle = g.offset
        if g.param is not None:
            angle += g.multiplier * float(theta[g.param])
        if g.kind == "x":
            m = one_qubit_embedded(PAULI["X"], g.target, n)
        elif g.kind == "cnot":
            m = controlled(PAULI["X"], g.control, g.target, n)
        elif g.kind == "cry":
            m = controlled(rotation("ry", angle), g.control, g.target, n)
        else:
            m = one_qubit_embedded(rotation(g.kind, angle), g.target, n)
        u = m @ u
    return u


def dense_circuit_state(circuit, theta):
    amps = np.zeros(1 << circuit.n_qubits, dtype=complex)
    amps[int(circuit.initial_bits, 2)] = 1.0
    return dense_circuit_matrix(circuit, theta) @ amps


def dense_fidelity(amps, basis):
    """Squared overlap of the amplitudes with the span of orthonormal columns."""
    return float(np.sum(np.abs(np.asarray(basis).conj().T @ amps) ** 2))


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


def random_circuit(rng, n_qubits, n_gates, n_params):
    """A random mix of rotations, controlled rotations, CNOT and X gates."""
    kinds = ["rx", "ry", "rz", "x"]
    if n_qubits > 1:
        kinds += ["cry", "cnot"]
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        target = int(rng.integers(n_qubits))
        control = None
        if kind in ("cry", "cnot"):
            control = int(rng.integers(n_qubits - 1))
            if control >= target:
                control += 1
        if kind in ("cnot", "x"):
            gates.append(Gate(kind, target, control=control))
        else:
            gates.append(
                Gate(
                    kind,
                    target,
                    control=control,
                    param=int(rng.integers(n_params)),
                    multiplier=float(rng.choice([1.0, 2.0, -1.0])),
                    offset=float(rng.normal()),
                )
            )
    bits = "".join(rng.choice(["0", "1"]) for _ in range(n_qubits))
    return Circuit(n_qubits=n_qubits, n_params=n_params, gates=tuple(gates), initial_bits=bits)


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


def label_masks(label):
    """``(x_mask, z_mask)`` of a label; bit q is the letter on qubit q (the leftmost)."""
    return tuple(
        sum((ch in letters) << q for q, ch in enumerate(label)) for letters in ("XY", "ZY")
    )


def dict_from_pairs(pairs):
    """``(coefficient, label)`` pairs merged into a dict, first seen first."""
    out = {}
    for c, label in pairs:
        key = label_masks(label)
        out[key] = out.get(key, 0.0 + 0.0j) + complex(c)
    return out


def row_items(s, groups):
    """Row-index groups into a package ``PauliSum`` as lists of
    ``((x_mask, z_mask), coefficient)`` items, masks read off its words."""
    items = list(dict_of(s).items())
    return [[items[r] for r in rows] for rows in groups]


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


def dict_union(dicts):
    """The union of mask dicts, first seen first, each string weighted by
    its largest coefficient magnitude, as ``moments._union`` weights it."""
    out = {}
    for d in dicts:
        for key, c in d.items():
            out[key] = max(out.get(key, 0.0), abs(c))
    return {key: complex(w) for key, w in out.items()}


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
    at a time, as lists of ``((x_mask, z_mask), coefficient)`` items: terms
    sorted by (-|c|, label) each join the first group whose pinned letters
    they agree with wherever the supports overlap."""
    ordered = sorted(s.terms(), key=lambda t: (-abs(t[0]), t[1]))
    groups = []
    # Per group: (x_mask, z_mask, support_mask) of the letters pinned so far.
    pinned = []
    for c, label in ordered:
        x, z = label_masks(label)
        support = x | z
        for gi, (gx, gz, gsup) in enumerate(pinned):
            if ((gx ^ x) | (gz ^ z)) & gsup & support:
                continue
            groups[gi].append(((x, z), c))
            pinned[gi] = (gx | x, gz | z, gsup | support)
            break
        else:
            groups.append([((x, z), c)])
            pinned.append((x, z, support))
    return groups


def per_order_plan(powers):
    """Measurement plan as the per-order readout loop builds it.

    Per group of the union's first-fit QWC groups: the OR-ed ``(x_mask,
    z_mask)`` and, for each order whose power has strings in the group, the
    tuple (order, identity constant or None, outcome row or None, row squared
    or None), each row summed term by term in group order.
    """
    union = _union(powers)[0]
    groups = [[key for key, _ in g] for g in row_items(union, _qwc_rows(union))]
    n = powers[1].n_qubits
    idx = np.arange(1 << n)
    # Column q: the bit of qubit q in each basis outcome, qubit 0 most significant.
    outcome_bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    coeff_maps = [{key: c.real for key, c in dict_of(s).items()} for s in powers]
    plan = []
    for group in groups:
        sign_rows = {}
        for x, z in group:
            if x | z:
                support = [q for q in range(n) if ((x | z) >> q) & 1]
                parity = outcome_bits[:, support].sum(axis=1) & 1
                sign_rows[x, z] = 1.0 - 2.0 * parity
        readout = []
        for order in range(1, len(powers)):
            cmap = coeff_maps[order]
            constant = None
            row = np.zeros(idx.size)
            active = False
            for key in group:
                c = cmap.get(key)
                if c is None:
                    continue
                if key == (0, 0):
                    constant = c
                    continue
                row += c * sign_rows[key]
                active = True
            if active:
                readout.append((order, constant, row, row**2))
            elif constant is not None:
                readout.append((order, constant, None, None))
        x_mask = z_mask = 0
        for x, z in group:
            x_mask |= x
            z_mask |= z
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


def per_group_probabilities(amps, powers):
    """Outcome probabilities (G, B, 2**n) of amplitude rows (B, 2**n) in every
    group's basis, each group turned on its own: per qubit that some group
    reads in X or Y, one (G, 2, 2) stack of maps, the identity where a group
    reads Z or nothing."""
    masks = [(x, z) for x, z, _ in per_order_plan(powers)]
    bases = np.stack([I2, _X_TO_Z, _Y_TO_Z])
    rotated = np.broadcast_to(amps, (len(masks),) + amps.shape)
    for q in range(powers[1].n_qubits):
        letters = [((x >> q) & 1) * (1 + ((z >> q) & 1)) for x, z in masks]
        if any(letters):
            rotated = _apply_single(rotated, q, bases[letters])
    probs = np.abs(rotated) ** 2
    return probs / probs.sum(axis=-1, keepdims=True)


def per_group_sampled_moments(amps, powers, plan, shots, seeds):
    """``sampled_moments`` one state at a time from ``per_group_probabilities``,
    reading ``plan``'s rows: every moment adds group by group, each group's
    constant before its mean, and every variance row by row, with unbuffered
    ``np.add.at``."""
    probs = per_group_probabilities(amps, powers)
    values, variances = np.zeros((2, len(amps), plan.orders))
    values[:, 0] = 1.0
    sequence = np.argsort(np.concatenate([2 * plan.row_group, 2 * plan.row_group + 1]),
                          kind="stable")
    for s, seed in enumerate(seeds):
        counts = np.random.default_rng(seed).multinomial(shots, probs[:, s]).astype(float)
        row_counts = counts[plan.row_group]
        mean = np.array([c @ row for c, row in zip(row_counts, plan.readout)]) / shots
        second = np.array([c @ row for c, row in zip(row_counts, plan.readout_sq)]) / shots
        terms = np.concatenate([plan.constants, mean])
        np.add.at(values[s], np.tile(plan.row_order, 2)[sequence], terms[sequence])
        row_var = np.maximum(0.0, second - mean**2) * shots / (shots - 1)
        np.add.at(variances[s], plan.row_order, row_var)
    return values, np.sqrt(variances / shots)


def per_string_readout(powers):
    """A plan's readout rows as a loop over strings builds them, each
    string's sign row ``1 - 2 * parity(i & mask)`` from its own parity:
    (readout, constants, row_group, row_order) in the plan's row order."""
    union, at = _union(powers)
    n = union.n_qubits
    idx = np.arange(1 << n)
    table = np.zeros((len(union), len(powers) - 1))
    order_of = np.repeat(np.arange(len(powers) - 1), [len(s) for s in powers[1:]])
    table[at, order_of] = np.concatenate([s.coeffs.real for s in powers[1:]])
    support = _index_masks(union.x | union.z, n)
    readout, constants, row_group, row_order = [], [], [], []
    for gi, group in enumerate(_qwc_rows(union)):
        for column in np.flatnonzero(table[group].any(axis=0)):
            row, constant = np.zeros(idx.size), 0.0
            for mask, c in zip(support[group].tolist(), table[group, column]):
                if mask == 0:
                    constant = c
                else:
                    row += c * (1.0 - 2.0 * _parity(idx & mask))
            readout.append(row)
            constants.append(constant)
            row_group.append(gi)
            row_order.append(column + 1)
    return np.array(readout).reshape(-1, idx.size), constants, row_group, row_order


def sampled_one(state, plan, shots, seed=0):
    """``sampled_moments`` of one ``State``, drawn by ``default_rng(seed)``:
    its estimates and standard errors, each (orders,)."""
    values, errors = sampled_moments(state.amplitudes[None], plan, shots, [seed])
    return values[0], errors[0]


def per_state_sampled_table(circuit, thetas, plan, shots, seeds, iteration):
    """``optim._sampled_table`` one state at a time: one ``_simulate`` at
    ``thetas`` and one per (parameter, gate, sign) of the decomposed circuit's
    gate loop with that one rotation offset shifted, and one
    ``sampled_moments`` per state, seeded ``_mix(seed, iteration, tag)`` with
    tag 0 for the circuit states and 1, 2, ... for the shifts in loop order."""
    def sampled(states, tag):
        return np.array([
            sampled_one(State(a), plan, shots, _mix(s, iteration, tag))[0]
            for a, s in zip(states, seeds)
        ])

    rows = np.zeros((len(thetas), circuit.n_params, plan.orders))
    decomposed = circuit.decomposed
    # Rotation j of the gate list holds offset j; the rewrite leaves no CRY.
    rotations = [g for g in decomposed.gates if g.kind in ("rx", "ry", "rz")]
    offsets = np.array([g.offset for g in rotations])
    tag = 0
    for k in range(circuit.n_params):
        for j, gate in enumerate(rotations):
            if gate.param != k:
                continue
            for sign in (1.0, -1.0):
                shifted = offsets.copy()
                shifted[j] += sign * math.pi / 2.0
                tag += 1
                est = sampled(_simulate(decomposed, thetas, shifted), tag)
                rows[:, k] += 0.5 * gate.multiplier * sign * est
    amps = _simulate(circuit, thetas)
    return amps, sampled(amps, 0), rows


def _exact_moments(op, max_order):
    """``moments_of`` for ``_shift_rows``: exact moments, the analytic rows' reference."""
    return lambda amps: _values_from_state(_krylov(op, amps, (max_order + 1) // 2), max_order)


def point_moments(circuit, theta, h, max_order):
    """Exact ``<H^n>``, n = 0 .. max_order, at one parameter point."""
    amps = _simulate(circuit, np.asarray(theta, dtype=float)[None])
    return _exact_moments(_compiled(h), max_order)(amps)[0]


def point_solve(values, order, policy=RegPolicy("none")):
    """``_solve_rows`` of one moment row: every field keeps its row axis."""
    return _solve_rows(np.asarray(values, dtype=float)[None], order, policy)


def _point_states(circuit, thetas, method):
    """States and derivative states (None for the sweep) at ``thetas``."""
    if method == "sweep":
        return _simulate(circuit, thetas), None
    walk = _derivative_states(circuit, thetas)
    return walk[:, 0], walk[:, 1:]


def point_rows(circuit, theta, h, max_order, method="analytic"):
    """Exact ``d<H^n>/d theta_k``, shape (n_params, max_order + 1), at one point.

    ``method`` is "analytic" (derivative states from the forward walk),
    "sweep" (the backward sweep, no derivative states) or "shift".  The first
    two contract one unit weight vector per order n, so column n is the
    gradient of ``<H^n>`` alone."""
    thetas = np.asarray(theta, dtype=float)[None]
    if method == "shift":
        moments_of = _exact_moments(_compiled(h), max_order)
        return _shift_rows(circuit, thetas, moments_of, max_order + 1)[2][0]
    amps, derivs = _point_states(circuit, thetas, method)
    return np.stack([
        _analytic_rows(_compiled(h), [amps], unit[None], circuit, thetas, derivs)[0]
        for unit in np.eye(max_order + 1)
    ], axis=1)


def point_gradient(circuit, theta, h, solved, method="analytic"):
    """The program's energy gradient (n_params,) at one point and its error:
    the weights of the solved moment row, contracted through the walk's
    derivative states ("analytic") or the backward sweep ("sweep")."""
    thetas = np.asarray(theta, dtype=float)[None]
    weights, errors = _weights(solved)
    amps, derivs = _point_states(circuit, thetas, method)
    return _analytic_rows(_compiled(h), [amps], weights, circuit, thetas, derivs)[0], errors[0]


def forward_gradient(values, grads, solved):
    """Root gradients (B, P) of solved moment rows and each row's error, one
    parameter at a time.

    ``grads`` (B, P, >= 2K) are the moment rows' derivatives.  Parameter p's
    ``M dX = -dY - dM X`` is solved as its own right side, in an M built here
    from ``values`` and shifted where the row was shifted, and
    ``dE = -(E^(K-1), .., 1) . dX / P'(E)``.  Errors are recorded as the
    weights record them; a row with an error reads NaN.
    """
    errors = solved.errors.copy()
    k = solved.order
    b, n_params = grads.shape[:2]
    grad = np.full((b, n_params), np.nan)
    for r in np.flatnonzero(_no_error(errors)):
        x, energy = solved.x[r], solved.energy[r]
        denom = k * energy ** (k - 1) + sum(
            (k - i) * x[i - 1] * energy ** (k - i - 1) for i in range(1, k)
        )
        if abs(denom) < 1e-12:
            errors[r] = VanishingDenominator(f"polynomial derivative {denom:.3g}")
            continue
        matrix, _ = _hankel(values[r], k)
        if solved.applied[r]:
            matrix = matrix + solved.magnitude * np.eye(k)
        d_matrix, d_rhs = _hankel(grads[r], k)
        rhs = -d_rhs - d_matrix @ x
        try:
            dx = np.linalg.solve(matrix, rhs.T).T
        except np.linalg.LinAlgError:
            dx = np.full(rhs.shape, np.nan)
        if not np.isfinite(dx).all():
            errors[r] = SingularMoments("moment matrix is singular in the gradient solve")
            continue
        grad[r] = -(dx @ energy ** np.arange(k - 1, -1, -1)) / denom
    return grad, errors
