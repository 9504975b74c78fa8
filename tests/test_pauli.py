"""Pauli string algebra against the dense kron oracle."""

import tracemalloc

import numpy as np
import pytest
from pytest import approx

from helpers import (
    assert_same_dict,
    chain_pairs,
    dense_from_pairs,
    dense_of,
    dict_from_pairs,
    dict_of,
    dict_powers,
    dict_product,
    dict_union,
    first_fit_qwc_groups,
    label_masks,
    random_pairs,
    row_items,
)
from pdsvqs import pauli
from pdsvqs.models import MODEL_NAMES, build_model
from pdsvqs.moments import _union, hamiltonian_powers
from pdsvqs.pauli import PauliSum, _qwc_rows


def term(label, coefficient=1.0):
    """The one-string sum ``coefficient * label``."""
    return PauliSum.from_terms([(coefficient, label)])


def qwc_items(s):
    """``_qwc_rows(s)`` as lists of ``((x_mask, z_mask), coefficient)`` items."""
    return row_items(s, _qwc_rows(s))


class TestPauliTerm:
    """One weighted string, given by its label."""

    def test_label_round_trip(self):
        for label in ("I", "X", "Y", "Z", "IXYZ", "ZZXY", "YIIX"):
            s = term(label)
            assert s.terms() == [(1.0 + 0.0j, label)]
            assert s.n_qubits == len(label)

    def test_masks_follow_letters(self):
        # qubit 0 is the leftmost letter -> lowest mask bit
        assert dict_of(term("IXYZ")) == {(0b0110, 0b1100): 1.0}

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            term("")
        with pytest.raises(ValueError):
            term("IXQ")

    def test_weight_and_identity(self):
        assert list(dict_of(term("II"))) == [(0, 0)]
        ((x, z),) = dict_of(term("IXYI"))
        assert (x | z).bit_count() == 2

    @pytest.mark.parametrize("a", ["I", "X", "Y", "Z"])
    @pytest.mark.parametrize("b", ["I", "X", "Y", "Z"])
    def test_single_qubit_product_table(self, a, b):
        ((c, label),) = (term(a) * term(b)).terms()
        expected = dense_from_pairs([(1.0, a)]) @ dense_from_pairs([(1.0, b)])
        assert np.allclose(c * dense_from_pairs([(1.0, label)]), expected)

    def test_multi_qubit_product_phase(self, rng):
        for _ in range(50):
            (ca, la), (cb, lb) = random_pairs(rng, 3, 2, real=False)
            ((c, label),) = (term(la, ca) * term(lb, cb)).terms()
            expected = dense_from_pairs([(ca, la)]) @ dense_from_pairs([(cb, lb)])
            got = c * dense_from_pairs([(1.0, label)])
            assert np.allclose(got, expected, atol=1e-13)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            term("XX") * term("X")


class TestPauliSum:
    def test_from_terms_merges_duplicates(self):
        s = PauliSum.from_terms([(1.0, "XZ"), (2.5, "XZ"), (1.0, "II")])
        assert len(s) == 2
        assert s.coefficient("XZ") == approx(3.5)

    def test_terms_are_label_sorted(self, rng):
        s = PauliSum.from_terms(random_pairs(rng, 2, 12))
        labels = [label for _, label in s.terms()]
        assert labels == sorted(labels)

    @pytest.mark.parametrize("n", [65, 70, 130])
    def test_terms_are_label_sorted_on_wide_registers(self, rng, n):
        s = PauliSum.from_terms(random_pairs(rng, n, 30))
        labels = [label for _, label in s.terms()]
        assert labels == sorted(labels)

    def test_addition_and_scaling(self, rng):
        pa = random_pairs(rng, 2, 4)
        pb = random_pairs(rng, 2, 4)
        a, b = PauliSum.from_terms(pa), PauliSum.from_terms(pb)
        combined = a + b.scaled(-2.0)
        expected = dense_from_pairs(pa, 2) - 2.0 * dense_from_pairs(pb, 2)
        assert np.allclose(dense_of(combined), expected, atol=1e-13)

    def test_product_matches_dense(self, rng):
        for _ in range(20):
            pa = random_pairs(rng, 3, 5, real=False)
            pb = random_pairs(rng, 3, 5, real=False)
            product = PauliSum.from_terms(pa) * PauliSum.from_terms(pb)
            expected = dense_from_pairs(pa, 3) @ dense_from_pairs(pb, 3)
            assert np.allclose(dense_of(product), expected, atol=1e-12)

    def test_simplify_drops_small_terms(self):
        s = PauliSum.from_terms([(1.0, "X"), (1e-15, "Z")])
        simplified = s.simplify(1e-12)
        assert len(simplified) == 1
        assert simplified.coefficient("Z") == 0.0

    @pytest.mark.parametrize("drop_tol", [-1e-12, float("nan")])
    def test_simplify_rejects_a_negative_or_nan_tolerance(self, drop_tol):
        s = PauliSum.from_terms([(1.0, "X"), (1e-15, "Z")])
        with pytest.raises(ValueError, match="drop_tol must be non-negative"):
            s.simplify(drop_tol)

    def test_cancellation_then_simplify(self):
        s = PauliSum.from_terms([(1.0, "XY"), (-1.0, "XY")])
        assert len(s) == 1  # merged to an exact zero entry
        assert len(s.simplify()) == 0

    def test_is_hermitian(self):
        assert PauliSum.from_terms([(0.3, "XZ"), (-1.0, "YY")]).is_hermitian()
        assert not PauliSum.from_terms([(1j, "XZ")]).is_hermitian()

    def test_hermitian_tolerance_scales_with_the_coefficients(self):
        # Rounding residues of a product grow with its coefficients.
        assert PauliSum.from_terms([(1.8e6 + 6.8e-12j, "XZ"), (3.0, "YY")]).is_hermitian()
        assert PauliSum.from_terms([(1.0 + 1e-12j, "XZ")]).is_hermitian()
        assert not PauliSum.from_terms([(1.0 + 1e-9j, "XZ")]).is_hermitian()
        assert not PauliSum.from_terms([(1e-3 + 1e-9j, "XZ")]).is_hermitian()
        assert not PauliSum.from_terms([(1e6, "XZ"), (1e-5j, "YY")]).is_hermitian()

    def test_zero_and_identity(self):
        assert len(PauliSum.zero(3)) == 0
        assert np.allclose(dense_of(PauliSum.identity(2)), np.eye(4))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([(1.0, "XX"), (1.0, "X")])

    def test_empty_terms_have_no_qubit_count(self):
        with pytest.raises(ValueError, match="cannot infer qubit count of an empty sum"):
            PauliSum.from_terms([])

    def test_width_mismatch_in_sum_and_product(self):
        one, two = PauliSum.from_terms([(1.0, "X")]), PauliSum.from_terms([(1.0, "XX")])
        with pytest.raises(ValueError, match="qubit count mismatch in Pauli sum addition"):
            one + two
        with pytest.raises(ValueError, match="qubit count mismatch in Pauli sum product"):
            one * two

    def test_text_round_trip(self, rng):
        s = PauliSum.from_terms(random_pairs(rng, 3, 6)).simplify()
        again = PauliSum.from_text(s.to_text())
        assert np.allclose(dense_of(again), dense_of(s), atol=0)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_text_round_trip_keeps_strings_and_bits(self, rng, n):
        # Dense random labels put letters on both sides of each word boundary.
        s = PauliSum.from_terms(random_pairs(rng, n, 40))
        terms = s.terms()
        labels = [label for _, label in terms]
        assert labels == sorted(labels, key=lambda label: ["IXYZ".index(a) for a in label])
        # The labels name the strings that the words hold.
        assert {label_masks(label): c for c, label in terms} == dict_of(s)
        for again in (PauliSum.from_text(s.to_text()), PauliSum.from_terms(terms)):
            got = again.terms()
            assert [label for _, label in got] == labels
            coeffs = [np.array([c for c, _ in p], dtype=complex) for p in (got, terms)]
            assert np.array_equal(*(c.view(np.uint64) for c in coeffs))

    def test_from_text_comments_and_blanks(self):
        text = "# header\n\n0.5 XZ  # inline\n-0.25 ZI\n0.5 XZ\n"
        s = PauliSum.from_text(text)
        assert s.coefficient("XZ") == approx(1.0)
        assert s.coefficient("ZI") == approx(-0.25)

    @pytest.mark.parametrize(
        "bad",
        ["", "0.5", "x XZ", "0.5 XZ extra", "0.5 XZ\n0.5 X"],
    )
    def test_from_text_errors(self, bad):
        with pytest.raises(ValueError):
            PauliSum.from_text(bad)

    def test_from_text_reports_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            PauliSum.from_text("0.5 XZ\n0.5 ZI\nbogus line here\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_from_text_rejects_non_finite_coefficients(self, token):
        with pytest.raises(ValueError, match="line 2: coefficient of ZZ is not finite"):
            PauliSum.from_text(f"1.0 XI\n{token} ZZ\n")

    def test_from_text_rejects_an_overflowing_sum(self):
        with pytest.raises(ValueError, match="line 3: coefficient of ZZ is not finite"):
            PauliSum.from_text("1e308 ZZ\n1.0 XI\n1e308 ZZ\n")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan"))]
    )
    def test_from_terms_rejects_non_finite_coefficients(self, value):
        with pytest.raises(ValueError, match="coefficient of ZZ is not finite"):
            PauliSum.from_terms([(1.0, "XI"), (value, "ZZ")])

    def test_from_terms_rejects_an_overflowing_sum(self):
        with pytest.raises(ValueError, match="coefficient of ZZ is not finite"):
            PauliSum.from_terms([(1e308, "ZZ"), (1.0, "XI"), (1e308, "ZZ")])

    def test_to_text_rejects_complex(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([(1j, "X")]).to_text()


class TestProductMatchesDictLoop:
    """Array products against the term-pair dict loop: the same strings in
    the same first-seen order, with coefficients equal bit for bit."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_random_sums(self, rng, monkeypatch, n, real):
        pa, pb = random_pairs(rng, n, 30, real=real), random_pairs(rng, n, 20, real=real)
        a, b = PauliSum.from_terms(pa), PauliSum.from_terms(pb)
        assert_same_dict(a, dict_from_pairs(pa))
        assert_same_dict(a * b, dict_product(dict_from_pairs(pa), dict_from_pairs(pb)))
        # Low-weight strings with tied magnitudes merge and cancel often.
        c = _sparse_sum(rng, n, 40, complex_coeffs=not real)
        square = c * c
        assert_same_dict(square, dict_product(dict_of(c), dict_of(c)))
        assert_same_dict(square * c, dict_product(dict_of(square), dict_of(c)))
        # Many blocks per product: merging block by block must keep the bits.
        monkeypatch.setattr(pauli, "_BLOCK_PAIRS", 50)
        assert_same_dict(a * b, dict_product(dict_from_pairs(pa), dict_from_pairs(pb)))
        assert_same_dict(c * c, dict_of(square))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_builtin_powers_to_order_6(self, name):
        h = build_model(name).hamiltonian
        for got, want in zip(hamiltonian_powers(h, 6), dict_powers(dict_of(h), 6)):
            assert_same_dict(got, want)

    def test_chain12_powers_to_order_4(self):
        h = PauliSum.from_terms(chain_pairs(12))
        powers = hamiltonian_powers(h, 4)
        assert [len(p) for p in powers[1:]] == [45, 846, 8060, 45092]
        for got, want in zip(powers, dict_powers(dict_of(h), 4)):
            assert_same_dict(got, want)


def test_popcount_matches_int_bit_count(rng):
    words = rng.integers(0, 1 << 64, size=(40, 3), dtype=np.uint64)
    words[0], words[1] = 0, ~np.uint64(0)
    want = [sum(int(w).bit_count() for w in row) % 256 for row in words]
    assert pauli._popcount(words).tolist() == want


def _edge_pairs(rng, n, n_terms):
    """Strings of weight 1..3 on qubit 0, the last word's edge qubits (its
    first, 32nd, 33rd and last) and one random qubit, with repeats,
    coefficients from a few values.  Where the last word holds more than 32 qubits, X on
    its qubit 32 and Z on its qubit 0 would share a bit of a fused key."""
    start = 64 * ((n - 1) // 64)
    edges = sorted({q for q in (0, start, start + 31, start + 32, n - 1) if q < n})
    pairs = []
    for _ in range(n_terms):
        label = ["I"] * n
        for q in rng.choice(edges + [int(rng.integers(n))], size=int(rng.integers(1, 4))):
            label[q] = "XYZ"[rng.integers(3)]
        pairs.append((rng.choice([1.0, -0.5, 0.25j]), "".join(label)))
    return pairs + pairs[: n_terms // 3]


class TestDedupAtFusedKeyWidths:
    """Repeated strings merge the same whether a string's key is the fused
    uint64 ``x | z << 32`` (at most 32 qubits) or its x and z words as one
    fixed-width ``void`` scalar: sums just below, at and above the 32- and
    96-qubit boundaries, against the dict loops, with blocks small enough
    that repeats span them."""

    @pytest.mark.parametrize("n", [31, 32, 33, 95, 96, 97])
    def test_products_merges_and_unions(self, rng, monkeypatch, n):
        monkeypatch.setattr(pauli, "_BLOCK_PAIRS", 40)
        pa, pb = _edge_pairs(rng, n, 30), _edge_pairs(rng, n, 24)
        a, b = PauliSum.from_terms(pa), PauliSum.from_terms(pb)
        da, db = dict_from_pairs(pa), dict_from_pairs(pb)
        assert_same_dict(a, da)
        assert_same_dict(b, db)
        assert len(a) < len(pa) and len(b) < len(pb)
        ab = a * b
        assert len(ab) < len(a) * len(b)
        assert_same_dict(ab, dict_product(da, db))
        assert_same_dict(ab * a, dict_product(dict_product(da, db), da))
        assert_same_dict(a + b, dict_from_pairs(pa + pb))
        # The union of the powers: every string once, at its largest |c|, and
        # for each row of the powers the union row holding its string.
        powers = [PauliSum.identity(n), a, ab, ab * a]
        union, at = _union(powers)
        dicts = [dict_of(p) for p in powers[1:]]
        assert_same_dict(union, dict_union(dicts))
        rows = {key: r for r, key in enumerate(dict_of(union))}
        assert at.tolist() == [rows[key] for d in dicts for key in d]


def _on(n, letters):
    """The n-letter label with ``letters[q]`` on qubit q and I elsewhere."""
    return "".join(letters.get(q, "I") for q in range(n))


def _two_qubit_group(n, values):
    """``(coefficient, label)`` pairs of the eight strings A B, with A in
    IXYZ on one qubit and B in IZ on another, both at word edges; products of
    these strings stay among them."""
    s = 64 * ((n - 1) // 64)  # the last word's first qubit
    q1, q2 = (s, n - 1) if s < n - 1 else (0, n - 1)
    labels = [_on(n, {q1: a, q2: b}) for b in "IZ" for a in "IXYZ"]
    return list(zip(values, labels))


class TestStringIndexEdges:
    """Edge cases of the sorted string index against the dict loops, with
    blocks of a few rows so that every product and merge spans several."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """``(strings before, strings after)`` of every block the index absorbs."""
        seen, absorb = [], pauli._StringIndex._block

        def spy(index, x, z, coeffs):
            before = len(index.ids)
            at = absorb(index, x, z, coeffs)
            seen.append((before, len(index.ids)))
            return at

        monkeypatch.setattr(pauli._StringIndex, "_block", spy)
        monkeypatch.setattr(pauli, "_BLOCK_PAIRS", 8)
        return seen

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 97])
    def test_empty_operand_on_either_side(self, blocks, n):
        pairs = _two_qubit_group(n, [1.0, -0.5, 0.25j, 2.0, 3.0, -1.0, 0.5, 1j])
        a, zero = PauliSum.from_terms(pairs), PauliSum.zero(n)
        for product in (zero * a, a * zero, zero * zero):
            assert_same_dict(product, {})
            assert product.x.shape == product.z.shape == (0, -(-n // 64))
        assert_same_dict(zero + a, dict_from_pairs(pairs))
        assert_same_dict(a + zero, dict_from_pairs(pairs))

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 97])
    def test_blocks_of_strings_already_in_the_index(self, blocks, n):
        pairs = _two_qubit_group(n, [1.0, -0.5, 0.25j, 2.0, 3.0, -1.0, 0.5, 1j])
        left = _two_qubit_group(n, [0.5, 1.5, -2.0j, 0.75])[::-1]
        a, b = PauliSum.from_terms(pairs), PauliSum.from_terms(left)
        da, db = dict_from_pairs(pairs), dict_from_pairs(left)
        blocks.clear()
        # One left term per block of 8 pairs: the first adds all eight
        # strings, and every later block only adds to them.
        assert_same_dict(b * a, dict_product(db, da))
        assert blocks == [(0, 8), (8, 8), (8, 8), (8, 8)]
        blocks.clear()
        assert_same_dict(a + a, dict_from_pairs(pairs + pairs))
        assert blocks == [(0, 8), (8, 8)]

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 97])
    def test_blocks_of_new_strings_only(self, blocks, n):
        pairs = _two_qubit_group(n, [1.0, -0.5, 0.25j, 2.0, 3.0, -1.0, 0.5, 1j])
        left = [(c, _on(n, {1: a, n // 2: a})) for c, a in zip([1.0, 2.0, -3.0], "XYZ")]
        a, b = PauliSum.from_terms(pairs), PauliSum.from_terms(left)
        da, db = dict_from_pairs(pairs), dict_from_pairs(left)
        blocks.clear()
        assert_same_dict(b * a, dict_product(db, da))
        assert blocks == [(0, 8), (8, 16), (16, 24)]
        blocks.clear()
        assert_same_dict(b * a + a, dict_product(db, da) | da)
        assert blocks[-1] == (24, 32)

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 97])
    def test_repeats_that_cancel_stay_as_exact_zeros(self, blocks, n):
        s = 64 * ((n - 1) // 64)
        # XZ = -iY and ZX = iY, from different blocks, cancel exactly.
        pairs = [(1.0, _on(n, {s: "X"})), (1.0, _on(n, {s: "Z"}))]
        pairs.append((0.5, _on(n, {0: "Z", n - 1: "X"})))
        a = PauliSum.from_terms(pairs)
        blocks.clear()
        square = a * a
        assert len(blocks) == 2
        assert_same_dict(square, dict_product(dict_from_pairs(pairs), dict_from_pairs(pairs)))
        y = _on(n, {s: "Y"})
        assert y in {label for _, label in square.terms()}
        assert square.coefficient(y) == 0.0
        assert y not in {label for _, label in square.simplify().terms()}
        zeros = int((square.coeffs == 0).sum())
        assert len(square.simplify()) == len(square) - zeros

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 97])
    def test_union_whose_later_powers_add_no_string(self, blocks, n):
        a = PauliSum.from_terms(_two_qubit_group(n, [1.0, -0.5, 0.25, 2.0, 3.0, -1.0, 0.5, 1.5]))
        powers = [PauliSum.identity(n), a, a * a, a * a * a]
        blocks.clear()
        union, at = _union(powers)
        dicts = [dict_of(p) for p in powers[1:]]
        assert_same_dict(union, dict_union(dicts))
        rows = {key: r for r, key in enumerate(dict_of(union))}
        assert at.tolist() == [rows[key] for d in dicts for key in d]
        assert blocks[0] == (0, 8) and all(block == (8, 8) for block in blocks[1:])


class TestMergeMemory:
    """Traced peaks on the 12-site chain to order 4: the expansion, the union
    of its powers and the union's grouping.  Merging each block of pairs by
    re-sorting the product so far, and building the sweep's bitsets through
    (n, 4, T) bool arrays, peaked at 16.7, 5.2 and 6.1 MB; the bounds sit
    well below, so a return to either cannot pass."""

    @pytest.fixture(scope="class")
    def chain12(self):
        h = PauliSum.from_terms(chain_pairs(12))
        powers = hamiltonian_powers(h, 4)
        return h, powers, _union(powers)[0]

    @staticmethod
    def _peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_expansion(self, chain12):
        # 1.66 MB of powers; every product keeps its temporaries within a block.
        assert self._peak(hamiltonian_powers, chain12[0], 4) < 8e6

    def test_union(self, chain12):
        assert self._peak(_union, chain12[1]) < 4.2e6

    def test_grouping(self, chain12):
        assert self._peak(_qwc_rows, chain12[2]) < 4.5e6


class TestPower:
    def test_matches_dense_powers(self, rng):
        pairs = random_pairs(rng, 2, 4)
        s = PauliSum.from_terms(pairs)
        dense = dense_from_pairs(pairs, 2)
        powers = hamiltonian_powers(s, 4)
        acc = np.eye(4, dtype=complex)
        for n in range(5):
            assert np.allclose(dense_of(powers[n]), acc, atol=1e-10)
            acc = acc @ dense


class TestGrouping:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("XX", "XI", True),
            ("XX", "IX", True),
            ("XX", "YY", False),
            ("XY", "XY", True),
            ("IZ", "ZI", True),
            ("XI", "ZI", False),
            ("II", "YZ", True),
        ],
    )
    def test_qubitwise_commutes(self, a, b, expected):
        # Two strings share a group exactly when they commute qubit-wise.
        for pair in ([(1.0, a), (0.5, b)], [(0.5, a), (1.0, b)]):
            assert (len(_qwc_rows(PauliSum.from_terms(pair))) == 1) is expected

    def test_groups_partition_all_terms(self, rng):
        s = PauliSum.from_terms(random_pairs(rng, 4, 20)).simplify()
        rows = np.concatenate(_qwc_rows(s))
        assert sorted(rows.tolist()) == list(range(len(s)))

    def test_groups_are_internally_compatible(self, rng):
        s = PauliSum.from_terms(random_pairs(rng, 4, 25)).simplify()
        for group in qwc_items(s):
            for i, ((ax, az), _) in enumerate(group):
                for (bx, bz), _ in group[i + 1 :]:
                    assert ((ax ^ bx) | (az ^ bz)) & (ax | az) & (bx | bz) == 0

    def test_known_grouping(self):
        # ZI, IZ, ZZ share the all-Z basis; XX needs its own.
        s = PauliSum.from_terms([(0.4, "ZI"), (0.4, "IZ"), (0.2, "XX"), (0.1, "ZZ")])
        groups = _qwc_rows(s)
        assert len(groups) == 2
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 3]

    def test_grouping_deterministic(self, rng):
        s = PauliSum.from_terms(random_pairs(rng, 3, 15)).simplify()
        first = [g.tolist() for g in _qwc_rows(s)]
        second = [g.tolist() for g in _qwc_rows(s)]
        assert first == second


def _sparse_sum(rng, n, n_terms, complex_coeffs):
    """The identity plus strings of weight 1..3 whose magnitudes come from a
    few values, so magnitudes tie often and groups hold many strings."""
    pairs = [(1.0, "I" * n)]
    for _ in range(n_terms):
        label = ["I"] * n
        for q in rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False):
            label[q] = "XYZ"[rng.integers(3)]
        coeff = rng.choice([1.0, 0.5, 0.25]) * rng.choice([1.0, -1.0])
        if complex_coeffs:
            coeff *= rng.choice([1.0, 1.0j, (0.6 + 0.8j)])
        pairs.append((coeff, "".join(label)))
    return PauliSum.from_terms(pairs)


def _distinct_sum(rng, n, n_terms, lead_identity):
    """``n_terms`` distinct strings of weight 1..3, magnitudes from a few
    values; with ``lead_identity`` one of them is the identity, with the
    largest magnitude, so it leads the first group."""
    labels = {"I" * n} if lead_identity else set()
    while len(labels) < n_terms:
        label = ["I"] * n
        for q in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
            label[q] = "XYZ"[rng.integers(3)]
        labels.add("".join(label))
    pairs = [(2.0 if label == "I" * n else rng.choice([1.0, -0.5, 0.25]), label)
             for label in sorted(labels)]
    return PauliSum.from_terms(pairs)


class TestGroupingMatchesFirstFit:
    """``_qwc_rows`` against the term-by-term first-fit loop: the same
    groups, with strings and coefficients in the same order."""

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 70, 97, 130])
    def test_random_sums(self, rng, n, complex_coeffs):
        largest = 0
        for _ in range(4):
            s = _sparse_sum(rng, n, 80, complex_coeffs)
            groups = qwc_items(s)
            assert groups == first_fit_qwc_groups(s)
            largest = max(largest, max(len(g) for g in groups))
        assert largest > 1
        dense = PauliSum.from_terms(random_pairs(rng, n, 40, real=not complex_coeffs))
        assert qwc_items(dense) == first_fit_qwc_groups(dense)

    @pytest.mark.parametrize("n", [1, 64, 70])
    def test_empty_sum(self, n):
        assert qwc_items(PauliSum.zero(n)) == first_fit_qwc_groups(PauliSum.zero(n)) == []

    @pytest.mark.parametrize("lead_identity", [False, True])
    @pytest.mark.parametrize("n_terms", [1, 7, 8, 9, 63, 64, 65, 128, 129])
    def test_word_boundaries(self, rng, n_terms, lead_identity):
        # Sums that fill, just miss or just spill over a byte (members are
        # read from the fit set's bytes) or a 64-bit word.  A leading
        # identity pins no qubit.
        s = _distinct_sum(rng, 6, n_terms, lead_identity)
        assert len(s) == n_terms
        groups = qwc_items(s)
        assert groups == first_fit_qwc_groups(s)
        assert (groups[0][0][0] == (0, 0)) == lead_identity

    @pytest.mark.parametrize("n", [1, 64, 70])
    def test_identity_only(self, n):
        s = PauliSum.from_terms([(-2.5, "I" * n)])
        assert qwc_items(s) == first_fit_qwc_groups(s) == [[((0, 0), -2.5 + 0j)]]

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_builtin_unions(self, name, order):
        # Order K measures the moments up to 2K - 1.
        powers = hamiltonian_powers(build_model(name).hamiltonian, 2 * order - 1)
        union = _union(powers)[0]
        assert qwc_items(union) == first_fit_qwc_groups(union)

    @staticmethod
    def _table_sizes(monkeypatch):
        """The string count of every bitset table the sweep builds."""
        sizes, tables = [], pauli._fit_tables
        monkeypatch.setattr(pauli, "_fit_tables", lambda r: sizes.append(len(r)) or tables(r))
        return sizes

    def test_chain8_union_to_order_4(self, monkeypatch):
        # Grouped strings leave holes in the bitsets; the sweep rebuilds its
        # tables over the rest several times here, each time once at most
        # half the strings are left, and the groups stay first fit.
        powers = hamiltonian_powers(PauliSum.from_terms(chain_pairs(8)), 4)
        union = _union(powers)[0]
        sizes = self._table_sizes(monkeypatch)
        groups = qwc_items(union)
        assert len(union) == 4112 and len(groups) == 376
        assert groups == first_fit_qwc_groups(union)
        assert sizes[0] == 4112 and len(sizes) >= 3
        assert all(2 * b <= a for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("n_terms", [0, 1, 700])
    def test_repacks_after_an_identity_lead(self, rng, monkeypatch, n_terms):
        # A leading identity is its group's first pin but pins no qubit, so
        # the next pin comes from a search; the identity alone and the empty
        # sum build one table and none.
        if n_terms == 0:
            s = PauliSum.zero(8)
        elif n_terms == 1:
            s = PauliSum.from_terms([(2.0, "I" * 8)])
        else:
            s = _distinct_sum(rng, 8, n_terms, lead_identity=True)
        sizes = self._table_sizes(monkeypatch)
        groups = qwc_items(s)
        assert groups == first_fit_qwc_groups(s)
        if n_terms < 2:
            assert sizes == [1] * n_terms
        else:
            assert groups[0][0][0] == (0, 0)
            assert sizes[0] == n_terms and len(sizes) >= 2
