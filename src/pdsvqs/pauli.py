"""Exact Pauli-string algebra on qubit registers.

A string is a pair of bitmasks ``(x, z)``: bit q describes the letter on qubit
q (qubit 0 is the leftmost letter of a label), ``I`` for (0, 0), ``X`` for
(1, 0), ``Z`` for (0, 1) and ``Y`` for (1, 1).  Products of strings are strings
up to a phase in {1, i, -1, -i}, tracked exactly.  A ``PauliSum`` packs its T
strings into read-only (T, W) arrays ``x`` and ``z`` of little-endian 64-bit
words (bit q of a mask is bit q % 64 of word q // 64) and a (T,) complex vector
``coeffs``, in first-seen order: the order in which the strings first appear
in the input (for a product, the term pairs, left term outer), a repeated
string's coefficients adding in that order.  Labels appear only at the edge:
``from_terms`` and ``terms()`` (``(coefficient, label)`` pairs, the latter in
label order) and text I/O.  Groupings are lists of row indices into a sum.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = ["PauliSum"]

# i^p for p = 0..3, used when composing phase exponents.
_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])
# Term pairs that a product forms, and rows that a merge sorts, at once.
_BLOCK_PAIRS = 1 << 14
# Imaginary parts, relative to the largest coefficient, that still count as
# Hermitian roundoff.
_HERMITIAN_TOL = 1e-12
# Masks of the SWAR bit count (uint64, so numpy 1.x keeps the word type).
_M1, _M2, _M4, _H01 = (np.uint64(m * 0x0101010101010101) for m in (0x55, 0x33, 0x0F, 0x01))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of (..., W) words modulo 256 (phases need 4),
    counted in word arithmetic (``np.bitwise_count`` needs numpy 2)."""
    w = words - ((words >> np.uint64(1)) & _M1)
    w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
    w = (w + (w >> np.uint64(4))) & _M4
    return ((w * _H01) >> np.uint64(56)).astype(np.uint8).sum(axis=-1, dtype=np.uint8)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bits 0..n-1 of each row of (..., W) words, shape (..., n)."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")


def _ranks(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Letter ranks (I, X, Y, Z as 0..3) of each row of (T, W) words, shape (T, n)."""
    xb, zb = _bits(x, n), _bits(z, n)
    return 2 * zb + (xb ^ zb)


def _labels(x: np.ndarray, z: np.ndarray, n: int) -> list[str]:
    """The label of each row of (T, W) words, leftmost letter on qubit 0."""
    codes = np.array([ord(a) for a in "IXYZ"], dtype=np.uint32)[_ranks(x, z, n)]
    return codes.view(f"U{n}").reshape(-1).tolist()


def _abs(c: np.ndarray) -> np.ndarray:
    """Complex ``abs`` with the bits of Python's (numpy's may differ)."""
    return np.hypot(c.real, c.imag)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex ``a * b`` with the bits of Python's product (numpy's loop may
    fuse a multiply-add), as silent as Python on overflow."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def _keys(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """One key per row of (T, W) words, equal exactly where the strings are:
    ``x | z << 32`` as one uint64 up to 32 qubits, else the row's x and z
    words as one fixed-width ``void`` scalar (ordered bytewise)."""
    if n <= 32:
        return x[:, 0] | z[:, 0] << np.uint64(32)
    return np.hstack([x, z]).view(f"V{16 * x.shape[1]}").reshape(-1)


def _spliced(a: np.ndarray, kept: np.ndarray, slots: np.ndarray, put: np.ndarray) -> np.ndarray:
    """``a`` grown to ``kept.size``: its rows where ``kept`` is set, ``put`` at ``slots``."""
    out = np.empty(kept.size, a.dtype)
    out[kept], out[slots] = a, put
    return out


class _StringIndex:
    """The distinct strings of parts absorbed in row order, each with its
    coefficients combined by ``add`` in that order.

    ``keys`` holds the strings' keys (``_keys``) sorted, and ``ids`` the
    first-seen id of each: the number of distinct strings absorbed before it.
    A part is taken ``_BLOCK_PAIRS`` rows at a time; each block is sorted
    and deduplicated on its own, and its distinct keys are looked up in the
    index with ``searchsorted``.  New strings take the next ids in first-seen
    order and are inserted in place, so no earlier row is sorted again and
    the temporaries stay within one block.
    """

    def __init__(self, n: int, add=np.add) -> None:
        self.n, self.add = n, add
        empty = np.zeros((0, -(-n // 64)), dtype=np.uint64)
        self.keys, self.ids, self.coeffs = _keys(empty, empty, n), np.zeros(0, np.intp), np.zeros(0)

    def absorb(self, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Add the rows of one part and return the id of each row's string."""
        at = np.empty(len(coeffs), dtype=np.intp)
        for i in range(0, len(coeffs), _BLOCK_PAIRS):
            rows = slice(i, i + _BLOCK_PAIRS)
            at[rows] = self._block(x[rows], z[rows], coeffs[rows])
        return at

    def _block(self, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        keys = _keys(x, z, self.n)
        order = np.argsort(keys)
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        starts = new.nonzero()[0]
        keys = keys[starts]  # the block's distinct keys, sorted
        # Each string's first row: the sort need not be stable.
        first = np.minimum.reduceat(order, starts)
        pos = np.searchsorted(self.keys, keys)
        seen = pos < len(self.keys)
        seen[seen] = self.keys[pos[seen]] == keys[seen]
        ids = np.empty(len(keys), dtype=np.intp)
        ids[seen] = self.ids[pos[seen]]
        fresh = (~seen).nonzero()[0]  # in key order, as the index inserts them
        size = len(self.coeffs)  # new strings take the next ids, first seen first
        ids[fresh[np.argsort(first[fresh])]] = np.arange(size, size + fresh.size)
        slots = pos[fresh] + np.arange(fresh.size)  # in the grown index, for keys and ids
        kept = np.ones(len(self.ids) + fresh.size, dtype=bool)
        kept[slots] = False
        self.keys = _spliced(self.keys, kept, slots, keys[fresh])
        self.ids = _spliced(self.ids, kept, slots, ids[fresh])
        self.coeffs = np.concatenate([self.coeffs, np.zeros(fresh.size, coeffs.dtype)])
        at = np.empty_like(order)
        at[order] = ids[np.cumsum(new) - 1]
        with np.errstate(over="ignore", invalid="ignore"):  # callers check
            self.add.at(self.coeffs, at, coeffs)  # unbuffered, so in row order
        return at

    def sum(self) -> "PauliSum":
        """The strings absorbed so far, in first-seen order."""
        t, w = len(self.ids), -(-self.n // 64)
        x, z = np.empty((t, w), dtype=np.uint64), np.empty((t, w), dtype=np.uint64)
        if self.n <= 32:
            x[self.ids, 0] = self.keys & np.uint64(0xFFFFFFFF)
            z[self.ids, 0] = self.keys >> np.uint64(32)
        else:
            words = self.keys.view("<u8").reshape(t, 2 * w)
            x[self.ids], z[self.ids] = words[:, :w], words[:, w:]
        return PauliSum(self.n, x, z, self.coeffs.astype(complex, copy=False))


def _merged(n: int, *parts, add=np.add) -> tuple["PauliSum", np.ndarray]:
    """The ``(x, z, coeffs)`` parts, absorbed in order into one
    ``_StringIndex``, as one sum, and for every row of the parts the row of
    the sum holding its string."""
    index = _StringIndex(n, add)
    at = np.concatenate([index.absorb(*part) for part in parts])
    return index.sum(), at


def _pair_products(x1, z1, c1, right: "PauliSum"):
    """``(x, z, coeffs)`` of left term i times right term j for every pair,
    in (i, j) row-major order.

    The product of two strings is ``i^p`` times their XOR, with
    ``p = |x1 z1| + |x2 z2| - |x3 z3| + 2 |x2 z1|`` (``|m|`` the set bits of
    m), from writing every letter as ``i^(x z) X^x Z^z``.
    """
    lx, lz = x1[:, None], z1[:, None]
    x = (lx ^ right.x).reshape(-1, x1.shape[1])
    z = (lz ^ right.z).reshape(-1, x1.shape[1])
    p = _popcount(x1 & z1)[:, None] + _popcount(right.x & right.z)
    p = (p + 2 * _popcount(right.x & lz)).reshape(-1) - _popcount(x & z)
    pairs = _cmul(c1[:, None], right.coeffs).reshape(-1)
    return x, z, _cmul(pairs, _PHASES[p & 3])


def _label_order(s: "PauliSum", *major: np.ndarray) -> np.ndarray:
    """Permutation sorting the rows of ``s`` by the ``major`` keys, most
    significant first, then by label.

    Label order compares letters from qubit 0 on, with I < X < Y < Z; in bits
    a letter's rank is ``2 z + (x ^ z)``, so no label string is built.
    """
    ranks = _ranks(s.x, s.z, s.n_qubits)
    # np.lexsort sorts by its last key first.
    return np.lexsort([*ranks[:, ::-1].T, *major[::-1]])


@dataclass(frozen=True, eq=False)
class PauliSum:
    """A real- or complex-weighted sum of distinct Pauli strings on one register.

    ``x``, ``z`` and ``coeffs`` are read-only and in first-seen order (see the
    module docstring); ``terms()`` lists the same strings in label order.
    ``from_terms``, ``from_text`` and the algebra merge repeated strings; exact
    zeros of a merge stay until :meth:`simplify` prunes them against a
    magnitude threshold.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.x, self.z, self.coeffs):
            a.flags.writeable = False

    @classmethod
    def _collect(cls, n: int | None, labels: list[str], coeffs, where=None) -> "PauliSum":
        """The sum of ``coeffs[i]`` times ``labels[i]``, over labels of n
        letters (by default, the first label's).

        Raises:
            ValueError: Naming the first label of another length or with a
                letter outside ``IXYZ``, or the first term at which its
                string's running coefficient is not finite (NaN, infinite or
                overflowed); ``where[i]`` prefixes the message about term i.
        """
        if n is None and not labels:
            raise ValueError("cannot infer qubit count of an empty sum")
        n = len(labels[0]) if n is None else n
        if n < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        prefix = (lambda i: f"{where[i]}: ") if where else (lambda i: "")
        for i, label in enumerate(labels):
            if len(label) != n:
                raise ValueError(f"{prefix(i)}string length {len(label)} does not match {n}")
        codes = np.array(labels, dtype=f"U{n}").view(np.uint32).reshape(len(labels), n)
        x, z = ((codes == ord(a)) | (codes == ord("Y")) for a in "XZ")
        bad = np.argwhere(~(x | z | (codes == ord("I"))))
        if bad.size:
            i, q = bad[0]
            raise ValueError(f"{prefix(i)}invalid Pauli letter {labels[i][q]!r} in {labels[i]!r}")
        pad = np.zeros((len(labels), -n % 64), dtype=bool)  # to whole words
        x, z = (
            np.packbits(np.hstack([b, pad]), axis=1, bitorder="little").view("<u8") for b in (x, z)
        )
        coeffs = np.array(coeffs, dtype=complex).reshape(-1)
        s, at = _merged(n, (x, z, coeffs))
        if not np.isfinite(s.coeffs).all():
            running = [0.0 + 0.0j] * len(s)
            for i, k in enumerate(at.tolist()):
                running[k] += complex(coeffs[i])
                if not cmath.isfinite(running[k]):
                    raise ValueError(f"{prefix(i)}coefficient of {labels[i]} is not finite")
        return s

    @classmethod
    def from_terms(cls, terms, n_qubits: int | None = None) -> "PauliSum":
        """Collect an iterable of ``(coefficient, label)`` pairs; a non-finite
        coefficient raises ``ValueError`` as in ``from_text``."""
        pairs = list(terms)
        return cls._collect(n_qubits, [p[1] for p in pairs], [p[0] for p in pairs])

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliSum":
        return cls._collect(n_qubits, ["I" * n_qubits], [1.0])

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls._collect(n_qubits, [], [])

    def terms(self) -> list[tuple[complex, str]]:
        """``(coefficient, label)`` pairs, as ``from_terms`` takes, in label order."""
        rows = _label_order(self)
        labels = _labels(self.x[rows], self.z[rows], self.n_qubits)
        return list(zip(self.coeffs[rows].tolist(), labels))

    def coefficient(self, label: str) -> complex:
        key = PauliSum.from_terms([(1.0, label)], self.n_qubits)
        hit = ((self.x == key.x) & (self.z == key.z)).all(axis=1)
        return complex(self.coeffs[hit][0]) if hit.any() else 0.0 + 0.0j

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch in Pauli sum addition")
        return _merged(self.n_qubits, *((s.x, s.z, s.coeffs) for s in (self, other)))[0]

    def scaled(self, factor: complex) -> "PauliSum":
        factor = np.asarray(factor, dtype=complex)
        return PauliSum(self.n_qubits, self.x, self.z, _cmul(factor, self.coeffs))

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        """Product of every term pair, left term outer.  The pairs of a block
        of left terms at a time (about ``_BLOCK_PAIRS``) are absorbed into
        one ``_StringIndex``, so the temporaries stay within a block, the
        product so far is never sorted again, and the coefficients still add
        in pair order."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch in Pauli sum product")
        index = _StringIndex(self.n_qubits)
        step = max(1, _BLOCK_PAIRS // max(1, len(other)))
        for i in range(0, len(self), step):
            rows = slice(i, i + step)
            index.absorb(*_pair_products(self.x[rows], self.z[rows], self.coeffs[rows], other))
        return index.sum()

    def simplify(self, drop_tol: float = 1e-12) -> "PauliSum":
        """Drop terms whose coefficient magnitude is at most ``drop_tol``."""
        if not drop_tol >= 0:  # NaN too
            raise ValueError("drop_tol must be non-negative")
        keep = _abs(self.coeffs) > drop_tol
        return PauliSum(self.n_qubits, self.x[keep], self.z[keep], self.coeffs[keep])

    def is_hermitian(self) -> bool:
        """``|Im c| <= _HERMITIAN_TOL * max(1, max |c|)`` for every c (residues
        scale with c)."""
        scale = np.abs(self.coeffs).max(initial=1.0)
        return bool((np.abs(self.coeffs.imag) <= _HERMITIAN_TOL * scale).all())

    def to_text(self) -> str:
        """Serialize to the plain-text format, one ``coefficient label`` per line.

        Coefficients are written with 17 significant digits, which round-trips
        IEEE doubles exactly.  Terms appear in label order.
        """
        terms = self.terms()
        if any(abs(c.imag) > 1e-12 * max(1.0, abs(c)) for c, _ in terms):
            raise ValueError("text format stores real coefficients only")
        return "".join(f"{c.real:.17g} {label}\n" for c, label in terms)

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        """Parse the plain-text format.

        Each non-blank, non-comment line is ``<real coefficient> <letters>``
        with letters drawn from ``IXYZ``.  Duplicate strings are summed.

        Raises:
            ValueError: On malformed lines, non-finite coefficients or
                inconsistent string lengths, with the offending line number
                in the message.
        """
        labels, values, lines = [], [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected '<coefficient> <letters>', got {raw!r}")
            token, label = parts
            try:
                values.append(float(token.replace("−", "-")))
            except ValueError:
                raise ValueError(f"line {lineno}: invalid coefficient {token!r}") from None
            labels.append(label)
            lines.append(f"line {lineno}")
        if not labels:
            raise ValueError("no Pauli terms found in text")
        return cls._collect(None, labels, values, lines)


def _set_bits(b: int) -> np.ndarray:
    """The positions of the set bits of ``b``, ascending, unpacked from its bytes."""
    held = np.frombuffer(b.to_bytes(-(-b.bit_length() // 8), "little"), np.uint8)
    # Unpacked bits are 0 or 1, so they read as bools, whose scan is the fast one.
    return np.unpackbits(held, bitorder="little").view(bool).nonzero()[0]


def _fit_tables(ranks: np.ndarray) -> list[list[int]]:
    """Per qubit q of the (T, n) ranks, the strings that act on q, then those whose letter
    there is I or rank 1, 2 or 3: ints whose bit i is string i, built from packed bytes."""
    tables, full = [], (1 << len(ranks)) - 1
    for column in np.ascontiguousarray(ranks.T):  # a strided column packs slowly
        eq = np.packbits(column == np.arange(4, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        idle, *letters = (int.from_bytes(row.tobytes(), "little") for row in eq)
        tables.append([full ^ idle] + [idle | b for b in letters])
    return tables


def _qwc_rows(s: PauliSum) -> list[np.ndarray]:
    """The rows of ``s`` in each of its qubit-wise commuting groups.

    The grouping is greedy first fit: terms are visited in order of
    descending coefficient magnitude (label order breaks ties) and each joins
    the first group whose letter assignment it fits, so the result is
    deterministic; each group lists its rows in visiting order.

    The groups are built one at a time on bitsets over the terms in visiting
    order, Python ints whose bit i is term i, so each step is one C-level int
    operation.  ``fits[q][r]`` holds the terms whose letter on qubit q is I
    or has rank r (X, Y, Z rank 1..3), ``fits[q][0]`` those that act on q.  A
    group's first pin is the first remaining term, each later one the first
    fit term that acts on an unpinned qubit, and its fit set the remaining
    terms that agree with every pin (an AND of the rows of the qubits each
    pin newly pins).  With no pin left, the fit set is the group, exactly
    first fit: a member never acts on a qubit pinned after it (that pin would
    have come at or before it), so it fits the final pins; a term that fits
    them fits the earlier pins; a clashing term never joins.  Once at most
    half the terms are left, the tables are rebuilt over them, in order.
    """
    order = _label_order(s, -_abs(s.coeffs))
    groups: list[np.ndarray] = []
    while order.size:
        ranks = _ranks(s.x[order], s.z[order], s.n_qubits)
        fits, remaining = _fit_tables(ranks), (1 << order.size) - 1
        while 2 * remaining.bit_count() > order.size:
            fit, free, pin = remaining, range(s.n_qubits), (remaining & -remaining).bit_length() - 1
            while pin >= 0:
                row, acts = ranks[pin].tolist(), 0
                for q in free:
                    if row[q]:
                        fit &= fits[q][row[q]]
                free = [q for q in free if not row[q]]
                for q in free:
                    acts |= fits[q][0]
                acts &= fit  # the fit terms before the pin act only on pinned qubits
                pin = (acts & -acts).bit_length() - 1
            groups.append(order[_set_bits(fit)])
            remaining ^= fit
        order = order[_set_bits(remaining)]
    return groups
