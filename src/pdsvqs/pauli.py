"""Exact Pauli-string algebra on qubit registers.

Strings are encoded as a pair of bitmasks ``(x_mask, z_mask)`` where bit ``q``
describes the letter acting on qubit ``q`` (qubit 0 is the leftmost letter of a
label).  The letter is ``I`` for ``(0, 0)``, ``X`` for ``(1, 0)``, ``Z`` for
``(0, 1)`` and ``Y`` for ``(1, 1)``.  Products of strings are again strings up
to a unit phase in ``{1, i, -1, -i}``, which is tracked exactly, so sums of
strings close under multiplication without any floating-point phase drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PauliTerm",
    "PauliSum",
    "qwc_groups",
    "qubitwise_commutes",
]

_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LABELS = {v: k for k, v in _LETTERS.items()}

# i^p for p = 0..3, used when composing phase exponents.
_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _product_phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
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


def _packed(masks: list[int], n_qubits: int) -> np.ndarray:
    """Masks as rows of little-endian 64-bit words, shape (len(masks), words).

    Bit q of a mask is bit q % 64 of word q // 64, for any register width.
    """
    width = 8 * ((n_qubits + 63) // 64)
    data = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), width // 8)


def _grouping_order(
    n_qubits: int, x: np.ndarray, z: np.ndarray, magnitudes: np.ndarray
) -> np.ndarray:
    """Permutation sorting packed strings by (-magnitude, label).

    Label order compares letters from qubit 0 on, with I < X < Y < Z; in bits
    a letter's rank is ``2 z + (x ^ z)``, so no label string is built.
    """
    xb, zb = (
        np.unpackbits(m.view(np.uint8), axis=1, count=n_qubits, bitorder="little")
        for m in (x, z)
    )
    ranks = 2 * zb + (xb ^ zb)
    # np.lexsort sorts by its last key first.
    return np.lexsort([*ranks[:, ::-1].T, -magnitudes])


@dataclass(frozen=True)
class PauliTerm:
    """A single weighted Pauli string.

    Attributes:
        n_qubits: Register width the string acts on.
        x_mask: Bit q set when the letter on qubit q is X or Y.
        z_mask: Bit q set when the letter on qubit q is Z or Y.
        coefficient: Complex weight carried by the string.
    """

    n_qubits: int
    x_mask: int
    z_mask: int
    coefficient: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("PauliTerm needs at least one qubit")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the register")

    @classmethod
    def from_label(cls, label: str, coefficient: complex = 1.0) -> "PauliTerm":
        """Build a term from a letter string such as ``"IXZ"``.

        The leftmost letter acts on qubit 0.
        """
        if not label:
            raise ValueError("empty Pauli label")
        x_mask = 0
        z_mask = 0
        for q, ch in enumerate(label):
            try:
                x, z = _LETTERS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}") from None
            x_mask |= x << q
            z_mask |= z << q
        return cls(len(label), x_mask, z_mask, complex(coefficient))

    @property
    def label(self) -> str:
        """Letter-string form, leftmost letter on qubit 0."""
        return "".join(
            _LABELS[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def key(self) -> tuple[int, int]:
        return (self.x_mask, self.z_mask)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x_mask | self.z_mask).bit_count()

    def __mul__(self, other: "PauliTerm") -> "PauliTerm":
        if not isinstance(other, PauliTerm):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch in Pauli product")
        p = _product_phase_exponent(self.x_mask, self.z_mask, other.x_mask, other.z_mask)
        return PauliTerm(
            self.n_qubits,
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            self.coefficient * other.coefficient * _PHASES[p],
        )


@dataclass
class PauliSum:
    """A real- or complex-weighted sum of Pauli strings on one register.

    Duplicate strings are merged on construction; exact zeros produced by the
    merge are kept until :meth:`simplify` prunes them against a magnitude
    threshold.  Term order is canonical (lexicographic on labels), so every
    traversal of the same sum is deterministic.
    """

    n_qubits: int
    _coeffs: dict[tuple[int, int], complex] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, terms, n_qubits: int | None = None) -> "PauliSum":
        """Collect an iterable of ``PauliTerm`` (or ``(coefficient, label)``) pairs."""
        coeffs: dict[tuple[int, int], complex] = {}
        width = n_qubits
        for item in terms:
            if isinstance(item, PauliTerm):
                term = item
            else:
                c, label = item
                term = PauliTerm.from_label(label, c)
            if width is None:
                width = term.n_qubits
            elif term.n_qubits != width:
                raise ValueError("qubit count mismatch between terms")
            key = term.key
            coeffs[key] = coeffs.get(key, 0.0 + 0.0j) + term.coefficient
        if width is None:
            raise ValueError("cannot infer qubit count of an empty sum")
        return cls(width, coeffs)

    @classmethod
    def identity(cls, n_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): complex(coefficient)})

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, {})

    def terms(self) -> list[PauliTerm]:
        """Terms in canonical (label-lexicographic) order."""
        out = [
            PauliTerm(self.n_qubits, x, z, c) for (x, z), c in self._coeffs.items()
        ]
        out.sort(key=lambda t: t.label)
        return out

    def coefficient(self, label: str) -> complex:
        term = PauliTerm.from_label(label)
        if term.n_qubits != self.n_qubits:
            raise ValueError("label width does not match the sum")
        return self._coeffs.get(term.key, 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch in Pauli sum addition")
        coeffs = dict(self._coeffs)
        for key, c in other._coeffs.items():
            coeffs[key] = coeffs.get(key, 0.0 + 0.0j) + c
        return PauliSum(self.n_qubits, coeffs)

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum(
            self.n_qubits, {k: factor * c for k, c in self._coeffs.items()}
        )

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch in Pauli sum product")
        coeffs: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self._coeffs.items():
            for (x2, z2), c2 in other._coeffs.items():
                p = _product_phase_exponent(x1, z1, x2, z2)
                key = (x1 ^ x2, z1 ^ z2)
                coeffs[key] = coeffs.get(key, 0.0 + 0.0j) + c1 * c2 * _PHASES[p]
        return PauliSum(self.n_qubits, coeffs)

    def simplify(self, drop_tol: float = 1e-12) -> "PauliSum":
        """Drop terms whose coefficient magnitude is at most ``drop_tol``."""
        if drop_tol < 0:
            raise ValueError("drop_tol must be non-negative")
        return PauliSum(
            self.n_qubits,
            {k: c for k, c in self._coeffs.items() if abs(c) > drop_tol},
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._coeffs.values())

    def to_text(self) -> str:
        """Serialize to the plain-text format, one ``coefficient label`` per line.

        Coefficients are written with 17 significant digits, which round-trips
        IEEE doubles exactly.  Terms appear in canonical order.
        """
        lines = []
        for term in self.terms():
            c = term.coefficient
            if abs(c.imag) > 1e-12 * max(1.0, abs(c)):
                raise ValueError("text format stores real coefficients only")
            lines.append(f"{c.real:.17g} {term.label}")
        return "\n".join(lines) + ("\n" if lines else "")

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
        coeffs: dict[tuple[int, int], complex] = {}
        width: int | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"line {lineno}: expected '<coefficient> <letters>', got {raw!r}"
                )
            token, label = parts
            try:
                value = float(token.replace("−", "-"))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: invalid coefficient {token!r}"
                ) from None
            try:
                term = PauliTerm.from_label(label, value)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if width is None:
                width = term.n_qubits
            elif term.n_qubits != width:
                raise ValueError(
                    f"line {lineno}: string length {term.n_qubits} does not match "
                    f"earlier length {width}"
                )
            key = term.key
            coeffs[key] = coeffs.get(key, 0.0 + 0.0j) + complex(value)
            if not math.isfinite(coeffs[key].real):  # nan, inf or an overflowing sum
                raise ValueError(f"line {lineno}: coefficient of {label} is not finite")
        if width is None:
            raise ValueError("no Pauli terms found in text")
        return cls(width, coeffs)


def qubitwise_commutes(a: PauliTerm, b: PauliTerm) -> bool:
    """True when on every qubit the letters are equal or one is identity."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    both = (a.x_mask | a.z_mask) & (b.x_mask | b.z_mask)
    differ = (a.x_mask ^ b.x_mask) | (a.z_mask ^ b.z_mask)
    return (both & differ) == 0


def qwc_groups(s: PauliSum) -> list[list[PauliTerm]]:
    """Partition the terms of ``s`` into qubit-wise commuting groups.

    The grouping is greedy first fit: terms are visited in order of
    descending coefficient magnitude (label order breaks ties) and each joins
    the first group whose letter assignment it fits, so the result is
    deterministic.  Each group can be measured in a single shared product
    basis.

    The groups are built one at a time on packed masks.  The first term not
    yet grouped leads group g and pins its letters; one vectorized test keeps
    the remaining terms that agree with the pinned letters wherever their
    supports overlap.  The survivors are walked in order: one whose support is
    already pinned joins without changing the pin, and the first that extends
    the support joins, pins its letters, and the survivors after it are tested
    again (at most once per qubit).  This is first fit because whether a term
    joins group g depends only on the members of g that precede it, and since
    pinned letters never change, a term that fails the test stays unfit.
    """
    keys = list(s._coeffs)
    if not keys:
        return []
    coeffs = list(s._coeffs.values())
    x = _packed([k[0] for k in keys], s.n_qubits)
    z = _packed([k[1] for k in keys], s.n_qubits)
    order = _grouping_order(s.n_qubits, x, z, np.array([abs(c) for c in coeffs]))
    x, z = x[order], z[order]
    support = x | z
    grouped = np.zeros(len(keys), dtype=bool)
    remaining = np.arange(len(keys))
    positions: list[np.ndarray] = []
    while remaining.size:
        lead = remaining[0]
        gx, gz, gsup = x[lead], z[lead], support[lead]
        members = [remaining[:1]]
        candidates = remaining[1:]
        while candidates.size:
            clash = ((x[candidates] ^ gx) | (z[candidates] ^ gz)) & gsup
            candidates = candidates[~(clash & support[candidates]).any(axis=1)]
            extends = np.flatnonzero((support[candidates] & ~gsup).any(axis=1))
            if not extends.size:
                members.append(candidates)
                break
            first = extends[0]
            members.append(candidates[: first + 1])
            pin = candidates[first]
            gx, gz, gsup = gx | x[pin], gz | z[pin], gsup | support[pin]
            candidates = candidates[first + 1 :]
        group = np.concatenate(members)
        grouped[group] = True
        positions.append(group)
        remaining = remaining[~grouped[remaining]]
    n = s.n_qubits
    return [
        [PauliTerm(n, *keys[i], coeffs[i]) for i in order[group].tolist()]
        for group in positions
    ]
