"""Rule vectors and their GF(2) characteristic polynomials.

An n-cell hybrid 90/150 automaton is described by its rule vector: one
flag per cell, 0 for rule 90 and 1 for rule 150. The vector is exactly
the main diagonal of the n x n tridiagonal transition matrix T whose
super- and sub-diagonal entries are all 1 (null boundaries). The
characteristic polynomial det(xI + T) decides everything interesting
about the automaton, so mapping rule vector -> polynomial is the core
primitive here. The text form (cell 0 first) and mirror reversal are
gf2poly's LSB-first text form and bit reversal.
"""

from collections.abc import Iterable

from .gf2poly import Gf2Poly, _format_lsb, _parse_lsb, _Record, _reverse_bits

__all__ = ["RuleVector", "characteristic_polynomial", "reverse"]


class RuleVector(_Record):
    """Per-cell rule assignment of a hybrid 90/150 automaton.

    Internally a bit mask with bit i = flag of cell i. The text form is
    one character per cell, leftmost character = cell 0, matching the
    rule tables' "CA-rule vector" column.
    """

    __slots__ = ("n", "mask")

    n: int
    mask: int

    def __init__(self, cells: str | Iterable[int]):
        if isinstance(cells, str):
            n, mask = len(cells), _parse_lsb(cells, "rule vector")
        else:
            flags = list(cells)
            if not flags:
                raise ValueError("rule vector must have at least one cell")
            if any(f not in (0, 1) for f in flags):
                raise ValueError("rule flags must be 0 (rule 90) or 1 (rule 150)")
            n, mask = len(flags), sum(f << i for i, f in enumerate(flags))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "RuleVector":
        """Build directly from a bit mask (bit i = cell i), n cells."""
        if n < 1:
            raise ValueError("rule vector must have at least one cell")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits beyond cell count")
        rv = object.__new__(cls)
        object.__setattr__(rv, "n", n)
        object.__setattr__(rv, "mask", mask)
        return rv

    def cells(self) -> tuple[int, ...]:
        """Flags as a tuple, index i = cell i."""
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return _format_lsb(self.mask, self.n)

    def __repr__(self) -> str:
        return f"RuleVector({str(self)!r})"

    def __reduce__(self):
        # Rebuilt from the text form; the fields are not the constructor's.
        return type(self), (str(self),)


def _charpoly_bits(mask: int, n: int) -> int:
    # Three-term recurrence for the leading principal minors of xI + T:
    #   p_0 = 1,  p_1 = x + d_0,  p_k = (x + d_{k-1}) p_{k-1} + p_{k-2}
    # over GF(2). O(n^2) bit operations, no symbolic expansion.
    prev = 1
    cur = 2 | (mask & 1)
    for i in range(1, n):
        step = (cur << 1) ^ prev
        if (mask >> i) & 1:
            step ^= cur
        prev, cur = cur, step
    return cur


def characteristic_polynomial(rv: RuleVector) -> Gf2Poly:
    """det(xI + T) for the rule vector's tridiagonal transition matrix.

    Always monic of degree n; its constant term equals det(T).
    """
    bits = _charpoly_bits(rv.mask, rv.n)
    assert bits >> rv.n == 1, "characteristic polynomial must be monic of degree n"
    return Gf2Poly(bits)


def reverse(rv: RuleVector) -> RuleVector:
    """Mirror image: cells in reversed order.

    Reversal conjugates T by the exchange permutation, so the mirrored
    vector has the same characteristic polynomial.
    """
    return RuleVector.from_mask(_reverse_bits(rv.mask, rv.n), rv.n)
