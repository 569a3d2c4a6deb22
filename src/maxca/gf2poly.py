"""Exact polynomial arithmetic over GF(2).

A polynomial is a bit vector packed into a Python int: bit i holds the
coefficient of x^i, so 0b111 is x^2 + x + 1. Addition is XOR,
multiplication is carry-less, division is shift-and-XOR long division;
every operation is exact.

The text format is the MSB-first binary string used throughout the
rule tables: "100011101" is x^8 + x^4 + x^3 + x^2 + 1, "0" is the zero
polynomial. No separators, no "0b" prefix. Rule vectors and states
print LSB-first (character i = bit i); that text form and the n-bit
reversal between the two orders live here too.

`_recurrence_blocks` is the one block kernel for sequences that obey
a polynomial p, from p(x)^B = p(x^B): it makes the m-sequence behind
`enumerate_primitive` and the bitstream behind `maxca stream`.
`_first_bits` is the one cut of its endless run to a bit count, and
`_pack_blocks` the one packer of its blocks into bytes.

`_Record` is the immutable base of every value type in the package,
here because every other module imports this one.
"""

from operator import attrgetter

__all__ = [
    "MAX_DEGREE",
    "DegreeOverflowError",
    "Gf2Poly",
    "add",
    "mul",
    "mod_reduce",
    "pow_x_mod",
    "gcd",
    "parse_poly",
    "format_poly",
    "weight",
]

# Hard cap on the degree of any Gf2Poly, checked in its constructor and
# nowhere else: parse_poly, mul and characteristic_polynomial raise
# DegreeOverflowError above it, never truncate. The raw-int kernels
# below carry no cap (a product of two stored polynomials reaches 128).
MAX_DEGREE = 64


class DegreeOverflowError(ValueError):
    """A polynomial of degree > MAX_DEGREE was to be made."""


class _Record:
    # Immutable value whose fields are the __slots__ of its class, in
    # order. One rule builds every record: a class whose own body has no
    # __init__ gets one made here, once, with exec, as collections.
    # namedtuple and dataclasses make theirs: `__init__(self, <slots>)`
    # storing each field with object.__setattr__. Only the slot names,
    # which Python has checked are identifiers, enter its source, so the
    # fields bind positionally or by keyword and Python raises its own
    # TypeError unless each gets exactly one value; the method's
    # __qualname__ is set to `<Class>.__init__`, so the message names the
    # record, as in "FilterStats.__init__() got an unexpected keyword
    # argument 'bogus'". A record with logic (Gf2Poly, RuleVector,
    # CaState, TableRow) writes its own __init__, validates, and stores
    # its fields the same way. Equality (same class, same fields) and
    # hash go by the field values, read by one attrgetter per class (a
    # lone field reads as itself, not a tuple), since Gf2Poly == ONE runs
    # once per order-test trial. Repr goes by the fields in order, and
    # pickling and copying rebuild through the constructor, so a subclass
    # whose constructor takes other arguments overrides __reduce__.

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)
        if "__init__" not in cls.__dict__:
            stores = "".join(f"\n    object.__setattr__(self, {name!r}, {name})" for name in cls.__slots__)
            exec(f"def __init__(self, {', '.join(cls.__slots__)}):{stores}", namespace := {"__name__": cls.__module__})
            namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = namespace["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Gf2Poly(_Record):
    """Immutable polynomial over GF(2), bit i = coefficient of x^i.

    Values are canonical by construction (an int has no spare leading
    zeros), so _Record's equality and hash by the one field are exact.
    """

    __slots__ = ("bits",)

    bits: int

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient bits must be non-negative")
        if bits.bit_length() > MAX_DEGREE + 1:
            raise DegreeOverflowError(
                f"degree {bits.bit_length() - 1} exceeds MAX_DEGREE={MAX_DEGREE}"
            )
        object.__setattr__(self, "bits", bits)

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else None

    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return bool(self.bits)

    # Operator sugar; the module-level functions are the canonical API.
    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return add(self, other)

    __xor__ = __add__
    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return mul(self, other)

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return mod_reduce(self, other)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Gf2Poly({format_poly(self)!r})"


ONE = Gf2Poly(1)
X = Gf2Poly(2)


def add(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Sum of two polynomials: coefficient-wise XOR."""
    return Gf2Poly(a.bits ^ b.bits)


def _mul(a: int, b: int) -> int:
    # Carry-less product of raw bit vectors.
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Carry-less product; degree adds for nonzero operands."""
    return Gf2Poly(_mul(a.bits, b.bits))


def _mod(a: int, m: int) -> int:
    # Shift-and-XOR long division, remainder only.
    dm = m.bit_length()
    while True:
        da = a.bit_length()
        if da < dm:
            return a
        a ^= m << (da - dm)


def mod_reduce(a: Gf2Poly, m: Gf2Poly) -> Gf2Poly:
    """Remainder of a modulo m, with degree(result) < degree(m)."""
    if not m.bits:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    return Gf2Poly(_mod(a.bits, m.bits))


def _pow_x_mod(e: int, m: int) -> int:
    # x^e mod m, left to right over the bits of e: square, then times x
    # where the bit is 1. Over GF(2) squaring is linear and moves bit i
    # to bit 2i, so the square of r is its binary digits read as base-4
    # digits, one C-level call before the reduction. Times x is a shift
    # and at most one XOR with m, as r has degree < deg m.
    top = 1 << (m.bit_length() - 1)
    r = 1
    for bit in format(e, "b"):
        r = _mod(int(format(r, "b"), 4), m)
        if bit == "1":
            r <<= 1
            if r & top:
                r ^= m
    return r


def pow_x_mod(e: int, m: Gf2Poly) -> Gf2Poly:
    """x^e mod m for e >= 0.

    Left to right over the bits of e, O(log e) squarings and reductions,
    each square a spread of the bits of the residue; the workhorse
    behind the primitivity test, where e runs up to 2^n - 1.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    if m.bits.bit_length() < 2:
        raise ZeroDivisionError("modulus must have degree >= 1")
    return Gf2Poly(_pow_x_mod(e, m.bits))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor; gcd(0, 0) is 0."""
    return Gf2Poly(_gcd(a.bits, b.bits))


def _check_bits(s: str, what: str) -> None:
    # The 0/1 check of both text forms; int(s, 2) also takes "+", " ", "_".
    if not s or set(s) - {"0", "1"}:
        raise ValueError(f"{what} must be a nonempty 0/1 string: {s!r}")


def _parse_lsb(s: str, what: str) -> int:
    # LSB-first text to int: character i is bit i.
    _check_bits(s, what)
    return int(s[::-1], 2)


def _format_lsb(bits: int, n: int) -> str:
    # Inverse of _parse_lsb for bits < 2^n: n characters, i-th = bit i.
    return format(bits, f"0{n}b")[::-1]


def _reverse_bits(bits: int, n: int) -> int:
    # Bit i moves to bit n-1-i. This is also the LSB-first text read as
    # MSB-first binary, the order in which tables print rule vectors.
    return int(_format_lsb(bits, n), 2)


def parse_poly(s: str) -> Gf2Poly:
    """Parse an MSB-first binary string ("111" -> x^2 + x + 1)."""
    _check_bits(s, "polynomial")
    if len(s) > 1 and s[0] == "0":
        raise ValueError(f"leading zero in polynomial string: {s!r}")
    return Gf2Poly(int(s, 2))


def format_poly(p: Gf2Poly) -> str:
    """MSB-first binary string; inverse of parse_poly ("0" for zero)."""
    return format(p.bits, "b")


def weight(p: Gf2Poly) -> int:
    """Number of nonzero coefficients."""
    return p.bits.bit_count()


# Largest block of `_recurrence_blocks`: a power of two, and a multiple
# of 8 so that full blocks pack into whole bytes.
_BLOCK_BITS = 1 << 15


def _recurrence_blocks(p: int, head):
    # (block, bits) pairs without end, bit i of a block = its i-th term,
    # for the sequence that obeys p of degree n and starts with the n
    # bits that the iterable head gives as they are needed, each a block
    # of one bit. Over GF(2), p(x)^B = p(x^B) for B = 2^k, so block t+n
    # of B bits is the XOR of blocks t+j over the w terms x^j of p below
    # x^n. Each doubling appends n blocks and pairs all 2n up into n of
    # twice the size, n*w XORs whatever the size, until the size is
    # _BLOCK_BITS; then a window of 2n blocks slides.
    n = p.bit_length() - 1
    lags = [j for j in range(n) if (p >> j) & 1]
    window = []
    size = 1
    for block in head:
        window.append(block)
        yield block, size
    while True:
        for t in range(n):
            nxt = 0
            for j in lags:
                nxt ^= window[t + j]
            window.append(nxt)
            yield nxt, size
        if size < _BLOCK_BITS:
            window = [window[2 * i] | window[2 * i + 1] << size for i in range(n)]
            size *= 2
        else:
            del window[:n]


def _first_bits(blocks, count: int):
    # The first `count` bits of a run of (block, bits) pairs, as the same
    # pairs with the last one cut short; the whole run if it is shorter.
    for block, bits in blocks:
        if count <= bits:
            if count:
                yield block & ((1 << count) - 1), count
            return
        yield block, bits
        count -= bits


def _pack_blocks(blocks):
    # (block, bits) pairs as pieces of bytes, packed LSB-first as
    # pack_bits packs bits: a partial byte carries into the next block,
    # and a finite run of blocks ends in one zero-padded byte.
    acc = held = 0
    for block, bits in blocks:
        acc |= block << held
        held += bits
        whole = held >> 3
        yield (acc & ((1 << (8 * whole)) - 1)).to_bytes(whole, "little")
        acc >>= 8 * whole
        held &= 7
    if held:
        yield acc.to_bytes(1, "little")
