"""Running the hybrid 90/150 automaton as a state machine.

The whole state fits in one int (bit i = cell i), so a step is three
shifts/XORs and one AND:

    next = ((s << 1) ^ (s >> 1) ^ (s & rules)) & ones(n)

which is exactly T*s over GF(2) for the tridiagonal transition matrix
with null boundaries. `cycle_length_from` steps it up to 2^n times and
stays the raw-simulation oracle. The table audit measures cycles by
jump-ahead at every n, checked against raw simulation on every row in
the tests, and `maxca cycle` does so above n = 8. The jump steps only
n times: since p(T) = 0 for p = charpoly, T^t s is a combination of
s, Ts, ..., T^(n-1)s given by x^t mod p, so each trial period costs
O(log t) products mod p, and the period search that also finds the
order of x, `primitivity._period`, picks the trials. Only the jump
imports `primitivity`, so a command that steps (`cycle` up to n = 8,
`stream`) never compiles it.

A bitstream does not step once per bit. Every tap sequence obeys the
recurrence of the characteristic polynomial p (Cayley-Hamilton), so
after n stepped bits the block kernel of gf2poly makes each B-bit
block from weight(p) earlier ones, and `gf2poly._first_bits` cuts that
endless run to the bit count. `stream_bits` keeps the per-step
generator as the reference.
"""

from collections.abc import Iterable, Iterator

from .charpoly import RuleVector, _charpoly_bits
from .gf2poly import _first_bits, _format_lsb, _parse_lsb, _pow_x_mod, _Record, _recurrence_blocks

__all__ = [
    "BRUTE_FORCE_CAP",
    "CaState",
    "unit_seed",
    "next_state",
    "cycle_length_from",
    "is_max_length",
    "stream_bits",
    "pack_bits",
]

# Raw cycle simulation iterates up to 2^n steps; sub-second to here.
# Jump-ahead costs milliseconds, but keeps the same cap and override.
BRUTE_FORCE_CAP = 24


class CaState(_Record):
    """State of an n-cell automaton, bit i = output of cell i."""

    __slots__ = ("bits", "n")

    bits: int
    n: int

    def __init__(self, bits: int, n: int):
        if n < 1:
            raise ValueError("state needs at least one cell")
        if bits < 0 or bits >> n:
            raise ValueError("state has bits beyond cell count")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_string(cls, s: str) -> "CaState":
        """Parse the text form: one char per cell, leftmost = cell 0."""
        return cls(bits=_parse_lsb(s, "state"), n=len(s))

    def __str__(self) -> str:
        return _format_lsb(self.bits, self.n)


def unit_seed(n: int) -> CaState:
    """The conventional seed: only cell 0 set.

    Any nonzero seed is equivalent for a maximum-length automaton; one
    fixed choice keeps oracle runs reproducible.
    """
    return CaState(bits=1, n=n)


def _step(bits: int, mask: int, lim: int) -> int:
    return ((bits << 1) ^ (bits >> 1) ^ (bits & mask)) & lim


def next_state(rv: RuleVector, s: CaState) -> CaState:
    """One synchronous update: cell i becomes s_{i-1} ^ d_i s_i ^ s_{i+1},
    missing neighbors reading as 0."""
    if rv.n != s.n:
        raise ValueError(f"rule vector has {rv.n} cells, state has {s.n}")
    return CaState(bits=_step(s.bits, rv.mask, (1 << rv.n) - 1), n=s.n)


def _check_seed(rv: RuleVector, seed: CaState, zero_reason: str) -> None:
    if rv.n != seed.n:
        raise ValueError(f"rule vector has {rv.n} cells, seed has {seed.n}")
    if seed.bits == 0:
        raise ValueError(f"zero seed {zero_reason}")


def _check_cycle_args(rv: RuleVector, seed: CaState, force: bool) -> None:
    _check_seed(rv, seed, "is a fixed point off the nonzero cycle")
    if rv.n > BRUTE_FORCE_CAP and not force:
        raise ValueError(
            f"cycle search over 2^{rv.n} steps exceeds the n<={BRUTE_FORCE_CAP} "
            "cap; use the force override to go beyond it"
        )


def cycle_length_from(rv: RuleVector, seed: CaState, *, force: bool = False) -> int | None:
    """Smallest t >= 1 with T^t seed = seed, or None if the seed never
    recurs (possible only for a singular transition matrix).

    The search is capped at 2^n steps, which is exhaustive: a state
    space of 2^n states cannot hide a longer cycle. This raw simulation
    is the oracle for the jump-ahead measurement.
    """
    _check_cycle_args(rv, seed, force)
    mask = rv.mask
    lim = (1 << rv.n) - 1
    start = seed.bits
    bits = start
    for t in range(1, lim + 2):
        # Inline, not _step: a call per step makes this loop ~30 % slower.
        bits = ((bits << 1) ^ (bits >> 1) ^ (bits & mask)) & lim
        if bits == start:
            return t
    return None


def _cycle_length_jump(rv: RuleVector, seed: CaState, *, force: bool = False) -> int | None:
    """What `cycle_length_from` returns, from n steps and a few x^t mod p.

    With K_j = T^j seed (j = 0..n) and p = charpoly, T^t seed is the XOR
    of the K_j over the terms of x^t mod p, and {t : T^t seed = seed} is
    period * Z, so `primitivity._period` finds the period as it finds
    the order of x: 2^n - 1 first, then a multiple of every possible
    period, stripped prime by prime.
    """
    from .primitivity import _period, factorize_mersenne

    _check_cycle_args(rv, seed, force)
    n, mask, lim = rv.n, rv.mask, (1 << rv.n) - 1
    f = factorize_mersenne(n)
    krylov = [seed.bits]
    for _ in range(n):
        krylov.append(_step(krylov[-1], mask, lim))

    def apply(r: int) -> int:  # r(T) seed, for deg r <= n
        acc = 0
        for k in krylov:
            if r & 1:
                acc ^= k
            r >>= 1
        return acc

    p = _charpoly_bits(mask, n)
    # p(T) seed = 0 holds for any seed (Cayley-Hamilton); for the unit
    # seed, which is cyclic for tridiagonal T, it pins p independently.
    if apply(p):
        raise RuntimeError(f"charpoly does not annihilate the seed of rule vector {rv}")

    return _period(f, lambda t: apply(_pow_x_mod(t, p)) == seed.bits)


def is_max_length(rv: RuleVector, *, force: bool = False) -> bool:
    """True iff the nonzero states form one cycle of length 2^n - 1,
    measured by raw simulation from the unit seed."""
    return cycle_length_from(rv, unit_seed(rv.n), force=force) == (1 << rv.n) - 1


def _check_stream_args(rv: RuleVector, seed: CaState, count: int, tap: int) -> None:
    _check_seed(rv, seed, "generates the all-zero stream")
    if not 0 <= tap < rv.n:
        raise ValueError(f"tap must be in 0..{rv.n - 1}, got {tap}")
    if count < 0:
        raise ValueError("count must be non-negative")


def stream_bits(rv: RuleVector, seed: CaState, count: int, tap: int = 0) -> Iterator[int]:
    """Pseudorandom bit generator: step the automaton count times,
    yielding the tap cell's bit after each step.

    Arguments are validated eagerly; the bits come lazily. This is the
    per-step reference for the block-recurrence stream.
    """
    _check_stream_args(rv, seed, count, tap)

    def emit():
        mask = rv.mask
        lim = (1 << rv.n) - 1
        bits = seed.bits
        for _ in range(count):
            bits = _step(bits, mask, lim)
            yield (bits >> tap) & 1

    return emit()


def _stream_chunks(rv: RuleVector, seed: CaState, count: int, tap: int = 0) -> Iterator[tuple[int, int]]:
    """The bits of `stream_bits` in order, as (value, nbits) chunks with
    bit i of value = i-th bit of the chunk and nbits <= gf2poly._BLOCK_BITS.

    Arguments are validated eagerly, with the errors of `stream_bits`.
    Working memory is at most 2n blocks, whatever the count.
    """
    _check_stream_args(rv, seed, count, tap)
    # The first n bits are stepped; the recurrence of p makes the rest.
    p = _charpoly_bits(rv.mask, rv.n)
    return _first_bits(_recurrence_blocks(p, stream_bits(rv, seed, rv.n, tap)), count)


def pack_bits(bits: Iterable[int]) -> bytes:
    """Pack a bit sequence 8 per byte, first bit in the lowest position;
    a final partial byte is zero-padded at the top."""
    out = bytearray()
    acc = 0
    k = 0
    for b in bits:
        acc |= (b & 1) << k
        k += 1
        if k == 8:
            out.append(acc)
            acc = 0
            k = 0
    if k:
        out.append(acc)
    return bytes(out)
