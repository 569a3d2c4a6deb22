"""Running the hybrid 90/150 automaton as a state machine.

The whole state fits in one int (bit i = cell i), so a step is three
shifts/XORs and one AND:

    next = ((s << 1) ^ (s >> 1) ^ (s & rules)) & ones(n)

which is exactly T*s over GF(2) for the tridiagonal transition matrix
with null boundaries. This kernel is the cycle oracle's hot path: the
brute-force cycle measurement runs it millions of times.

A bitstream does not step once per bit. Every tap sequence obeys the
recurrence of the characteristic polynomial p (Cayley-Hamilton), and
over GF(2) p(x)^B = p(x^B) for B a power of two, so after a short
bootstrap each B-bit block of output is the XOR of weight(p) earlier
blocks. `stream_bits` keeps the per-step generator as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .charpoly import RuleVector, _charpoly_bits

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

# Cycle measurement iterates up to 2^n steps; sub-second to here.
BRUTE_FORCE_CAP = 24

# Bits per block of the block-recurrence stream: a power of two, and a
# multiple of 8 so that full chunks pack into whole bytes.
_BLOCK_BITS = 1 << 15


@dataclass(frozen=True)
class CaState:
    """State of an n-cell automaton, bit i = output of cell i."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state needs at least one cell")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("state has bits beyond cell count")

    @classmethod
    def from_string(cls, s: str) -> "CaState":
        """Parse the text form: one char per cell, leftmost = cell 0."""
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"state must be a nonempty 0/1 string: {s!r}")
        bits = 0
        for i, c in enumerate(s):
            if c == "1":
                bits |= 1 << i
        return cls(bits=bits, n=len(s))

    def __str__(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))


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


def cycle_length_from(rv: RuleVector, seed: CaState, *, force: bool = False) -> int | None:
    """Smallest t >= 1 with T^t seed = seed, or None if the seed never
    recurs (possible only for a singular transition matrix).

    The search is capped at 2^n steps, which is exhaustive: a state
    space of 2^n states cannot hide a longer cycle.
    """
    if rv.n != seed.n:
        raise ValueError(f"rule vector has {rv.n} cells, seed has {seed.n}")
    if seed.bits == 0:
        raise ValueError("zero seed is a fixed point off the nonzero cycle")
    if rv.n > BRUTE_FORCE_CAP and not force:
        raise ValueError(
            f"cycle search over 2^{rv.n} steps exceeds the n<={BRUTE_FORCE_CAP} "
            "cap; use the force override to go beyond it"
        )
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


def is_max_length(rv: RuleVector, *, force: bool = False) -> bool:
    """True iff the nonzero states form one cycle of length 2^n - 1,
    measured by raw simulation from the unit seed."""
    return cycle_length_from(rv, unit_seed(rv.n), force=force) == (1 << rv.n) - 1


def _check_stream_args(rv: RuleVector, seed: CaState, count: int, tap: int) -> None:
    if rv.n != seed.n:
        raise ValueError(f"rule vector has {rv.n} cells, seed has {seed.n}")
    if seed.bits == 0:
        raise ValueError("zero seed generates the all-zero stream")
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
    bit i of value = i-th bit of the chunk and nbits <= _BLOCK_BITS.

    Arguments are validated eagerly, with the errors of `stream_bits`.
    Working memory is at most 2n blocks, whatever the count.
    """
    _check_stream_args(rv, seed, count, tap)

    def blocks():
        # (block, size) in stream order, without end. Since p(x)^b =
        # p(x^b) for b = 2^k, block t+n of b bits is the XOR of blocks
        # t+j over the w terms x^j of p below x^n. The first n blocks
        # come from stepping; each doubling then appends n blocks and
        # pairs all 2n up into n of twice the size, until the size is
        # _BLOCK_BITS. A doubling makes n*b bits with n*w XORs, and a
        # step costs about four XORs, so stepping makes the first
        # blocks up to b = w/4: below that, doubling costs more.
        n, mask, lim = rv.n, rv.mask, (1 << rv.n) - 1
        p = _charpoly_bits(mask, n)
        lags = [j for j in range(n) if (p >> j) & 1]
        size = min(1 << (max(len(lags) // 4, 1).bit_length() - 1), _BLOCK_BITS)
        bits, window = seed.bits, []
        for _ in range(n):
            block = 0
            for k in range(size):
                bits = _step(bits, mask, lim)
                block |= ((bits >> tap) & 1) << k
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

    def emit():
        left = count
        for block, size in blocks():
            if left <= size:
                if left:
                    yield block & ((1 << left) - 1), left
                return
            yield block, size
            left -= size

    return emit()


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
