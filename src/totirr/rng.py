"""Deterministic 64-bit random stream for reproducible audit suites.

The generator is a plain splitmix-style counter RNG so that any suite can be
regenerated byte for byte from (seed, instance id) on any platform, and even
reimplemented in another language from this comment alone:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    output  <- mix64(state)

    mix64(z):
        z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
        z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
        return z XOR (z >> 31)

Child streams are keyed off the construction seed, not the evolving state, so
stream k of a given root is the same no matter how much of the root stream was
consumed first:

    child(k) seed = mix64((seed + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64)

Bounded draws use plain modulo reduction. The bias is irrelevant for test
instance generation and keeping the reduction trivial is what keeps this
stream easy to reimplement.

The random generators draw many values at once, SIMD-within-a-register: one
int holds up to _BLOCK states, each in the low half of its own 128-bit lane.
A 64x64-bit product never reaches the next lane, so each mix64 step is one
shift, XOR, mask and multiply over all lanes; the output is masked once more,
as its last shift moves each lane's low bits into the lane below. `_belows`
reads the lanes as little-endian words, byte-swapped on a big-endian host.
`_tenth_flags` reduces inside the lanes: x // 10 is x * 0xCCCCCCCCCCCCCCCD
>> 67 for x < 2^64 (Granlund & Montgomery, PLDI 1994); each product fits its
lane and the quotient is masked to the lane's low 61 bits, so nothing carries,
and x - 10 * (x // 10) cannot borrow. Lane byte 0 is then x mod 10, and every
sixteenth little-endian byte is that byte on any host: no byte swap is needed.
"""

from __future__ import annotations

import sys
from array import array
from operator import mod
from typing import Iterator, Sequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Lanes per packed int: 512 to 4,096 cost the same per draw, one int of 1e5 lanes about twice that.
_BLOCK = 1024
# array("Q") words are native-endian; the packed ints are read little-endian.
_SWAP = sys.byteorder == "big"

_steps = array("Q", bytes(16 * _BLOCK))
_steps[::2] = array("Q", range(1, _BLOCK + 1))
if _SWAP:
    _steps.byteswap()
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")  # 1 in every lane
_GAMMA_STEPS = _GAMMA * int.from_bytes(_steps, "little")  # (i + 1) * GAMMA in lane i: below 2^75, no carry
_LANE_MASK = _MASK * _ONES
_Q_MASK = ((1 << 61) - 1) * _ONES  # low 61 bits of every lane, room for any x // 10
del _steps


def mix64(z: int) -> int:
    """Finalization mix of the splitmix64 step, on 64-bit words."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Splittable deterministic stream of 64-bit words."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform-ish draw from range(bound); bound must be positive."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def _belows(self, bounds: Sequence[int]) -> list[int]:
        """[self.below(b) for b in bounds], leaving the same state, drawn in packed lanes."""
        if bounds and min(bounds) <= 0:
            for b in bounds:
                self.below(b)  # raises at the first bad bound, as the single draws would
        out: list[int] = []
        for lo, (k, x) in zip(range(0, len(bounds), _BLOCK), self._lanes(len(bounds))):
            words = array("Q", x.to_bytes(16 * k, "little"))
            if _SWAP:
                words.byteswap()
            out.extend(map(mod, words[::2], bounds[lo : lo + k]))
        return out

    def _tenth_flags(self, count: int, tenths: int) -> bytes:
        """bytes(self.below(10) < tenths for _ in range(count)), leaving the same state, in packed lanes."""
        flags = []
        for k, x in self._lanes(count):
            r = x - 10 * ((x * 0xCCCCCCCCCCCCCCCD >> 67) & _Q_MASK)  # x mod 10 in every lane
            flags.append(r.to_bytes(16 * k, "little")[::16])
        return b"".join(flags).translate(b"\x01" * tenths + bytes(256 - tenths))

    def _lanes(self, count: int) -> Iterator[tuple[int, int]]:
        """(k, x) per block of the next count outputs, output i in x's lane i; the state advances per block."""
        for lo in range(0, count, _BLOCK):
            k = min(_BLOCK, count - lo)
            cut = (1 << (128 * k)) - 1
            z = (self._state * (_ONES & cut) + (_GAMMA_STEPS & cut)) & _LANE_MASK
            z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
            z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
            self._state = (self._state + k * _GAMMA) & _MASK
            yield k, (z ^ (z >> 31)) & _LANE_MASK

    def child(self, key: int) -> "SplitMix64":
        """Derive the key-th independent substream of this stream's seed."""
        return SplitMix64(mix64((self.seed + (key + 1) * _GAMMA) & _MASK))
