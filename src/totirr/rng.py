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

The random generators draw many values at once through `_belows`, which
computes the same stream SIMD-within-a-register: one Python int holds up to
_BLOCK states, each in the low half of its own 128-bit lane. A 64x64-bit
product never reaches the next lane, so each mix64 step is one shift, XOR,
mask and multiply over all lanes together. The lanes are read back as
little-endian 64-bit words, byte-swapped on a big-endian host, so the
values are the ones `below` gives on every platform.
"""

from __future__ import annotations

import sys
from array import array
from operator import mod
from typing import Sequence

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
        for lo in range(0, len(bounds), _BLOCK):
            chunk = bounds[lo : lo + _BLOCK]
            cut = (1 << (128 * len(chunk))) - 1
            m = _LANE_MASK & cut
            z = (self._state * (_ONES & cut) + (_GAMMA_STEPS & cut)) & m
            z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
            z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
            words = array("Q", (z ^ (z >> 31)).to_bytes(16 * len(chunk), "little"))
            if _SWAP:
                words.byteswap()
            out.extend(map(mod, words[::2], chunk))
            self._state = (self._state + len(chunk) * _GAMMA) & _MASK
        return out

    def child(self, key: int) -> "SplitMix64":
        """Derive the key-th independent substream of this stream's seed."""
        return SplitMix64(mix64((self.seed + (key + 1) * _GAMMA) & _MASK))
