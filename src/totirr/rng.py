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
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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

    def child(self, key: int) -> "SplitMix64":
        """Derive the key-th independent substream of this stream's seed."""
        return SplitMix64(mix64((self.seed + (key + 1) * _GAMMA) & _MASK))
