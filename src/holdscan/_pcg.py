"""The restart orders of the maximum search, without numpy's random module.

The search draws its orders as numpy's ``default_rng(seed).permutation``
does. Loading numpy's random module costs a process about 6 MB of memory
and 11-27 ms, so its generator is reproduced here, bit for bit, on Python
integers.
"""

from __future__ import annotations

import operator
from collections.abc import Callable

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Permutations:
    """numpy's ``default_rng(seed).permutation(k)``, bit for bit, as lists.

    numpy's default generator is PCG64 (O'Neill 2014: a 128-bit LCG read
    out by XSL-RR) seeded through ``SeedSequence``. ``SeedSequence(seed)``
    hashes the seed's 32-bit little-endian words into a pool of four and
    draws eight words from it, read in pairs (low, high) as the four 64-bit
    halves of the LCG's seed and stream. A 32-bit draw is the low half of a 64-bit output, the next
    one its kept high half, and that half carries over from one
    permutation to the next. A permutation shuffles ``range(k)`` by
    Fisher-Yates from the last place down, taking for place i the first
    draw under the mask ``2**i.bit_length() - 1`` that is at most i.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]

        def hasher(const: int, mult: int) -> Callable[[int], int]:
            def hashmix(value: int) -> int:
                nonlocal const
                value ^= const
                const = const * mult & _M32
                value = value * const & _M32
                return value ^ value >> 16

            return hashmix

        def mix(x: int, y: int) -> int:
            value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return value ^ value >> 16

        hashmix = hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        draw = hasher(0x8B51F9DD, 0x58F38DED)
        state = [draw(pool[i % 4]) for i in range(8)]
        halves = [state[k] | state[k + 1] << 32 for k in (0, 2, 4, 6)]
        start = halves[0] << 64 | halves[1]
        self.inc = ((halves[2] << 64 | halves[3]) << 1 | 1) & _M128
        self.state = ((self.inc + start) * _PCG_MULT + self.inc) & _M128
        self.high: int | None = None  # the high half of the last output, unread

    def permutation(self, k: int) -> list[int]:
        order = list(range(k))
        state, inc, high = self.state, self.inc, self.high
        for i in range(k - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if high is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    word = ((state >> 64) ^ state) & _M64
                    turn = state >> 122
                    word = (word >> turn | word << (64 - turn)) & _M64
                    j, high = word & mask, word >> 32
                else:
                    j, high = high & mask, None
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self.state, self.high = state, high
        return order
