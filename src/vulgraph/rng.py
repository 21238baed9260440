"""Deterministic pseudo-random numbers.

A small splitmix64 generator backs every stochastic choice in the package
(weight init, corpus shuffles, synthetic program generation) so that results
are bit-identical across platforms and processes for a given seed. Floats are
built from the top 53 bits of the raw stream, the portable construction.

Only `Rng.uniforms`, which draws weight matrices, needs numpy; it imports it
when called, so a command that draws no weights (gen-corpus, the corpus
split) runs without loading numpy.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return state, z ^ (z >> 31)


class Rng:
    """Seedable splitmix64 stream with the handful of draws we need."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def _next(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def fork(self, tag: str) -> "Rng":
        """Derive an independent named substream.

        Mixing a stable string hash into the next raw draw gives substreams
        that do not collide for distinct tags and do not disturb the parent
        beyond one draw.
        """
        h = 0xCBF29CE484222325
        for b in tag.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK
        return Rng(self._next() ^ h)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._next() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, low: float, high: float, n: int):
        """n draws of low + (high - low) * random() at once, as a float64
        numpy array: bitwise the same floats, and the same state afterwards.
        The state is a Weyl sequence, so draw k's state is the current one
        plus k * gamma, mod 2**64; uint64 numpy arithmetic wraps the same
        way."""
        import numpy as np

        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK
        return low + (high - low) * ((z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive, via rejection sampling."""
        if high < low:
            raise ValueError("empty range")
        span = high - low + 1
        # rejection keeps the draw exactly uniform
        limit = (_MASK + 1) - ((_MASK + 1) % span)
        while True:
            v = self._next()
            if v < limit:
                return low + (v % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
