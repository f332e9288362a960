"""Deterministic pseudorandom numbers.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, with each output produced by the finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2^64). Because every draw depends only on the counter
value, blocks of draws can be produced with vectorized uint64 arithmetic
and are bit-identical to the scalar stream. Identical seeds therefore give
identical streams on every platform, which is what keeps the golden values
in the test suite stable.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# draws per block of uniform_array, so its temporaries stay a few blocks in
# size however many values it returns
UNIFORM_BLOCK = 1 << 16


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def _u64_block(self, n: int) -> np.ndarray:
        """Next n raw draws as a uint64 array, advancing the stream by n."""
        counters = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (counters ^ (counters >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform draw in [low, high) using the top 53 bits of one output."""
        return low + (high - low) * ((self.next_u64() >> 11) * 2.0 ** -53)

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """The next n uniform() draws as a float64 array, bit for bit.

        The output is filled UNIFORM_BLOCK draws at a time, so besides it
        only block-sized temporaries are allocated.
        """
        out = np.empty(n)
        for start in range(0, n, UNIFORM_BLOCK):
            u = out[start:start + UNIFORM_BLOCK]
            # an assignment casts without the buffer a mixed-type ufunc takes
            u[...] = self._u64_block(u.size) >> np.uint64(11)
            u *= 2.0 ** -53
            u *= high - low
            u += low
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n). Uses modulo reduction; the bias is below n/2^64."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return self.next_u64() % n

    def randint_array(self, count: int, n: int) -> np.ndarray:
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return (self._u64_block(count) % np.uint64(n)).astype(np.int64)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence.

        Position i, from the last down to 1, swaps with randint(i + 1);
        the draws come as one block, identical to the scalar stream.
        """
        n = len(items)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        picks = (self._u64_block(n - 1) % bounds).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]

    def spawn(self) -> "Rng":
        """Independent child generator seeded from this stream."""
        return Rng(self.next_u64())
