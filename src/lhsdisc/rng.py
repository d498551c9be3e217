"""Deterministic, portable 64-bit random streams with labeled substreams.

The generator is counter-based: output ``i`` of a stream with seed ``s`` is

    mix64((s + (i + 1) * GAMMA) mod 2**64)

where GAMMA is the golden-ratio increment and ``mix64`` the splitmix64
finalizer.  Because each output depends only on the seed and the counter,
blocks of any size can be produced by vectorized integer arithmetic and
agree bit for bit with the scalar path, on every platform and numpy
version.  ``derive(seed, label)`` hashes a label into an independent
substream seed; parallel consumers (columns, trials) each get their own
derived stream so results never depend on scheduling.
"""

from __future__ import annotations

import operator

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_U_GAMMA = np.uint64(_GAMMA)
_U_MIX_A = np.uint64(_MIX_A)
_U_MIX_B = np.uint64(_MIX_B)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

#: 2**-53; top 53 bits of an output map to a uniform double in [0, 1).
_INV53 = float.fromhex("0x1p-53")

#: Outputs per draw chunk of ``Stream.randbelow_block``.
_DRAW_CELLS = 1 << 16


def mix64(z: int) -> int:
    """Splitmix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> _U30
    z *= _U_MIX_A
    z ^= z >> _U27
    z *= _U_MIX_B
    z ^= z >> _U31
    return z


def _label_hash(label: int | str) -> int:
    if isinstance(label, str):
        # FNV-1a over UTF-8, then one avalanche round.
        h = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & MASK64
        return mix64(h)
    if isinstance(label, bool):
        raise TypeError("labels must be int or str, not bool")
    # numpy's integers as the equal Python int; its bool and floats raise.
    return mix64(operator.index(label) % (1 << 64))


def derive(seed: int, label: int | str) -> int:
    """Derive the seed of an independent substream from ``(seed, label)``.

    Deterministic, order-free: any consumer that knows the parent seed and
    the label reconstructs the same substream.  Distinct labels give
    streams that are independent for all practical purposes.  ``seed`` is
    any integer, numpy's too, and so is an integer ``label``, hashed as the
    equal Python int; a float, or a bool label, raises TypeError.
    """
    return mix64(mix64((operator.index(seed) + _GAMMA) & MASK64) ^ _label_hash(label))


class Stream:
    """Sequential view of the counter-based stream for one seed, any
    integer (numpy's too) taken modulo 2**64; a float raises TypeError.

    Not thread-safe; each thread or task should own a derived stream.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = operator.index(seed) % (1 << 64)
        self._count = 0

    def next_u64(self) -> int:
        """Next 64-bit output as a Python int."""
        self._count += 1
        return mix64((self.seed + self._count * _GAMMA) & MASK64)

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` outputs as a uint64 array (same stream as next_u64)."""
        counters = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_block(np.uint64(self.seed) + _U_GAMMA * counters)

    def uniform_block(self, n: int) -> np.ndarray:
        """Next ``n`` uniform doubles in [0, 1): 53 mantissa bits / 2**53, never 1.0."""
        return (self.u64_block(n) >> _U11).astype(np.float64) * _INV53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), exactly unbiased (bitmask rejection);
        ``bound`` is any integer, numpy's too, and a float raises TypeError."""
        bound = operator.index(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < bound:
                return r

    def randbelow_block(self, bound: int, n: int) -> np.ndarray:
        """The next ``n`` values of ``randbelow(bound)`` as an int64 array.

        Bit-equal to the scalar calls and leaves the stream at the same
        counter: outputs are read in chunks of at most ``_DRAW_CELLS`` and
        only those up to the last acceptance used are consumed.  A bound of
        1 consumes no output, as in ``randbelow``.
        """
        bound = operator.index(bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        if n < 0:
            raise ValueError("n must be non-negative")
        if bound == 1 or n == 0:
            return np.zeros(n, dtype=np.int64)
        mask = np.uint64((1 << (bound - 1).bit_length()) - 1)
        parts = []
        while n:
            start = self._count
            # An acceptance takes fewer than two outputs on average.
            values = self.u64_block(min(n * 9 // 4 + 64, _DRAW_CELLS)) & mask
            hits = np.flatnonzero(values < np.uint64(bound))
            if hits.size >= n:
                hits = hits[:n]
                self._count = start + int(hits[-1]) + 1
            parts.append(values[hits])
            n -= hits.size
        return np.concatenate(parts).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of {0, ..., n-1}.

        Sorts ``n`` fresh 64-bit keys; conditioned on the keys being
        distinct the resulting order is exactly uniform over all n!
        permutations.  On a key collision (probability < n^2 / 2^65) the
        whole block is redrawn, which preserves both uniformity and
        determinism of the stream.  Distinct keys sort one way only, so
        numpy's default sort returns the stable sort's permutation.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        while True:
            keys = self.u64_block(n)
            order = keys.argsort()
            ordered = keys.take(order)
            if not (ordered[1:] == ordered[:-1]).any():
                return order
