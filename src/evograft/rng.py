"""Counter-based random streams with serializable state.

Every stream is identified by (seed, label, counter) and nothing else, so a
stream can be frozen into a checkpoint as three fields and resumed bit-exactly
in any implementation of the same construction:

    key    = splitmix(splitmix(seed) XOR fnv1a64(label))
    out_i  = splitmix_finalize(key + (i + 1) * GOLDEN)   for draw index i

where ``splitmix_finalize`` is the splitmix64 avalanche function and GOLDEN is
the 64-bit golden-ratio increment. Uniform doubles take the top 53 bits of
``out_i``; normals are Box-Muller pairs consuming exactly two uniforms each.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_INV_2_53 = 2.0 ** -53
_NORMAL_CHUNK = 1 << 14


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 bytes of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _finalize(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


class Rng:
    """One deterministic stream. Scalar and vector draws share the counter."""

    __slots__ = ("seed", "label", "counter", "_key")

    def __init__(self, seed: int, label: str = "root", counter: int = 0):
        if not label or any(ch.isspace() for ch in label):
            raise ValueError(f"rng label must be non-empty and whitespace-free: {label!r}")
        self.seed = int(seed) & _MASK
        self.label = label
        self.counter = int(counter)
        self._key = _finalize(_finalize(self.seed) ^ fnv1a64(label))

    def __repr__(self):
        return f"Rng(seed={self.seed}, label={self.label!r}, counter={self.counter})"

    def spawn(self, label: str) -> "Rng":
        """Derive an independent stream; does not consume from this one."""
        return Rng(self.seed, f"{self.label}/{label}")

    def state(self) -> tuple[int, str, int]:
        return (self.seed, self.label, self.counter)

    def raw(self) -> int:
        out = _finalize((self._key + (self.counter + 1) * _GOLDEN) & _MASK)
        self.counter += 1
        return out

    def raws(self, n: int) -> np.ndarray:
        """Vectorized raw draws, identical to ``n`` successive raw() calls,
        worked in place: uint64 arithmetic wraps as ``& _MASK`` does."""
        x = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self._key)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
        return x

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.raw() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        x = self.raws(n)
        x >>= np.uint64(11)
        return x * _INV_2_53

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return int(self.uniform() * n)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates: position i from the top down swaps with
        ``randint(i + 1)``, all the uniforms drawn in one call."""
        n = len(seq)
        if n < 2:
            return
        picks = (self.uniforms(n - 1) * np.arange(n, 1, -1)).astype(np.int64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            seq[i], seq[j] = seq[j], seq[i]

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """``n`` Box-Muller cosine-branch normals, two uniforms each, made
        ``_NORMAL_CHUNK`` at a time so every temporary stays chunk-sized."""
        out = np.empty(n)
        for start in range(0, n, _NORMAL_CHUNK):
            z = out[start:start + _NORMAL_CHUNK]
            u = self.uniforms(2 * len(z))
            # the first uniform of a pair is (k + 1) * 2**-53, exactly u + 2**-53
            np.log(np.add(u[0::2], _INV_2_53, out=z), out=z)
            z *= -2.0
            np.sqrt(z, out=z)
            z *= sigma
            z *= np.cos(2.0 * np.pi * u[1::2])
            z += mu
        return out
