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
        """Vectorized raw draws, identical to ``n`` successive raw() calls."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        x = (np.uint64(self._key) + idx * np.uint64(_GOLDEN)) & np.uint64(_MASK)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        return x ^ (x >> np.uint64(31))

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.raw() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        return (self.raws(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

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
        """``n`` Box-Muller cosine-branch normals, two uniforms each."""
        raw = self.raws(2 * n).reshape(n, 2)
        u1 = ((raw[:, 0] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (raw[:, 1] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return mu + sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
