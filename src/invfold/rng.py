"""Deterministic random streams on a counter-based bit generator.

Every stochastic component of the package (weight init, dropout masks,
coordinate noise, data shuffling, synthetic fixtures) draws from a named
child stream derived from one seed, so whole runs replay bit-identically
and adding a consumer never perturbs the draws of another.

The bit source is Philox (4x64, counter-based); stream keys are derived
from ``blake2b(generator:seed:name)``. Gaussians come from Box-Muller on
the raw uniform stream rather than the ziggurat, so the exact values are
reproducible from the generator name alone.

Philox is counter-based: the 64-bit draw number m of a stream is one
block of the key and the counter m // 4, so any stretch of a stream's
draws can be made without the draws before it. `keep_mask_at` uses this
to draw rows of a keep mask at an offset, as the receiver blocks of
`autodiff.edge_mlp` do, each on its own thread, with the bits of the
whole mask drawn at once.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

GENERATOR_NAME = "philox4x64"


class RandomStream:
    """A named, seedable stream of uniforms and Gaussians."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        digest = hashlib.blake2b(
            f"{GENERATOR_NAME}:{self.seed}:{name}".encode(), digest_size=16
        ).digest()
        self._key = np.frombuffer(digest, dtype=np.uint64)
        self._bits = np.random.Philox(key=self._key)

    def child(self, name: str) -> "RandomStream":
        """Derive an independent stream; same (seed, path) -> same stream."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    def _raw(self, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.uint64)
        return np.asarray(self._bits.random_raw(count), dtype=np.uint64)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniforms in [0, 1) with 53-bit resolution."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(count) >> np.uint64(11)) * 2.0**-53
        return u.reshape(shape) if shape else u[0]

    def uniform_open(self, count: int) -> np.ndarray:
        """Uniforms in (0, 1]; safe as a log argument."""
        raw = self._raw(count) >> np.uint64(11)
        return (raw.astype(np.float64) + 1.0) * 2.0**-53

    def gaussian(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = (count + 1) // 2
        u1 = self.uniform_open(pairs)
        u2 = self.uniform(pairs) if pairs else np.empty(0)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * np.asarray(u2, dtype=np.float64)
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        z = z[:count]
        return z.reshape(shape) if shape else z[0]

    def keep_mask(self, shape, rate: float) -> np.ndarray:
        """Boolean keep-mask equivalent to uniform(shape) >= rate, for a
        rate in [0, 1)."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return _keep(self._raw(count), rate).reshape(shape)

    def keep_mask_at(self, shape, rate: float, offset: int) -> np.ndarray:
        """Entries offset, offset + 1, ... of the mask that keep_mask
        returns as the stream's first draw, in the given shape. Neither
        reads nor moves the stream's own position, so calls may run on
        several threads at once."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        skip = offset % 4  # each counter value makes four draws
        bits = np.random.Philox(key=self._key, counter=offset // 4)
        raw = np.asarray(bits.random_raw(skip + count), dtype=np.uint64)[skip:]
        return _keep(raw, rate).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform((n,)), kind="stable")

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high); floor of scaled uniforms."""
        u = self.uniform(shape if shape else (1,))
        vals = (low + np.floor(u * (high - low))).astype(np.int64)
        vals = np.minimum(vals, high - 1)
        return vals.reshape(shape) if shape else int(vals[0])


def _keep(raw: np.ndarray, rate: float) -> np.ndarray:
    """raw >> 11 >= rate * 2**53 as one comparison: x >> 11 >= t exactly
    when x >= t << 11, which stays below 2**64 for a rate below 1."""
    return raw >= np.uint64(int(rate * 2.0**53) << 11)
