"""Deterministic randomness policy.

A run owns a single 64-bit seed. Every consumer derives its own independent
stream with :func:`substream`, which hashes a label path into a Philox
counter block, so adding a new consumer never perturbs existing streams.
Gaussian variates are produced by inverting the normal CDF on fixed-resolution
open-interval uniforms (:func:`standard_normals`). The inverse CDF is the
standard library's ``statistics.NormalDist.inv_cdf`` (Wichura's AS241), so
numpy is the only third-party dependency and the exact byte stream for a
given seed is pinned by numpy's Philox and the CPython build.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
#: largest double below 1; only the top grid point j = 2^53 - 1 is capped
_U_MAX = 1.0 - 2.0**-53


@functools.cache
def _inv_cdf():
    from statistics import NormalDist  # deferred: it imports fractions, decimal and random
    return NormalDist().inv_cdf


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Return an independent generator for ``seed`` keyed by a label path.

    The labels (e.g. ``substream(seed, "sweep", row_index)``) are joined and
    SHA-256-hashed into the 128-bit Philox counter; the seed is the Philox key.
    Distinct label paths give counter blocks 2^128 apart in expectation, far
    beyond any draw count reachable here.
    """
    import hashlib  # deferred: importing it initialises OpenSSL
    path = "/".join(str(label) for label in labels)
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    counter = int.from_bytes(digest[:16], "little") << 64
    return np.random.Generator(np.random.Philox(key=seed & _MASK64, counter=counter))


def standard_normals(gen: np.random.Generator, shape) -> np.ndarray:
    """Draw N(0,1) variates via the inverse CDF.

    Uniforms are (j + 0.5) / 2^53 for a 53-bit integer j, rounded to double.
    For j = 2^53 - 1 that rounds to exactly 1, so uniforms are capped at the
    largest double below 1: every uniform lies strictly inside (0, 1) and
    every variate is finite.
    """
    u = (gen.integers(0, 1 << 53, size=shape).astype(np.float64) + 0.5) * 2.0**-53
    u = np.minimum(u, _U_MAX)
    return np.fromiter(map(_inv_cdf(), u.ravel().tolist()), np.float64,
                       count=u.size).reshape(u.shape)
