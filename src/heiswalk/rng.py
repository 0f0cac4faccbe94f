"""Deterministic random streams.

Two constructions, both counter-based so results depend only on the
(seed, index) pair and never on scheduling:

* ``stream(seed, index)`` -- a numpy Generator backed by Philox keyed with
  the pair.  Monte Carlo drivers partition work into fixed-size chunks and
  give chunk i the stream (seed, i); merging chunk results in index order
  then reproduces a serial run no matter how many workers ran them.
* ``edge_uniforms(keys, seed)`` -- one uniform in [0, 1) per 64-bit key via
  a splitmix64 hash.  Used for percolation so that the uniform attached to
  an edge is a pure function of (edge identity, seed); masks at different p
  or different box radii are then monotonically coupled for free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "edge_uniforms", "split_seed"]


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for sub-stream `index` of `seed`; independent across indices."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def _key(seed: int, index: int) -> np.ndarray:
    # a uint64 array: numpy casts a list holding a key >= 2^63 through float64
    return np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)


def split_seed(seed: int, index: int) -> int:
    """Derive a child seed; children of distinct indices are independent."""
    with np.errstate(over="ignore"):
        z = np.uint64((seed & _MASK64) ^ _GOLDEN) + np.uint64(index & _MASK64)
        return int(_mix(z))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    # splitmix64 finalizer; callers silence the intended uint64 wraparound
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def edge_uniforms(keys: np.ndarray, seed: int) -> np.ndarray:
    """Uniform [0,1) per key, a pure function of (key, seed).

    `keys` is a uint64 array; distinct keys give independent-quality
    uniforms.  Same key and seed always give the same value.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    salt = np.uint64(split_seed(seed, 0))
    with np.errstate(over="ignore"):
        mixed = _mix((keys ^ salt) + np.uint64(_GOLDEN))
        mixed = _mix(mixed + np.uint64(1))
    # top 53 bits -> float64 uniform in [0, 1)
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0**-53)
