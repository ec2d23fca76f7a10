"""Deterministic hashing and random-stream helpers shared across the package.

Every stochastic quantity in the simulated cloud substrate is derived from a
*stable* hash of string parts, so that two processes constructing the same
simulation (same seed) observe the identical world.  Python's builtin
``hash`` is salted per-process and must not be used for this purpose.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

_MAX64 = float(2**64)


def stable_hash(*parts: object) -> int:
    """Return a deterministic 64-bit hash of the given parts.

    Parts are converted with ``str`` and joined with an unlikely separator;
    the digest is stable across processes and Python versions.
    """
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=8).digest()
    return struct.unpack(">Q", digest)[0]


def stable_uniform(*parts: object) -> float:
    """Deterministic uniform sample in ``[0, 1)`` keyed by the parts."""
    return stable_hash(*parts) / _MAX64


def stable_range(low: float, high: float, *parts: object) -> float:
    """Deterministic uniform sample in ``[low, high)`` keyed by the parts."""
    return low + (high - low) * stable_uniform(*parts)


def stable_choice(options: Iterable, *parts: object):
    """Deterministically pick one element of ``options`` keyed by the parts."""
    seq = list(options)
    if not seq:
        raise ValueError("cannot choose from an empty sequence")
    return seq[stable_hash(*parts) % len(seq)]


def stable_rng(*parts: object) -> np.random.Generator:
    """Return a numpy Generator seeded deterministically from the parts."""
    return np.random.default_rng(stable_hash(*parts))


def clip01(value: float) -> float:
    """Clamp a float into the closed unit interval."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value
