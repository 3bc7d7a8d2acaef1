"""Deterministic seed derivation.

Every random draw in the workbench flows from a 64-bit root seed through
`derive`, a splitmix64-based mixer over (seed, *parts). Parts may be ints
(system index, trial index, record index) or short strings (stage tags such
as "graph" or "noise"). String parts are folded in via blake2b so the
derivation is stable across processes and platforms, unlike ``hash()``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _part_to_int(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
    return part & _MASK


# String parts are a small set of stage tags and node names, each folded in
# thousands of times per unit, so their blake2b values are memoised.
_string_part = functools.lru_cache(maxsize=4096)(_part_to_int)


def derive(seed: int, *parts: int | str) -> int:
    """Mix a root seed with identifying parts into a new 64-bit seed."""
    state = seed & _MASK
    for part in parts:
        value = _string_part(part) if isinstance(part, str) else part & _MASK
        state = _splitmix64(state ^ value)
    return state


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def derive_array(seed, *parts) -> np.ndarray:
    """`derive` over integer arrays broadcast together: each element equals
    ``derive(seed, *parts)`` at its position. `seed` is a 64-bit seed or an
    array of them."""
    state = np.atleast_1d(np.asarray(seed, dtype=np.uint64))
    for part in parts:
        state = _splitmix64_array(state ^ np.asarray(part, dtype=np.uint64))
    return state


def rng_for(seed: int, *parts: int | str) -> np.random.Generator:
    """Generator seeded by `derive(seed, *parts)`."""
    return np.random.default_rng(derive(seed, *parts))
