"""Counter-based random draws.

Every stochastic quantity in the package is derived from a (seed, index)
pair through a fresh Philox generator, so a draw is a pure function of its
key and never depends on evaluation order or worker count. `gauss` looks up
`generator` on every call, so a test can count draws by wrapping it.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def generator(seed: int, index: int) -> np.random.Generator:
    """Fresh generator keyed on (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gauss(seed: int, index: int, shape) -> np.ndarray:
    """Standard-normal array, a pure function of (seed, index, shape)."""
    return generator(seed, index).standard_normal(size=shape, dtype=np.float64)
