"""Seeding conventions.

All randomness comes from numpy's Philox generator, a counter-based
64-bit PRNG.  Independent streams for trial i of a run with base seed s
are keyed by ``trial_seed(s, i) = splitmix64(s XOR i)``, so parallel
trials are reproducible regardless of scheduling order.  Every seed goes
through `generator` or `trial_seed`, which take any Python or numpy integer
mod 2^64 and raise ValidationError for anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import require_ints

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing step."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial: int) -> int:
    """Derived seed for trial `trial` of a run keyed by `base_seed`."""
    base_seed, trial = require_ints(base_seed=base_seed, trial=trial)
    return splitmix64((base_seed & MASK64) ^ (trial & MASK64))


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    (seed,) = require_ints(seed=seed)
    return np.random.Generator(np.random.Philox(key=seed & MASK64))
