"""Seeded random-number streams, split per subsystem.

Determinism rule: every stochastic component draws from its own named stream
derived from a single root seed.  Adding a new component (or reordering
draws inside one) therefore never perturbs the randomness seen by others,
which keeps regression baselines stable.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngRegistry:
    """Factory of independent, reproducible random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._generators: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC of the name, so
        streams are stable across runs and independent of creation order.
        """
        if name not in self._generators:
            child_seed = np.random.SeedSequence(
                [self.seed, zlib.crc32(name.encode("utf-8"))]
            )
            self._generators[name] = np.random.default_rng(child_seed)
        return self._generators[name]

    def __repr__(self) -> str:
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._generators)})"

