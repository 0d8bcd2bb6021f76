"""Seeded random-number streams, split per subsystem.

Determinism rule: every stochastic component draws from its own named stream
derived from a single root seed.  Adding a new component (or reordering
draws inside one) therefore never perturbs the randomness seen by others,
which keeps regression baselines stable.

A stream is numpy's ``default_rng(SeedSequence([seed, crc32(name)]))``.
When a batch of names is known ahead (the tenants an epoch is about to
materialize), :meth:`RngRegistry.prime` builds their streams in one
vectorized pass that replays SeedSequence's hash, and hands each ``PCG64``
its four seed words directly.  The states are bit-identical: NEP 19 keeps
SeedSequence and PCG64 streams fixed across numpy versions, and
``tests/test_rng_prime.py`` holds the twin to numpy's own path.
"""

from __future__ import annotations

import zlib
from typing import Iterable

import numpy as np

# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
#: uint32 words ``PCG64`` asks for: ``generate_state(4, np.uint64)``.
_PCG64_WORDS = 8


class RngRegistry:
    """Factory of independent, reproducible random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._generators: dict[str, np.random.Generator] = {}
        # Built by prime() and not yet asked for; stream() moves each one
        # across on first use, so _generators holds what it always held.
        self._primed: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed mixes the root seed with a CRC of the name, so
        streams are stable across runs and independent of creation order.
        """
        if name not in self._generators:
            generator = self._primed.pop(name, None)
            if generator is None:
                child_seed = np.random.SeedSequence(
                    [self.seed, zlib.crc32(name.encode("utf-8"))]
                )
                generator = np.random.default_rng(child_seed)
            self._generators[name] = generator
        return self._generators[name]

    def prime(self, names: Iterable[str]) -> None:
        """Build the streams of ``names`` ahead of their first use, as one
        batch; a name already built or primed is skipped.

        Prime only names the run will ask for: an unused primed stream
        costs its build and is never moved into the registry.  A root seed
        that is not one 32-bit entropy word primes nothing, so
        :meth:`stream` takes numpy's path (and a negative seed raises there).
        """
        if not 0 <= self.seed <= _MASK32:
            return
        built, primed = self._generators, self._primed
        fresh = [
            name for name in dict.fromkeys(names)
            if name not in built and name not in primed
        ]
        if not fresh:
            return
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_SeedWords)
        seeds = _pcg64_seeds(
            self.seed, [zlib.crc32(name.encode("utf-8")) for name in fresh]
        )
        for name, words in zip(fresh, seeds):
            primed[name] = Generator(PCG64(_SeedWords(words)))

    def __repr__(self) -> str:
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._generators)})"


class _SeedWords:
    """A primed stream's seed sequence: the words ``PCG64`` asks for,
    already hashed (numpy's ``ISeedSequence`` interface)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(
                f"primed for {len(self.words)} {self.words.dtype} words, "
                f"asked for {n_words} {np.dtype(dtype)}"
            )
        return self.words


def _pcg64_seeds(seed: int, crcs: list[int]) -> np.ndarray:
    """``SeedSequence([seed, crc]).generate_state(4, np.uint64)`` for every
    crc, one row each: numpy's hash run once over the whole batch.

    Both entropy words fit in 32 bits, so the entropy is two words, the
    rest of the 4-word pool hashes zeros, and nothing is left to mix in
    after the pool.  The hash constants advance independently of the data,
    so every row shares them.
    """
    u32 = np.uint32
    count = len(crcs)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(_XSHIFT))

    entropy = [np.full(count, seed, u32), np.array(crcs, u32)]
    entropy += [np.zeros(count, u32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    state = np.empty((count, _PCG64_WORDS), u32)
    for word in range(_PCG64_WORDS):
        value = pool[word % _POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state[:, word] = value ^ (value >> u32(_XSHIFT))
    # As numpy does: little-endian uint32 pairs, read as uint64.
    return state.astype("<u4").view("<u8").astype(np.uint64)
