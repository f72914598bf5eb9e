"""Seed sequences in bulk: iteration seeds and PCG64 states, many rows per call.

Iteration i of a Monte Carlo stream with master seed m and key k draws from
numpy's ``default_rng`` seeded with the two uint32 words that a
``SeedSequence`` of entropy [m, *k, i] generates, read as one 64-bit
integer, high word first. numpy hashes one entropy list per Python call,
twice per iteration (the second time inside ``default_rng``). This module
runs the same pool mixing and ``generate_state`` (``hashmix`` and ``mix``
in numpy's ``bit_generator.pyx``, after O'Neill's ``seed_seq_fe``) as uint32
array operations over a block of rows, bit for bit, and hands the resulting
PCG64 state words to the generator directly, so numpy's own hash never runs.

An integer enters the entropy as its 32-bit words, least significant first
(0 as one zero word). Entropy shorter than the 4-word pool is padded with
zeros, so only words past the pool depend on a row's length.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def require_seed(value: int) -> int:
    """``value`` as a seed, a non-negative integer, else a ValueError."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seeds must be non-negative integers, got {value}")
    return value


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first."""
    value = require_seed(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _constants(init: int, mult: int) -> Iterable[tuple[np.uint32, np.uint32]]:
    """The (xor, multiplier) pair of each successive hash: the running hash
    constant, and that constant times ``mult``, which replaces it."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hashmix(values: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_MULT_L * x - _MIX_MULT_R * y
    return values ^ (values >> _XSHIFT)


def _generate_state(entropy: np.ndarray, lengths: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` uint32 words ``generate_state`` gives for the
    ``SeedSequence`` of every row: (rows, n_words) from a (words, rows)
    uint32 entropy array whose row r is the first ``lengths[r]`` words of its
    column (zeros after)."""
    constants = _constants(_INIT_A, _MULT_A)
    padding = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < len(entropy) else padding, constants)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for src in range(_POOL_SIZE, len(entropy)):
        longer = lengths > src
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(entropy[src], constants))
            pool[dst] = np.where(longer, mixed, pool[dst])
    constants = _constants(_INIT_B, _MULT_B)
    return np.stack([_hashmix(pool[i % _POOL_SIZE], constants) for i in range(n_words)],
                    axis=-1)


def _hash(streams: Sequence[tuple[Sequence[int], np.ndarray]], n_words: int) -> np.ndarray:
    """``_generate_state`` of the rows ``[*prefix, tail]``, for every uint64
    ``tail`` of every (prefix, tails) stream, in order."""
    heads = [[w for v in prefix for w in _words(v)] for prefix, _ in streams]
    counts = [len(tails) for _, tails in streams]
    tails = np.concatenate([np.asarray(t, dtype=np.uint64) for _, t in streams])
    width = max(map(len, heads), default=0) + 2
    padded = np.zeros((len(heads), width), dtype=np.uint32)
    for row, words in zip(padded, heads):
        row[:len(words)] = words
    entropy = np.repeat(padded.T, counts, axis=1)
    at = np.repeat([len(words) for words in heads], counts)  # each tail's first word
    rows = np.arange(len(tails))
    high = tails >> np.uint64(32)
    entropy[at, rows] = tails & np.uint64(_MASK32)
    entropy[at + 1, rows] = high
    return _generate_state(entropy, at + 1 + (high > 0), n_words)


def derive_seeds(streams: Iterable[tuple[Sequence[int], int, int]]) -> np.ndarray:
    """The seed of every row ``[*prefix, i]``, i in range(start, stop), of
    every (prefix, start, stop) stream, in order, as uint64: the two uint32
    words the row's ``SeedSequence`` generates, high word first."""
    words = _hash([(prefix, np.arange(start, stop, dtype=np.uint64))
                   for prefix, start, stop in streams], 2).astype(np.uint64)
    return words[:, 0] << np.uint64(32) | words[:, 1]


def generator_states(seeds: np.ndarray | Sequence[int]) -> np.ndarray:
    """(rows, 4) uint64 PCG64 state words that ``default_rng`` derives
    from each seed: a uint64 array, or non-negative integers of any size."""
    if isinstance(seeds, np.ndarray):
        streams = [((), seeds)]
    else:  # all words but the last form the prefix; each is one word
        streams = [(low, [top]) for *low, top in map(_words, seeds)]
    return _hash(streams, 8).astype("<u4").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """Hands PCG64 one row of ``generator_states`` as its seeding words."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly four uint64 words, once.
        return self.state


def state_generator(state: np.ndarray) -> Generator:
    """The generator ``default_rng`` returns for a seed, from its state words."""
    return Generator(PCG64(_State(state)))
