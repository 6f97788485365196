"""Seed derivation: every random stream of a run is ``rng(*key)`` or is
seeded by ``int_seed(*key)``, with a key from this table.

    key                 stream
    (s, STREAM)         the task stream of run seed s: family order, goal centres
    (s, k, INIT)        int seed m of the student stage k starts from (k = 0
                        for the first; `independent` starts a fresh one per stage)
    (m, MODEL)          the initial weights of a student seeded m
    (s, k, COLLECT, i)  int seed c of stage k's teacher episodes of stream task
                        i; episode e of them is episode c + e
    (s, k, EVAL, i)     int seed v of stage k's evaluation episodes of stream
                        task i; episode e of them is episode v + e
    (b,)                the start state and goal of episode b
    (b, NOISE)          the teacher action noise of episode b
    (s, k, TRAIN)       stage k's batch order and contrastive samples
    (s, k, EXPAND)      int seed x of stage k's expert expansion
    (x, EXPERTS)        which experts the new ones copy, and their noise
    (s, k, SELECT, j)   int seed r of stage k's replay selection for its task j
    (r,)                the `random` replay selection seeded r
    (s, k, FISHER)      the batches of EWC's Fisher estimate after stage k

Two rules keep the streams apart:
- No key holds the strategy, so strategies run at one seed face the same
  tasks, demonstrations, start states and evaluation episodes.
- `SeedSequence` pads a key with zeros to four words, so keys that differ
  only by trailing zeros, such as (3, 5) and (3, 5, 0), are one stream.
  Every tag is therefore nonzero.
"""
from __future__ import annotations

import numpy as np

COLLECT, TRAIN, SELECT, EXPAND, EVAL, INIT, FISHER = 1, 2, 3, 4, 5, 6, 7
STREAM, NOISE, EXPERTS, MODEL = 0x57, 0xA0, 0xE, 0xC0


def rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def int_seed(*key) -> int:
    """A 31-bit seed, so that episode seeds counted up from it stay below
    2**32, where the benchmark's probe episodes start."""
    return int(np.random.SeedSequence(key).generate_state(1)[0] & 0x7FFFFFFF)
