"""Deterministic randomness plumbing.

Every random draw in a simulation flows from one scenario seed through
named child streams, so two runs with the same seed produce byte-identical
transcripts. Child seeds are hash-derived; reordering unrelated draws in
one subsystem cannot disturb another. child_seed hashes the seed and each
label as type name, length and text, so no two paths hash alike: "a/b" is
not ("a", "b"), 5 is not "5", and ("a", "") is not ("a/",).
"""

from __future__ import annotations

import hashlib
import random


def child_seed(seed: int, *path: object) -> int:
    """Derive a child seed from a parent seed and a label path."""
    h = hashlib.sha256()
    for part in (seed, *path):
        text = str(part).encode()
        h.update(f"{type(part).__name__}:{len(text)}:".encode() + text)
    return int.from_bytes(h.digest()[:8], "big")


def fork(seed: int, *path: object) -> random.Random:
    """A fresh PRNG for the named subsystem, isolated from its siblings."""
    return random.Random(child_seed(seed, *path))


def as_rng(source: random.Random | int) -> random.Random:
    # Accept either an int seed or an already-forked stream.
    if isinstance(source, random.Random):
        return source
    return random.Random(source)
