"""Chromosome codings for test vectors and test sequences (paper §III-A).

During *vector* generation each chromosome position maps to one primary
input — a plain binary string.  During *sequence* generation the paper
studies two codings:

* **binary** — the sequence's vectors are packed end to end into one
  binary string; the ordinary bitwise crossover/mutation operators apply;
* **nonbinary** — each of the 2^L possible vectors is one character of a
  large alphabet, so a chromosome is a string of ``seq_len`` characters.
  Crossover may only cut at vector boundaries and mutation replaces a
  whole vector with a fresh random one.

Both codings decode to the same phenotype: a list of time-frame vectors
(bit lists, one bit per PI), which is what the fault simulator consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

Chromosome = List[int]
Phenotype = List[List[int]]  # list of vectors, each a list of 0/1 per PI


@dataclass(frozen=True)
class BinaryCoding:
    """Bit-string coding: one gene per (frame, PI) pair."""

    n_pi: int
    seq_len: int = 1

    def __post_init__(self) -> None:
        if self.n_pi < 1 or self.seq_len < 1:
            raise ValueError("n_pi and seq_len must be positive")

    @property
    def length(self) -> int:
        """Chromosome length in genes (= bits)."""
        return self.n_pi * self.seq_len

    @property
    def vector_length(self) -> int:
        """Bits per time-frame vector."""
        return self.n_pi

    def random(self, rng: random.Random) -> Chromosome:
        """A fresh uniformly random chromosome."""
        return [rng.randint(0, 1) for _ in range(self.length)]

    def decode(self, chromosome: Sequence[int]) -> Phenotype:
        """Split the bit string into per-frame vectors."""
        if len(chromosome) != self.length:
            raise ValueError(
                f"chromosome length {len(chromosome)} != coding length {self.length}"
            )
        n = self.n_pi
        return [list(chromosome[i * n:(i + 1) * n]) for i in range(self.seq_len)]

    def mutate_gene(self, gene: int, rng: random.Random) -> int:
        """Point mutation: flip the bit."""
        return gene ^ 1


@dataclass(frozen=True)
class NonbinaryCoding:
    """Vector-alphabet coding: one gene per time frame.

    A gene is an integer in ``[0, 2**n_pi)`` whose bits are the PI values
    of that frame (bit *j* drives PI *j*).  The alphabet therefore has
    2^L characters as in the paper; genes are kept as ints so equality
    and replacement are cheap.
    """

    n_pi: int
    seq_len: int = 1

    def __post_init__(self) -> None:
        if self.n_pi < 1 or self.seq_len < 1:
            raise ValueError("n_pi and seq_len must be positive")

    @property
    def length(self) -> int:
        """Chromosome length in genes (= time frames)."""
        return self.seq_len

    @property
    def vector_length(self) -> int:
        """Bits per time-frame vector."""
        return self.n_pi

    def random(self, rng: random.Random) -> Chromosome:
        """A fresh uniformly random chromosome (one gene per frame)."""
        top = (1 << self.n_pi) - 1
        return [rng.randint(0, top) for _ in range(self.seq_len)]

    def decode(self, chromosome: Sequence[int]) -> Phenotype:
        """Expand each vector-character into its bit vector."""
        if len(chromosome) != self.length:
            raise ValueError(
                f"chromosome length {len(chromosome)} != coding length {self.length}"
            )
        n = self.n_pi
        return [[(gene >> j) & 1 for j in range(n)] for gene in chromosome]

    def mutate_gene(self, gene: int, rng: random.Random) -> int:
        """Point mutation: replace the whole vector with a random one."""
        return rng.randint(0, (1 << self.n_pi) - 1)


Coding = object  # structural typing: BinaryCoding | NonbinaryCoding


#: Registry used by configuration code: coding kind -> class.
CODINGS = {"binary": BinaryCoding, "nonbinary": NonbinaryCoding}


def make_coding(kind: str, n_pi: int, seq_len: int = 1) -> Coding:
    """Factory used by configuration code: ``kind`` in :data:`CODINGS`."""
    if kind not in CODINGS:
        raise ValueError(f"unknown coding kind {kind!r}")
    return CODINGS[kind](n_pi, seq_len)
