"""Three-valued (0/1/X) circuit state and vector types.

Flip-flop state between simulations lives in :class:`GoodState`: plain
scalars (0/1/X per flip-flop), so it can be stored, copied and restored
cheaply (the paper's §IV modification).  Every simulation of the good
machine runs in the fault simulator's population pass
(:mod:`repro.faults.simulator`), in the fault-free top slot of each
candidate's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..circuit.gates import X

Vector = Sequence[int]  # one scalar 0/1/X per primary input


@dataclass
class GoodState:
    """Fault-free circuit state: one scalar 0/1/X per flip-flop."""

    ff_values: List[int]

    @classmethod
    def unknown(cls, num_ffs: int) -> "GoodState":
        """The power-up state: every flip-flop unknown."""
        return cls([X] * num_ffs)

    def copy(self) -> "GoodState":
        """Independent copy of the state."""
        return GoodState(list(self.ff_values))

    @property
    def num_set(self) -> int:
        """Number of flip-flops holding a definite value."""
        return sum(1 for v in self.ff_values if v != X)

    @property
    def all_set(self) -> bool:
        """True when every flip-flop is initialized."""
        return self.num_set == len(self.ff_values)
