"""Statistics collected by the cycle-accurate simulation engine."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class SimulationStatistics:
    """Counters a cycle-accurate simulator reports after a run.

    ``cycles`` and ``instructions`` give CPI; ``transition_firings`` and the
    stall/squash counters support micro-architectural analysis; wall-clock
    fields are filled in by the engine so simulation throughput
    (cycles per host second — the paper's Figure 10 metric) can be computed.
    """

    cycles: int = 0
    instructions: int = 0
    retired_by_class: Counter = field(default_factory=Counter)
    transition_firings: Counter = field(default_factory=Counter)
    stalls: int = 0
    squashed: int = 0
    generated_tokens: int = 0
    wall_time_seconds: float = 0.0
    finished: bool = False
    finish_reason: str = ""

    @property
    def cpi(self):
        """Cycles per instruction."""
        if self.instructions == 0:
            return float("inf")
        return self.cycles / self.instructions

    @property
    def cycles_per_second(self):
        """Simulated cycles per host second (Figure 10's metric)."""
        if self.wall_time_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_time_seconds

    @property
    def instructions_per_second(self):
        if self.wall_time_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_time_seconds

    def summary(self):
        """A plain dictionary convenient for reports and assertions."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi": self.cpi if self.instructions else None,
            "stalls": self.stalls,
            "squashed": self.squashed,
            "wall_time_seconds": self.wall_time_seconds,
            "cycles_per_second": self.cycles_per_second,
            "finished": self.finished,
            "finish_reason": self.finish_reason,
        }
