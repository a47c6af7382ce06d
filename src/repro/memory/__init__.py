"""Memory-system substrate: flat memory, caches, hierarchies and predictors.

RCPN transitions "directly reference non-pipeline units such as branch
predictor, memory, cache" (paper Section 3); this package provides those
units.  Every component reports an access latency in cycles so that the
cycle-accurate models can turn data-dependent delays into token delays.
"""

from repro.memory.main_memory import MainMemory
from repro.memory.cache import Cache, CacheConfig, CacheStatistics
from repro.memory.memory_system import MemorySystem, MemorySystemConfig
from repro.memory.branch_predictor import (
    BranchPredictor,
    BranchTargetBuffer,
    StaticNotTakenPredictor,
)

__all__ = [
    "MainMemory",
    "Cache",
    "CacheConfig",
    "CacheStatistics",
    "MemorySystem",
    "MemorySystemConfig",
    "BranchPredictor",
    "BranchTargetBuffer",
    "StaticNotTakenPredictor",
]
