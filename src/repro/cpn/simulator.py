"""Occurrence-rule simulator for Colored Petri Nets.

This is the generic, *slow* way of executing a Petri-net model: every step
searches all transitions for enabled bindings (interleaving semantics).  The
paper's point is that RCPN structure makes this search unnecessary.
"""

from __future__ import annotations

import random


class CPNSimulator:
    """Interleaving-semantics simulator with a deterministic or random policy."""

    def __init__(self, net, seed=0):
        self.net = net
        self.rng = random.Random(seed)
        self.steps = 0
        self.trace = []

    def step(self, record_trace=False):
        """Fire one enabled transition; returns False when none is enabled."""
        enabled = self.net.enabled_transitions()
        if not enabled:
            return False
        transition = self.rng.choice(enabled)
        binding = self.rng.choice(self.net.bindings(transition))
        self.net.fire(transition, binding)
        self.steps += 1
        if record_trace:
            self.trace.append((transition.name, dict(binding)))
        return True

    def run(self, max_steps=10_000, record_trace=False):
        """Fire transitions until quiescence or ``max_steps``."""
        while self.steps < max_steps:
            if not self.step(record_trace=record_trace):
                break
        return self.steps
