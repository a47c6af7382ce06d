"""Branch predictors used by the processor models.

StrongARM predicts branches statically (not-taken); XScale adds a small
bimodal branch target buffer.  Both are exposed through the same interface
so RCPN transitions can reference either.
"""

from __future__ import annotations


class BranchPredictor:
    """Interface: predict a branch at ``address`` and learn the outcome."""

    def predict(self, address):
        """Return True when the branch is predicted taken."""
        raise NotImplementedError

    def update(self, address, taken):
        """Record the resolved outcome of the branch at ``address``."""
        raise NotImplementedError

    @property
    def statistics(self):
        return {"predictions": self.predictions, "mispredictions": self.mispredictions}

    def reset(self):
        """Forget learned state and statistics (run-to-run reproducibility)."""
        self.predictions = 0
        self.mispredictions = 0

    def record(self, address, taken):
        """Predict, learn, and return True if the prediction was correct."""
        prediction = self.predict(address)
        self.update(address, taken)
        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        return correct


class StaticNotTakenPredictor(BranchPredictor):
    """Always predicts not-taken (the StrongARM policy)."""

    def __init__(self):
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, address):
        return False

    def update(self, address, taken):
        pass


class BranchTargetBuffer:
    """A branch target buffer with two-bit direction counters.

    This approximates the XScale BTB.  Entries are tagged with the full
    branch address (so instruction aliasing can never redirect a non-branch),
    hold the branch target and a two-bit saturating direction counter.
    """

    def __init__(self, entries=128, initial_counter=2):
        self.capacity = entries
        self.initial_counter = initial_counter
        self.entries = {}
        self.lookups = 0
        self.hits = 0
        self.predictions = 0
        self.mispredictions = 0

    def reset(self):
        """Forget learned targets, counters and statistics."""
        self.entries = {}
        self.lookups = 0
        self.hits = 0
        self.predictions = 0
        self.mispredictions = 0

    def lookup(self, address):
        """Return ``(hit, predicted_taken, predicted_target)`` for ``address``."""
        self.lookups += 1
        entry = self.entries.get(address)
        if entry is None:
            return False, False, None
        self.hits += 1
        target, counter = entry
        return True, counter >= 2, target

    def update(self, address, taken, target):
        """Record the resolved direction and target of the branch at ``address``."""
        entry = self.entries.get(address)
        if entry is None:
            if len(self.entries) >= self.capacity:
                # Simple FIFO-ish replacement: drop an arbitrary (oldest) entry.
                self.entries.pop(next(iter(self.entries)))
            counter = self.initial_counter
        else:
            counter = entry[1]
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self.entries[address] = (target, counter)

    def record_outcome(self, predicted_taken, taken):
        """Track prediction accuracy statistics."""
        self.predictions += 1
        if predicted_taken != taken:
            self.mispredictions += 1

    @property
    def statistics(self):
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "predictions": self.predictions,
            "mispredictions": self.mispredictions,
        }
