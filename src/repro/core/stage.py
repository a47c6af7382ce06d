"""Pipeline stages: the storage elements instructions reside in.

A pipeline stage is "a latch, reservation station or any other storage
element in the pipeline that an instruction can reside in" (paper
Section 3).  Stages have a capacity shared by every place assigned to them
and a default delay inherited by those places.
"""

from __future__ import annotations

#: Name of the virtual final stage every instruction retires into.
END_STAGE_NAME = "end"


class PipelineStage:
    """A named storage element with a capacity and a default residence delay.

    ``capacity`` of ``None`` means unlimited (used by the virtual ``end``
    stage).  Occupancy is tracked by the engine as tokens move between the
    places assigned to the stage.
    """

    __slots__ = ("name", "capacity", "delay", "places", "is_end", "_occupancy")

    def __init__(self, name, capacity=1, delay=1):
        if capacity is not None and capacity < 1:
            raise ValueError("stage capacity must be at least 1 (or None for unlimited)")
        if delay < 0:
            raise ValueError("stage delay must be non-negative")
        self.name = name
        self.capacity = capacity
        self.delay = delay
        self.places = []
        #: True for the virtual ``end`` stage instructions retire into.
        self.is_end = name == END_STAGE_NAME
        self._occupancy = 0

    @property
    def unlimited(self):
        return self.capacity is None

    @property
    def occupancy(self):
        """Number of tokens currently stored in any place of this stage."""
        return self._occupancy

    def has_room(self, count=1):
        """True if ``count`` more tokens fit into this stage."""
        if self.unlimited:
            return True
        return self._occupancy + count <= self.capacity

    def release(self, count=1):
        self._occupancy -= count
        if self._occupancy < 0:
            raise RuntimeError("stage %r occupancy went negative" % self.name)

    def reset(self):
        self._occupancy = 0

    def __repr__(self):
        cap = "inf" if self.unlimited else str(self.capacity)
        return "<PipelineStage %s capacity=%s occupancy=%d>" % (self.name, cap, self._occupancy)
