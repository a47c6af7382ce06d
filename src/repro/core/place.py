"""Places: the states an instruction can be in.

"A place shows the state of an instruction.  To each place a pipeline stage
is assigned. [...] Places with similar name share the capacity of their
pipeline stage.  The tokens of a place are stored in its pipeline stage."
(paper Section 3).

In this implementation every place keeps its own token list but charges its
stage's shared capacity; places in different sub-nets that are assigned to
the same stage therefore compete for that stage's slots exactly as in the
paper.
"""

from __future__ import annotations

from repro.core.exceptions import CapacityError


class Place:
    """One instruction state, bound to a pipeline stage.

    ``two_list`` places implement the master/slave (two-storage) scheme the
    paper describes for feedback places: tokens deposited during a cycle are
    buffered and only become visible at the next cycle boundary.

    ``tokens`` and ``pending`` are created once and only ever mutated in
    place: the generated engine binds both lists when it is built.
    """

    __slots__ = ("name", "stage", "subnet", "delay", "two_list", "tokens", "pending", "dispatch")

    def __init__(self, name, stage, subnet=None, delay=None, two_list=False):
        self.name = name
        self.stage = stage
        self.subnet = subnet
        self.delay = stage.delay if delay is None else delay
        self.two_list = two_list
        self.tokens = []
        self.pending = []
        # Per-place dispatch table filled in by the simulator generator:
        # operation class name -> tuple of candidate transitions in priority
        # order (the paper's sorted_transitions specialised per place).
        self.dispatch = None
        stage.places.append(self)

    @property
    def is_end(self):
        return self.stage.is_end

    def occupancy(self):
        """Tokens stored in this place (visible plus buffered)."""
        return len(self.tokens) + len(self.pending)

    def deposit(self, token, ready_cycle, force=False):
        """Store ``token`` in this place.

        Capacity must have been checked by the caller (the transition-enable
        rule); ``force`` skips the check for engine-internal use such as
        initial marking.
        """
        if not force and not self.stage.has_room():
            raise CapacityError(
                "stage %r has no room for a token entering place %r"
                % (self.stage.name, self.name)
            )
        token.ready_cycle = ready_cycle
        token.place = self
        self.stage.acquire()
        if self.two_list:
            self.pending.append(token)
        else:
            self.tokens.append(token)

    def remove(self, token):
        """Take ``token`` out of this place (it is moving to another state)."""
        if token in self.tokens:
            self.tokens.remove(token)
        elif token in self.pending:
            self.pending.remove(token)
        else:
            raise ValueError("token %r is not stored in place %r" % (token, self.name))
        token.place = None
        self.stage.release()

    def commit_pending(self):
        """Make tokens deposited last cycle visible (two-list commit)."""
        if self.pending:
            self.tokens.extend(self.pending)
            self.pending.clear()

    def take_reservation(self):
        """Remove and return one reservation token (used when an arc consumes it)."""
        for token in self.tokens:
            if not token.is_instruction:
                self.remove(token)
                return token
        for token in self.pending:
            if not token.is_instruction:
                self.remove(token)
                return token
        raise ValueError("no reservation token available in place %r" % self.name)

    def has_reservation(self):
        # Plain loops, not any() over generators: guards call this every
        # cycle a token waits on a reservation.
        for token in self.tokens:
            if not token.is_instruction:
                return True
        for token in self.pending:  # noqa: SIM110
            if not token.is_instruction:
                return True
        return False

    def clear(self):
        """Remove every token (used by flushes and engine reset)."""
        removed = self.tokens + self.pending
        for token in removed:
            token.place = None
        count = len(removed)
        self.tokens.clear()
        self.pending.clear()
        if count:
            self.stage.release(count)
        return removed

    def all_tokens(self):
        return list(self.tokens) + list(self.pending)

    def __repr__(self):
        return "<Place %s stage=%s tokens=%d pending=%d>" % (
            self.name,
            self.stage.name,
            len(self.tokens),
            len(self.pending),
        )
