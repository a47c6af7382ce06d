"""The RCPN register-access model used to capture data hazards.

The paper (Section 3.1) models registers at three levels:

* :class:`RegisterFile` — the actual data storage plus, per register, a
  pointer to the instruction (RegRef) that has reserved the register for
  writing;
* :class:`Register` — an index into a register file; several ``Register``
  objects may point at the same storage to model overlapping registers
  (register banks, windows);
* :class:`RegRef` — a per-dynamic-instruction reference with an internal
  value, standing in for the pipeline latch that carries the operand in real
  hardware.

Data hazards are expressed by pairing the Boolean interfaces
(``can_read``, ``can_read(state)``, ``can_write``) in arc guards with the
corresponding effectful interfaces (``read``, ``read(state)``,
``reserve_write``, ``writeback``) in transitions.  :class:`Const` provides
the same interface for immediate operands so operation-class code handles
registers and constants uniformly.
"""

from __future__ import annotations

from repro.core.exceptions import HazardProtocolError


class Operand:
    """Common interface of every operand bound to an operation-class symbol."""

    def can_read(self, state=None):
        raise NotImplementedError

    def read(self, state=None):
        raise NotImplementedError

    def can_write(self):
        raise NotImplementedError

    def reserve_write(self):
        raise NotImplementedError

    def writeback(self):
        raise NotImplementedError

    def release(self):
        """Drop any reservation this operand holds (squash support)."""

    @property
    def value(self):
        raise NotImplementedError


class RegisterFile:
    """Backing storage for a set of registers plus their writer pointers.

    ``data`` and ``writers`` are created once and only ever mutated in
    place (:meth:`reset` included), so code may bind either list once.
    """

    def __init__(self, name, size, initial=0):
        if size <= 0:
            raise ValueError("register file size must be positive")
        self.name = name
        self.size = size
        self.initial = initial
        self.data = [initial] * size
        self.writers = [None] * size

    def reset(self):
        """Every register back to the initial value, no pending writer."""
        self.data[:] = [self.initial] * self.size
        self.writers[:] = [None] * self.size

    def register(self, index, name=None):
        """Create a :class:`Register` view of slot ``index``."""
        return Register(self, index, name=name)

    def registers(self):
        """Create one Register view per slot."""
        return [self.register(i) for i in range(self.size)]

    def __repr__(self):
        return "<RegisterFile %s size=%d>" % (self.name, self.size)


class Register:
    """A named view of one storage slot of a register file.

    Two ``Register`` objects with the same ``(register_file, index)`` pair
    overlap: writing through one is observed through the other, and a write
    reservation taken through one blocks reads through the other.  This is
    the paper's mechanism for overlapping register banks.
    """

    __slots__ = ("regfile", "index", "name")

    def __init__(self, regfile, index, name=None):
        if not 0 <= index < regfile.size:
            raise ValueError(
                "register index %d outside register file %r of size %d"
                % (index, regfile.name, regfile.size)
            )
        self.regfile = regfile
        self.index = index
        self.name = name or "%s[%d]" % (regfile.name, index)

    @property
    def value(self):
        return self.regfile.data[self.index]

    @value.setter
    def value(self, new_value):
        self.regfile.data[self.index] = new_value

    @property
    def writer(self):
        """The RegRef currently registered as the pending writer, if any."""
        return self.regfile.writers[self.index]

    @writer.setter
    def writer(self, regref):
        self.regfile.writers[self.index] = regref

    def overlaps(self, other):
        return self.regfile is other.regfile and self.index == other.index

    def __repr__(self):
        return "<Register %s>" % self.name


class RegRef(Operand):
    """A per-instruction reference to a register (paper's "RegRef").

    The reference carries an internal value (the pipeline latch holding the
    operand), a pointer back to the token that owns it and implements the
    full hazard-protocol interface.
    """

    __slots__ = ("register", "token", "_value", "_has_value", "_reserved")

    def __init__(self, register, token=None):
        self.register = register
        self.token = token
        self._value = None
        self._has_value = False
        self._reserved = False

    # -- read side -------------------------------------------------------
    def can_read(self, state=None):
        """Whether the register value (or a forwarded value) is available.

        Without ``state``: true if nobody (other than this RegRef itself)
        holds a pending write reservation.  With ``state``: true if the
        pending writer's instruction currently resides in the pipeline state
        (place) named ``state`` — the forwarding/bypass condition.
        """
        writer = self.register.writer
        if state is None:
            return writer is None or writer is self
        if writer is None or writer is self:
            return False
        return _writer_in_state(writer, state)

    def read(self, state=None):
        """Latch the operand value into this RegRef's internal storage.

        Without ``state`` the architectural register value is read; with
        ``state`` the pending writer's internal value is forwarded.  Returns
        the value read.

        Reading only latches: it deliberately does *not* mark the RegRef as
        having produced a value (:attr:`has_value`).  A flag-setting ALU
        instruction reads the previous flags through the same RegRef it
        will later write; were the latch to count as production, a
        same-cycle younger reader (possible under multi-issue) would see
        ``writer.has_value`` and forward the *stale* operand as if it were
        the writer's result.  Only the :attr:`value` setter — an actual
        result — makes the reference forwardable.
        """
        if state is None:
            if not self.can_read():
                raise HazardProtocolError(
                    "read() of %s while a write is pending; guard the arc with can_read()"
                    % self.register.name
                )
            self._value = self.register.value
        else:
            writer = self.register.writer
            if writer is None or writer is self or not _writer_in_state(writer, state):
                raise HazardProtocolError(
                    "read(%r) of %s but its writer is not in that state; "
                    "guard the arc with can_read(%r)" % (state, self.register.name, state)
                )
            self._value = writer.internal_value
        return self._value

    # -- write side ------------------------------------------------------
    def can_write(self):
        """True if the register can be reserved for writing (no pending writer)."""
        writer = self.register.writer
        return writer is None or writer is self

    def reserve_write(self):
        """Register this RegRef (and its instruction) as the pending writer."""
        # Field operations, not can_write() and the Register properties:
        # the generated engine's hooks call this once per result.
        register = self.register
        writers = register.regfile.writers
        writer = writers[register.index]
        if writer is not None and writer is not self:
            raise HazardProtocolError(
                "reserve_write() of %s while another write is pending; "
                "guard the arc with can_write()" % register.name
            )
        writers[register.index] = self
        self._reserved = True

    def writeback(self):
        """Commit the internal value to the register and clear the writer."""
        register = self.register
        if not self._has_value:
            raise HazardProtocolError(
                "writeback() of %s before a value was produced" % register.name
            )
        regfile = register.regfile
        regfile.data[register.index] = self._value
        if regfile.writers[register.index] is self:
            regfile.writers[register.index] = None
        self._reserved = False

    def release(self):
        """Drop the write reservation without committing (squashed instruction)."""
        if self.register.writer is self:
            self.register.writer = None
        self._reserved = False

    # -- value access ----------------------------------------------------
    @property
    def value(self):
        """The internal (latched or computed) value of this reference."""
        return self._value

    @value.setter
    def value(self, new_value):
        self._value = new_value
        self._has_value = True

    @property
    def internal_value(self):
        return self._value

    @property
    def has_value(self):
        """True once the owning instruction *produced* a value.

        This is the bypass network's forwardability condition: latching an
        operand with :meth:`read` does not count (see there), only the
        :attr:`value` setter does.
        """
        return self._has_value

    @property
    def reserved(self):
        return self._reserved

    def __repr__(self):
        return "<RegRef %s value=%r reserved=%r>" % (self.register.name, self._value, self._reserved)


class Const(Operand):
    """An immediate operand exposing the RegRef interface.

    ``can_read`` is always true, ``read`` returns the constant, the write
    interfaces succeed but do nothing — exactly the "proper implementation"
    the paper prescribes so that symbols can be bound to either registers or
    constants without changing the sub-net.
    """

    __slots__ = ("_value",)

    #: No backing register: the forwarding helpers of
    #: :mod:`repro.describe.substrate` treat a constant as always ready.
    register = None

    def __init__(self, value):
        self._value = value

    def can_read(self, state=None):
        return state is None

    def read(self, state=None):
        return self._value

    def can_write(self):
        return True

    def reserve_write(self):
        pass

    def writeback(self):
        pass

    @property
    def value(self):
        return self._value

    @property
    def has_value(self):
        """Constants always carry their value."""
        return True

    def __repr__(self):
        return "<Const %r>" % (self._value,)


def place_in_state(place, state):
    """True if ``place`` is pipeline state ``state``.

    ``state`` may be a place name, a stage name or a Place object; a place
    is in a named state when its own name or its stage's name matches.
    """
    if hasattr(state, "name"):
        return place is state or place.name == state.name or place.stage.name == state.name
    return place.name == state or place.stage.name == state


def _writer_in_state(writer, state):
    """True if the writer RegRef's owning token resides in pipeline state ``state``."""
    token = writer.token
    if token is None or token.place is None:
        return False
    return place_in_state(token.place, state)
