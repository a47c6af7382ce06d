"""Tokens of the RCPN model.

The paper distinguishes two token groups (Section 3):

* *reservation tokens* carry no data; their presence marks a pipeline stage
  as occupied (used, e.g., to stall the fetch unit while a branch resolves);
* *instruction tokens* carry the decoded instruction and its operands; one
  instruction token represents one dynamic instruction flowing through the
  pipeline.
"""

from __future__ import annotations

import itertools

from repro.core.exceptions import ModelError
from repro.core.operands import RegRef

#: Numbers reservation tokens and hand-built instruction tokens; the decoder
#: numbers the instruction tokens it makes.
_sequence = itertools.count()


class Token:
    """Base token: a delay-carrying object residing in a place."""

    __slots__ = ("ready_cycle", "delay_override", "place", "seq")

    is_instruction = False

    def __init__(self):
        self.ready_cycle = 0
        self.delay_override = None
        self.place = None
        self.seq = next(_sequence)

    @property
    def delay(self):
        """Pending token-delay override (paper: 'delay of a token')."""
        return self.delay_override

    @delay.setter
    def delay(self, value):
        self.delay_override = value

    def __repr__(self):
        return "<%s #%d in %s>" % (
            type(self).__name__,
            self.seq,
            self.place.name if self.place is not None else "limbo",
        )


class ReservationToken(Token):
    """A dataless token marking its place's pipeline stage as occupied.

    ``producer_seq`` records the sequence number of the instruction token
    whose transition deposited the reservation (``None`` for generator
    transitions).  It is the provenance the program-order squash
    (:meth:`~repro.core.engine.SimulationEngine.flush_younger`) needs: when
    a deep redirect squashes a wrong-path branch that already parked a
    fetch-stall reservation, the reservation must be withdrawn with it or
    the fetch guard it disables would block forever.
    """

    __slots__ = ("tag", "producer_seq")

    def __init__(self, tag=None, producer_seq=None):
        super().__init__()
        self.tag = tag
        self.producer_seq = producer_seq


class InstructionToken(Token):
    """A decoded dynamic instruction and its bound operands.

    ``operands`` maps the symbols of the instruction's operation class to
    operand objects (:class:`~repro.core.operands.RegRef`,
    :class:`~repro.core.operands.Const`, plain Python values).  Symbols are
    also exposed as attributes so model code can be written exactly like the
    paper's examples: ``t.s1.can_read()``, ``t.d.reserve_write()`` ...

    Tokens the decoder makes are instances of a :func:`token_class`
    subclass holding each operand in its own slot.  A token built directly
    from this class keeps its operands in a dictionary and resolves symbols
    through :meth:`__getattr__`.  ``regrefs`` is the token's RegRefs, with
    register lists flattened, in symbol order.
    """

    __slots__ = ("instr", "opclass", "pc", "operands", "regrefs", "annotations", "squashed")

    is_instruction = True

    def __init__(self, instr, opclass, pc=0, operands=None):
        super().__init__()
        self.instr = instr
        self.opclass = opclass
        self.pc = pc
        self.operands = dict(operands or {})
        self.regrefs = _flatten_regrefs(self.operands.values())
        self.annotations = {}
        self.squashed = False

    def __getattr__(self, name):
        # Only called when normal attribute lookup fails: resolve operation
        # class symbols (t.s1, t.d, ...) from the operand binding.
        try:
            operands = object.__getattribute__(self, "operands")
        except AttributeError:
            raise AttributeError(name) from None
        if name in operands:
            return operands[name]
        raise AttributeError(
            "%r is neither a token attribute nor a symbol of operation class %r"
            % (name, object.__getattribute__(self, "opclass"))
        )

    @property
    def type(self):
        """The operation class name (paper notation: ``t.type``)."""
        return self.opclass

    def symbol(self, name):
        """Explicit symbol lookup (same as attribute access)."""
        return self.operands[name]

    def register_operands(self):
        """All operands that participate in the register-hazard protocol.

        Operands bound to lists (block-transfer register lists) are
        flattened so every RegRef is covered by squash/release handling.
        """
        return list(self.regrefs)

    def release_reservations(self):
        """Drop any write reservations held by this token's operands.

        Called when a token is squashed (wrong-path flush) so that younger
        correct-path instructions are not blocked forever.
        """
        for operand in self.regrefs:
            operand.release()

    def __repr__(self):
        where = self.place.name if self.place is not None else "limbo"
        return "<InstructionToken #%d %s pc=%#x in %s>" % (self.seq, self.opclass, self.pc, where)


def _flatten_regrefs(operands):
    """The RegRefs among ``operands``, with lists and tuples flattened, as a tuple."""
    found = []
    for operand in operands:
        if isinstance(operand, RegRef):
            found.append(operand)
        elif isinstance(operand, (list, tuple)):
            found.extend(item for item in operand if isinstance(item, RegRef))
    return tuple(found)


#: Names a symbol may not take: it would shadow a token attribute.
_RESERVED = frozenset(dir(InstructionToken))


def check_symbols(symbols, opclass):
    """Raise :class:`ModelError` unless every symbol can be a token attribute."""
    for name in symbols:
        if not isinstance(name, str) or not name.isidentifier():
            raise ModelError(
                "operation class %r: symbol %r is not a Python identifier" % (opclass, name)
            )
        if name in _RESERVED:
            raise ModelError(
                "operation class %r: symbol %r collides with the token attribute of that name"
                % (opclass, name)
            )


def _slot_operands(self):
    return {name: object.__getattribute__(self, name) for name in type(self).__slots__}


_token_classes = {}


def token_class(symbols, opclass=None):
    """The :class:`InstructionToken` subclass with one slot per symbol.

    Memoised on the ``symbols`` tuple, so every decoded word of an operation
    class shares one class.  Symbol access is then a slot read instead of a
    failed lookup plus :meth:`InstructionToken.__getattr__`.  ``operands``
    becomes a read-only dictionary built from the slots.  The decoder's
    shape factories (:mod:`repro.core.decoder`) build its instances without
    calling the class.  ``opclass`` only names the operation class in the
    :class:`ModelError` raised for a symbol that would shadow a token
    attribute.
    """
    symbols = tuple(symbols)
    cls = _token_classes.get(symbols)
    if cls is None:
        check_symbols(symbols, opclass)
        cls = _token_classes[symbols] = type(
            "InstructionToken",
            (InstructionToken,),
            {
                "__slots__": symbols,
                "operands": property(_slot_operands),
            },
        )
    return cls
