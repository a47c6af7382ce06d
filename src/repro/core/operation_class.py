"""Operation classes: groups of instructions sharing a pipeline path.

"Usually in microprocessors, the instructions that flow through a similar
pipeline path have similar binary format as well. [...] Therefore, a single
decoding scheme and behavior description can be used for such group of
instructions which we refer to as an Operation Class." (paper Section 3)

An operation class declares *symbols* — named operands that are bound at
decode time to a :class:`~repro.core.operands.RegRef`,
:class:`~repro.core.operands.Const` or a plain value — and a *binder* that
performs this binding for a concrete decoded instruction.
"""

from __future__ import annotations

from enum import Enum

from repro.core.exceptions import ModelError
from repro.core.token import check_symbols


class SymbolKind(Enum):
    """What a symbol of an operation class may refer to (paper Section 3)."""

    REGISTER = "register"      # bound to a RegRef
    CONSTANT = "constant"      # bound to a Const
    REGISTER_OR_CONSTANT = "register_or_constant"
    MICRO_OPERATION = "micro_operation"  # bound to a callable / opcode function
    VALUE = "value"            # bound to a plain Python value


class OperationClass:
    """Declaration of one operation class.

    ``symbols`` maps symbol names to :class:`SymbolKind`.  ``binder`` is a
    callable ``binder(instr, context) -> dict`` mapping symbol names to
    operand objects for a concrete decoded instruction; ``context`` is the
    :class:`DecodeContext` giving access to register objects and units.
    Symbols become attributes of the decoded tokens, so a symbol named like
    a token attribute (``pc``, ``type``, ``seq`` ...) is a :class:`ModelError`.
    """

    def __init__(self, name, symbols=None, binder=None, description=""):
        self.name = name
        self.symbols = dict(symbols or {})
        check_symbols(self.symbols, name)
        self.binder = binder
        self.description = description

    def bind(self, instr, context):
        """Bind this class's symbols for ``instr`` and validate the result."""
        if self.binder is None:
            raise ModelError("operation class %r has no binder" % self.name)
        operands = self.binder(instr, context)
        missing = set(self.symbols) - set(operands)
        if missing:
            raise ModelError(
                "binder of operation class %r did not bind symbols %s"
                % (self.name, ", ".join(sorted(missing)))
            )
        return operands

    def __repr__(self):
        return "<OperationClass %s symbols=%s>" % (self.name, sorted(self.symbols))


class DecodeContext:
    """Everything a binder needs to resolve symbols.

    ``registers`` maps architectural register indices (or names) to
    :class:`~repro.core.operands.Register` objects; ``units`` exposes the
    non-pipeline units (memory system, predictor, core state); ``extras``
    carries model-specific helpers.
    """

    def __init__(self, registers, units=None, extras=None):
        self.registers = registers
        self.units = units or {}
        self.extras = extras or {}

    def register(self, index):
        return self.registers[index]
