"""Instruction decoding into RCPN instruction tokens, with partial evaluation.

The paper's simulators decode an instruction once, when its token is
generated, and cache decoded instructions for reuse ("the tokens are cached
for later reuse in the simulator", Section 5).  This module implements that
scheme generically:

* a *decode cache* keyed by the instruction word stores the decoded ISA
  instruction, its operation class and a *binding plan*;
* the binding plan is the partially evaluated result of the operation
  class's symbol binder: for each symbol it records whether the symbol is a
  register (and which :class:`~repro.core.operands.Register` object it
  resolves to), a constant, or a plain value;
* the plan also picks the token class (:func:`~repro.core.token.token_class`,
  one slot per symbol), so creating a token for a dynamic instance only
  instantiates fresh :class:`~repro.core.operands.RegRef` objects over the
  pre-resolved registers and writes each operand into its slot — no field
  extraction or register lookup is repeated.

The decoder also numbers the tokens it makes (``token.seq``, fetch order),
so two runs of one processor number their instructions identically.
"""

from __future__ import annotations

import itertools

from repro.core.operands import RegRef
from repro.core.token import token_class


class BindingPlan:
    """Partially evaluated operand binding for one static instruction.

    ``token_class`` is the slotted token class for the bound symbols;
    ``opclass`` names the operation class in symbol errors.
    """

    __slots__ = ("entries", "token_class")

    KIND_REGISTER = 0
    KIND_SHARED = 1  # Const or any immutable operand safe to share across instances
    KIND_REGISTER_LIST = 2  # a list of RegRefs (block transfers)

    def __init__(self, operands, opclass):
        self.token_class = token_class(operands, opclass)
        self.entries = []
        for symbol, operand in operands.items():
            if isinstance(operand, RegRef):
                self.entries.append((symbol, self.KIND_REGISTER, operand.register))
            elif isinstance(operand, (list, tuple)) and any(
                isinstance(item, RegRef) for item in operand
            ):
                registers = [
                    item.register if isinstance(item, RegRef) else item for item in operand
                ]
                self.entries.append((symbol, self.KIND_REGISTER_LIST, registers))
            else:
                self.entries.append((symbol, self.KIND_SHARED, operand))

    def instantiate(self, token):
        """Write fresh operands for one dynamic instance into ``token``'s slots."""
        regrefs = []
        for symbol, kind, payload in self.entries:
            if kind == self.KIND_REGISTER:
                operand = RegRef(payload, token)
                regrefs.append(operand)
            elif kind == self.KIND_REGISTER_LIST:
                operand = [
                    RegRef(item, token) if hasattr(item, "regfile") else item for item in payload
                ]
                regrefs.extend(item for item in operand if isinstance(item, RegRef))
            else:
                operand = payload
            setattr(token, symbol, operand)
        token.regrefs = tuple(regrefs)
        return token


class DecodedTemplate:
    """Cached decode result: ISA instruction + operation class + binding plan."""

    __slots__ = ("word", "instr", "opclass", "plan")

    def __init__(self, word, instr, opclass, plan):
        self.word = word
        self.instr = instr
        self.opclass = opclass
        self.plan = plan


class InstructionDecoder:
    """Decode instruction words into :class:`InstructionToken` objects.

    Parameters
    ----------
    net:
        The RCPN model; its registered operation classes provide the symbol
        binders.
    isa_decode:
        ``isa_decode(word) -> ISA instruction`` (e.g. :func:`repro.isa.decode`).
    classify:
        ``classify(instr) -> operation class name``; defaults to the
        instruction's ``operation_class`` attribute.
    context:
        The :class:`~repro.core.operation_class.DecodeContext` handed to
        symbol binders.
    use_cache:
        Enables the decode cache / partial evaluation (on by default; the
        ablation benchmark turns it off).
    """

    def __init__(self, net, isa_decode, context, classify=None, use_cache=True):
        self.net = net
        self.isa_decode = isa_decode
        self.context = context
        self.classify = classify or (lambda instr: instr.operation_class)
        self.use_cache = use_cache
        self._cache = {}
        self._sequence = itertools.count()
        self.hits = 0
        self.misses = 0

    def _build_template(self, word):
        instr = self.isa_decode(word)
        opclass_name = self.classify(instr)
        opclass = self.net.operation_classes[opclass_name]
        operands = opclass.bind(instr, self.context)
        return DecodedTemplate(word, instr, opclass_name, BindingPlan(operands, opclass_name))

    def decode_word(self, word, pc=0):
        """Decode ``word`` fetched from ``pc`` into an instruction token."""
        if self.use_cache:
            template = self._cache.get(word)
            if template is None:
                self.misses += 1
                template = self._build_template(word)
                self._cache[word] = template
            else:
                self.hits += 1
        else:
            self.misses += 1
            template = self._build_template(word)

        plan = template.plan
        token = plan.token_class(template.instr, template.opclass, pc, next(self._sequence))
        return plan.instantiate(token)

    def restart_sequence(self):
        """Number the next decoded token 0 again (the decode cache is kept)."""
        self._sequence = itertools.count()

    def cache_info(self):
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def clear_cache(self):
        self._cache.clear()
        self.hits = 0
        self.misses = 0
