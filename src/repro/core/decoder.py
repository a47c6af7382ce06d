"""Instruction decoding into RCPN instruction tokens, with partial evaluation.

The paper's simulators decode an instruction once, when its token is
generated, and cache decoded instructions for reuse ("the tokens are cached
for later reuse in the simulator", Section 5).  This module implements that
scheme generically:

* a *decode cache* keyed by the instruction word stores a
  :class:`DecodedTemplate`: the decoded ISA instruction, its operation class
  and its :class:`BindingPlan`'s ``payload`` and ``make``;
* the plan is the partially evaluated symbol binder.  It classifies each
  bound operand once, as a register, a register list or a shared value (a
  Const or plain value), and its ``payload`` tuple holds, in symbol order,
  each register's :class:`~repro.core.operands.Register`, each list's
  registers and items, and each shared object itself;
* ``make(template, pc, seq)`` is the token *factory* of the plan's shape:
  the token class (:func:`~repro.core.token.token_class`) plus the operand
  kinds.  Its source is written and exec'd once per shape per process.  It
  allocates the token and fresh :class:`~repro.core.operands.RegRef`
  objects without running an ``__init__`` and stores every slot directly,
  so no field extraction, register lookup or per-symbol dispatch repeats.

The factory is the one construction path: with the cache off (the
ablation) the decoder builds a template per fetch and calls the same
factory.  The decoder numbers the tokens it makes (``token.seq``, fetch
order), so two runs of one processor number their instructions identically.
"""

from __future__ import annotations

import itertools
from keyword import iskeyword

from repro.core.operands import RegRef
from repro.core.token import token_class

#: Operand kinds of a binding shape.
_REGISTER, _REGISTER_LIST, _SHARED = "register", "register_list", "shared"

#: The factory's first lines: the Token and InstructionToken slots.
_FACTORY_HEAD = """def make(template, pc, seq):
    token = new(cls)
    token.ready_cycle = 0
    token.delay_override = None
    token.place = None
    token.seq = seq
    token.instr = template.instr
    token.opclass = template.opclass
    token.pc = pc
    token.annotations = {}
    token.squashed = False
"""

#: A fresh RegRef ``r{i}`` of the register ``p{i}``, owned by ``token``.
_REGREF_SOURCE = """    r{i} = new(RegRef)
    r{i}.register = p{i}
    r{i}.token = token
    r{i}._value = None
    r{i}._has_value = False
    r{i}._reserved = False
"""

_factories = {}

#: The names factory source reads besides ``cls`` and ``slots``.
_NAMESPACE = {"new": object.__new__, "RegRef": RegRef}
#: ``new_regref(p0, token)``: the same fresh RegRef, for register-list items.
exec("def new_regref(p0, token):\n%s    return r0\n" % _REGREF_SOURCE.format(i=0), _NAMESPACE)


def _factory(cls, kinds):
    """The memoised ``make(template, pc, seq)`` building ``cls`` tokens for ``kinds``."""
    make = _factories.get((cls, kinds))
    if make is not None:
        return make
    names = ", ".join("p%d" % i for i in range(len(kinds)))
    source = [_FACTORY_HEAD, "    [%s] = template.payload\n" % names]
    regrefs = []
    for i, (symbol, kind) in enumerate(zip(cls.__slots__, kinds)):
        value = "p%d" % i
        if kind == _REGISTER:
            source.append(_REGREF_SOURCE.format(i=i))
            value = "r%d" % i
            regrefs.append(value)
        elif kind == _REGISTER_LIST:
            source.append(
                "    {p} = [new_regref(item, token) if hasattr(item, 'regfile') else item"
                " for item in {p}]\n".format(p=value)
            )
            regrefs.append("*[item for item in %s if isinstance(item, RegRef)]" % value)
        if iskeyword(symbol):  # it cannot follow ``token.``: store through its slot
            source.append("    slots[%d].__set__(token, %s)\n" % (i, value))
        else:
            source.append("    token.%s = %s\n" % (symbol, value))
    regrefs = "".join(ref + ", " for ref in regrefs)
    source.append("    token.regrefs = (%s)\n    return token\n" % regrefs)
    namespace = dict(_NAMESPACE, cls=cls, slots=[cls.__dict__[name] for name in cls.__slots__])
    exec("".join(source), namespace)
    make = _factories[(cls, kinds)] = namespace["make"]
    return make


class BindingPlan:
    """Partially evaluated operand binding for one static instruction.

    ``payload`` holds each bound operand's shared part in symbol order;
    ``make`` is the token factory of the plan's shape.  ``opclass`` names
    the operation class in symbol errors.
    """

    __slots__ = ("payload", "make")

    def __init__(self, operands, opclass):
        kinds = []
        payload = []
        for operand in operands.values():
            if isinstance(operand, RegRef):
                kinds.append(_REGISTER)
                payload.append(operand.register)
            elif isinstance(operand, (list, tuple)) and any(
                isinstance(item, RegRef) for item in operand
            ):
                kinds.append(_REGISTER_LIST)
                payload.append(
                    [item.register if isinstance(item, RegRef) else item for item in operand]
                )
            else:
                kinds.append(_SHARED)
                payload.append(operand)
        self.payload = tuple(payload)
        self.make = _factory(token_class(operands, opclass), tuple(kinds))


class DecodedTemplate:
    """Cached decode result: ISA instruction, operation class, the plan's payload and factory."""

    __slots__ = ("word", "instr", "opclass", "payload", "make")

    def __init__(self, word, instr, opclass, plan):
        self.word = word
        self.instr = instr
        self.opclass = opclass
        self.payload = plan.payload
        self.make = plan.make


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

        return template.make(template, pc, next(self._sequence))

    def restart_sequence(self):
        """Number the next decoded token 0 again (the decode cache is kept)."""
        self._sequence = itertools.count()

    def cache_info(self):
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def clear_cache(self):
        self._cache.clear()
        self.hits = 0
        self.misses = 0
