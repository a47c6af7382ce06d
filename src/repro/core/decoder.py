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
  so no field extraction, register lookup or per-symbol dispatch repeats;
* ``renew(token, pc, seq)``, exec'd beside ``make``, recycles a retired
  token of the same template: it resets only the dynamic slots (timing,
  ``seq``, ``pc``, annotations, the squash flag and each RegRef's value)
  and keeps the token, its RegRefs and ``regrefs``.  A token whose RegRef
  still holds a write reservation is not reused; ``make`` builds a fresh
  one.  The generated engine free-lists tokens at retire
  (:attr:`DecodedTemplate.free`), so a fetch of a hot word allocates
  nothing and leaves no token↔RegRef cycle for the garbage collector.

Every word is decoded and bound once, and the factory is the one
construction path.  The decoder numbers the tokens it makes (``token.seq``,
fetch order), so two runs of one processor number their instructions
identically.
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
    token.template = template
"""

#: The renewal's lines after the reservation check: the dynamic slots.
_RENEW_HEAD = """    token.ready_cycle = 0
    token.delay_override = None
    token.place = None
    token.seq = seq
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
    """The memoised ``(make, renew)`` pair of ``cls`` tokens for ``kinds``."""
    pair = _factories.get((cls, kinds))
    if pair is not None:
        return pair
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
    source.append(_renew_source(kinds))
    namespace = dict(_NAMESPACE, cls=cls, slots=[cls.__dict__[name] for name in cls.__slots__])
    exec("".join(source), namespace)
    pair = _factories[(cls, kinds)] = namespace["make"], namespace["renew"]
    return pair


def _renew_source(kinds):
    """``renew(token, pc, seq)`` for tokens of ``kinds``: reset a retired token in place.

    A RegRef still holding a write reservation is registered as a writer,
    so such a token is left alone and a fresh one made instead.
    """
    fallback = "{0}template = token.template\n{0}return template.make(template, pc, seq)\n"
    source = ["def renew(token, pc, seq):\n"]
    if _REGISTER_LIST in kinds:  # the RegRef count varies with the word
        source += [
            "    regrefs = token.regrefs\n",
            "    for ref in regrefs:\n",
            "        if ref._reserved:\n",
            fallback.format(" " * 12),
            _RENEW_HEAD,
            "    for ref in regrefs:\n",
            "        ref._value = None\n",
            "        ref._has_value = False\n",
        ]
    else:
        refs = ["r%d" % i for i in range(kinds.count(_REGISTER))]
        if refs:
            source.append("    %s, = token.regrefs\n" % ", ".join(refs))
            source.append("    if %s:\n" % " or ".join(ref + "._reserved" for ref in refs))
            source.append(fallback.format(" " * 8))
        source.append(_RENEW_HEAD)
        for ref in refs:
            source.append("    %s._value = None\n    %s._has_value = False\n" % (ref, ref))
    source.append("    return token\n")
    return "".join(source)


class BindingPlan:
    """Partially evaluated operand binding for one static instruction.

    ``payload`` holds each bound operand's shared part in symbol order;
    ``make`` is the token factory of the plan's shape and ``renew`` its
    in-place reset of a retired token.  ``opclass`` names the operation
    class in symbol errors.
    """

    __slots__ = ("payload", "make", "renew")

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
        self.make, self.renew = _factory(token_class(operands, opclass), tuple(kinds))


class DecodedTemplate:
    """Cached decode result: ISA instruction, operation class, the plan's payload and factory.

    ``free`` holds this word's retired tokens for reuse.  The generated
    engine appends a token whose ``template`` is set when it retires, and
    a later fetch of the word takes it back through ``renew``, so a hook
    must not keep a decoded token after it retires: on that engine the
    same object may come back as a later instruction.  The interpreted
    engine never appends.
    """

    __slots__ = ("word", "instr", "opclass", "payload", "make", "renew", "free")

    def __init__(self, word, instr, opclass, plan):
        self.word = word
        self.instr = instr
        self.opclass = opclass
        self.payload = plan.payload
        self.make = plan.make
        self.renew = plan.renew
        self.free = []


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

    Each word is decoded and its operands bound once (the decode cache:
    partial evaluation of the static instruction); ``hits``/``misses``
    count the fetches it served and the words it decoded.
    """

    def __init__(self, net, isa_decode, context, classify=None):
        self.net = net
        self.isa_decode = isa_decode
        self.context = context
        self.classify = classify or (lambda instr: instr.operation_class)
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
        """Decode ``word`` fetched from ``pc`` into an instruction token.

        A cached word's retired token, if one is free, is renewed instead
        of making a new one.
        """
        template = self._cache.get(word)
        if template is None:
            self.misses += 1
            template = self._build_template(word)
            self._cache[word] = template
        else:
            self.hits += 1
        free = template.free
        if free:
            return template.renew(free.pop(), pc, next(self._sequence))
        return template.make(template, pc, next(self._sequence))

    def restart_sequence(self):
        """Number the next decoded token 0 again (the decode cache is kept)."""
        self._sequence = itertools.count()

    def cache_info(self):
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}
