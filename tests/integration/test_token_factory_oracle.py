"""The decoder's per-shape token factories against the binding loop they replaced.

The oracle below is the operand binding the decoder used before tokens were
built by generated factories, copied verbatim: a token class ``__init__``
(``_init_decoded``) followed by ``BindingPlan.instantiate``
(``OracleBindingPlan`` here), which wrote each operand into its slot by
name.  For every word decoded while the six
kernels run on each registered model, and for assembled block transfers,
a token made by a fresh decoder must equal the oracle's token built from
the same bound operands, slot by slot:

* the same token class and every token slot equal;
* each RegRef equal to a fresh ``RegRef(register, token)``, back-pointer
  included, so a slot added to RegRef or to the token without the factory
  learning to fill it fails here;
* shared operands (Consts, plain values) the very objects the binder made,
  shared by every instance of a cached word, while RegRefs never are;
* ``regrefs`` in the oracle's order, holding the symbols' own RegRefs;
* ``template`` the word's decode-cache entry.

For every word the decoder's ``renew`` is checked too: a token
dirtied the way the pipeline dirties it (place, timing, annotations,
latched and produced values, the squash flag) renews to the same object
with the same RegRefs, equal slot for slot to a fresh token of the word,
while a token with a reserved RegRef is left alone for a fresh one.
"""

import pytest

from repro.core.decoder import BindingPlan, DecodedTemplate, InstructionDecoder
from repro.core.operands import Const, RegisterFile, RegRef
from repro.core.operation_class import OperationClass
from repro.core.token import InstructionToken, Token, token_class
from repro.isa import assemble
from repro.processors import build_processor, processor_names, supported_kernels
from repro.workloads import get_workload, workload_names

BLOCK_TRANSFERS = ("ldmia r0!, {r1, r2, r4}", "stmdb sp!, {r4, lr}", "ldmia sp!, {r4, pc}")


# -- the oracle: the binding loop before shape factories, verbatim -----------------


class OracleBindingPlan:
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


def _init_decoded(self, instr, opclass, pc, seq, template):
    # Token and InstructionToken state; the decoder's BindingPlan then fills
    # the symbol slots and ``regrefs``.  ``template`` is the slot the
    # factories gained with token recycling.
    self.ready_cycle = 0
    self.delay_override = None
    self.place = None
    self.seq = seq
    self.instr = instr
    self.opclass = opclass
    self.pc = pc
    self.annotations = {}
    self.squashed = False
    self.template = template


def oracle_token(operands, instr, opclass, pc, seq, template):
    plan = OracleBindingPlan(operands, opclass)
    token = object.__new__(plan.token_class)
    _init_decoded(token, instr, opclass, pc, seq, template)
    return plan.instantiate(token)


# -- slot-by-slot comparison --------------------------------------------------------

UNSET = object()


def slots(obj):
    """``{(class, slot): value}`` over every slot ``obj``'s classes declare."""
    values = {}
    for klass in type(obj).__mro__:
        for name in vars(klass).get("__slots__", ()):
            try:
                values[klass, name] = vars(klass)[name].__get__(obj, klass)
            except AttributeError:
                values[klass, name] = UNSET
    return values


def assert_fresh_regref(ref, token):
    """``ref`` is a RegRef owned by ``token``, equal to a fresh one slot by slot."""
    assert type(ref) is RegRef
    assert ref.token is token
    assert slots(ref) == slots(RegRef(ref.register, token))


def is_shared(operand):
    """Whether the binding shares ``operand`` across instances instead of copying it."""
    items = operand if isinstance(operand, list) else [operand]
    return not any(isinstance(item, RegRef) for item in items)


def assert_same_operand(made, oracle, made_token, oracle_token):
    if is_shared(oracle):
        assert made is oracle
    elif isinstance(oracle, RegRef):
        assert_fresh_regref(made, made_token)
        assert_fresh_regref(oracle, oracle_token)
        assert made.register is oracle.register
    else:
        assert type(made) is list and len(made) == len(oracle)
        for made_item, oracle_item in zip(made, oracle):
            assert_same_operand(made_item, oracle_item, made_token, oracle_token)


def symbol_regrefs(token):
    """The token's RegRefs read from its symbol slots, lists flattened, in symbol order."""
    found = []
    for name in type(token).__slots__:
        operand = getattr(token, name)
        items = operand if isinstance(operand, list) else [operand]
        found.extend(item for item in items if isinstance(item, RegRef))
    return found


def assert_matches_oracle(made, oracle):
    assert type(made) is type(oracle)
    made_slots, oracle_slots = slots(made), slots(oracle)
    assert made_slots.keys() == oracle_slots.keys()
    symbols = type(made).__slots__
    for (klass, name), expected in oracle_slots.items():
        value = made_slots[klass, name]
        if name in symbols:
            assert_same_operand(value, expected, made, oracle)
        elif name == "regrefs":
            assert len(value) == len(expected)
            for made_ref, oracle_ref in zip(value, expected):
                assert_same_operand(made_ref, oracle_ref, made, oracle)
        else:
            assert type(value) is type(expected) and value == expected, name
    found = symbol_regrefs(made)
    assert len(made.regrefs) == len(found)
    assert all(ref is symbol_ref for ref, symbol_ref in zip(made.regrefs, found))
    # Every Token/InstructionToken slot a hand-built token's ``__init__``
    # fills (``operands`` aside: a property on decoded classes) is filled.
    hand_built = slots(InstructionToken(made.instr, made.opclass, made.pc))
    for (klass, name), value in hand_built.items():
        if klass in (Token, InstructionToken) and name != "operands":
            assert (value is UNSET) == (made_slots[klass, name] is UNSET), name


# -- decoding under capture ---------------------------------------------------------


@pytest.fixture
def bound(monkeypatch):
    """Every ``(instr, operands)`` a binder returns, in call order."""
    calls = []
    original = OperationClass.bind

    def recording_bind(self, instr, context):
        operands = original(self, instr, context)
        calls.append((instr, operands))
        return operands

    monkeypatch.setattr(OperationClass, "bind", recording_bind)
    return calls


def check_words(processor, words, bound):
    model = processor.decoder
    decoder = InstructionDecoder(model.net, model.isa_decode, model.context, model.classify)
    for index, word in enumerate(words):
        pc = 0x8000 + 4 * index
        bound.clear()
        first = decoder.decode_word(word, pc)
        second = decoder.decode_word(word, pc)
        assert second.seq == first.seq + 1
        # The decoder binds once per word; both tokens share that binding.
        assert len(bound) == 1
        instr, operands = bound[0]
        template = decoder._cache[word]
        for token in (first, second):
            assert token.instr is instr
            assert_matches_oracle(
                token, oracle_token(operands, instr, token.opclass, pc, token.seq, template)
            )
        first_refs = {id(ref) for ref in first.regrefs}
        assert not any(id(ref) in first_refs for ref in second.regrefs)
        for name in type(first).__slots__:
            if is_shared(getattr(first, name)):
                assert getattr(second, name) is getattr(first, name)
        check_renewal(template, first, pc)


#: Where a dirtied token claims to reside.
SOMEWHERE = object()


def dirty(token):
    """Leave ``token`` the way a pass through the pipeline leaves it."""
    token.place = SOMEWHERE
    token.ready_cycle = 1234
    token.delay_override = 3
    token.annotations["executed"] = True
    token.squashed = True
    for ref in token.regrefs:
        ref._value = 0xDEADBEEF
        ref._has_value = True


def check_renewal(template, token, pc):
    """``renew`` resets a dirtied token in place; a reserved one is replaced."""
    refs = token.regrefs
    operands = [getattr(token, name) for name in type(token).__slots__]
    dirty(token)
    seq = token.seq + 100
    renewed = template.renew(token, pc + 8, seq)
    assert renewed is token
    assert renewed.regrefs is refs
    assert all(getattr(renewed, name) is operand for name, operand in zip(type(token).__slots__, operands))
    assert (renewed.pc, renewed.seq) == (pc + 8, seq)
    assert_matches_oracle(renewed, template.make(template, pc + 8, seq))
    if not refs:
        return
    # A write reservation makes the RegRef a register's pending writer: the
    # token must not come back, whichever of its RegRefs holds it.
    for ref in refs:
        dirty(token)
        ref.reserve_write()
        try:
            fresh = template.renew(token, pc + 12, seq + 1)
            assert fresh is not token
            assert not any(made is old for made in fresh.regrefs for old in refs)
            assert_matches_oracle(fresh, template.make(template, pc + 12, seq + 1))
            assert ref._reserved and token.squashed  # the reserved token is left as it was
        finally:
            ref.release()


def decoded_words(model):
    """Every word the model decodes while running its kernels, in first-fetch order.

    Models with block transfers also get the assembled ``BLOCK_TRANSFERS``.
    """
    processor = build_processor(model)
    words = []
    isa_decode = processor.decoder.isa_decode

    def recording_decode(word):
        words.append(word)
        return isa_decode(word)

    processor.decoder.isa_decode = recording_decode
    for kernel in supported_kernels(model, workload_names()):
        processor.reset()
        processor.load_program(get_workload(kernel, scale=1).program)
        assert processor.run(max_cycles=2_000_000).finish_reason == "halt"
    processor.decoder.isa_decode = isa_decode
    if "memm" in processor.net.operation_classes:
        words += [assemble(source).words[0] for source in BLOCK_TRANSFERS]
    return processor, list(dict.fromkeys(words))


@pytest.mark.parametrize("model", processor_names())
def test_decoded_words_match_the_oracle(model, bound):
    processor, words = decoded_words(model)
    assert len(words) > 50
    check_words(processor, words, bound)


def test_keyword_symbols_and_mixed_lists_match_the_oracle():
    """Shapes no shipped model binds: a keyword symbol, a list mixing RegRefs and values."""
    gpr = RegisterFile("gpr", 4)
    operands = {
        "d": RegRef(gpr.register(1)),
        "from": Const(3),
        "regs": (RegRef(gpr.register(2)), 7, RegRef(gpr.register(3))),
        "lambda": RegRef(gpr.register(0)),
    }
    template = DecodedTemplate(0, "instr", "op", BindingPlan(operands, "op"))
    for seq in (5, 6):
        made = template.make(template, 0x40, seq)
        assert_matches_oracle(made, oracle_token(operands, "instr", "op", 0x40, seq, template))
        assert [ref.register.index for ref in made.regrefs] == [1, 2, 3, 0]
        check_renewal(template, made, 0x40)
