"""Slotted instruction tokens: the decoder's binding plans and token classes.

The decoder builds one :class:`InstructionToken` subclass per symbol tuple
(:func:`repro.core.token.token_class`) and writes each bound operand into
its own slot, so hooks read ``t.s1``/``t.d`` without falling through
``__getattr__``.  These tests pin the class memo, the precomputed RegRef
tuple behind ``register_operands``/``release_reservations``, the
symbol-name checks and the decoder's own token numbering.
"""

import pytest

from repro.core import ModelError, RCPN, RegisterFile, RegRef
from repro.core.decoder import BindingPlan, DecodedTemplate, InstructionDecoder
from repro.core.operands import Const
from repro.core.operation_class import DecodeContext, OperationClass, SymbolKind
from repro.core.token import InstructionToken, token_class
from repro.isa import assemble
from repro.processors import build_processor
from repro.workloads import get_workload


def decode(processor, source):
    word = assemble(source).words[0]
    return processor.decoder.decode_word(word, pc=0x100)


@pytest.fixture(scope="module")
def strongarm():
    return build_processor("strongarm")


def test_same_symbol_tuple_gives_the_same_class():
    first = token_class(("d", "s1", "s2"))
    assert token_class(("d", "s1", "s2")) is first
    assert token_class(["d", "s1", "s2"]) is first
    assert token_class(("s1", "d", "s2")) is not first
    assert issubclass(first, InstructionToken)
    assert first.__slots__ == ("d", "s1", "s2")


def test_decoded_words_of_one_class_share_a_token_class(strongarm):
    add = decode(strongarm, "add r1, r2, r3")
    sub = decode(strongarm, "subs r4, r5, #7")
    load = decode(strongarm, "ldr r1, [r2, #4]")
    assert type(add) is type(sub)
    assert type(add) is not type(load)
    assert type(add).__slots__[:5] == ("op", "d", "s1", "s2", "shift_type")


def test_decoded_token_holds_operands_in_slots(strongarm):
    token = decode(strongarm, "add r1, r2, #5")
    assert token.opclass == "alu" and token.type == "alu"
    assert token.pc == 0x100
    assert isinstance(token.d, RegRef) and token.d.register.index == 1
    assert isinstance(token.s2, Const) and token.s2.value == 5
    # No per-token operand dictionary: ``operands`` is a view of the slots.
    assert token.operands == {name: getattr(token, name) for name in type(token).__slots__}
    assert token.symbol("s1") is token.s1
    with pytest.raises(KeyError):
        token.symbol("regs")
    with pytest.raises(AttributeError, match="neither a token attribute nor a symbol"):
        token.regs


def test_memm_register_operands_are_its_regs_in_order(strongarm):
    token = decode(strongarm, "ldmia r0!, {r1, r2, r4}")
    assert token.opclass == "memm"
    regrefs = token.register_operands()
    # base, the register list (flattened, in list order), then the flags.
    assert regrefs == [token.base, *token.regs, token.fl]
    assert [ref.register.index for ref in token.regs] == [1, 2, 4]
    assert all(ref.token is token for ref in regrefs)
    assert token.regrefs == tuple(regrefs)


def test_release_reservations_clears_the_writers(strongarm):
    token = decode(strongarm, "ldmia r0!, {r1, r2, r4}")
    gpr = strongarm.net.register_files["gpr"]
    for ref in token.regs:
        ref.reserve_write()
    assert [gpr.writers[i] for i in (1, 2, 4)] == token.regs
    token.release_reservations()
    assert gpr.writers == [None] * gpr.size
    assert not any(ref.reserved for ref in token.regs)


def test_each_dynamic_instance_gets_fresh_regrefs(strongarm):
    first = decode(strongarm, "add r1, r2, r3")
    second = decode(strongarm, "add r1, r2, r3")
    assert first.d is not second.d
    assert first.d.register is second.d.register
    assert first.op is second.op  # shared, immutable operands are not copied
    assert second.seq == first.seq + 1


def test_uncached_decoder_yields_the_same_class_and_statistics():
    cached = build_processor("strongarm")
    uncached = build_processor("strongarm", use_decode_cache=False)
    assert type(decode(cached, "add r1, r2, r3")) is type(decode(uncached, "add r1, r2, r3"))
    assert type(decode(cached, "stmdb sp!, {r4, lr}")) is type(
        decode(uncached, "stmdb sp!, {r4, lr}")
    )
    results = []
    for processor in (cached, uncached):
        processor.reset()
        processor.load_program(get_workload("crc", scale=1).program)
        stats = processor.run(max_cycles=2_000_000)
        results.append(
            (stats.cycles, stats.instructions, stats.stalls, dict(stats.transition_firings))
        )
    assert results[0] == results[1]
    assert uncached.decoder.cache_info()["entries"] == 0


def test_binding_plan_factory_builds_the_token():
    register = RegisterFile("gpr", 4).register(3)
    plan = BindingPlan({"d": RegRef(register), "imm": Const(9), "n": 2}, opclass="op")
    template = DecodedTemplate(None, None, "op", plan)
    token = template.make(template, 4, 17)
    assert type(token) is token_class(("d", "imm", "n"))
    assert token.seq == 17 and token.pc == 4 and token.opclass == "op"
    assert token.d.register is register
    assert token.d.token is token
    assert token.imm.value == 9 and token.n == 2
    assert token.register_operands() == [token.d]


# -- symbol names that would shadow token attributes ----------------------------


@pytest.mark.parametrize("symbol", ["type", "pc", "seq", "delay", "place", "annotations"])
def test_declared_symbol_colliding_with_a_token_attribute_is_rejected(symbol):
    with pytest.raises(ModelError, match=r"operation class 'alu'.*%r" % symbol):
        OperationClass("alu", symbols={symbol: SymbolKind.VALUE, "d": SymbolKind.REGISTER})


def test_binder_symbol_colliding_with_a_token_attribute_is_rejected():
    net = RCPN("collide")
    regfile = net.add_register_file("gpr", 2)
    net.add_operation_class(
        OperationClass(
            "jump",
            symbols={"d": SymbolKind.REGISTER},
            binder=lambda instr, context: {"d": RegRef(regfile.register(0)), "pc": instr},
        )
    )
    decoder = InstructionDecoder(
        net, isa_decode=lambda word: word, context=DecodeContext({}),
        classify=lambda instr: "jump",
    )
    with pytest.raises(ModelError, match=r"operation class 'jump'.*'pc'"):
        decoder.decode_word(0x40)


def test_non_identifier_symbol_is_rejected():
    with pytest.raises(ModelError, match="not a Python identifier"):
        OperationClass("alu", symbols={"reg-list": SymbolKind.REGISTER})


def test_hand_built_tokens_keep_the_dictionary_fallback():
    regfile = RegisterFile("gpr", 2)
    d = RegRef(regfile.register(0))
    token = InstructionToken(instr=None, opclass="alu", operands={"d": d, "n": 1})
    assert type(token) is InstructionToken
    assert token.d is d and token.n == 1 and token.symbol("d") is d
    assert token.register_operands() == [d]
