"""Unit tests for the two-pass assembler and the disassembler."""

import pytest

from repro.isa import AssemblerError, assemble, decode, disassemble
from repro.isa.assembler import encode_rotated_immediate
from repro.isa.instructions import (
    Branch,
    DataOpcode,
    DataProcessing,
    LoadStore,
    LoadStoreMultiple,
    Multiply,
    SystemOp,
)


def first_instr(text):
    program = assemble(text)
    return decode(program.words[0])


@pytest.mark.parametrize("source,opcode", [
    ("add r0, r1, r2", DataOpcode.ADD),
    ("sub r0, r1, r2", DataOpcode.SUB),
    ("rsb r0, r1, r2", DataOpcode.RSB),
    ("and r0, r1, r2", DataOpcode.AND),
    ("orr r0, r1, r2", DataOpcode.ORR),
    ("eor r0, r1, r2", DataOpcode.EOR),
    ("bic r0, r1, r2", DataOpcode.BIC),
])
def test_three_operand_alu_mnemonics(source, opcode):
    instr = first_instr(source)
    assert isinstance(instr, DataProcessing)
    assert instr.opcode == opcode
    assert (instr.rd, instr.rn, instr.operand2.rm) == (0, 1, 2)


@pytest.mark.parametrize("source,opcode", [
    ("cmp r1, r2", DataOpcode.CMP),
    ("cmn r1, r2", DataOpcode.CMN),
    ("tst r1, #1", DataOpcode.TST),
    ("teq r1, r2", DataOpcode.TEQ),
])
def test_compare_mnemonics_always_set_flags(source, opcode):
    instr = first_instr(source)
    assert instr.opcode == opcode
    assert instr.set_flags


def test_mov_immediate_and_register_forms():
    assert first_instr("mov r3, #100").operand2.immediate_value == 100
    assert first_instr("mov r3, r7").operand2.rm == 7
    assert first_instr("mvn r3, #0").opcode == DataOpcode.MVN


def test_shifted_operand_syntax():
    instr = first_instr("add r0, r1, r2, lsl #3")
    assert instr.operand2.shift_amount == 3
    assert instr.operand2.shift_type.name == "LSL"


def test_condition_suffix_and_s_flag():
    assert first_instr("addeq r0, r1, r2").cond.name == "EQ"
    assert first_instr("adds r0, r1, r2").set_flags
    assert first_instr("subne r0, r1, #1").cond.name == "NE"


def test_branch_mnemonic_disambiguation():
    # blt = branch on less-than, bls = branch on lower-or-same, bl = link.
    assert first_instr("blt 16").link is False
    assert first_instr("blt 16").cond.name == "LT"
    assert first_instr("bls 16").cond.name == "LS"
    assert first_instr("bl 16").link is True
    assert first_instr("bleq 16").link is True


def test_branch_to_label_offset():
    program = assemble("""
    main:
        nop
        b main
    """)
    branch = decode(program.words[1])
    assert isinstance(branch, Branch)
    # target = 4 + 8 + offset*4 == 0
    assert branch.offset == -3


@pytest.mark.parametrize("source", [
    "ldr r0, [r1]",
    "ldr r0, [r1, #4]",
    "ldr r0, [r1, #-4]",
    "ldrb r0, [r1, #1]",
    "str r0, [r1, r2]",
    "str r0, [r1, r2, lsl #2]",
    "ldr r0, [r1], #4",
    "str r0, [r1, #8]!",
])
def test_load_store_addressing_modes_assemble(source):
    instr = first_instr(source)
    assert isinstance(instr, LoadStore)


def test_post_index_and_writeback_flags():
    post = first_instr("ldr r0, [r1], #4")
    assert not post.pre_index
    pre_wb = first_instr("str r0, [r1, #8]!")
    assert pre_wb.pre_index and pre_wb.writeback
    negative = first_instr("ldr r0, [r1, #-4]")
    assert not negative.up and negative.offset_immediate == 4


@pytest.mark.parametrize("source,load,n", [
    ("ldmia r0!, {r1, r2, r3}", True, 3),
    ("stmdb sp!, {r4-r11, lr}", False, 9),
    ("ldmfd sp!, {r0-r3}", True, 4),
])
def test_block_transfers(source, load, n):
    instr = first_instr(source)
    assert isinstance(instr, LoadStoreMultiple)
    assert instr.load is load
    assert len(instr.register_list) == n
    assert instr.writeback


def test_multiply_forms():
    mul = first_instr("mul r0, r1, r2")
    assert isinstance(mul, Multiply) and not mul.accumulate
    mla = first_instr("mla r0, r1, r2, r3")
    assert mla.accumulate and mla.rn == 3


def test_system_mnemonics():
    assert first_instr("swi #3").op == SystemOp.SWI
    assert first_instr("halt").op == SystemOp.HALT
    assert first_instr("nop").op == SystemOp.NOP


def test_directives_word_space_equ_org():
    program = assemble("""
        .equ BASE, 0x100
        .org 0x20
    start:
        mov r0, #1
        .word 0xdeadbeef, BASE
        .space 8
    after:
        halt
    """)
    assert program.origin == 0x20
    assert program.words[1] == 0xDEADBEEF
    assert program.words[2] == 0x100
    assert program.symbols["after"] == 0x20 + 4 + 8 + 8
    assert program.symbols["BASE"] == 0x100


@pytest.mark.parametrize(
    "directive",
    [".org", ".entry", ".word", ".space", ".equ FOO", ".alignx", ".wordy 5"],
)
def test_malformed_directive_is_an_assembler_error_with_its_line(directive):
    with pytest.raises(AssemblerError) as raised:
        assemble("main: mov r0, #1\n    %s\n    halt" % directive)
    assert raised.value.line_number == 2


@pytest.mark.parametrize(
    "upper,lower",
    [(".WORD 5, 6", ".word 5, 6"), (".Space 8", ".space 8"), (".ALIGN", ".align")],
)
def test_directive_names_match_whatever_their_case(upper, lower):
    template = "main: mov r0, #1\n    .space 2\n    %s\nafter:\n    halt"
    shouted, plain = assemble(template % upper), assemble(template % lower)
    assert shouted.words == plain.words
    assert shouted.symbols["after"] == plain.symbols["after"]


def test_labels_and_entry_selection():
    program = assemble("""
    data: .word 5
    main: mov r0, #1
          halt
    """)
    assert program.entry == program.symbols["main"]


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("x: nop\nx: nop")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblerError):
        assemble("frobnicate r0, r1")


def test_unencodable_immediate_rejected():
    with pytest.raises(AssemblerError):
        assemble("mov r0, #0x101")  # 257 cannot be encoded as a rotated byte


def test_comments_are_ignored():
    program = assemble("""
    ; full-line comment
    main: mov r0, #1  ; trailing comment
          halt        // c++-style
    """)
    assert len(program.words) == 2


@pytest.mark.parametrize("value", [0, 1, 255, 256, 0xFF00, 0x3FC00, 0xFF000000, 0xC0000034])
def test_encode_rotated_immediate_finds_encodings(value):
    imm, rot = encode_rotated_immediate(value)
    amount = (rot * 2) % 32
    recovered = ((imm >> amount) | (imm << (32 - amount))) & 0xFFFFFFFF if amount else imm
    assert recovered == value


@pytest.mark.parametrize("value", [257, 0x102, 0xFFFFFFF, 0x12345678])
def test_encode_rotated_immediate_rejects_unencodable(value):
    assert encode_rotated_immediate(value) is None


def test_disassembler_roundtrip_through_assembler():
    source = """
    main:
        mov r0, #0
        add r0, r0, #1
        cmp r0, #10
        blt main
        ldr r1, [r2, #4]
        halt
    """
    program = assemble(source)
    for word in program.words:
        text = disassemble(word)
        assert text and not text.startswith(".word")
