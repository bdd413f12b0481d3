"""Differential tests: compiled abstract verifier vs. the reference walk.

The compiled pipeline (:mod:`repro.bpf.verifier.compiled`) must be
*semantically invisible*: for every program, :meth:`Verifier.verify`
(compiled closures) and :meth:`Verifier.verify_reference` (the original
decode-every-visit walk) must produce the same verdict, the same error
index and message, the same ``insns_processed`` count, byte-equal
``states_at`` maps, and identical ``on_transfer`` telemetry streams.

Coverage is two-pronged: an exhaustive ALU/jump opcode × width ×
operand-source sweep over hand-built programs with boundary operands,
and a fuzz sweep of ≥500 generator-produced programs per opcode profile
(which exercises loads, stores, pointer arithmetic, helper calls,
refinement chains, and the CFG/structural rejection paths end to end).
"""

import gc
import tracemalloc

import pytest

from repro.bpf import Program, assemble
from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.verifier import Verifier
from repro.fuzz import generate_program

U64 = (1 << 64) - 1

#: Immediates spanning sign boundaries and subregister truncation.
IMMEDIATES = [0, 1, 5, 31, 63, -1, -5, 0x7FFF_FFFF, -0x8000_0000]

#: lddw-loadable operand values with carry/sign/width boundary cases.
OPERANDS = [
    0, 1, 63, 0x7FFF_FFFF, 0x1_0000_0000, (1 << 63) - 1, 1 << 63, U64,
]

ALU_OPS = [
    isa.ALU_ADD, isa.ALU_SUB, isa.ALU_MUL, isa.ALU_DIV, isa.ALU_OR,
    isa.ALU_AND, isa.ALU_LSH, isa.ALU_RSH, isa.ALU_MOD, isa.ALU_XOR,
    isa.ALU_MOV, isa.ALU_ARSH,
]

COND_JUMP_OPS = [
    isa.JMP_JEQ, isa.JMP_JNE, isa.JMP_JGT, isa.JMP_JGE, isa.JMP_JLT,
    isa.JMP_JLE, isa.JMP_JSET, isa.JMP_JSGT, isa.JMP_JSGE, isa.JMP_JSLT,
    isa.JMP_JSLE,
]

LDDW = isa.CLS_LD | isa.SZ_DW | isa.MODE_IMM


def both_verify(program, ctx_size=64):
    """Verify with both engines and compare every observable output."""
    compiled_log, reference_log = [], []
    compiled = Verifier(
        ctx_size=ctx_size, collect_states=True,
        on_transfer=lambda i, label, s: compiled_log.append((i, label, s)),
    )
    reference = Verifier(
        ctx_size=ctx_size, collect_states=True,
        on_transfer=lambda i, label, s: reference_log.append((i, label, s)),
    )
    got = compiled.verify(program)
    want = reference.verify_reference(program)

    assert got.ok == want.ok
    assert got.insns_processed == want.insns_processed
    assert len(got.errors) == len(want.errors)
    for g, w in zip(got.errors, want.errors):
        assert g.insn_index == w.insn_index
        assert g.reason == w.reason
        assert g.structural == w.structural
        assert str(g) == str(w)

    assert set(compiled.states_at) == set(reference.states_at)
    for idx, state in reference.states_at.items():
        assert compiled.states_at[idx] == state, f"states diverge at insn {idx}"

    assert compiled_log == reference_log
    return got


class TestALUSweep:
    """Every ALU op × width × operand source over boundary operands."""

    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_register_source(self, op, cls):
        for a in OPERANDS:
            for b in OPERANDS:
                program = Program([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(LDDW, dst=2, imm=b),
                    Instruction(cls | isa.SRC_X | op, dst=1, src=2),
                    Instruction(isa.CLS_ALU64 | isa.SRC_X | isa.ALU_MOV,
                                dst=0, src=1),
                    Instruction(isa.CLS_JMP | isa.JMP_EXIT),
                ])
                both_verify(program)

    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_immediate_source(self, op, cls):
        for a in OPERANDS:
            for imm in IMMEDIATES:
                program = Program([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(cls | isa.SRC_K | op, dst=1, imm=imm),
                    Instruction(isa.CLS_ALU64 | isa.SRC_X | isa.ALU_MOV,
                                dst=0, src=1),
                    Instruction(isa.CLS_JMP | isa.JMP_EXIT),
                ])
                both_verify(program)

    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_neg(self, cls):
        for a in OPERANDS:
            program = Program([
                Instruction(LDDW, dst=1, imm=a),
                Instruction(cls | isa.ALU_NEG, dst=1),
                Instruction(isa.CLS_ALU64 | isa.SRC_X | isa.ALU_MOV,
                            dst=0, src=1),
                Instruction(isa.CLS_JMP | isa.JMP_EXIT),
            ])
            both_verify(program)

    def test_unknown_operand_shift(self):
        # Unknown-but-bounded shift counts take the join-over-counts path.
        program = assemble("""
            ldxb r2, [r1+0]
            and r2, 7
            mov r3, 0x1234
            lsh r3, r2
            mov r0, r3
            exit
        """)
        assert both_verify(program).ok


class TestJumpRefinementSweep:
    """Every conditional jump × width × operand source, with refinement
    visible in ``states_at`` at both successors."""

    @staticmethod
    def _jump_program(jump_insn, a, b):
        return Program([
            Instruction(LDDW, dst=1, imm=a),
            Instruction(LDDW, dst=2, imm=b),
            jump_insn,                                        # slot 4
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=1),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=2),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_immediate_source(self, op, cls):
        for a in OPERANDS:
            for imm in IMMEDIATES:
                jump = Instruction(cls | isa.SRC_K | op, dst=1, imm=imm, off=2)
                both_verify(self._jump_program(jump, a, 0))

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_register_source(self, op, cls):
        # b constant (refines dst), a constant on the left (mirrored).
        for a in OPERANDS:
            jump = Instruction(cls | isa.SRC_X | op, dst=1, src=2, off=2)
            both_verify(self._jump_program(jump, a, 5))

    def test_mirrored_constant_left(self):
        # dst const, src unknown: the mirrored refinement path.
        program = assemble("""
            mov r2, 64
            ldxdw r3, [r1+0]
            jgt r2, r3, small
            mov r0, 0
            exit
        small:
            mov r0, 1
            exit
        """)
        assert both_verify(program).ok

    def test_refinement_feeds_bounds_check(self):
        # The classic pattern: a branch bound makes a ctx access safe.
        program = assemble("""
            ldxb r2, [r1+0]
            jgt r2, 56, reject
            mov r3, r1
            add r3, r2
            ldxb r0, [r3+0]
            exit
        reject:
            mov r0, 0
            exit
        """)
        assert both_verify(program).ok

    def test_infeasible_edge_pruned_identically(self):
        # r2 == 3 refines the taken edge to the constant; the nested
        # jne 3 then proves its taken edge infeasible (⊥) — the dead
        # branch must stay unanalyzed in both engines.
        program = assemble("""
            ldxb r2, [r1+0]
            jeq r2, 3, inner
            mov r0, 0
            exit
        inner:
            jne r2, 3, dead
            mov r0, 1
            exit
        dead:
            mov r0, 2
            exit
        """)
        result = both_verify(program)
        assert result.ok


class TestErrorParity:
    """Rejections must match on index, message, and structural flag."""

    CASES = [
        "mov r0, r1\nexit",                      # hmm: r1 is ctx ptr; leak
        "mov r0, r2\nexit",                      # uninit read
        "mov r10, 1\nmov r0, 0\nexit",           # frame-pointer write
        "neg r10\nmov r0, 0\nexit",              # pointer negation (r10)
        "add r1, r10\nmov r0, 0\nexit",          # ptr + ptr
        "sub r1, 1\nldxdw r0, [r1+0]\nexit",     # hmm below-ctx access
        "ldxdw r0, [r1+60]\nexit",               # ctx out of bounds
        "ldxdw r0, [r10-8]\nexit",               # uninit stack read
        "ldxw r0, [r1+1]\nexit",                 # misaligned ctx read
        "stxdw [r1+0], r10\nmov r0, 0\nexit",    # pointer store to ctx
        "exit",                                  # exit with uninit r0
        "mov r0, 0\nja +1\nexit\nexit",          # fine (sanity accept)
        "mov r3, r1\nsub r3, r10\nmov r0, r3\nexit",  # cross-region ptr sub
        "stxw [r10-8], r1\nmov r0, 0\nexit",     # partial pointer spill
        "call 1\nexit",                          # r0 unknown after call: ok
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_hand_built(self, text):
        both_verify(assemble(text))

    def test_structural_rejection(self):
        # A backward jump (loop) is a structural CFG rejection.
        program = Program([
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
            Instruction(isa.CLS_JMP | isa.JMP_JA, off=-2),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        result = both_verify(program)
        assert not result.ok
        assert result.errors[0].structural

    def test_unsupported_opcode_lazy_parity(self):
        # An unsupported opcode on a *skipped* edge must not fail
        # compilation; when visited, both engines raise identically.
        unsupported = Instruction(isa.CLS_ALU64 | 0xD0, dst=1)  # BPF_END
        executed = Program([
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=1),
            unsupported,
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        result = both_verify(executed)
        assert not result.ok
        assert "unsupported ALU op" in result.errors[0].reason

    def test_unknown_helper_is_fine_statically(self):
        # The verifier models any helper id; only the interpreter knows
        # the registry. Clobbers must match across engines.
        program = assemble("mov r1, 2\ncall 99\nmov r0, 0\nexit")
        assert both_verify(program).ok


class TestGeneratedPrograms:
    """Fuzzed whole-program parity: ≥500 programs per opcode profile."""

    @pytest.mark.parametrize("profile", ["mixed", "alu", "memory", "branchy"])
    def test_generator_differential(self, profile):
        for seed in range(500):
            program = generate_program(seed, profile=profile).program
            both_verify(program)

    def test_compiled_form_is_cached(self):
        program = generate_program(1).program
        assert program.compiled_verifier(64) is program.compiled_verifier(64)
        assert program.compiled_verifier(32) is not program.compiled_verifier(64)


class TestCompiledMemory:
    def test_distinct_programs_leave_nothing_behind(self):
        # A fresh Program owns its compiled closures: once it is gone,
        # nothing of its compilation may stay alive in the process.
        verifier = Verifier(ctx_size=64)
        for seed in range(100):
            verifier.verify(generate_program(seed, profile="mixed").program)
        insns = [
            generate_program(seed, profile="mixed").program.insns
            for seed in range(100, 600)
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for program_insns in insns:
                verifier.verify(Program(program_insns))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 512 * 1024
