"""Compile-once abstract verifier: one specialized closure per instruction.

The reference walk (:meth:`Verifier.verify_reference`) re-dispatches every
instruction on every visit: ``cls()`` / ``BPF_OP()`` / ``uses_imm()``
classification, immediate masking, ``transfer_label`` string building,
refinement selection through an op dict.  None of that depends on the
abstract state, so — mirroring the concrete side's decode-once pipeline
(:mod:`repro.bpf.compiled`) — this module hoists all of it into a single
compile pass: each instruction becomes an *abstract-step closure*
``fn(state, note) -> None`` (or, for conditional jumps, a branch closure
``fn(state, note) -> (fall, taken)``) with its operands resolved, its
immediate pre-masked (and pre-truncated to the 32-bit subregister view
where needed), its telemetry label precomputed, and its refinement pair
builder pre-selected per jump op.  The verifier's hot loop then reduces
to one closure call per instruction.

The compiled form also freezes the CFG and its reverse post-order, so
re-verifying a cached program (shrinker predicates, campaign replays)
skips CFG construction entirely.

Semantics are byte-for-byte those of the reference walk: identical
verdicts, error indexes/messages, ``states_at`` maps, and ``on_transfer``
streams — including *lazy* errors: an unsupported opcode on a dead path
compiles to a closure that raises only when visited.  The differential
suite (``tests/bpf/test_verifier_compiled.py``) holds the two engines
equal over an opcode × width sweep and generated programs; byte-equality
is helped by construction: the closures call the same module-level
transfer primitives (:func:`repro.bpf.verifier.absint._subreg`,
``_scalar_alu``, ``_pointer_alu``, the ``_REFINERS`` table, ...) the
reference walk uses.

Monkeypatch transparency: anything tests patch at runtime
(``absint.check_mem_access``, the tnum operators behind the
``ScalarValue`` methods) is resolved through its module namespace at
*call* time, never captured at compile time.

Observability: when :mod:`repro.obs` is enabled at compile time, every
step/branch closure is wrapped in a per-operator timing shim that
accumulates wall time into the process-default metrics registry (keyed
by :func:`step_label`).  The wrapping happens *here*, at compile time,
never in the walk — with obs disabled (the default) the compiled
program contains exactly the closures above, byte-for-byte, and the
walk pays nothing.  Cached compiled programs are keyed on
``obs.compile_tag()`` (see :meth:`repro.bpf.program.Program.
compiled_verifier`), so toggling obs transparently recompiles.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro import obs as _obs
from repro.bpf import isa
from repro.bpf.cfg import build_cfg
from repro.bpf.insn import Instruction
from repro.domains.product import ScalarValue

from . import absint as _absint
from .absint import (
    U64,
    _MIRRORED_OPS,
    _REFINERS,
    _SCALAR_BINOP,
    _apply_refinement,
    _pointer_alu,
    _shift_alu,
    _shift_method,
    _subreg,
    transfer_label,
)
from .errors import VerifierError
from .state import AbstractState, RegKind, RegState, Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bpf.program import Program

__all__ = [
    "CompiledVerifierProgram", "CompiledBlock", "compile_verifier",
    "step_label",
]

#: Telemetry hook threaded through every closure (``None`` disables it).
NoteFn = Optional[Callable[[int, str, ScalarValue], None]]
#: A compiled non-terminator instruction: applies one abstract transfer.
#: ``idx`` (the instruction index) is a *call-time* argument, used only
#: for error reporting and telemetry — keeping it out of the closure
#: cells makes every closure position-independent.
StepFn = Callable[[AbstractState, NoteFn, int], None]
#: A compiled conditional jump: returns the (fall-through, taken) states.
BranchFn = Callable[[AbstractState, NoteFn, int], Tuple[AbstractState, AbstractState]]

_SCALAR = RegKind.SCALAR
_PTR = RegKind.PTR
_NOT_INIT_REG = RegState.not_init()
_UNKNOWN_REG = RegState.unknown()
_FP = isa.FP_REG
_S31_MAX = 0x7FFF_FFFF


class CompiledBlock:
    """One basic block: body closures plus the pre-resolved terminator."""

    __slots__ = (
        "block_id", "indices", "steps", "term_idx", "branch", "is_exit",
        "successors",
    )

    def __init__(
        self,
        block_id: int,
        indices: Sequence[int],
        steps: Sequence[StepFn],
        term_idx: int,
        branch: Optional[BranchFn],
        is_exit: bool,
        successors: Tuple[int, ...],
    ) -> None:
        self.block_id = block_id
        #: instruction indexes of ``steps`` (for states_at recording).
        self.indices = indices
        #: body closures — every instruction except a cond-jump terminator.
        self.steps = steps
        #: index of the block's last instruction (branch/exit reporting).
        self.term_idx = term_idx
        self.branch = branch
        self.is_exit = is_exit
        self.successors = successors


class CompiledVerifierProgram:
    """Blocks in reverse post-order, each instruction compiled once."""

    __slots__ = ("blocks", "ctx_size")

    def __init__(self, blocks: List[CompiledBlock], ctx_size: int) -> None:
        self.blocks = blocks
        self.ctx_size = ctx_size

    def __len__(self) -> int:
        return sum(len(b.steps) + (1 if b.branch is not None else 0)
                   for b in self.blocks)


# -- helpers -------------------------------------------------------------------


def step_label(insn: Instruction) -> str:
    """Operator label an instruction's verifier work is charged to.

    The transfer-function name where one exists (``mul64``,
    ``refine_jgt64``, ...), else a structural class (``load``,
    ``store``, ``lddw``, ``mov64``, a jump mnemonic, ``exit``).  Shared
    by the campaign's rejection attribution and the obs per-operator
    timing, so "which operator costs time" and "which operator loses
    precision" rank over the same label space.
    """
    label = transfer_label(insn)
    if label is not None:
        return label
    if insn.is_lddw():
        return "lddw"
    cls = insn.cls()
    if cls == isa.CLS_LDX:
        return "load"
    if cls in (isa.CLS_ST, isa.CLS_STX):
        return "store"
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        return "mov64"
    if insn.is_exit():
        return "exit"
    if insn.is_jump():
        return isa.JMP_OP_NAMES.get(isa.BPF_OP(insn.opcode), "jump")
    return "other"


def _timed_step(step: StepFn, label: str) -> StepFn:
    """Per-operator timing shim (compiled in only when obs is enabled).

    The registry is resolved through the obs module at *call* time, so
    worker-scoped registries (merge-on-return) see the samples.
    """
    clock = time.perf_counter_ns
    record = _obs.record_op_time

    def timed(state: AbstractState, note: NoteFn, idx: int) -> None:
        t0 = clock()
        try:
            step(state, note, idx)
        finally:
            record("verifier", label, clock() - t0)

    return timed


def _timed_branch(branch: BranchFn, label: str) -> BranchFn:
    clock = time.perf_counter_ns
    record = _obs.record_op_time

    def timed(
        state: AbstractState, note: NoteFn, idx: int
    ) -> Tuple[AbstractState, AbstractState]:
        t0 = clock()
        try:
            return branch(state, note, idx)
        finally:
            record("verifier", label, clock() - t0)

    return timed


def _uninit(idx: int, reg: int) -> VerifierError:
    return VerifierError(idx, f"read of uninitialized register r{reg}")


def _raiser(message: str) -> StepFn:
    """A closure raising :class:`VerifierError` only when visited."""

    def step(state: AbstractState, note: NoteFn, idx: int) -> None:
        raise VerifierError(idx, message)

    return step


def _step_noop(state: AbstractState, note: NoteFn, idx: int) -> None:
    """Shared no-op: ``exit`` (checked at propagate) and ``ja``."""


def _step_call(state: AbstractState, note: NoteFn, idx: int) -> None:
    """Helper call (shared): clobber caller-saved regs, r0 unknown."""
    regs = state.regs
    regs[0] = _UNKNOWN_REG
    regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = _NOT_INIT_REG


# -- ALU -----------------------------------------------------------------------


def _compile_mov(insn: Instruction, is64: bool) -> StepFn:
    dst_i = insn.dst
    if insn.uses_imm():
        value = RegState.const(insn.imm & U64)
        if not is64:
            value = RegState.from_scalar(_subreg(value.scalar))
        if dst_i == _FP:
            return _raiser("write to read-only frame pointer r10")
        if is64:  # mov64 has no transfer label

            def step(state: AbstractState, note: NoteFn, idx: int) -> None:
                state.set_reg(dst_i, value)

        else:
            label = transfer_label(insn)
            scalar = value.scalar

            def step(state: AbstractState, note: NoteFn, idx: int) -> None:
                state.set_reg(dst_i, value)
                if note is not None:
                    note(idx, label, scalar)

        return step

    src_i = insn.src
    if is64:
        dst_is_fp = dst_i == _FP

        def step(state: AbstractState, note: NoteFn, idx: int) -> None:
            src = state._regs[src_i]
            if src.kind is RegKind.NOT_INIT:
                raise _uninit(idx, src_i)
            if dst_is_fp:
                raise VerifierError(idx, "write to read-only frame pointer r10")
            state.set_reg(dst_i, src)

    else:
        label = transfer_label(insn)
        dst_is_fp = dst_i == _FP

        def step(state: AbstractState, note: NoteFn, idx: int) -> None:
            src = state._regs[src_i]
            if src.kind is RegKind.NOT_INIT:
                raise _uninit(idx, src_i)
            if src.kind is _PTR:
                raise VerifierError(idx, "32-bit operation on pointer")
            reg = RegState.from_scalar(_subreg(src.scalar))
            if dst_is_fp:
                raise VerifierError(idx, "write to read-only frame pointer r10")
            state.set_reg(dst_i, reg)
            if note is not None:
                note(idx, label, reg.scalar)

    return step


def _compile_neg(insn: Instruction, is64: bool) -> StepFn:
    dst_i = insn.dst
    label = transfer_label(insn)
    dst_is_fp = dst_i == _FP

    def step(state: AbstractState, note: NoteFn, idx: int) -> None:
        dst = state._regs[dst_i]
        if dst.kind is RegKind.NOT_INIT:
            raise _uninit(idx, dst_i)
        if dst.kind is _PTR:
            raise VerifierError(idx, "arithmetic negation of pointer")
        scalar = dst.scalar.neg()
        if not is64:
            scalar = _subreg(scalar)
        if dst_is_fp:
            raise VerifierError(idx, "write to read-only frame pointer r10")
        state.set_reg(dst_i, RegState.from_scalar(scalar))
        if note is not None and label is not None:
            note(idx, label, scalar)

    return step


def _compile_alu(insn: Instruction, is64: bool) -> StepFn:
    op = isa.BPF_OP(insn.opcode)
    if op == isa.ALU_MOV:
        return _compile_mov(insn, is64)
    if op == isa.ALU_NEG:
        return _compile_neg(insn, is64)

    dst_i = insn.dst
    dst_is_fp = dst_i == _FP
    label = transfer_label(insn)
    use_imm = insn.uses_imm()
    if use_imm:
        src_i: Optional[int] = None
        imm_reg: Optional[RegState] = RegState.const(insn.imm & U64)
        # Operand truncation for 32-bit ops, hoisted to compile time.
        imm_scalar = imm_reg.scalar if is64 else _subreg(imm_reg.scalar)
    else:
        src_i = insn.src
        imm_reg = None
        imm_scalar = None

    binop = _SCALAR_BINOP.get(op)
    is_shift = op in (isa.ALU_LSH, isa.ALU_RSH, isa.ALU_ARSH)
    width = 64 if is64 else 32
    if is_shift:
        method = _shift_method(op, is64)
        const_count = (
            imm_scalar.const_value() & (width - 1)
            if imm_scalar is not None
            else None
        )
    else:
        method = None
        const_count = None

    def step(state: AbstractState, note: NoteFn, idx: int) -> None:
        regs = state._regs
        dst = regs[dst_i]
        if dst.kind is RegKind.NOT_INIT:
            raise _uninit(idx, dst_i)
        if src_i is None:
            src = imm_reg
        else:
            src = regs[src_i]
            if src.kind is RegKind.NOT_INIT:
                raise _uninit(idx, src_i)

        # Pointer arithmetic (64-bit only, kernel rule).
        if dst.kind is _PTR or src.kind is _PTR:
            if not is64:
                raise VerifierError(idx, "32-bit arithmetic on pointer")
            result = _pointer_alu(state, dst_i, idx, op, dst, src)
            if note is not None and label is not None and result.kind is _SCALAR:
                note(idx, label, result.scalar)
            return

        dst_s = dst.scalar if is64 else _subreg(dst.scalar)
        src_s = imm_scalar if src_i is None else (
            src.scalar if is64 else _subreg(src.scalar)
        )
        if binop is not None:
            result = binop(dst_s, src_s)
        elif method is not None:
            if const_count is not None:
                result = (
                    ScalarValue.bottom()
                    if dst_s.is_bottom() or src_s.is_bottom()
                    else method(dst_s, const_count)
                )
            else:
                result = _shift_alu(method, width, dst_s, src_s)
        else:
            raise VerifierError(idx, f"unsupported ALU op {op:#04x}")
        if not is64:
            result = _subreg(result)
        if dst_is_fp:
            raise VerifierError(idx, "write to read-only frame pointer r10")
        state.set_reg(dst_i, RegState.from_scalar(result))
        if note is not None and label is not None:
            note(idx, label, result)

    return step


# -- memory --------------------------------------------------------------------


def _compile_load(insn: Instruction, ctx_size: int) -> StepFn:
    src_i = insn.src
    dst_i = insn.dst
    dst_is_fp = dst_i == _FP
    size = insn.size_bytes()
    off = insn.off
    ctx_value = (
        _UNKNOWN_REG
        if size == 8
        else RegState.from_scalar(ScalarValue.from_range(0, (1 << (8 * size)) - 1))
    )

    def step(state: AbstractState, note: NoteFn, idx: int) -> None:
        ptr = state._regs[src_i]
        if ptr.kind is RegKind.NOT_INIT:
            raise _uninit(idx, src_i)
        # Resolved through the module so runtime patches apply (tests
        # disable the bounds check to prove the oracle catches it).
        _absint.check_mem_access(state, ptr, off, size, idx, ctx_size)
        if ptr.region == Region.STACK:
            value = _absint.load_stack(state, ptr, off, size, idx)
        else:
            value = ctx_value
        if dst_is_fp:
            raise VerifierError(idx, "write to read-only frame pointer r10")
        state.set_reg(dst_i, value)

    return step


def _compile_store(insn: Instruction, ctx_size: int) -> StepFn:
    dst_i = insn.dst
    size = insn.size_bytes()
    off = insn.off
    if insn.cls() == isa.CLS_STX:
        src_i: Optional[int] = insn.src
        imm_value: Optional[RegState] = None
    else:
        src_i = None
        imm_value = RegState.const(insn.imm & U64)

    def step(state: AbstractState, note: NoteFn, idx: int) -> None:
        ptr = state._regs[dst_i]
        if ptr.kind is RegKind.NOT_INIT:
            raise _uninit(idx, dst_i)
        if src_i is None:
            value = imm_value
        else:
            value = state._regs[src_i]
            if value.kind is RegKind.NOT_INIT:
                raise _uninit(idx, src_i)
        _absint.check_mem_access(state, ptr, off, size, idx, ctx_size)
        if ptr.region == Region.CTX and value.kind is _PTR:
            raise VerifierError(idx, "pointer store to ctx would leak an address")
        if ptr.region == Region.STACK:
            _absint.store_stack(state, ptr, off, size, value, idx)

    return step


# -- branches ------------------------------------------------------------------


def _compile_branch(insn: Instruction) -> BranchFn:
    op = isa.BPF_OP(insn.opcode)
    dst_i = insn.dst
    is32 = insn.cls() != isa.CLS_JMP
    label = transfer_label(insn)
    refine = _REFINERS.get(op)
    if insn.uses_imm():
        src_i: Optional[int] = None
        imm_bound: Optional[int] = insn.imm & U64
        mirror = None
    else:
        src_i = insn.src
        imm_bound = None
        mirrored_op = _MIRRORED_OPS.get(op)
        mirror = _REFINERS.get(mirrored_op) if mirrored_op is not None else None

    def branch(
        state: AbstractState, note: NoteFn, idx: int
    ) -> Tuple[AbstractState, AbstractState]:
        regs = state._regs
        dst = regs[dst_i]
        if dst.kind is RegKind.NOT_INIT:
            raise _uninit(idx, dst_i)
        if src_i is None:
            src = None
            src_val = imm_bound
        else:
            src = regs[src_i]
            if src.kind is RegKind.NOT_INIT:
                raise _uninit(idx, src_i)
            src_val = (
                src.scalar.const_value()
                if src.kind is _SCALAR and src.scalar.is_const()
                else None
            )

        fall = state
        taken = state.copy()
        if is32:
            # A 32-bit compare agrees with the 64-bit one when both the
            # register and the bound provably sit in [0, 2^31); otherwise
            # skip refinement (sound).
            if not (
                dst.kind is _SCALAR
                and dst.scalar.umax() <= _S31_MAX
                and src_val is not None
                and src_val <= _S31_MAX
            ):
                return fall, taken

        if dst.kind is _SCALAR and src_val is not None:
            if refine is not None:
                taken_s, fall_s = refine(dst.scalar, src_val)
                _apply_refinement(
                    taken, fall, dst_i, taken_s, fall_s, note, idx, label
                )
        elif (
            mirror is not None
            and src is not None
            and src.kind is _SCALAR
            and dst.kind is _SCALAR
            and dst.scalar.is_const()
        ):
            # Constant on the left: refine the register operand with the
            # mirrored comparison (c < r ⇔ r > c, etc.).
            taken_s, fall_s = mirror(src.scalar, dst.scalar.const_value())
            _apply_refinement(
                taken, fall, src_i, taken_s, fall_s, note, idx, label
            )
        return fall, taken

    return branch


# -- per-instruction dispatch --------------------------------------------------


def _compile_insn(insn: Instruction, ctx_size: int) -> StepFn:
    if insn.is_exit():
        return _step_noop
    if insn.is_lddw():
        # Exact reference semantics: lddw writes without the r10 check.
        value = RegState.const(insn.imm & U64)
        dst_i = insn.dst

        def step(state: AbstractState, note: NoteFn, idx: int) -> None:
            state.set_reg(dst_i, value)

        return step
    cls = insn.cls()
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        return _compile_alu(insn, is64=(cls == isa.CLS_ALU64))
    if cls == isa.CLS_LDX:
        return _compile_load(insn, ctx_size)
    if cls in (isa.CLS_ST, isa.CLS_STX):
        return _compile_store(insn, ctx_size)
    if insn.is_jump():
        op = isa.BPF_OP(insn.opcode)
        if op == isa.JMP_JA:
            return _step_noop
        if op == isa.JMP_CALL:
            return _step_call
    return _raiser(f"unsupported opcode {insn.opcode:#04x}")


def compile_verifier(program: "Program", ctx_size: int) -> CompiledVerifierProgram:
    """Compile every instruction exactly once; freeze CFG + walk order.

    Raises :class:`~repro.bpf.cfg.CFGError` for structurally invalid
    programs, exactly like the reference walk's CFG construction.
    """
    cfg = build_cfg(program)
    insns = program.insns
    # Checked once per compile: with obs off the loop below builds the
    # exact closures of the uninstrumented design.
    instrument = _obs.enabled()
    blocks: List[CompiledBlock] = []
    for block_id in cfg.reverse_post_order():
        blk = cfg.blocks[block_id]
        last = insns[blk.end]
        if last.is_cond_jump():
            body_end = blk.end - 1
            branch: Optional[BranchFn] = _compile_branch(last)
            if instrument:
                branch = _timed_branch(branch, step_label(last))
            is_exit = False
        else:
            body_end = blk.end
            branch = None
            is_exit = last.is_exit()
        indices = range(blk.start, body_end + 1)
        steps = [_compile_insn(insns[i], ctx_size) for i in indices]
        if instrument:
            steps = [
                _timed_step(step, step_label(insns[i]))
                for step, i in zip(steps, indices)
            ]
        blocks.append(
            CompiledBlock(
                block_id, indices, steps, blk.end, branch, is_exit,
                tuple(blk.successors),
            )
        )
    return CompiledVerifierProgram(blocks, ctx_size)
