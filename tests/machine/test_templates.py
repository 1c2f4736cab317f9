"""The instruction templates are total.

Both fast engines run compiled source templates
(:mod:`repro.machine.blocks`): the decoded engine one per instruction,
the fused engine one per basic block.  Every opcode, in every operand
form, must have a template under every run configuration — otherwise
some instruction would have no fast-engine semantics at all.
"""

import pytest

import repro.machine.blocks as blocks_mod
from repro.hardbound.engine import HardBoundEngine
from repro.isa import assemble
from repro.isa.opcodes import Op
from repro.machine import CPU, MachineConfig
from repro.machine.decode import bind_env

#: every opcode in each of its operand forms: register/immediate
#: second operands, base/index/base+index/absolute addressing, the
#: three access sizes, frame-register bases and div/mod by an
#: immediate zero
EVERY_FORM = """
main:
    mov r1, r2
    mov r1, 7
    lea r1, [r2 + r3*4 + 8]
    lea r1, [r2 + 8]
    lea r1, [r3*4 + 8]
    lea r1, [4096]
    xchg r1, r2
    add r1, r2, r3
    add r1, r2, 4
    sub r1, r2, r3
    sub r1, r2, 4
    mul r1, r2, r3
    mul r1, r2, -3
    div r1, r2, r3
    div r1, r2, -3
    div r1, r2, 0
    mod r1, r2, r3
    mod r1, r2, 5
    mod r1, r2, 0
    and r1, r2, r3
    and r1, r2, 255
    or r1, r2, r3
    or r1, r2, 1
    xor r1, r2, r3
    xor r1, r2, 1
    shl r1, r2, r3
    shl r1, r2, 2
    shr r1, r2, r3
    shr r1, r2, 2
    sra r1, r2, r3
    sra r1, r2, 2
    neg r1, r2
    not r1, r2
    seq r1, r2, r3
    seq r1, r2, 1
    sne r1, r2, r3
    sne r1, r2, 1
    slt r1, r2, r3
    slt r1, r2, -1
    sle r1, r2, r3
    sle r1, r2, 1
    sgt r1, r2, r3
    sgt r1, r2, 1
    sge r1, r2, r3
    sge r1, r2, 1
    sltu r1, r2, r3
    sltu r1, r2, 1
    sgeu r1, r2, r3
    sgeu r1, r2, 1
    load r1, [r2 + r3*4 + 8]
    load r1, [r2 + 8]
    load r1, [r3*4 + 8]
    load r1, [4096]
    load r1, [sp + 4]
    load r1, [fp + r3*4]
    loadh r1, [r2 + 2]
    loadh r1, [r2 + r3*2]
    loadb r1, [r2 + 1]
    loadb r1, [4096]
    store [r2 + r3*4 + 8], r1
    store [r2 + 8], r1
    store [r3*4 + 8], r1
    store [4096], r1
    store [sp + 4], r1
    store [fp + r3*4], r1
    storeh [r2 + 2], r1
    storeh [r3*2 + 2], r1
    storeb [r2 + 1], r1
    storeb [4096], r1
    jmp next
next:
    beqz r1, next
    bnez r1, next
    call next
    callr r4
    ret
    setbound r1, r2, r3
    setbound r1, r2, 64
    readbase r1, r2
    readbound r1, r2
    setunsafe r1, r2
    setcode r1, r2
    setcode r1, main
    clrbnd r1, r2
    markfree r1, r2
    markfree r1, 16
    sbrk r1
    print r1
    printc r1
    prints r1
    abort r1
    abort 3
    halt r1
    halt 0
"""


class _Observer:
    def on_setbound(self, value, size):
        pass

    def on_mem(self, ea, size, write):
        pass

    def on_pointer_arith(self, value):
        pass


class _SubstitutedEngine(HardBoundEngine):
    """A non-stock metadata engine: templates must not inline it."""


def _cpu(config, observer=False):
    cpu = CPU(assemble(EVERY_FORM), config)
    if observer:
        cpu.observer = _Observer()
    return cpu


#: name -> (config, attach an observer?)
CONTEXTS = {
    "plain": (MachineConfig.plain(timing=False), False),
    "malloc-only": (MachineConfig.malloc_only(timing=False), False),
    "full": (MachineConfig.hardbound(timing=False), False),
    "plain-fast-timed": (MachineConfig.plain(engine="superblocks"),
                         False),
    "plain-classic-timed": (MachineConfig.plain(engine="decoded"),
                            False),
    "full-fast-timed": (MachineConfig.hardbound(engine="superblocks"),
                        False),
    "full-classic-timed": (MachineConfig.hardbound(engine="decoded"),
                           False),
    "malloc-only-classic-timed": (
        MachineConfig.malloc_only(engine="decoded"), False),
    "temporal": (MachineConfig.hardbound(temporal=True), False),
    "temporal-classic-timed": (
        MachineConfig.hardbound(temporal=True, engine="decoded"), False),
    "plain-observer": (MachineConfig.plain(), True),
    "full-observer-classic-timed": (
        MachineConfig.hardbound(engine="decoded"), True),
    "check-uop": (MachineConfig.hardbound(check_uop=True), False),
    "engine-factory": (
        MachineConfig.hardbound(engine_factory=_SubstitutedEngine),
        False),
}


def test_program_covers_every_opcode():
    ops = {instr.op for instr in assemble(EVERY_FORM).instrs}
    assert ops == set(Op)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_every_instruction_has_a_template(name):
    """Every instruction has a template, and it compiles as a one-part
    fuser into the callable per-instruction closure."""
    config, observer = CONTEXTS[name]
    cpu = _cpu(config, observer)
    fuser = blocks_mod.Fuser(cpu, bind_env(cpu))
    for pc, instr in enumerate(cpu.program.instrs):
        part = blocks_mod._template_part(instr, pc, fuser.ctx)
        assert part is not None, (name, pc, instr.op.value)
        assert callable(fuser.closure(pc)), (name, pc)
        assert fuser.code[pc] is fuser.closure(pc)
