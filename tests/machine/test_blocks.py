"""Unit tests for the basic-block discovery pass and the fused
block engine (``engine="superblocks"``)."""

import pytest

from repro.isa import assemble
from repro.machine import CPU, MachineConfig
from repro.machine.blocks import (
    MAX_BLOCK_LEN,
    BasicBlock,
    find_blocks,
    find_leaders,
)


def blocks_by_start(program):
    return {block.start: block for block in find_blocks(program)}


class TestLeaderDiscovery:
    def test_straight_line_has_single_leader(self):
        program = assemble("""
        main:
            mov r1, 1
            add r1, r1, 2
            halt r1
        """)
        assert find_leaders(program) == {0}
        [block] = find_blocks(program)
        assert (block.start, block.length) == (0, 3)
        assert block.succs == ()

    def test_branch_targets_and_fallthroughs_are_leaders(self):
        program = assemble("""
        main:
            mov r1, 5
        loop:
            sub r1, r1, 1
            bnez r1, loop
            mov r2, 7
            halt r2
        """)
        # leaders: entry, loop target, fallthrough after bnez
        assert find_leaders(program) == {0, 1, 3}
        blocks = blocks_by_start(program)
        assert blocks[0].length == 1          # mov feeds the loop head
        assert blocks[1].length == 2          # sub + bnez
        assert set(blocks[1].succs) == {1, 3}  # taken + fallthrough
        assert blocks[3].length == 2          # mov + halt

    def test_self_loop_is_its_own_block(self):
        program = assemble("main:\n  jmp main\n")
        assert find_leaders(program) == {0}
        [block] = find_blocks(program)
        assert (block.start, block.length) == (0, 1)
        assert block.succs == (0,)

    def test_call_creates_target_and_return_leaders(self):
        program = assemble("""
        main:
            call fn
            halt 0
        fn:
            mov r0, 3
            ret
        """)
        assert find_leaders(program) == {0, 1, 2}
        blocks = blocks_by_start(program)
        assert blocks[0].succs == (2,)        # call edge only
        assert blocks[2].length == 2          # mov + ret
        assert blocks[2].succs == ()          # indirect return

    def test_setcode_immediate_is_a_leader(self):
        program = assemble("""
        main:
            setcode r1, fn
            callr r1
            halt 0
        fn:
            mov r0, 1
            ret
        """)
        leaders = find_leaders(program)
        assert 3 in leaders                   # the setcode target
        assert 2 in leaders                   # callr return point

    def test_branchy_program_blocks_partition_the_code(self):
        program = assemble("""
        main:
            mov r1, 10
            mov r2, 0
        head:
            beqz r1, done
            add r2, r2, r1
            sub r1, r1, 1
            jmp head
        done:
            halt r2
        """)
        blocks = find_blocks(program)
        covered = sorted(pc for block in blocks
                         for pc in range(block.start, block.end))
        assert covered == list(range(len(program.instrs)))

    def test_long_run_is_capped_and_chained(self):
        body = "\n".join("  add r1, r1, 1"
                         for _ in range(MAX_BLOCK_LEN + 10))
        program = assemble("main:\n%s\n  halt r1\n" % body)
        blocks = find_blocks(program)
        assert len(blocks) == 2
        first, second = blocks
        assert first.length == MAX_BLOCK_LEN
        assert first.succs == (second.start,)
        assert second.start == MAX_BLOCK_LEN

    def test_basicblock_repr_and_end(self):
        block = BasicBlock(4, 3, (9,))
        assert block.end == 7
        assert "4..6" in repr(block)


class TestBlockExecution:
    def test_computed_entry_into_block_middle(self):
        """A callr into a non-leader pc falls back to single-stepping."""
        program = assemble("""
        main:
            setcode r1, target
            add r1, r1, 1
            callr r1
        target:
            mov r0, 7
            add r0, r0, 1
            add r0, r0, 1
            halt r0
        """)
        results = {}
        for engine in ("legacy", "superblocks"):
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            result = cpu.run()
            results[engine] = (result.exit_code, result.instructions,
                               cpu.pc)
        assert results["superblocks"] == results["legacy"]
        # entry skipped the mov, so r0 counts up from its initial 0
        assert results["superblocks"][0] == 2
        # the three instructions after the entry point ran one by one
        assert cpu.engine_stats["fallback_steps"] == 3

    def test_functional_loop_result(self):
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 100
        loop:
            add r1, r1, 3
            sub r2, r2, 1
            bnez r2, loop
            halt r1
        """)
        cpu = CPU(program, MachineConfig.plain(timing=False,
                                               engine="superblocks"))
        result = cpu.run()
        assert result.exit_code == 300
        assert result.instructions == 2 + 3 * 100 + 1
        # entry block, 100 loop iterations, the halt block
        assert result.engine_stats["block_dispatches"] == 102
        assert result.engine_stats["fallback_steps"] == 0

    def test_blocks_engine_uses_fast_memory_system(self):
        from repro.caches.fast import FastMemorySystem
        program = assemble("main:\n  halt 0\n")
        cpu = CPU(program, MachineConfig.hardbound(engine="superblocks",
                                                   timing=True))
        assert isinstance(cpu.memsys, FastMemorySystem)
        cpu_decoded = CPU(program, MachineConfig.hardbound(
            engine="decoded", timing=True))
        assert not isinstance(cpu_decoded.memsys, FastMemorySystem)

    def test_engine_name_is_validated(self):
        with pytest.raises(ValueError):
            MachineConfig(engine="warp")
        with pytest.raises(ValueError,
                           match="legacy, decoded, superblocks"):
            MachineConfig(engine="blocks")


class TestFusedMemoryTemplates:
    """The word memory templates: load/store bodies generated into
    the block closures (segment check + flat-arena access + tag
    probe + timing charge), bit-identical to the other engines."""

    ENGINES = ("legacy", "decoded", "superblocks")

    def run_all(self, program, mode_fn, timing):
        results = {}
        for engine in self.ENGINES:
            cpu = CPU(program, mode_fn(timing=timing, engine=engine))
            r = cpu.run()
            results[engine] = (r.exit_code, r.instructions, r.uops,
                               r.stall_cycles, r.cycles,
                               cpu.memory.nonzero_pages())
        assert results["superblocks"] == results["legacy"]
        assert results["decoded"] == results["legacy"]
        return results["superblocks"]

    @pytest.mark.parametrize("timing", (False, True))
    def test_indexed_forms_fuse_identically(self, timing):
        """[base + index*scale + disp] loads and stores in a block."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r4, 2
            mov r5, 777
            store [r3 + r4*4 + 8], r5
            load r6, [r3 + r4*4 + 8]
            halt r6
        """)
        for mode_fn in (MachineConfig.hardbound, MachineConfig.plain):
            out = self.run_all(program, mode_fn, timing)
            assert out[0] == 777

    @pytest.mark.parametrize("timing", (False, True))
    def test_si_bounds_trap_mid_template(self, timing):
        """A BoundsError raised inside a fused si-form load keeps the
        per-instruction pc/icount attribution."""
        from repro.machine import BoundsError
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 16
            mov r4, 5
            load r6, [r3 + r4*4]
            halt 0
        """)
        traps = {}
        for engine in self.ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=timing, engine=engine))
            with pytest.raises(BoundsError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        assert traps["superblocks"] == traps["legacy"]
        assert traps["decoded"] == traps["legacy"]

    @pytest.mark.parametrize("timing", (False, True))
    def test_unaligned_word_spills_identically(self, timing):
        """Unaligned fused words take the raw_* spill path."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            add r3, r3, 1
            mov r5, 31337
            store [r3 + 4], r5
            load r6, [r3 + 4]
            halt r6
        """)
        out = self.run_all(program, MachineConfig.hardbound, timing)
        assert out[0] == 31337

    def test_memory_fault_mid_block_attribution(self):
        """A MemoryFault from the fused segment check points at the
        faulting instruction, not the block end."""
        from repro.machine import MemoryFault
        program = assemble("""
        main:
            mov r1, 0x2000000
            mov r2, 1
            mov r3, 2
            load r4, [r1]
            mov r5, 3
            halt 0
        """)
        traps = {}
        for engine in self.ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(MemoryFault) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        assert traps["superblocks"] == traps["legacy"]
        assert traps["decoded"] == traps["legacy"]

    def test_memory_templates_emitted(self):
        """The hot word shapes really fuse (no silent fallback)."""
        import repro.machine.blocks as blocks_mod
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r5, 5
            store [r3], r5
            load r6, [r3]
            halt r6
        """)
        CPU(program, MachineConfig.hardbound(
            engine="superblocks", timing=True)).run()
        shapes = {shape for sig in blocks_mod._fuse_cache
                  for shape in sig}
        assert any(shape.startswith("ldhb_") for shape in shapes)
        assert any(shape.startswith("sthb_") for shape in shapes)
