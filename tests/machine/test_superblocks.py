"""Fused-engine (``engine="superblocks"``) tests: edge cases,
template coverage, fusion plans.

The fused engine must be bit-identical to every other engine on
every exit path — including traps raised inside hot fused loops and
callees, control transfers into the middle of a block, and
instruction limits that would fire inside one.  The full-registry
sweep at the bottom extends the equivalence chain over all nine
Olden workloads (``superblocks`` vs ``decoded`` here; ``decoded``
vs ``legacy`` in ``test_engine_differential``).
"""

import builtins
import weakref

import pytest

import repro.machine.blocks as blocks_mod
from repro.caches.hierarchy import CacheParams
from repro.harness.runner import compile_cached, run_workload
from repro.isa import assemble
from repro.machine import CPU, MachineConfig
from repro.minic.driver import mode_for_config
from repro.workloads.registry import WORKLOADS

ENGINES = ("legacy", "decoded", "superblocks")


def run_all(program, mode_fn, timing=False):
    """Run under all three engines; assert identical, return the
    fused engine's cpu."""
    results = {}
    cpus = {}
    for engine in ENGINES:
        cpu = CPU(program, mode_fn(timing=timing, engine=engine))
        r = cpu.run()
        results[engine] = (r.exit_code, r.instructions, r.uops,
                           r.stall_cycles, r.cycles, cpu.pc,
                           cpu.memory.nonzero_pages())
        cpus[engine] = cpu
    for engine in ENGINES[1:]:
        assert results[engine] == results["legacy"], engine
    return cpus["superblocks"]


LOOP = """
main:
    mov r1, 0
    mov r2, 200
head:
    beqz r2, done
    add r1, r1, 3
    jmp step
step:
    sub r2, r2, 1
    jmp head
done:
    halt r1
"""


class TestTraceFormation:
    """The fused engine forms no traces: its trace counters travel on
    every result, pinned to zero."""

    def test_engine_stats_travel_on_run_result(self):
        program = assemble(LOOP)
        config = MachineConfig.plain(timing=False, engine="superblocks")
        result = CPU(program, config).run()
        stats = result.engine_stats
        assert stats["engine"] == "superblocks"
        # entry block, 200 iterations of three blocks, the final
        # loop test and the halt block
        assert stats["block_dispatches"] == 1 + 3 * 200 + 2
        assert stats["fallback_steps"] == 0
        assert stats["closure_fallback_ops"] == {"halt": 1}
        for key in ("traces_formed", "trace_dispatches",
                    "mean_trace_blocks", "side_exits"):
            assert stats[key] == 0, key


class TestTraceTraps:
    """Traps, instruction limits and computed entries inside hot
    fused loops."""

    def test_mid_trace_trap_attribution(self):
        """A trap firing inside a fused block of a hot loop reports
        the faulting instruction's pc and count, not the block
        boundary's."""
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 100
        head:
            beqz r2, done
            add r1, r1, 3
            sub r2, r2, 1
            jmp step
        step:
            sub r3, r2, 50
            div r4, r1, r3
            jmp head
        done:
            halt r1
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(DivideByZeroError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        for engine in ENGINES[1:]:
            assert traps[engine] == traps["legacy"], engine
        # the div fired from its fused template, not a single step
        assert cpu.engine_stats["fallback_steps"] == 0
        assert cpu.engine_stats["block_dispatches"] > 100

    def test_mid_trace_bounds_trap(self):
        """A HardBound violation inside a fused memory template of a
        hot loop keeps per-instruction attribution."""
        from repro.machine import BoundsError
        source = """
        int main() {
            int *p = (int*)malloc(32 * sizeof(int));
            int i;
            for (i = 0; i < 100; i = i + 1) {
                p[i] = i;              // overruns at i == 32
            }
            return 0;
        }"""
        config = MachineConfig.hardbound(timing=False)
        from repro.minic.driver import compile_program
        program = compile_program(source, mode_for_config(config))
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=False, engine=engine))
            with pytest.raises(BoundsError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        for engine in ENGINES[1:]:
            assert traps[engine] == traps["legacy"], engine

    def test_limit_busting_demotes_trace(self):
        """When the whole-block charge would overrun the instruction
        limit, the dispatch single-steps the block instead, landing
        on exactly the legacy pc/icount."""
        program = assemble(LOOP)
        for limit in (50, 101, 202, 303, 500, 799, 800, 801):
            states = {}
            for engine in ENGINES:
                cpu = CPU(program, MachineConfig.plain(
                    timing=False, engine=engine,
                    max_instructions=limit))
                from repro.machine import InstructionLimitExceeded
                try:
                    result = cpu.run()
                    states[engine] = ("halt", result.exit_code,
                                      result.instructions, cpu.pc)
                except InstructionLimitExceeded:
                    states[engine] = ("limit", cpu.icount, cpu.pc)
            for engine in ENGINES[1:]:
                assert states[engine] == states["legacy"], (engine,
                                                            limit)

    def test_entry_into_trace_middle(self):
        """A computed call into a pc interior to a hot loop block
        single-steps to the next block boundary."""
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 40
            mov r7, 0
        head:
            beqz r2, after
            add r1, r1, 3
            add r1, r1, 4
            jmp step
        step:
            sub r2, r2, 1
            jmp head
        after:
            bnez r7, fin
            mov r7, 1
            mov r2, 5
            setcode r5, head
            add r5, r5, 2
            callr r5
        fin:
            halt r1
        """)
        # the callr lands on "add r1, r1, 4", inside the loop body's
        # block — skipping the loop-exit compare and the first add
        # once, then re-entering the loop head normally
        cpu = run_all(program, MachineConfig.plain)
        # "add r1, r1, 4" and "jmp step" ran one by one
        assert cpu.engine_stats["fallback_steps"] == 2

    def test_single_stepped_trap_after_block_dispatch(self):
        """A five-instruction block dispatches, then a computed call
        into a non-leader pc single-steps into a divide by zero: the
        trap is charged one instruction, not the last block's length."""
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 7
            mov r2, 0
            mov r5, 7
            setcode r4, r5
            callr r4
            halt 0
        other:
            add r1, r1, 1
            div r3, r1, r2
            halt r3
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(DivideByZeroError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        assert traps["legacy"][1:] == (7, 6, 7)
        for engine in ENGINES[1:]:
            assert traps[engine] == traps["legacy"], engine
        assert cpu.engine_stats["block_dispatches"] == 1
        assert cpu.engine_stats["fallback_steps"] == 1


class TestCrossCallTraces:
    """Hot loops that call and return."""

    def test_recursive_call_chain(self):
        """Direct recursion: push/pop-framed recursive returns stay
        bit-identical."""
        program = assemble("""
        main:
            mov r1, 0
            mov r5, 30
        outer:
            beqz r5, done
            mov r2, 6
            call fn
        ostep:
            sub r5, r5, 1
            jmp outer
        fn:
            beqz r2, fbase
            add r1, r1, 1
            sub r2, r2, 1
            push ra
            call fn
        fmid:
            pop ra
            ret
        fbase:
            ret
        done:
            halt r1
        """)
        run_all(program, MachineConfig.plain)

    def test_mid_callee_trap_attribution(self):
        """A div-by-zero inside a called function keeps exact
        pc/icount attribution under every engine."""
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 100
        head:
            beqz r2, done
            call fn
        back:
            sub r2, r2, 1
            jmp head
        fn:
            sub r3, r2, 50
            div r4, r1, r3
            add r1, r1, 3
            ret
        done:
            halt r1
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(DivideByZeroError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        for engine in ENGINES[1:]:
            assert traps[engine] == traps["legacy"], engine


class TestFullCoverageTemplates:
    def test_subword_and_env_ops_fuse(self):
        """Sub-word load/store and setbound/sbrk never appear in the
        closure-fallback counts."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r2, 50
        loop:
            beqz r2, done
            storeb [r3 + 1], r2
            loadb r4, [r3 + 1]
            storeh [r3 + 4], r4
            loadh r5, [r3 + 4]
            sub r2, r2, 1
            jmp loop
        done:
            halt r5
        """)
        cpu = run_all(program, MachineConfig.hardbound, timing=True)
        fallback = cpu.engine_stats["closure_fallback_ops"]
        for op in ("load", "store", "setbound", "sbrk"):
            assert op not in fallback, fallback

    @pytest.mark.parametrize("timing", (False, True))
    def test_subword_traffic_identical(self, timing):
        """Byte/halfword traffic through the fused generic templates
        matches every engine, stats included."""
        source = """
        int main() {
            char *s = (char*)malloc(64);
            int i;
            int acc = 0;
            for (i = 0; i < 60; i = i + 1) {
                s[i] = i * 7;
            }
            for (i = 0; i < 60; i = i + 1) {
                acc = acc + s[i];
            }
            return acc;
        }"""
        config = MachineConfig.hardbound(timing=timing)
        program = compile_cached(source, mode_for_config(config))
        run_all(program, MachineConfig.hardbound, timing=timing)

    def test_nonprop_expression_templates_identical(self):
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 30
        loop:
            beqz r2, done
            mul r3, r2, -3
            and r4, r3, 255
            xor r5, r4, r2
            shl r6, r5, 2
            sra r7, r3, 1
            add r1, r1, r7
            sub r2, r2, 1
            jmp loop
        done:
            halt r1
        """)
        run_all(program, MachineConfig.plain)


class TestInlineCompressibleExpr:
    def test_expr_matches_methods(self):
        """The spliced compressibility expressions agree with the
        stock encodings' is_compressible on a value grid."""
        from repro.metadata.encodings import (
            ENCODINGS,
            inline_compressible_expr,
        )
        cases = []
        for base in (0, 0x1000, 0x7FFF0000, 0xFFFFFF00):
            for size in (0, 4, 8, 56, 60, 8192, 8196, 10000):
                bound = (base + size) & 0xFFFFFFFF
                for value in (base, base + 4, 0):
                    cases.append((value, base, bound))
        for name, cls in ENCODINGS.items():
            enc = cls()
            expr = inline_compressible_expr(enc, "v", "b", "bd")
            assert expr is not None, name
            fn = eval("lambda v, b, bd: bool(%s)" % expr)
            for v, b, bd in cases:
                assert fn(v, b, bd) == bool(enc.is_compressible(v, b, bd)), \
                    (name, v, b, bd)

    def test_subclassed_encoding_returns_none(self):
        from repro.metadata.encodings import (
            Internal11Encoding,
            inline_compressible_expr,
        )

        class Odd(Internal11Encoding):
            def is_compressible(self, value, base, bound):
                return False

        assert inline_compressible_expr(Odd(), "v", "b", "bd") is None


def count_fuser_compiles(monkeypatch) -> list:
    """From now on, record the source of every fuser ``compile()``."""
    real_compile = builtins.compile
    sources = []

    def counting_compile(source, filename, *args, **kwargs):
        if filename == blocks_mod._FUSE_FILENAME:
            sources.append(source)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    return sources


def result_snapshot(r):
    return (r.exit_code, r.output, r.instructions, r.uops,
            r.stall_cycles, r.cycles, r.setbound_uops,
            r.hb_stats.as_dict(), r.mem_stats.as_dict())


class TestFusionPlanCache:
    def test_second_run_rebinds_every_block_without_compiling(
            self, monkeypatch):
        """A second run of the same program re-binds every block
        closure from the program's fusion plan: it generates and
        compiles no fuser source at all."""
        program = assemble(LOOP)
        config = MachineConfig.hardbound(engine="superblocks")
        first = CPU(program, config).run()
        [plan] = blocks_mod._plan_cache[program].values()
        assert len(plan.blocks) == len(blocks_mod.find_blocks(program))

        fuser_compiles = count_fuser_compiles(monkeypatch)
        cpu = CPU(program, config)
        second = cpu.run()
        assert fuser_compiles == []
        assert list(blocks_mod._plan_cache[program].values()) == [plan]
        assert (second.cycles, second.instructions) \
            == (first.cycles, first.instructions)
        assert second.engine_stats == first.engine_stats
        # every dispatch went through a re-bound block closure
        assert second.engine_stats["fallback_steps"] == 0

    def test_fusion_does_not_depend_on_cache_geometry(self, monkeypatch):
        """Fused memory templates call the fast model's compiled
        probes, so a HardBound timed program fused under the default
        geometry re-binds its plan under any other geometry — unrolled
        (``assoc=1``) and bounded-scan (``assoc > 4``) probes alike —
        without compiling fuser source, and still matches the legacy
        engine's statistics under that geometry."""
        monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
        monkeypatch.setattr(blocks_mod, "_plan_cache",
                            weakref.WeakKeyDictionary())
        config = MachineConfig.hardbound(engine="superblocks")
        run_workload("treeadd", config)

        fuser_compiles = count_fuser_compiles(monkeypatch)
        params = CacheParams(l1_assoc=1, tag_cache_assoc=8,
                             tlb_assoc=8, l2_assoc=16)
        fused = run_workload("treeadd", config, cache_params=params)
        assert fuser_compiles == []
        legacy = run_workload(
            "treeadd", MachineConfig.hardbound(engine="legacy"),
            cache_params=params)
        assert result_snapshot(fused) == result_snapshot(legacy)
        # the geometry really changed the charge
        default = run_workload("treeadd", config)
        assert fused.mem_stats.as_dict() != default.mem_stats.as_dict()

    def test_generated_source_per_static_instruction(self, monkeypatch):
        """The fused templates carry the composite-hit lines and one
        probe call, not whole probe bodies: a cold HardBound timed
        Olden run compiles about 600 bytes of fuser source per static
        instruction, and pasting the probe bodies into the templates
        would take it to about 2,300."""
        monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
        monkeypatch.setattr(blocks_mod, "_plan_cache",
                            weakref.WeakKeyDictionary())
        config = MachineConfig.hardbound(engine="superblocks")
        program = compile_cached(WORKLOADS["treeadd"].source,
                                 mode_for_config(config), True)
        sources = count_fuser_compiles(monkeypatch)
        run_workload("treeadd", config)
        per_instr = (sum(len(src) for src in sources)
                     / len(program.instrs))
        assert 0 < per_instr < 1000, per_instr


class TestFullRegistryEquivalence:
    """Acceptance: bit-identity on the full Olden registry.

    The fused engine (``superblocks``) against ``decoded`` on every
    workload (timed, so cache/TLB counters are in play);
    ``decoded`` vs ``legacy`` on the sampled workloads plus every
    trap scenario in ``test_engine_differential`` close the chain to
    the reference interpreter.
    """

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_superblocks_matches_blocks_timed(self, name):
        snaps = {}
        for engine in ("decoded", "superblocks"):
            config = MachineConfig.hardbound(engine=engine,
                                             retain_cpu=True)
            r = run_workload(name, config)
            snaps[engine] = (
                r.exit_code, r.output, r.instructions, r.uops,
                r.stall_cycles, r.cycles, r.setbound_uops,
                r.hb_stats.as_dict(), r.mem_stats.as_dict(),
                r.cpu.memory.nonzero_pages())
        assert snaps["superblocks"] == snaps["decoded"]

    def test_plain_core_matches_blocks_timed(self):
        for name in ("em3d", "health"):
            snaps = {}
            for engine in ("decoded", "superblocks"):
                r = run_workload(name, MachineConfig.plain(
                    engine=engine))
                snaps[engine] = (r.exit_code, r.output,
                                 r.instructions, r.cycles,
                                 r.mem_stats.as_dict())
            assert snaps["superblocks"] == snaps["decoded"]
