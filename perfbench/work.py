"""One benchmark measurement in a fresh interpreter.

``run.py`` starts this script once per measurement (and a few more
times, ``--setup-only``, to sample set-up time), with ``src/`` on
``PYTHONPATH``; the script prints one JSON record as its last line::

    python3 perfbench/work.py olden --seed 1 --seconds 4 --trace 0 \\
        --spawn-time <time.time() of the launcher>
    python3 perfbench/work.py make-reference

The three workloads (see README.md for why these three) each measure
one cold phase, a fixed amount of work in the fresh process:

``olden``
    compile the nine Olden programs plain and HardBound ``intern11``
    (set-up), then run the 18-run timed sweep once.
``figures``
    the full 54-cell Figures 5-7 matrix over 2 workers into a fresh
    result cache, then the three tables rendered.
``fuzz``
    a fixed batch of ISA and MiniC fuzz seeds through the four-engine
    oracle.

The cold phase samples host speed (``calib.py``) between its timed
operations, or from a background thread while the matrix runs, and
its time is divided by the factor the samples give.  Set-up time is
divided by the factor of samples taken right after set-up.

The seed permutes run order (Olden runs, matrix jobs, fuzz seeds);
simulated counters do not depend on it and are checked against
``reference.json`` on every operation.

With ``--trace 1`` the simulator's public functions are wrapped in
spans (``spans.py``) and a warm phase follows the cold one, sampling
for ``--seconds``: the sweep repeated until the superblock plan cache
stops forming traces and then timed, the matrix request replayed from
the cache, the fuzz batch run again.  Traced-only work follows (the
execute ablation on ``olden``, per-kind baseline cells on ``figures``)
and the record carries every per-layer metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from time import perf_counter
from typing import Dict, List, Optional

import calib
import refcheck
import spans

WORKLOADS = ("olden", "figures", "fuzz")

#: end-to-end metrics (untraced run) and their units
E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "peak_rss_mb": "MB",
}

_MINIC_STAGES = ("lex", "parse", "sema", "codegen", "optimize")
_PHASES = ("decode", "cfg_fusion", "trace_formation", "execute_net")
_ENGINES = ("legacy", "decoded", "blocks", "superblocks")
_ENCODINGS = ("extern4", "intern4", "intern11")

#: per-layer metrics (traced run) and their units; a layer a workload
#: does not exercise reads 0 there (README.md lists which feeds which)
PER_LAYER_UNITS: Dict[str, str] = {"warm_s": "s"}
PER_LAYER_UNITS.update({"minic.%s_s" % s: "s" for s in _MINIC_STAGES})
PER_LAYER_UNITS.update({
    "minic.tokens": "count",
    "minic.asm_lines_removed": "count",
    "isa.assemble_s": "s",
    "isa.static_instrs": "count",
})
for _when in ("cold", "warm"):
    PER_LAYER_UNITS.update({"machine.%s.%s_s" % (_when, p): "s"
                            for p in _PHASES})
PER_LAYER_UNITS.update({
    "machine.fuse_compile_s": "s",
    "machine.fuse_source_build_s": "s",
    "machine.fuse_source_bytes": "bytes",
    "machine.fuse_bytes_per_static_instr": "bytes",
    "machine.traces_formed": "count",
    "machine.mean_trace_blocks": "blocks",
    "machine.side_exit_rate": "ratio",
    "machine.trace_dispatch_share": "ratio",
    "machine.dispatch_s": "s",
    "hardbound.check_prop_s": "s",
    "caches.timing_model_s": "s",
    "machine.hb_timed_execute_s": "s",
    "machine.warm_instr_per_s": "1/s",
    "caches.probe_compile_s": "s",
    "caches.l1_miss_rate": "ratio",
    "caches.l2_miss_rate": "ratio",
    "caches.tag_miss_rate": "ratio",
    "caches.tlb_miss_rate": "ratio",
    "caches.metadata_stall_cycles": "cycles",
    "hardbound.checks": "count",
    "hardbound.meta_uops": "count",
})
PER_LAYER_UNITS.update({"metadata.compression_ratio.%s" % e: "ratio"
                        for e in _ENCODINGS})
PER_LAYER_UNITS.update({
    "paper_err_pp": "pp",
    "baselines.ccured_cold_s": "s",
    "baselines.ccured_warm_s": "s",
    "baselines.objtable_cold_s": "s",
    "baselines.objtable_warm_s": "s",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "harness.cache_writes": "count",
    "harness.cache_corrupt": "count",
    "harness.worker_busy_frac": "ratio",
    "harness.render_s": "s",
    "harness.replay_p95_ms": "ms",
    "fuzz.generate.isa_s": "s",
    "fuzz.generate.minic_s": "s",
    "fuzz.minic_compile_s": "s",
})
PER_LAYER_UNITS.update({
    "fuzz.run_once.%s.%s_s" % (e, t): "s"
    for e in _ENGINES for t in ("functional", "timed")})
PER_LAYER_UNITS["trace.coverage"] = "ratio"
PER_LAYER_UNITS.update({"host.cold_wall_s": "s", "host.speed_factor": "ratio"})

#: the Olden cells the ``olden`` sweep runs (plain core, HardBound)
OLDEN_KINDS = ("base", "intern11")

#: the fuzz batch: fixed, so batch time measures the code and not the
#: luck of the draw (per-seed cost varies 4x between seeds)
FUZZ_BATCH = ([("isa", seed) for seed in range(24)]
              + [("minic", seed) for seed in range(6)])

#: warm-phase samples taken even when ``--seconds`` runs out first
MIN_WARM_SAMPLES = {"olden": 3, "figures": 20, "fuzz": 2}

#: plan-cache convergence passes allowed before the run fails for a
#: sweep that never settles
MAX_CONVERGE_PASSES = 4

FIGURE_WORKERS = 2

#: host-speed samples taken right after set-up, which scale its time
SETUP_CALIB_SAMPLES = 6

#: seconds between host-speed samples while the figures matrix runs
FIGURE_CALIB_INTERVAL_S = 0.5

#: every span name a traced run must record, per workload: a wrapper
#: that no longer sits on the call path fails the run loudly
REQUIRED_SPANS = {
    "olden": ("minic.lex", "minic.parse", "minic.sema", "minic.codegen",
              "minic.optimize", "isa.assemble", "machine.init",
              "machine.run"),
    "figures": ("harness.matrix", "harness.render", "harness.replay",
                "minic.parse", "machine.run"),
    "fuzz": ("fuzz.generate.isa", "fuzz.generate.minic",
             "fuzz.minic_compile", "minic.lex", "isa.assemble",
             "machine.run", "fuzz.run_once.superblocks.timed"),
}


class Context:
    """What one measurement knows: its arguments, the optional tracer,
    the operation checker and what the record and metrics collect."""

    def __init__(self, args, checker: refcheck.Checker):
        self.seconds = args.seconds
        self.rng = random.Random(args.seed)
        self.tmp = args.tmp
        self.checker = checker
        self.tracer: Optional[spans.Tracer] = None
        #: extra record fields (sample counts, percentiles, ...)
        self.details: Dict[str, object] = {}
        #: traced-only values that feed per-layer metrics directly
        self.layer: Dict[str, float] = {}
        #: the olden sweep's cold pass and steady passes, for the
        #: traced-only ablation
        self.olden_cold: list = []
        self.olden_steady: list = []
        #: fuzz seed -> verdict of its latest run
        self.verdicts: Dict[str, dict] = {}
        #: host-speed samples (``calib.sample``) of the cold phase and
        #: the speed factor they give
        self.calib: List[float] = []
        self.speed = 1.0

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def gaps(self, per_gap: int) -> calib.Gaps:
        """Host-speed sampling between timed operations, spanned."""
        return calib.Gaps(per_gap, lambda: self.span("host.calib"))

    def host(self, samples: List[float], speed: float) -> None:
        self.calib, self.speed = samples, speed

    def set_phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase


# -- set-up ------------------------------------------------------------------

def import_simulator(workload: str):
    """Import what the workload calls (the set-up's import half)."""
    from repro.machine.config import MachineConfig
    from repro.machine.cpu import CPU
    from repro.workloads.registry import WORKLOADS as OLDEN
    ns = argparse.Namespace(CPU=CPU, MachineConfig=MachineConfig,
                            OLDEN=OLDEN)
    if workload == "olden":
        from repro.minic import InstrumentMode, compile_program
        ns.compile_program = compile_program
        ns.modes = {"base": InstrumentMode.NONE,
                    "intern11": InstrumentMode.HARDBOUND}
    elif workload == "figures":
        from repro.harness import (ResultCache, figure5_table,
                                   figure6_table, figure7_table,
                                   format_table,
                                   run_benchmark_matrix_parallel)
        from repro.harness.figures import FIGURE7_PUBLISHED
        from repro.harness.parallel import run_cell
        ns.ResultCache = ResultCache
        ns.tables = (figure5_table, figure6_table, figure7_table)
        ns.format_table = format_table
        ns.matrix = run_benchmark_matrix_parallel
        ns.published = FIGURE7_PUBLISHED
        ns.run_cell = run_cell
    elif workload == "fuzz":
        from repro.fuzz import fuzz_one
        ns.fuzz_one = fuzz_one
    return ns


def install_wrappers(tracer: spans.Tracer, ns) -> None:
    """Span every layer boundary the workload's imports brought in."""
    tracer.wrap_cpu(ns.CPU)
    tracer.wrap_compile()
    modules = sys.modules

    def static_instrs(program, *args, **kwargs):
        tracer.count("static_instrs", len(program))

    if "repro.minic.parser" in modules:
        tracer.wrap(modules["repro.minic.parser"], "tokenize", "minic.lex",
                    lambda tokens, *a, **k: tracer.count("tokens",
                                                         len(tokens)))
    if "repro.minic.driver" in modules:
        driver = modules["repro.minic.driver"]
        tracer.wrap(driver, "parse", "minic.parse")
        tracer.wrap(driver, "analyze", "minic.sema")
        tracer.wrap(driver, "generate", "minic.codegen")
        tracer.wrap(driver, "optimize_asm", "minic.optimize",
                    lambda out, asm, *a, **k: tracer.count(
                        "asm_lines_removed",
                        asm.count("\n") - out.count("\n")))
        tracer.wrap(driver, "assemble", "isa.assemble", static_instrs)
    if "repro.fuzz.oracle" in modules:
        oracle = modules["repro.fuzz.oracle"]
        tracer.wrap(oracle, "assemble", "isa.assemble", static_instrs)
        tracer.wrap(oracle, "compile_program", "fuzz.minic_compile")
        tracer.wrap(oracle, "run_once", lambda program, config:
                    "fuzz.run_once.%s.%s" % (
                        config.engine,
                        "timed" if config.timing else "functional"))
        tracer.wrap(modules["repro.fuzz.isagen"], "generate_isa_program",
                    "fuzz.generate.isa")
        tracer.wrap(modules["repro.fuzz.minicgen"],
                    "generate_minic_program", "fuzz.generate.minic")


def compile_olden(ns) -> Dict[tuple, object]:
    """The 18 programs of the Olden sweep (the set-up's compile half)."""
    return {(name, kind): ns.compile_program(workload.source, mode)
            for name, workload in ns.OLDEN.items()
            for kind, mode in ns.modes.items()}


# -- olden -------------------------------------------------------------------

def _sampling(samples: list, minimum: int, started: Optional[float],
              seconds: float) -> bool:
    """Whether a warm phase keeps sampling: until it has ``minimum``
    samples and ``seconds`` have passed since it ``started``."""
    return (started is None or len(samples) < minimum
            or perf_counter() - started < seconds)


def _olden_config(ns, kind: str, timing: bool):
    if kind == "base":
        return ns.MachineConfig.plain(timing=timing)
    return ns.MachineConfig.hardbound(encoding=kind, timing=timing)


def _sweep(ns, programs, jobs, timing: bool = True, gaps=None):
    """One pass over ``jobs``, sampling host speed in the ``gaps``
    between them (untimed) if given; returns (seconds, [(job,
    result|exc)])."""
    out = []
    seconds = 0.0
    for name, kind in jobs:
        if gaps is not None:
            gaps.gap()
        t0 = perf_counter()
        try:
            result = ns.CPU(programs[name, kind],
                            _olden_config(ns, kind, timing)).run()
        except Exception as exc:    # a failed operation; keep sweeping
            result = exc
        dt = perf_counter() - t0
        seconds += dt
        if gaps is not None:
            gaps.op(dt)
        out.append(((name, kind), result))
    if gaps is not None:
        gaps.gap()
    return seconds, out


def _check_sweep(ctx: Context, ns, results, timing: bool = True) -> None:
    checker = ctx.checker
    for (name, kind), result in results:
        if isinstance(result, Exception):
            checker.error("%s/%s" % (name, kind), result)
        elif timing:
            checker.cell(name, kind, result,
                         ns.OLDEN[name].expected_output)
        else:
            # functional ablation runs: same program, no timing model,
            # so only the timing-independent counters must match
            checker.cell(name, kind, result,
                         ns.OLDEN[name].expected_output,
                         fields=refcheck.FUNCTIONAL_FIELDS)


def _traces_formed(results) -> int:
    return sum(r.engine_stats["traces_formed"] for _, r in results
               if not isinstance(r, Exception) and r.engine_stats)


def _execute_net(results, kind: str) -> float:
    return sum(spans.net_phases(r.phases)["execute_net"]
               for (_, k), r in results
               if k == kind and not isinstance(r, Exception))


def _converged_passes(ctx: Context, ns, programs, jobs, first,
                      timing: bool, min_passes: int, seconds: float):
    """Repeat the sweep until the plan cache stops forming traces, then
    keep the steady passes: at least ``min_passes`` and ``seconds``."""
    formed = _traces_formed(first)
    steady: List[tuple] = []
    converge = 0
    started = None
    while _sampling(steady, min_passes, started, seconds):
        ctx.set_phase("converge")
        marks = (len(ctx.tracer.spans), len(ctx.tracer.runs))
        t0 = perf_counter()
        dt, results = _sweep(ns, programs, jobs, timing)
        _check_sweep(ctx, ns, results, timing)
        now = _traces_formed(results)
        if steady or now == formed:
            ctx.tracer.relabel(*marks, "warm" if timing else "ablation")
            steady.append((dt, results))
            started = t0 if started is None else started
        else:
            converge += 1
            if converge > MAX_CONVERGE_PASSES:
                raise RuntimeError("plan cache still forming traces "
                                   "after %d passes" % converge)
        formed = now
    return converge, steady


def run_olden(ctx: Context, ns, programs) -> float:
    jobs = [(name, kind) for name in ns.OLDEN for kind in OLDEN_KINDS]
    ctx.rng.shuffle(jobs)
    ctx.details["run_order"] = ["%s/%s" % job for job in jobs]
    ctx.set_phase("cold")
    # an Olden run lasts about twice as long as a fuzz seed: two
    # samples per gap keep the sampling as dense
    gaps = ctx.gaps(2)
    cold_s, cold = _sweep(ns, programs, jobs, gaps=gaps)
    ctx.host(gaps.samples, gaps.speed_factor())
    ctx.details["cold_op_s"] = gaps.times
    _check_sweep(ctx, ns, cold)
    ctx.details["counters_sha256"] = refcheck.digest({
        refcheck.cell_key(*job): refcheck.cell_counters(r)
        for job, r in cold if not isinstance(r, Exception)})
    ctx.olden_cold = cold
    if ctx.tracer is not None:
        converge, steady = _converged_passes(
            ctx, ns, programs, jobs, cold, True, MIN_WARM_SAMPLES["olden"],
            ctx.seconds)
        warm = [dt for dt, _ in steady]
        ctx.details.update(converge_passes=converge, warm_samples=len(warm),
                           warm_pass_s=warm)
        ctx.layer["warm_s"] = statistics.median(warm)
        ctx.olden_steady = [results for _, results in steady]
    return cold_s


def olden_paper_err(ctx: Context, ns) -> None:
    """|simulated - published| Figure 7 intern11 overhead of the cold
    sweep, in percentage points, averaged over the nine programs."""
    from repro.harness.figures import FIGURE7_PUBLISHED
    by_job = dict(ctx.olden_cold)
    ctx.details["paper_err_pp"] = statistics.mean(
        100 * abs(by_job[name, "intern11"].cycles
                  / by_job[name, "base"].cycles
                  - FIGURE7_PUBLISHED[name]["intern11"])
        for name in ns.OLDEN)


def olden_ablation(ctx: Context, ns, programs) -> None:
    """Traced-only: warm execute seconds of plain-functional and
    HardBound-functional sweeps, which with the timed ones split
    execute into dispatch, HardBound checks and propagation, and the
    cache/TLB model."""
    ctx.layer["paper_err_pp"] = ctx.details.get("paper_err_pp", 0.0)
    instrs = sum(r.instructions for _, r in ctx.olden_cold
                 if not isinstance(r, Exception))
    ctx.layer["machine.warm_instr_per_s"] = instrs / ctx.layer["warm_s"]
    ctx.layer["machine.hb_timed_execute_s"] = statistics.median(
        _execute_net(res, "intern11") for res in ctx.olden_steady)
    plain_timed = statistics.median(
        _execute_net(res, "base") for res in ctx.olden_steady)

    ctx.set_phase("ablation")
    functional = {}
    for kind in OLDEN_KINDS:
        jobs = [(name, kind) for name in ns.OLDEN]
        ctx.rng.shuffle(jobs)
        _, first = _sweep(ns, programs, jobs, timing=False)
        _check_sweep(ctx, ns, first, timing=False)
        _, steady = _converged_passes(ctx, ns, programs, jobs, first,
                                      False, 3, 0.0)
        functional[kind] = statistics.median(
            _execute_net(res, kind) for _, res in steady)
    ctx.layer["machine.dispatch_s"] = functional["base"]
    ctx.layer["hardbound.check_prop_s"] = (functional["intern11"]
                                           - functional["base"])
    ctx.layer["caches.timing_model_s"] = plain_timed - functional["base"]


# -- figures -----------------------------------------------------------------

def _matrix_results(matrix):
    """(workload, kind, result) for every cell of a matrix."""
    for name, bench in matrix.items():
        yield name, "base", bench.base
        for encoding, result in bench.encodings.items():
            yield name, encoding, result
        yield name, "ccured", bench.ccured
        yield name, "objtable", bench.objtable


def _matrix_digest(matrix) -> str:
    return refcheck.digest({
        refcheck.cell_key(name, kind): refcheck.cell_counters(result)
        for name, kind, result in _matrix_results(matrix)})


def run_figures(ctx: Context, ns) -> float:
    names = list(ns.OLDEN)
    ctx.rng.shuffle(names)
    ctx.details["job_order"] = names
    cells = len(names) * (3 + len(_ENCODINGS))  # base, ccured, objtable
    cache_dir = tempfile.mkdtemp(prefix="figures-cache-", dir=ctx.tmp)
    try:
        cache = ns.ResultCache(cache_dir)
        ctx.set_phase("cold")
        samples: List[float] = []
        t0 = perf_counter()
        with ctx.span("harness.matrix"), \
                calib.sampling(samples, FIGURE_CALIB_INTERVAL_S):
            matrix = ns.matrix(workloads=names, workers=FIGURE_WORKERS,
                               cache=cache)
        ctx.host(samples, calib.speed_factor(samples))
        matrix_s = perf_counter() - t0
        with ctx.span("harness.render"):
            ordered = {name: matrix[name] for name in ns.OLDEN}
            text = [ns.format_table(*table(ordered)) for table in ns.tables]
        cold_s = perf_counter() - t0
        for name, kind, result in _matrix_results(ordered):
            ctx.checker.cell(name, kind, result,
                             None if kind == "objtable"
                             else ns.OLDEN[name].expected_output)
        ctx.details["counters_sha256"] = _matrix_digest(ordered)
        ctx.details["table_chars"] = sum(len(t) for t in text)
        ctx.details["paper_err_pp"] = statistics.mean(
            100 * abs(bench.overhead(enc) - ns.published[name][enc])
            for name, bench in ordered.items() for enc in _ENCODINGS)

        if ctx.tracer is not None:
            _figure_replays(ctx, ns, names, cache, cells)
            _figure_layers(ctx, ns, ordered, cache, matrix_s)
        return cold_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _figure_replays(ctx: Context, ns, names, cache, cells: int) -> None:
    """Traced-only warm phase: the same request, served from the cache."""
    ctx.set_phase("warm")
    replays: List[float] = []
    started = perf_counter()
    while _sampling(replays, MIN_WARM_SAMPLES["figures"], started,
                    ctx.seconds):
        hits = cache.hits
        t1 = perf_counter()
        with ctx.span("harness.replay"):
            again = ns.matrix(workloads=names, workers=FIGURE_WORKERS,
                              cache=cache)
        replays.append(perf_counter() - t1)
        # the cold matrix passed the reference check cell by cell;
        # a replay must serve every cell from the cache, unchanged
        ctx.checker.attempted += 1
        if (cache.hits - hits != cells or _matrix_digest(again)
                != ctx.details["counters_sha256"]):
            ctx.checker.fail("replay %d: %d of %d cells from the cache,"
                             " counters %s" % (
                                 len(replays), cache.hits - hits, cells,
                                 _matrix_digest(again)))
    ctx.details.update(replay_samples=len(replays),
                       replay_p95_ms=1000 * _p95(replays))
    ctx.layer["warm_s"] = statistics.median(replays)


def _p95(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=20)[-1]


def _figure_layers(ctx: Context, ns, matrix, cache, matrix_s: float):
    busy = 0.0
    for name, kind, result in _matrix_results(matrix):
        if kind == "objtable":      # a summary without phase timers
            continue
        manifest = result.manifest or {}
        ctx.tracer.log_run("cold", manifest.get("engine"),
                           manifest.get("encoding"), result.phases, result,
                           in_process=False)
        busy += (sum(result.phases.values())
                 - result.phases.get("trace_formation", 0.0))
    ctx.layer["harness.worker_busy_frac"] = busy / (matrix_s
                                                    * FIGURE_WORKERS)
    ctx.layer["paper_err_pp"] = ctx.details["paper_err_pp"]
    ctx.layer["harness.replay_p95_ms"] = ctx.details["replay_p95_ms"]
    for name, count in cache.stats().items():
        ctx.layer["harness.cache_%s" % name] = count


def figures_baselines(ctx: Context, ns) -> None:
    """Per-kind baseline cell time, serial in this process: the first
    call of each cell (cold caches) and a second one (warm)."""
    ctx.set_phase("baselines")
    engine = ns.MachineConfig().engine
    names = list(ns.OLDEN)
    ctx.rng.shuffle(names)
    totals = {}
    for kind in ("ccured", "objtable"):
        for when in ("cold", "warm"):
            totals[kind, when] = 0.0
        for name in names:
            for when in ("cold", "warm"):
                t0 = perf_counter()
                with ctx.span("baselines.%s" % kind):
                    result = ns.run_cell((name, kind, True, engine))
                totals[kind, when] += perf_counter() - t0
                ctx.checker.cell(name, kind, result)
    for (kind, when), seconds in totals.items():
        ctx.layer["baselines.%s_%s_s" % (kind, when)] = seconds


# -- fuzz --------------------------------------------------------------------

def _fuzz_pass(ctx: Context, ns, batch, gaps=None) -> float:
    """One pass over the batch, sampling host speed in the ``gaps``
    between seeds (untimed) if given; its verdicts go to
    ``ctx.verdicts``."""
    dt = 0.0
    results = []
    for level, seed in batch:
        if gaps is not None:
            gaps.gap()
        t0 = perf_counter()
        try:
            results.append(ns.fuzz_one(seed, level))
        except Exception as exc:    # a failed operation; keep fuzzing
            results.append(exc)
        seconds = perf_counter() - t0
        dt += seconds
        if gaps is not None:
            gaps.op(seconds)
    if gaps is not None:
        gaps.gap()
    for (level, seed), result in zip(batch, results):
        if isinstance(result, Exception):
            ctx.checker.error(refcheck.fuzz_key(level, seed), result)
        else:
            ctx.checker.fuzz(level, seed, result)
            ctx.verdicts[refcheck.fuzz_key(level, seed)] = {
                "status": result.status, "trap": result.trap}
    return dt


def run_fuzz(ctx: Context, ns) -> float:
    batch = list(FUZZ_BATCH)
    ctx.rng.shuffle(batch)
    ctx.details["seed_order"] = [refcheck.fuzz_key(*job) for job in batch]
    ctx.set_phase("cold")
    gaps = ctx.gaps(1)
    cold_s = _fuzz_pass(ctx, ns, batch, gaps=gaps)
    ctx.host(gaps.samples, gaps.speed_factor())
    ctx.details["cold_op_s"] = gaps.times
    ctx.details["counters_sha256"] = refcheck.digest(ctx.verdicts)
    if ctx.tracer is not None:
        ctx.set_phase("warm")
        warm: List[float] = []
        started = perf_counter()
        while _sampling(warm, MIN_WARM_SAMPLES["fuzz"], started,
                        ctx.seconds):
            warm.append(_fuzz_pass(ctx, ns, batch))
        ctx.details.update(warm_samples=len(warm), warm_pass_s=warm)
        ctx.layer["warm_s"] = statistics.median(warm)
    return cold_s


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ctx: Context, root: int) -> Dict[str, float]:
    """Every per-layer metric of a traced run (0 for layers the
    workload does not exercise)."""
    tracer = ctx.tracer
    measured = ("setup", "cold")
    own = tracer.self_times(phases=measured)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for stage in _MINIC_STAGES:
        out["minic.%s_s" % stage] = own.get("minic.%s" % stage, 0.0)
    out["minic.tokens"] = tracer.counter("tokens", measured)
    out["minic.asm_lines_removed"] = tracer.counter("asm_lines_removed",
                                                    measured)
    out["isa.assemble_s"] = own.get("isa.assemble", 0.0)
    out["isa.static_instrs"] = tracer.counter("static_instrs", measured)

    runs = {when: [r for r in tracer.runs if r["phase"] in phases]
            for when, phases in (("cold", measured), ("warm", ("warm",)))}
    # warm phase times are per steady pass, like warm_s
    passes = {"cold": 1, "warm": ctx.details.get("warm_samples", 1)}
    for when, batch in runs.items():
        for phase in _PHASES:
            out["machine.%s.%s_s" % (when, phase)] = sum(
                r["phases"][phase] for r in batch) / passes[when]
    cold = runs["cold"]
    fuse = tracer.counter("fuse_compile_s", measured)
    out["machine.fuse_compile_s"] = fuse
    out["machine.fuse_source_build_s"] = sum(
        r["phases"]["cfg_fusion"] + r["phases"]["trace_formation"]
        for r in cold if r["in_process"]) - fuse
    out["machine.fuse_source_bytes"] = tracer.counter("fuse_source_bytes",
                                                      measured)
    out["machine.fuse_bytes_per_static_instr"] = _ratio(
        out["machine.fuse_source_bytes"], out["isa.static_instrs"])

    stats = [r["engine_stats"] for r in cold if r["engine_stats"]]
    formed = sum(s["traces_formed"] for s in stats)
    dispatches = sum(s["trace_dispatches"] for s in stats)
    out["machine.traces_formed"] = formed
    out["machine.mean_trace_blocks"] = _ratio(
        sum(s["mean_trace_blocks"] * s["traces_formed"] for s in stats),
        formed)
    out["machine.side_exit_rate"] = _ratio(
        sum(s["side_exits"] for s in stats), dispatches)
    out["machine.trace_dispatch_share"] = _ratio(
        dispatches, dispatches + sum(s["block_dispatches"] for s in stats))

    out["caches.probe_compile_s"] = sum(r["probe_compile"] for r in cold)
    kinds = [kind for r in cold if r["mem"] for kind in r["mem"].values()]
    accesses = sum(k["accesses"] for k in kinds)
    l1 = sum(k["l1_misses"] for k in kinds)
    out["caches.l1_miss_rate"] = _ratio(l1, accesses)
    out["caches.l2_miss_rate"] = _ratio(sum(k["l2_misses"] for k in kinds),
                                        l1)
    tags = [r["mem"]["tag"] for r in cold if r["mem"]]
    out["caches.tag_miss_rate"] = _ratio(sum(t["l1_misses"] for t in tags),
                                         sum(t["accesses"] for t in tags))
    out["caches.tlb_miss_rate"] = _ratio(sum(k["tlb_misses"] for k in kinds),
                                         accesses)
    out["caches.metadata_stall_cycles"] = sum(
        r["mem"][kind]["stall_cycles"] for r in cold if r["mem"]
        for kind in ("tag", "shadow"))
    hbs = [r for r in cold if r["hb"]]
    out["hardbound.checks"] = sum(r["hb"]["checks"] for r in hbs)
    out["hardbound.meta_uops"] = sum(r["hb"]["meta_uops"] for r in hbs)
    for encoding in _ENCODINGS:
        runs_enc = [r["hb"] for r in hbs if r["encoding"] == encoding]
        out["metadata.compression_ratio.%s" % encoding] = _ratio(
            sum(h["compressed_loads"] + h["compressed_stores"]
                for h in runs_enc),
            sum(h["pointer_loads"] + h["pointer_stores"] for h in runs_enc))

    out["harness.render_s"] = tracer.total("harness.render")
    out["fuzz.generate.isa_s"] = own.get("fuzz.generate.isa", 0.0)
    out["fuzz.generate.minic_s"] = own.get("fuzz.generate.minic", 0.0)
    out["fuzz.minic_compile_s"] = tracer.total("fuzz.minic_compile",
                                               measured)
    for engine in _ENGINES:
        for timing in ("functional", "timed"):
            name = "fuzz.run_once.%s.%s" % (engine, timing)
            out[name + "_s"] = tracer.total(name, measured)
    out.update(ctx.layer)
    out["trace.coverage"] = coverage(tracer, root)
    return out


def coverage(tracer: spans.Tracer, root: int) -> float:
    """Share of the workload's wall time, host-speed samples left out,
    that named layers' self times account for (the rest is the
    benchmark's own loop)."""
    start, end = tracer.spans[root][4:6]
    own = tracer.self_times(root)
    wall = end - start - own.get("host.calib", 0.0)
    return 1.0 - own[tracer.spans[root][1]] / wall


# -- entry points --------------------------------------------------------------

def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(args) -> dict:
    t_start = perf_counter()
    ns = import_simulator(args.workload)
    t_imported = perf_counter()
    tracer = spans.Tracer() if args.trace else None
    root = None
    if tracer is not None:
        root = tracer.begin("workload." + args.workload, t_start)
        tracer.record("setup.import", t_start, t_imported, root, False)
        install_wrappers(tracer, ns)
    programs = compile_olden(ns) if args.workload == "olden" else None
    setup_s = time.time() - args.spawn_time
    with (tracer.span("host.calib") if tracer is not None
          else contextlib.nullcontext()):
        setup_speed = calib.speed_factor(
            [calib.sample() for _ in range(SETUP_CALIB_SAMPLES)])
    setup = {"setup_wall_s": setup_s, "setup_speed_factor": setup_speed,
             "setup_s": setup_s / setup_speed}
    if args.setup_only:
        return setup
    checker = refcheck.Checker(refcheck.load())
    ctx = Context(args, checker)
    ctx.tracer = tracer

    if args.workload == "olden":
        cold_wall_s = run_olden(ctx, ns, programs)
    elif args.workload == "figures":
        cold_wall_s = run_figures(ctx, ns)
    else:
        cold_wall_s = run_fuzz(ctx, ns)
    # times as a host at nominal speed would take them (calib.py)
    speed = ctx.speed
    ctx.details.update(setup, cold_wall_s=cold_wall_s,
                       host_speed_factor=speed, calib_samples_s=ctx.calib)
    ctx.layer.update({"host.cold_wall_s": cold_wall_s,
                      "host.speed_factor": speed})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "e2e": {"setup_s": setup["setup_s"],
                      "cold_s": cold_wall_s / speed,
                      "peak_rss_mb": _peak_rss_mb()}}
    if args.workload == "olden" and not checker.failed:
        olden_paper_err(ctx, ns)
    if tracer is not None:
        tracer.end(root)
        if args.workload == "olden":
            olden_ablation(ctx, ns, programs)
        elif args.workload == "figures":
            figures_baselines(ctx, ns)
        tracer.unwrap_all()
        recorded = {span[1] for span in tracer.spans}
        missing = [name for name in REQUIRED_SPANS[args.workload]
                   if name not in recorded]
        if missing:
            raise RuntimeError("traced layers recorded nothing: %s "
                               "(a wrapper is off the call path)"
                               % ", ".join(missing))
        record["per_layer"] = per_layer(ctx, root)
        record["trace_file"] = os.path.join(
            args.out, "trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(record["trace_file"],
                    {"workload": args.workload, "seed": args.seed})
    record.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures, details=ctx.details)
    return record


def make_reference() -> dict:
    """Counters of every figure cell under the ``legacy`` engine and
    the verdict of every fuzz seed of the batch."""
    from repro.fuzz import fuzz_one
    from repro.harness import run_benchmark_matrix_parallel
    matrix = run_benchmark_matrix_parallel(workers=FIGURE_WORKERS,
                                           engine="legacy")
    cells = {refcheck.cell_key(name, kind): refcheck.cell_counters(result)
             for name, kind, result in _matrix_results(matrix)}
    verdicts = {}
    for level, seed in FUZZ_BATCH:
        result = fuzz_one(seed, level)
        if result.divergences:
            raise RuntimeError("fuzz seed %s/%d diverges: %s"
                               % (level, seed, result.divergences[0]))
        verdicts[refcheck.fuzz_key(level, seed)] = {
            "status": result.status, "trap": result.trap}
    return {"engine": "legacy", "cells": cells, "fuzz": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS + ("make-reference",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=".")
    parser.add_argument("--tmp", default=None)
    args = parser.parse_args(argv)
    if args.workload == "make-reference":
        refcheck.save(make_reference())
        print(json.dumps({"reference": refcheck.REFERENCE_PATH}))
        return 0
    if args.spawn_time is None:
        args.spawn_time = time.time()
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
