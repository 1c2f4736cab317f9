"""Run-level observability: counters, phase timers, event traces.

The simulator's engine ladder is fast enough that the next
regressions will be *silent* — a closure-fallback shape, a cold
fusion-plan cache or a probe-shape miss shows up only as a fuzzy wall-clock
delta.  This package is the introspection substrate that makes such
regressions attributable after the fact:

``repro.obs.metrics``
    A process-wide :class:`~repro.obs.metrics.MetricsRegistry` of
    cheap always-on counters with snapshot/diff semantics, plus
    :class:`~repro.obs.metrics.PhaseTimers` — monotonic wall-clock
    accumulators the engines charge per pipeline phase (decode,
    CFG/fusion, probe compilation, execution).

``repro.obs.events``
    An opt-in buffered JSONL span/event emitter
    (:class:`~repro.obs.events.EventLog`), enabled per run through
    ``MachineConfig(obs_events=...)``.  Off by default; when on it
    records run manifests, result statistics, phase times and engine
    stats at under 2% timed overhead (gated in CI).

``repro.obs.manifest``
    The run manifest — knobs, engine, cache geometry, git sha, host —
    attached to every :class:`~repro.machine.cpu.RunResult` and every
    sharded-harness cell, so any recorded number can be traced back
    to the exact configuration that produced it.

``repro.obs.schema``
    The frozen ``RunResult.engine_stats`` key schema for every
    execution tier, with a validator the schema test drives.

``repro.obs.report``
    ``python -m repro.obs.report`` — renders per-run results,
    phase-time breakdowns and closure-fallback shapes from an obs
    JSONL,
    and A/B diffs of two runs or two ``BENCH_engine.json`` records.
"""

from repro.obs.events import EventLog, read_events
from repro.obs.manifest import run_manifest
from repro.obs.metrics import REGISTRY, MetricsRegistry, PhaseTimers
from repro.obs.schema import ENGINE_STATS_KEYS, validate_engine_stats

__all__ = [
    "EventLog",
    "read_events",
    "run_manifest",
    "REGISTRY",
    "MetricsRegistry",
    "PhaseTimers",
    "ENGINE_STATS_KEYS",
    "validate_engine_stats",
]
