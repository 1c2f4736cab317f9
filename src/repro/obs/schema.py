"""The frozen ``RunResult.engine_stats`` key schema, all tiers.

``engine_stats`` is the cross-layer introspection contract: the
fused engine writes it, the harness caches and pickles it, the
bench record embeds it, and the report CLI renders it.  A key that
appears or disappears silently would desynchronize all of those —
so the schema is frozen *here*, documented in
``docs/OBSERVABILITY.md``, and enforced by
``tests/obs/test_schema.py``: adding, renaming or dropping a key
without updating this module (and the doc) fails the build.

Per tier:

* ``superblocks`` — the fused engine's record
  (:data:`SUPERBLOCKS_KEYS`);
* ``decoded`` / ``legacy`` — record no engine stats;
  ``RunResult.engine_stats`` is ``None`` (the dispatch loops carry
  no per-engine state worth snapshotting, and keeping them
  stat-free keeps their loops minimal).
"""

from __future__ import annotations

from typing import Optional

#: every key of a superblocks-tier ``engine_stats`` dict, frozen.
SUPERBLOCKS_KEYS = frozenset({
    "engine",               # literal "superblocks"
    "block_dispatches",     # fused block-closure calls
    "fallback_steps",       # single-stepped instructions
    "closure_fallback_ops", # {op_name: count} residual closure calls
    # the engine forms no traces: these stay, pinned to 0, for
    # readers of the trace counters
    "traces_formed",
    "trace_dispatches",
    "mean_trace_blocks",
    "side_exits",
})

#: tier name → frozen key set (``None`` = the tier records no stats)
ENGINE_STATS_KEYS = {
    "superblocks": SUPERBLOCKS_KEYS,
    "decoded": None,
    "legacy": None,
}


def validate_engine_stats(engine: str,
                          stats: Optional[dict]) -> None:
    """Raise ``ValueError`` when ``stats`` violates the frozen schema.

    The check is *exact*: missing keys and unexpected keys both
    fail, so a renamed counter cannot slip through as one of each.
    """
    if engine not in ENGINE_STATS_KEYS:
        raise ValueError("unknown engine tier %r" % (engine,))
    expected = ENGINE_STATS_KEYS[engine]
    if expected is None:
        if stats is not None:
            raise ValueError(
                "engine %r must record no engine_stats, got keys %s"
                % (engine, sorted(stats)))
        return
    if stats is None:
        raise ValueError("engine %r recorded no engine_stats"
                         % (engine,))
    keys = set(stats)
    missing = expected - keys
    extra = keys - expected
    if missing or extra:
        raise ValueError(
            "engine_stats schema violation for %r: missing=%s "
            "extra=%s — update repro/obs/schema.py and "
            "docs/OBSERVABILITY.md together with the engine"
            % (engine, sorted(missing), sorted(extra)))
