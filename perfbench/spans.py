"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at layer boundaries by wrapping public functions of
the simulator from the outside: nothing under ``src/`` knows about the
tracer.  Each span has an id, a name, the workload phase it ran in
(``setup``, ``cold``, ``converge``, ``warm``, ``ablation``,
``baselines``), a start, an end and the id of the span that caused
it.  Spans stay in memory and are written once, when the run ends.

A layer's self time is its span's duration minus the durations of its
child spans.  Phase times a run reports in ``RunResult.phases`` become
*derived* child spans of that run's ``machine.run`` span, laid end to
end from the run's start: their durations are measured by the engine,
their placement inside the run is not.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: pseudo-filename the block fuser compiles its generated source under
#: (``repro.machine.blocks``); ``compile()`` calls carrying it are the
#: fuser's, every other call is someone else's
FUSE_FILENAME = "<repro-block-fuse>"

#: ``RunResult.phases`` keys turned into derived child spans of a run,
#: in the order they are laid out (``execute`` is reported net of the
#: ``trace_formation`` nested inside it)
RUN_PHASES = ("decode", "cfg_fusion", "trace_formation", "execute_net")


def net_phases(seconds: Dict[str, float]) -> Dict[str, float]:
    """``RUN_PHASES`` seconds of one run's phase timers."""
    out = {name: seconds.get(name, 0.0) for name in RUN_PHASES[:3]}
    out["execute_net"] = (seconds.get("execute", 0.0)
                          - seconds.get("trace_formation", 0.0))
    return out


class Tracer:
    """Spans, per-phase counters and a log of every simulated run."""

    def __init__(self):
        #: [id, name, phase, parent, start, end, derived]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.phase = "setup"
        #: (phase, counter) -> value
        self.counters: Dict[tuple, float] = {}
        #: one dict per simulated run: phase, engine, encoding, phases,
        #: engine_stats, hb/mem counters (see :meth:`log_run`)
        self.runs: List[dict] = []
        self._patches: List[tuple] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def begin(self, name: str, start: Optional[float] = None) -> int:
        """Open a span (started at ``start``, default now) as a child
        of the innermost open span."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if start is None:
            start = perf_counter()
        self.spans.append([sid, name, self.phase, parent, start, None,
                           False])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("span %d closed out of order" % sid)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], derived: bool) -> int:
        """Add an already-finished span (e.g. the imports, timed
        before the tracer existed, or a derived phase span)."""
        sid = len(self.spans)
        self.spans.append([sid, name, self.phase, parent, start, end,
                           derived])
        return sid

    def log_run(self, phase: str, engine: str, encoding: Optional[str],
                seconds: Dict[str, float], result,
                in_process: bool = True) -> None:
        """Keep what the per-layer metrics need from one run.

        ``seconds`` are the run's phase timers; ``result`` is its
        ``RunResult``, or ``None`` when the run trapped, in which case
        only its phase times are known.  Runs done by worker processes
        are logged by the workload with ``in_process=False``.
        """
        entry = {"phase": phase, "engine": engine, "encoding": encoding,
                 "phases": net_phases(seconds),
                 "probe_compile": seconds.get("probe_compile", 0.0),
                 "in_process": in_process, "engine_stats": None,
                 "hb": None, "mem": None, "instructions": 0}
        if result is not None:
            entry["engine_stats"] = result.engine_stats
            entry["instructions"] = result.instructions
            if result.hb_stats is not None:
                entry["hb"] = result.hb_stats.as_dict()
            if result.mem_stats is not None:
                entry["mem"] = result.mem_stats.as_dict()
        self.runs.append(entry)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name, after: Callable = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a function of the call's
        arguments returning it; ``after(result, *args)`` runs once the
        call returned.  :meth:`unwrap_all` restores the originals.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_cpu(self, cpu_class) -> None:
        """Span ``CPU.__init__`` (memory-system construction, where the
        ``probe_compile`` phase is charged) and ``CPU.run``, whose
        phase times become derived child spans and whose statistics
        go to :attr:`runs` — also for runs that end in a trap."""
        init, run = cpu_class.__init__, cpu_class.run
        tracer = self

        @functools.wraps(init)
        def traced_init(cpu, *args, **kwargs):
            with tracer.span("machine.init") as sid:
                init(cpu, *args, **kwargs)
            start, end = tracer.spans[sid][4:6]
            probe = cpu.timers.seconds.get("probe_compile", 0.0)
            tracer.record("caches.probe_compile", start, start + probe,
                          sid, True)

        @functools.wraps(run)
        def traced_run(cpu):
            before = dict(cpu.timers.seconds)
            result = None
            sid = tracer.begin("machine.run")
            try:
                result = run(cpu)
                return result
            finally:
                tracer.end(sid)
                seconds = {key: value - before.get(key, 0.0)
                           for key, value in cpu.timers.seconds.items()}
                at = tracer.spans[sid][4]
                for phase, dt in net_phases(seconds).items():
                    tracer.record("machine." + phase, at, at + dt, sid,
                                  True)
                    at += dt
                tracer.log_run(tracer.phase, cpu.config.engine,
                               cpu.config.encoding,
                               dict(cpu.timers.seconds), result)

        cpu_class.__init__ = traced_init
        cpu_class.run = traced_run
        self._patches += [(cpu_class, "__init__", init),
                          (cpu_class, "run", run)]

    def wrap_compile(self) -> None:
        """Count the block fuser's ``compile()`` calls: seconds spent in
        CPython's compiler and bytes of generated source.  What the
        fusion phases spend beyond that is building the source."""
        original = builtins.compile
        tracer = self

        @functools.wraps(original)
        def traced_compile(source, filename, *args, **kwargs):
            if filename != FUSE_FILENAME:
                return original(source, filename, *args, **kwargs)
            t0 = perf_counter()
            code = original(source, filename, *args, **kwargs)
            tracer.count("fuse_compile_s", perf_counter() - t0)
            tracer.count("fuse_source_bytes", len(source))
            return code

        builtins.compile = traced_compile
        self._patches.append((builtins, "compile", original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def relabel(self, since_span: int, since_run: int, phase: str) -> None:
        """Move the spans and runs recorded since the given indices to
        ``phase`` (a pass is known to be steady only once it ended)."""
        for span in self.spans[since_span:]:
            span[2] = phase
        for run in self.runs[since_run:]:
            run["phase"] = phase

    def self_times(self, root: Optional[int] = None,
                   phases=None) -> Dict[str, float]:
        """Self seconds per span name: over ``root``'s subtree (or all
        spans), counting only spans of the given phases (or all)."""
        children: Dict[int, List[int]] = {}
        for sid, _, _, parent, _, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append(sid)
        todo = ([root] if root is not None else
                [span[0] for span in self.spans if span[3] is None])
        out: Dict[str, float] = {}
        while todo:
            sid = todo.pop()
            _, name, phase, _, start, end, _ = self.spans[sid]
            kids = children.get(sid, [])
            todo.extend(kids)
            if phases is not None and phase not in phases:
                continue
            own = (end - start) - sum(
                self.spans[k][5] - self.spans[k][4] for k in kids)
            out[name] = out.get(name, 0.0) + own
        return out

    def total(self, name: str, phases=None) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start
                   for _, span_name, phase, _, start, end, _ in self.spans
                   if span_name == name
                   and (phases is None or phase in phases))

    def counter(self, name: str, phases) -> float:
        return sum(value for (phase, counter), value in
                   self.counters.items()
                   if counter == name and phase in phases)

    def dump(self, path: str, meta: dict) -> None:
        keys = ("id", "name", "phase", "parent", "start", "end",
                "derived")
        doc = dict(meta)
        doc["spans"] = [dict(zip(keys, span)) for span in self.spans]
        doc["counters"] = [{"phase": phase, "name": name, "value": value}
                           for (phase, name), value in
                           sorted(self.counters.items())]
        with open(path, "w") as fh:
            json.dump(doc, fh)
