"""One declarative entry point for every sensitivity sweep.

Each sweep kind is defined here in one place — its job list, its
worker cell, its cache descriptor and its reduction — and
:func:`run_sweep` executes any of them behind a declarative
:class:`SweepSpec`::

    from repro.harness import ResultCache, SweepSpec, run_sweep

    spec = SweepSpec(kind="objtable", workloads=("treeadd", "power"),
                     grid=(0.0, 0.5, 0.95))
    curve = run_sweep(spec, workers=4, cache=ResultCache(".repro-cache"))

Cells resolve through the on-disk :class:`ResultCache` and the misses
run on :func:`repro.harness.parallel.map_jobs`: in process
(``workers=1``), on a short-lived worker fleet (``workers=N``), or on
the persistent service (``service=`` a :class:`repro.service.Client`
or in-process ``Service``).  Every cell carries its content-hash key,
so identical in-flight cells deduplicate and a service store serves
repeats.  The serial functions in :mod:`repro.harness.sweeps` are the
references these cells are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.baselines.objtable import ObjectTableModel
from repro.caches.hierarchy import CacheParams
from repro.harness.parallel import (
    CACHE_SCHEMA,
    ObjTableSummary,
    ResultCache,
    _knob_descriptor,
    _run_cached_jobs,
    _with_obs,
)
from repro.harness.runner import run_workload, source_digest
from repro.harness.sweeps import _engine_factory
from repro.machine.config import (
    ENGINE_SUPERBLOCKS,
    ENGINES,
    MachineConfig,
    SafetyMode,
)
from repro.workloads.registry import WORKLOADS

#: registered sweep kinds (the validation error lists these)
SWEEP_KINDS = ("ccured", "objtable", "tagcache")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative identity of one sensitivity sweep.

    ``kind``
        one of :data:`SWEEP_KINDS` — ``"ccured"`` (SAFE-fraction
        grid), ``"objtable"`` (elision-fraction grid), or
        ``"tagcache"`` (tag-metadata-cache size grid);
    ``workloads``
        workload names (any iterable; stored as a tuple);
    ``grid``
        the swept values — fractions for the first two kinds, sizes
        in bytes for ``"tagcache"``;
    ``encoding``
        pointer encoding (``"tagcache"`` only);
    ``engine``
        execution engine for the cells that take one (the ccured
        cells run the software fat-pointer engine and ignore it).
    """

    kind: str
    workloads: Tuple[str, ...]
    grid: Tuple = field(default_factory=tuple)
    encoding: str = "extern4"
    engine: str = ENGINE_SUPERBLOCKS

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.kind not in SWEEP_KINDS:
            raise ValueError("unknown sweep kind %r (have: %s)"
                             % (self.kind, ", ".join(SWEEP_KINDS)))
        if not self.workloads:
            raise ValueError("SweepSpec needs at least one workload")
        if not self.grid:
            raise ValueError("SweepSpec needs a non-empty grid")
        for name in self.workloads:
            if name not in WORKLOADS:
                raise ValueError("unknown workload %r (have: %s)"
                                 % (name, ", ".join(WORKLOADS)))
        if self.engine not in ENGINES:
            raise ValueError("unknown engine %r (have: %s)"
                             % (self.engine, ", ".join(ENGINES)))


def _ccured_fraction_cell(
        job: Tuple[str, Optional[float]]) -> Tuple[str, Optional[float],
                                                   int]:
    """Worker: cycles of one workload at one CCured SAFE fraction.

    A ``None`` fraction is the plain-core baseline cell.
    """
    name, fraction = job
    if fraction is None:
        config = MachineConfig.plain()
    else:
        config = MachineConfig(mode=SafetyMode.FULL,
                               encoding="uncompressed",
                               engine_factory=_engine_factory(fraction))
    return name, fraction, run_workload(name, _with_obs(config)).cycles


def _ccured_descriptor(name: str, fraction: Optional[float]) -> dict:
    """Cell identity for the CCured SAFE-fraction sweep.

    ``fraction=None`` is the plain-core baseline cell.
    """
    descr = {
        "schema": CACHE_SCHEMA,
        "sweep": "ccured-safe",
        "source": source_digest(WORKLOADS[name].source),
        "workload": name,
        "fraction": fraction,
    }
    descr.update(_knob_descriptor())
    return descr


def _ccured_jobs(spec: SweepSpec):
    jobs = [(name, None) for name in spec.workloads]
    jobs += [(name, fraction) for fraction in spec.grid
             for name in spec.workloads]
    return jobs


def _ccured_reduce(spec: SweepSpec, results: Dict) -> Dict[float, float]:
    # cells return (name, fraction, cycles) tuples
    cycles = {job: results[job][2] for job in results}
    return {fraction: sum(cycles[(name, fraction)]
                          / cycles[(name, None)]
                          for name in spec.workloads)
            / len(spec.workloads)
            for fraction in spec.grid}


def _objtable_elision_cell(job: Tuple[str, Optional[float], str]):
    """Worker: one workload at one object-table elision fraction.

    A ``None`` fraction is the plain-core baseline cell (timing on,
    matching :func:`repro.harness.sweeps.sweep_objtable_elision`).
    """
    name, fraction, engine = job
    if fraction is None:
        return run_workload(name,
                            _with_obs(MachineConfig.plain(engine=engine)))
    model = ObjectTableModel(elide_fraction=fraction)
    result = run_workload(
        name, _with_obs(MachineConfig.hardbound(timing=False,
                                                engine=engine)),
        observer=model)
    return ObjTableSummary(model, result.manifest)


def _objtable_descriptor(name: str, fraction: Optional[float],
                         engine: str) -> dict:
    descr = {
        "schema": CACHE_SCHEMA,
        "sweep": "objtable-elision",
        "source": source_digest(WORKLOADS[name].source),
        "workload": name,
        "fraction": fraction,
        "engine": engine,
    }
    descr.update(_knob_descriptor())
    return descr


def _objtable_jobs(spec: SweepSpec):
    jobs = [(name, None, spec.engine) for name in spec.workloads]
    jobs += [(name, fraction, spec.engine) for fraction in spec.grid
             for name in spec.workloads]
    return jobs


def _objtable_reduce(spec: SweepSpec,
                     results: Dict) -> Dict[float, float]:
    out: Dict[float, float] = {}
    for fraction in spec.grid:
        total = 0.0
        for name in spec.workloads:
            base = results[(name, None, spec.engine)]
            summary = results[(name, fraction, spec.engine)]
            total += (base.cycles + summary.extra_uops) / base.cycles
        out[fraction] = total / len(spec.workloads)
    return out


def _tag_cache_cell(job: Tuple[str, int, str, str]):
    """Worker: one workload under one tag-metadata-cache size."""
    name, size, encoding, engine = job
    params = CacheParams(tag_cache_size=size)
    return run_workload(
        name, _with_obs(MachineConfig.hardbound(encoding=encoding,
                                                engine=engine)),
        cache_params=params)


def _tag_cache_descriptor(name: str, size: int, encoding: str,
                          engine: str) -> dict:
    descr = {
        "schema": CACHE_SCHEMA,
        "sweep": "tag-cache",
        "source": source_digest(WORKLOADS[name].source),
        "workload": name,
        "tag_cache_size": size,
        "encoding": encoding,
        "engine": engine,
    }
    descr.update(_knob_descriptor())
    return descr


def _tagcache_jobs(spec: SweepSpec):
    return [(name, size, spec.encoding, spec.engine)
            for name in spec.workloads for size in spec.grid]


def _tagcache_reduce(spec: SweepSpec, results: Dict
                     ) -> Dict[Tuple[str, int], Dict[str, float]]:
    out: Dict[Tuple[str, int], Dict[str, float]] = {}
    for name in spec.workloads:
        for size in spec.grid:
            run = results[(name, size, spec.encoding, spec.engine)]
            tag = run.mem_stats.kinds["tag"]
            out[(name, size)] = {
                "cycles": run.cycles,
                "tag_miss_rate": (tag.l1_misses / tag.accesses
                                  if tag.accesses else 0.0),
            }
    return out


class _SweepKind:
    __slots__ = ("jobs", "cell", "descriptor", "reduce")

    def __init__(self, jobs: Callable, cell: Callable,
                 descriptor: Callable, reduce: Callable):
        self.jobs = jobs
        self.cell = cell
        self.descriptor = descriptor
        self.reduce = reduce


_KINDS: Dict[str, _SweepKind] = {
    "ccured": _SweepKind(_ccured_jobs, _ccured_fraction_cell,
                         _ccured_descriptor, _ccured_reduce),
    "objtable": _SweepKind(_objtable_jobs, _objtable_elision_cell,
                           _objtable_descriptor, _objtable_reduce),
    "tagcache": _SweepKind(_tagcache_jobs, _tag_cache_cell,
                           _tag_cache_descriptor, _tagcache_reduce),
}


def run_sweep(spec: SweepSpec, *, workers: int = 2,
              cache: Optional[ResultCache] = None, service=None):
    """Execute one :class:`SweepSpec` and reduce it (see module).

    Returns ``{fraction: mean overhead}`` for ``ccured``/``objtable``
    and ``{(workload, size): {"cycles", "tag_miss_rate"}}`` for
    ``tagcache``.  ``service`` (a ``repro.service`` Client or
    Service) takes precedence over ``workers``.
    """
    kind = _KINDS[spec.kind]
    results = _run_cached_jobs(kind.jobs(spec), kind.cell,
                               kind.descriptor, workers, cache,
                               service=service)
    return kind.reduce(spec, results)
