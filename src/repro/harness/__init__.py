"""Experiment harness: violation corpus, runners and figure tables.

The names in ``__all__`` are the harness's stable public surface
(documented in docs/SERVICE.md and README; guarded by
``tests/service/test_public_api.py`` so it cannot silently shrink):
serial running (:func:`run_workload`, :func:`run_benchmark_matrix`),
sharded/cached running (:func:`map_jobs` — the one executor, inline
or on a ``repro.service`` fleet — :class:`ResultCache` — the one
on-disk result cache — and :func:`run_benchmark_matrix_parallel`),
declarative sweeps (:class:`SweepSpec`, :func:`run_sweep`) and the
figure tables.
"""

from repro.harness.violations import (
    ViolationCase,
    generate_corpus,
    run_corpus,
    CorpusResult,
)
from repro.harness.runner import (
    BenchmarkRun,
    run_workload,
    run_benchmark_matrix,
)
from repro.harness.parallel import (
    ResultCache,
    map_jobs,
    run_benchmark_matrix_parallel,
)
from repro.harness.sweep_api import (
    SweepSpec,
    run_sweep,
)
from repro.harness.figures import (
    figure5_table,
    figure6_table,
    figure7_table,
    check_uop_ablation_table,
    format_table,
)

__all__ = [
    "ViolationCase",
    "generate_corpus",
    "run_corpus",
    "CorpusResult",
    "BenchmarkRun",
    "run_workload",
    "run_benchmark_matrix",
    "ResultCache",
    "map_jobs",
    "run_benchmark_matrix_parallel",
    "SweepSpec",
    "run_sweep",
    "figure5_table",
    "figure6_table",
    "figure7_table",
    "check_uop_ablation_table",
    "format_table",
]
