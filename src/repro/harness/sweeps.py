"""Sensitivity analysis for the software-baseline calibration.

The CCured and JK/RL/DA baselines embed two constants standing in for
whole-program analyses we do not reimplement (DESIGN.md): the CCured
SAFE/SEQ inference rate and the object table's static elision rate.
These sweeps quantify how the Figure-7 *conclusion* — HardBound beats
the software schemes — depends on them: it must hold over the entire
plausible range, not just at the calibrated point.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.baselines.fatptr import SoftBoundEngine
from repro.baselines.objtable import ObjectTableModel
from repro.machine.config import MachineConfig, SafetyMode
from repro.machine.cpu import CPU
from repro.harness.runner import compile_cached, run_workload
from repro.minic.driver import mode_for_config
from repro.workloads.registry import WORKLOADS


def _engine_factory(safe_fraction: float):
    def factory(encoding, memsys, check_uop, check_access_extent):
        return SoftBoundEngine(encoding, memsys, check_uop,
                               check_access_extent,
                               safe_fraction=safe_fraction)
    return factory


def sweep_ccured_safe_fraction(
        workloads: Iterable[str],
        fractions: Iterable[float]) -> Dict[float, float]:
    """Average CCured-sim runtime overhead per SAFE fraction.

    The serial reference of ``run_sweep(SweepSpec(kind="ccured"))``.
    """
    out: Dict[float, float] = {}
    names = list(workloads)
    bases = {name: run_workload(name, MachineConfig.plain())
             for name in names}
    for fraction in fractions:
        config = MachineConfig(
            mode=SafetyMode.FULL, encoding="uncompressed",
            engine_factory=_engine_factory(fraction))
        total = 0.0
        for name in names:
            program = compile_cached(WORKLOADS[name].source,
                                     mode_for_config(config))
            run = CPU(program, config).run()
            total += run.cycles / bases[name].cycles
        out[fraction] = total / len(names)
    return out


def sweep_objtable_elision(
        workloads: Iterable[str],
        fractions: Iterable[float]) -> Dict[float, float]:
    """Average object-table runtime overhead per elision fraction.

    The serial reference of ``run_sweep(SweepSpec(kind="objtable"))``.
    """
    out: Dict[float, float] = {}
    names = list(workloads)
    bases = {name: run_workload(name, MachineConfig.plain())
             for name in names}
    for fraction in fractions:
        total = 0.0
        for name in names:
            model = ObjectTableModel(elide_fraction=fraction)
            run_workload(name, MachineConfig.hardbound(timing=False),
                         observer=model)
            total += (bases[name].cycles + model.extra_uops) \
                / bases[name].cycles
        out[fraction] = total / len(names)
    return out


def hardbound_average(workloads: Iterable[str],
                      encoding: str = "intern11") -> float:
    """Average HardBound overhead on the same workload subset."""
    names = list(workloads)
    total = 0.0
    for name in names:
        base = run_workload(name, MachineConfig.plain())
        run = run_workload(
            name, MachineConfig.hardbound(encoding=encoding))
        total += run.cycles / base.cycles
    return total / len(names)


def sweep_rows(sweep: Dict[float, float],
               label: str) -> List[List[str]]:
    """Format a sweep as table rows."""
    return [[label, "%.2f" % fraction, "%.3f" % overhead]
            for fraction, overhead in sorted(sweep.items())]
