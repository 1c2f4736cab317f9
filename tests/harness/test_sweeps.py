"""Sensitivity sweeps (``repro.harness.sweeps``): direct coverage.

The sweeps defend the Figure-7 conclusion across the calibration
range; until now they were only exercised indirectly through the
benchmark harness.  One small workload keeps every sweep fast while
still asserting the *shape* of each result — overheads above 1.0,
monotone in the knob — plus parity between the serial and sharded
code paths.
"""

import pytest

from repro.baselines.fatptr import SoftBoundEngine
from repro.harness.sweep_api import SweepSpec, run_sweep
from repro.harness.sweeps import (
    _engine_factory,
    hardbound_average,
    sweep_ccured_safe_fraction,
    sweep_objtable_elision,
    sweep_rows,
)

WORKLOAD = ["treeadd"]


@pytest.fixture(scope="module")
def ccured_sweep():
    return sweep_ccured_safe_fraction(WORKLOAD, (0.1, 0.9))


@pytest.fixture(scope="module")
def objtable_sweep():
    return sweep_objtable_elision(WORKLOAD, (0.0, 0.95))


class TestCcuredSweep:
    def test_returns_one_overhead_per_fraction(self, ccured_sweep):
        assert set(ccured_sweep) == {0.1, 0.9}

    def test_overheads_exceed_baseline(self, ccured_sweep):
        assert all(value > 1.0 for value in ccured_sweep.values())

    def test_more_safe_pointers_means_less_overhead(self,
                                                    ccured_sweep):
        assert ccured_sweep[0.9] < ccured_sweep[0.1]


class TestObjtableSweep:
    def test_returns_one_overhead_per_fraction(self, objtable_sweep):
        assert set(objtable_sweep) == {0.0, 0.95}

    def test_overheads_exceed_baseline(self, objtable_sweep):
        assert all(value > 1.0 for value in objtable_sweep.values())

    def test_more_elision_means_less_overhead(self, objtable_sweep):
        assert objtable_sweep[0.95] < objtable_sweep[0.0]

    def test_sharded_path_matches_serial(self, objtable_sweep):
        sharded = run_sweep(SweepSpec(kind="objtable",
                                      workloads=WORKLOAD,
                                      grid=(0.0, 0.95)), workers=2)
        for fraction, value in objtable_sweep.items():
            assert sharded[fraction] == pytest.approx(value)


class TestHardboundAverage:
    def test_between_one_and_the_software_schemes(self, ccured_sweep,
                                                  objtable_sweep):
        hb = hardbound_average(WORKLOAD)
        assert 1.0 < hb
        # the paper's conclusion at the calibrated points: hardware
        # bounds checking beats both software baselines
        assert hb < ccured_sweep[0.1]
        assert hb < objtable_sweep[0.0]


class TestPlumbing:
    def test_sweep_rows_shape(self):
        rows = sweep_rows({0.5: 1.25, 0.1: 2.0}, "ccured")
        assert rows == [["ccured", "0.10", "2.000"],
                        ["ccured", "0.50", "1.250"]]

    def test_engine_factory_binds_safe_fraction(self):
        factory = _engine_factory(0.37)
        engine = factory("uncompressed", None, False, False)
        assert isinstance(engine, SoftBoundEngine)
        assert engine.safe_fraction == 0.37
