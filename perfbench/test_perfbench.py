"""Self-tests of the benchmark (no simulation runs; about a second).

    python3 -m pytest -q perfbench
"""

import copy
import gc
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import work  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == work.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == work.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(work.WORKLOADS)
    run.check_metric_tables(spec)


def test_result_line_prints_exactly_the_declared_metrics():
    spec = _spec()
    for trace, key, table in ((0, "e2e", work.E2E_UNITS),
                              (1, "per_layer", work.PER_LAYER_UNITS)):
        record = {"trace": trace, "attempted": 3, "failed": 0,
                  key: {name: 1.5 for name in table}}
        line = run.result_line(record, spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(table)
        assert all(m["unit"] == table[name]
                   for name, m in line["metrics"].items())


class _Result:
    """A ``RunResult`` stand-in rebuilt from reference counters."""

    def __init__(self, counters, output=""):
        self.counters = counters
        self.output = output


def test_perturbed_reference_counter_is_a_failed_operation(monkeypatch):
    reference = refcheck.load()
    key = "treeadd/intern11"
    good = reference["cells"][key]
    bad = copy.deepcopy(good)
    bad["mem"]["tag"]["stall_cycles"] += 1
    monkeypatch.setattr(refcheck, "cell_counters", lambda r: r.counters)
    checker = refcheck.Checker(reference)
    assert checker.cell("treeadd", "intern11", _Result(good))
    assert not checker.cell("treeadd", "intern11", _Result(bad))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "mem.tag.stall_cycles" in checker.failures[0]
    assert refcheck.mismatches(good, bad) == ["mem.tag.stall_cycles"]


def test_wrong_expected_output_and_fuzz_verdict_are_failures(monkeypatch):
    reference = refcheck.load()
    monkeypatch.setattr(refcheck, "cell_counters", lambda r: r.counters)
    checker = refcheck.Checker(reference)
    good = reference["cells"]["treeadd/base"]
    assert not checker.cell("treeadd", "base", _Result(good, "42\n"),
                            expected_output="43\n")

    class Verdict:
        divergences = []
        status, trap = "exit", None

    level, seed = work.FUZZ_BATCH[0]
    expected = reference["fuzz"][refcheck.fuzz_key(level, seed)]
    Verdict.status, Verdict.trap = expected["status"], expected["trap"]
    assert checker.fuzz(level, seed, Verdict())
    Verdict.trap = "SomethingElse"
    assert not checker.fuzz(level, seed, Verdict())
    assert (checker.attempted, checker.failed) == (3, 2)


def test_reference_covers_every_cell_and_fuzz_seed():
    reference = refcheck.load()
    assert reference["engine"] == "legacy"
    assert len(reference["cells"]) == 9 * 6
    assert set(reference["fuzz"]) == {refcheck.fuzz_key(*job)
                                      for job in work.FUZZ_BATCH}


def test_exits_nonzero_without_a_program_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_leaves_gc_as_found():
    assert gc.isenabled()
    first = calib.sample()
    assert gc.isenabled() and first > 0
    gc.disable()
    try:
        calib.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gap_samples_are_weighted_by_the_operations_beside_them(
        monkeypatch):
    taken = iter([0.03, 0.03, 0.06])
    monkeypatch.setattr(calib, "sample", lambda: next(taken))
    gaps = calib.Gaps()
    gaps.gap()
    gaps.op(1.0)
    gaps.gap()
    gaps.op(3.0)
    gaps.gap()
    # 1 s at 0.03 (the mean of its gaps) and 3 s at 0.045; the plain
    # mean of the samples would read 0.04
    assert abs(gaps.speed_factor() * calib.NOMINAL_S - 0.04125) < 1e-12
    assert gaps.samples == [0.03, 0.03, 0.06]
