"""Figures 5-7 are golden artifacts.

``tests/golden/figures.txt`` is exactly what
``python -m repro.harness.report figures`` prints.  Any change to the
simulator's meaning shows up here as a figure delta, to be reviewed
and committed with the change that caused it:

    PYTHONPATH=src python -m repro.harness.report figures \\
        > tests/golden/figures.txt

The full 54-cell matrix runs serially (about 25 s), so the test is
``slow``-marked: CI runs it in the engine differential step.
"""

import difflib
import os

import pytest

from repro.harness.report import report_figures

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "golden", "figures.txt")


@pytest.mark.slow
def test_figures_match_golden(capsys):
    report_figures()
    printed = capsys.readouterr().out
    with open(GOLDEN) as fh:
        golden = fh.read()
    if printed != golden:
        delta = "".join(difflib.unified_diff(
            golden.splitlines(True), printed.splitlines(True),
            "tests/golden/figures.txt", "report figures"))
        pytest.fail("Figures 5-7 changed:\n" + delta)
