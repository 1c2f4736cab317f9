"""Reference counters: what every benchmarked run must reproduce exactly.

``reference.json`` holds the simulated counters of every Figures 5-7
cell (each Olden workload under the plain core, the three HardBound
encodings, the CCured simulation and the object-table model) as the
``legacy`` engine computes them, plus the verdict of every fuzz seed
the benchmark runs.  ``legacy`` is the specification the faster engines
are held to, so a run whose counters differ from it is a failed
operation, whatever its speed.  Changing what the simulator computes
therefore means regenerating this file (``run.py --make-reference``),
and the figure delta shows in that diff.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: counters a functional (no timing model) run shares with the timed
#: reference run of the same cell
FUNCTIONAL_FIELDS = ("instructions", "exit_code", "output_sha256",
                     "setbound_uops")

#: the ``ObjTableSummary`` counters the figure pipeline consumes
OBJTABLE_FIELDS = ("extra_uops", "arith_events", "alloc_events",
                   "mem_events", "elide_fraction")


def cell_key(workload: str, kind: str) -> str:
    return "%s/%s" % (workload, kind)


def fuzz_key(level: str, seed: int) -> str:
    return "%s/%d" % (level, seed)


def run_counters(result) -> dict:
    """Simulated counters of a ``RunResult``: engine-independent, so
    they must equal the legacy engine's bit for bit."""
    return {
        "instructions": result.instructions,
        "uops": result.uops,
        "cycles": result.cycles,
        "stall_cycles": result.stall_cycles,
        "setbound_uops": result.setbound_uops,
        "exit_code": result.exit_code,
        "output_sha256": hashlib.sha256(
            result.output.encode("utf-8")).hexdigest(),
        "hb": (result.hb_stats.as_dict()
               if result.hb_stats is not None else None),
        # per access kind: accesses, misses, stalls and distinct pages
        "mem": (result.mem_stats.as_dict()
                if result.mem_stats is not None else None),
    }


def cell_counters(result) -> dict:
    """Counters of one matrix cell: a ``RunResult`` or, for the
    object-table baseline, an ``ObjTableSummary``."""
    if hasattr(result, "extra_uops"):
        return {name: getattr(result, name) for name in OBJTABLE_FIELDS}
    return run_counters(result)


def _flatten(value, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(value[key], "%s.%s" % (prefix, key) if prefix
                     else str(key), out)
    else:
        out[prefix] = value


def mismatches(expected: dict, observed: dict) -> List[str]:
    """Dotted names of the counters that differ (missing ones too)."""
    want: Dict[str, object] = {}
    got: Dict[str, object] = {}
    _flatten(expected, "", want)
    _flatten(observed, "", got)
    return sorted(name for name in set(want) | set(got)
                  if want.get(name, "<missing>") != got.get(name,
                                                            "<missing>"))


def digest(counters: Dict[str, dict]) -> str:
    """One hash over observed counters keyed by cell (or fuzz seed): two
    records with equal digests simulated exactly the same thing."""
    blob = json.dumps(counters, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save(reference: dict, path: str = REFERENCE_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Checker:
    """Compares observed counters with the reference and keeps the
    operation tally (``attempted`` / ``failed``) of one run."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        #: first few failures, for the run record
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def cell(self, workload: str, kind: str, observed,
             expected_output: Optional[str] = None,
             fields: Optional[tuple] = None) -> bool:
        """One operation: a simulated cell against its reference (only
        ``fields`` of it, if given) and, when the workload publishes
        one, its expected program output."""
        self.attempted += 1
        key = cell_key(workload, kind)
        expected = self.reference["cells"].get(key)
        if expected is None:
            self.fail("%s: no reference counters" % key)
            return False
        counters = cell_counters(observed)
        if fields is not None:
            expected = {name: expected[name] for name in fields}
            counters = {name: counters[name] for name in fields}
        diff = mismatches(expected, counters)
        if diff:
            self.fail("%s: counters differ: %s" % (key, ", ".join(diff[:6])))
            return False
        if expected_output is not None and observed.output != expected_output:
            self.fail("%s: output differs from the expected output" % key)
            return False
        return True

    def fuzz(self, level: str, seed: int, result) -> bool:
        """One operation: a fuzz seed, which must not diverge and must
        end as the reference says (a deliberate trap is a verdict, not
        a failure)."""
        self.attempted += 1
        key = fuzz_key(level, seed)
        if result.divergences:
            self.fail("%s: diverged: %s" % (key, result.divergences[0]))
            return False
        verdict = {"status": result.status, "trap": result.trap}
        if self.reference["fuzz"].get(key) != verdict:
            self.fail("%s: verdict %r != reference %r"
                      % (key, verdict, self.reference["fuzz"].get(key)))
            return False
        return True

    def error(self, what: str, exc: BaseException) -> None:
        """One operation that raised."""
        self.attempted += 1
        self.fail("%s: %s: %s" % (what, type(exc).__name__, exc))
