"""Benchmark of the HardBound reproduction: one command, three workloads.

Run from the root of a checkout (nothing to build; only ``python3``)::

    python3 perfbench/run.py --workload olden --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 4   # all workloads, both modes
    python3 perfbench/run.py --make-reference             # regenerate reference.json

A measurement runs ``work.py`` in a fresh interpreter, so cold means
cold; set-up time is sampled in extra fresh interpreters and reported as
their median.  The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it is the run's full record (seed,
provenance, sample counts, failures), also written under
``.perfbench-out/``.  The run exits non-zero, printing no result, when
the measurement cannot be made.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work.py")
OUT = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)
import work  # noqa: E402  (metric tables; imports no simulator code)

#: fresh interpreters that only set up, besides the measured one: the
#: reported set-up time is the median of all of them
SETUP_PROBES = 2

#: a measurement must end within the benchmark's time limit
CHILD_TIMEOUT_S = 170

#: inherited settings that would make a run differ from a plain user's:
#: a forced fuzz seed, an obs event stream, a fixed hash seed
SCRUBBED_ENV = ("REPRO_FUZZ_SEED", "REPRO_OBS", "PYTHONHASHSEED")


class BenchError(Exception):
    """The measurement could not be made (no result is printed)."""


def _benchmark_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc))


def check_metric_tables(spec: dict) -> None:
    """The metrics this code emits must be exactly those BENCHMARK.json
    declares, with the same units."""
    for key, table in (("end_to_end", work.E2E_UNITS),
                       ("per_layer", work.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            raise BenchError("BENCHMARK.json %s metrics differ from the "
                             "benchmark's: %s" % (key, sorted(
                                 set(declared.items()) ^ set(table.items()))))


def _environment() -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError("no simulator source under %s"
                         % os.path.join(ROOT, "src"))
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def _git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT] + list(args),
                          capture_output=True, text=True, check=True,
                          timeout=30).stdout.strip()


def provenance() -> dict:
    """Which code ran where: carried by every record, so every ratio
    the benchmark prints comes from one host and one tree."""
    rev = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain",
                              "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_rev": rev, "git_dirty": dirty,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "host": platform.node()}


def _child(env: dict, argv: list, deadline: float) -> dict:
    """Run ``work.py`` in its own process group; its last stdout line is
    its record.  On timeout the whole group (pool workers too) dies."""
    proc = subprocess.Popen([sys.executable, WORK] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("work.py %s timed out" % " ".join(argv))
    if proc.returncode != 0:
        raise BenchError("work.py %s failed (exit %d):\n%s"
                         % (" ".join(argv), proc.returncode, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measurement: set-up probes, then the measured run."""
    env = _environment()
    deadline = time.time() + CHILD_TIMEOUT_S
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(_child(env, [workload, "--setup-only", "--spawn-time",
                                   repr(time.time())], deadline))
    record = _child(env, [workload, "--seed", str(seed), "--seconds",
                          repr(float(seconds)), "--trace", str(trace),
                          "--out", OUT, "--tmp", env["TMPDIR"],
                          "--spawn-time", repr(time.time())], deadline)
    # each sample is scaled by the host-speed factor its process
    # measured right after setting up (calib.py)
    setups.append(record["details"])
    record["e2e"]["setup_s"] = statistics.median(s["setup_s"]
                                                 for s in setups)
    record["details"]["setup_samples"] = [
        {key: s[key] for key in ("setup_s", "setup_wall_s",
                                 "setup_speed_factor")} for s in setups]
    record["provenance"] = provenance()
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The result object of one record: every metric BENCHMARK.json
    declares for its mode, by name, with its unit."""
    trace = record["trace"]
    values = record["per_layer"] if trace else record["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def _save(record: dict, name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def run_one(args, spec: dict) -> int:
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    line = result_line(record, spec)
    _save(record, "record-%s-seed%d-trace%d.json"
          % (args.workload, args.seed, args.trace))
    for name, metric in line["metrics"].items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]),
              file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced; prints the end-to-end table,
    the tracing overhead (traced - untraced) and layer coverage, all
    from one combined record."""
    combined = {"seed": args.seed, "seconds": args.seconds,
                "provenance": provenance(), "workloads": {}}
    failed = attempted = 0
    for workload in work.WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, 0)
        traced = measure(workload, args.seed, args.seconds, 1)
        combined["workloads"][workload] = {"untraced": plain,
                                           "traced": traced}
        failed += plain["failed"] + traced["failed"]
        attempted += plain["attempted"] + traced["attempted"]
    path = _save(combined, "all-seed%d.json" % args.seed)
    print("| workload | metric | unit | untraced | traced | traced - "
          "untraced |")
    print("| --- | --- | --- | --- | --- | --- |")
    for workload, pair in combined["workloads"].items():
        for name, unit in work.E2E_UNITS.items():
            a = pair["untraced"]["e2e"][name]
            b = pair["traced"]["e2e"][name]
            print("| %s | %s | %s | %.4g | %.4g | %+.4g |"
                  % (workload, name, unit, a, b, b - a))
    print()
    print("| workload | attempted | failed | layer coverage (traced) |")
    print("| --- | --- | --- | --- |")
    for workload, pair in combined["workloads"].items():
        print("| %s | %d | %d | %.1f%% |" % (
            workload, pair["untraced"]["attempted"]
            + pair["traced"]["attempted"],
            pair["untraced"]["failed"] + pair["traced"]["failed"],
            100 * pair["traced"]["per_layer"]["trace.coverage"]))
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed}))
    return 0 if failed == 0 else 1


def make_reference() -> int:
    env = _environment()
    print(json.dumps(_child(env, ["make-reference"], time.time() + 3600)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="HardBound reproduction benchmark")
    parser.add_argument("--workload", choices=work.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate reference.json with the legacy "
                             "engine")
    args = parser.parse_args(argv)
    try:
        spec = _benchmark_spec()
        check_metric_tables(spec)
        if args.make_reference:
            return make_reference()
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload, --all or --make-reference is required")
        return run_one(args, spec)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
