"""Host-speed calibration: a fixed piece of pure-Python work.

The sandbox this benchmark runs in shares its cores with other
tenants, and its speed drifts by 20-40% over minutes, CPU time and
wall time alike (there is no steal to subtract: the slowdown is in the
core, not in the schedule).  A measurement that takes half a minute
therefore reads up to a third slower in a busy minute than in a quiet
one, whatever the code under test does.

``sample()`` times work that never changes: CPython ``compile()`` of a
fixed generated closure shaped like the block fuser's output, then a
loop of the attribute, dict and small-int operations the simulator's
interpreter loops are made of; ``compile()`` weighs about as much
here as in a cold Olden sweep.  The benchmark samples it on the core
the timed work runs on, between its operations (or from a background
thread while the process waits on its pool workers), and reports the
phase's time divided by the host's speed factor, the phase's mean
sample over ``NOMINAL_S``: seconds as a host running at nominal speed
would take them.  The raw time and the samples stay in the record.

The calibration is the benchmark's own code, not the simulator's, so a
change under ``src/`` cannot move it; a change that makes the program
slower still reads slower.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from time import thread_time
from typing import List

#: statements per generated block and blocks in the generated source
_STMTS = 24
_BLOCKS = 20

#: loop trips of the execute half
_TRIPS = 15000

#: ``sample()`` seconds taken as nominal speed: about its median on a
#: 2-vCPU Xeon KVM guest at 2.0 GHz with Python 3.11.7.  It only sets
#: the scale; both sides of a comparison divide by the same constant.
NOMINAL_S = 0.03


def _source() -> str:
    """A fixed closure-per-block source, like the fuser's."""
    lines = []
    params = ", ".join("k%d" % i for i in range(_STMTS))
    for b in range(_BLOCKS):
        lines.append("def _fuse%d(%s, _mem, _st):" % (b, params))
        defaults = ", ".join("k%d=k%d" % (i, i) for i in range(_STMTS))
        lines.append("    def _block(pc, %s):" % defaults)
        lines.append("        r = _st.regs")
        for i in range(_STMTS):
            op = ("+", "-", "^", "&", "|")[(b + i) % 5]
            lines.append("        v = (r[%d] %s k%d) & 0xffffffff"
                         % (i % 16, op, i))
            if i % 3 == 0:
                lines.append("        if v & %d:" % (1 << (i % 7)))
                lines.append("            _mem[v & 255] = v")
                lines.append("        else:")
                lines.append("            _st.cycles += %d" % (i + 1))
            lines.append("        r[%d] = v" % ((i + b) % 16))
        lines.append("        return pc + %d" % _STMTS)
        lines.append("    return _block")
    return "\n".join(lines) + "\n"


_SOURCE = _source()


class _State:
    __slots__ = ("regs", "cycles")

    def __init__(self):
        self.regs = list(range(16))
        self.cycles = 0


def _execute() -> int:
    state = _State()
    mem = {}
    table = {i: (i * 7) & 15 for i in range(64)}
    regs = state.regs
    for trip in range(_TRIPS):
        j = table[trip & 63]
        v = (regs[j] + trip) & 0xffffffff
        if v & 4:
            mem[v & 255] = v
        else:
            state.cycles += 1
        regs[(j + 1) & 15] = v ^ mem.get(trip & 255, 0)
    return state.cycles


def sample() -> float:
    """CPU seconds one calibration takes now: the calling thread's, so
    time spent waiting for a core does not count.  The cyclic collector
    is off meanwhile, so the size of the caller's heap does not count
    either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        namespace: dict = {}
        exec(compile(_SOURCE, "<perfbench-calib>", "exec"), namespace)
        block = namespace["_fuse0"](*range(_STMTS), {}, _State())
        block(0)
        _execute()
        return thread_time() - t0
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def sampling(samples: list, interval: float):
    """Append a ``sample()`` to ``samples`` every ``interval`` seconds,
    from a background thread, while the body runs.  For a body that
    waits on other processes: its own thread is idle, and the samples
    land on whichever core is free, as the other processes' work does."""
    stop = threading.Event()

    def loop():
        while not stop.wait(interval):
            samples.append(sample())

    thread = threading.Thread(target=loop, name="calib", daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()


def speed_factor(samples: list) -> float:
    """How much slower than nominal the host ran while ``samples`` were
    taken at even intervals: their mean over ``NOMINAL_S``.  The mean,
    not the median, because a timed phase adds up its slow and fast
    moments alike."""
    return sum(samples) / len(samples) / NOMINAL_S


class Gaps:
    """Samples taken in the gaps between the operations of a timed
    phase: ``gap()`` before each operation and once after the last,
    ``op(seconds)`` after each.  An operation ran as slowly as the mean
    of the gaps on either side of it; the phase, as the average of its
    operations weighted by their times."""

    def __init__(self, per_gap: int = 1, span=contextlib.nullcontext):
        self.per_gap = per_gap
        self._span = span
        self.samples: List[float] = []
        #: mean sample of each gap, and the operation time after each
        self.gaps: List[float] = []
        self.times: List[float] = []

    def gap(self) -> None:
        with self._span():
            taken = [sample() for _ in range(self.per_gap)]
        self.samples.extend(taken)
        self.gaps.append(sum(taken) / len(taken))

    def op(self, seconds: float) -> None:
        self.times.append(seconds)

    def speed_factor(self) -> float:
        assert len(self.gaps) == len(self.times) + 1, "gap() after the last op"
        slowness = sum(seconds * (self.gaps[i] + self.gaps[i + 1]) / 2
                       for i, seconds in enumerate(self.times))
        return slowness / sum(self.times) / NOMINAL_S
