"""Instruction templates and the fused basic-block engine
(``engine="superblocks"``).

This module is the one place, besides the legacy spec
(:mod:`repro.machine.cpu`), that knows instruction semantics: every
opcode in every operand form has a *source template*
(:func:`_template_part`), and both fast engines run compiled templates.
The decoded engine (:mod:`repro.machine.decode`) dispatches one
template per instruction; the fused engine amortizes that per-call
dispatch tax (a list index, an instruction-limit compare, a
faulting-pc store, a call and a next-pc select) over straight-line
runs.  The engine keeps the config name ``"superblocks"`` for
compatibility with existing cache keys, benchmark span names and
harness defaults; the name is historical (it forms no cross-block
traces).

1. **Templates** — a template is a shape id, the operands it binds
   and a source body.  Compiled code objects are cached by *shape
   signature* (the tuple of shape ids of the instructions in one
   generated function), and the body is built only on a cache miss,
   so known shapes cost a lookup and a bind.  A per-instruction
   closure (:attr:`Fuser.code`) is its instruction's template compiled
   as a one-part fuser, built on first call.

   The word load/store templates inline the whole body: effective
   address, the HardBound bounds check, the temporal check, the
   flat-heap segment check (which doubles as arena routing — see
   :mod:`repro.machine.memory`), the word-view access, the timing
   charge, the observer hook and the pointer-metadata load/store.
   The fast timing model's charge is the composite-MRU hit inline
   (two counter bumps), otherwise one call of the env-bound compiled
   :class:`~repro.caches.fast.FastMemorySystem` probe, so no generated
   source depends on cache geometry; the classic model is charged
   through its generic access entry point.  Generic-form templates
   (sub-word sizes, index-only and absolute forms, ablated or
   substituted metadata engines) call the env-bound engine entry
   points in the legacy handler's order.

2. **Block discovery** — a linear pass over the linked program finds
   block leaders (the entry point, branch/call targets, fallthrough
   points after control transfers, and ``setcode`` immediates, which
   are the ISA's function-pointer constants) and grows each leader
   into a maximal straight-line block, giving a CFG of
   :class:`BasicBlock` nodes.

3. **Superinstruction fusion** — each block is compiled into one
   *block closure*: a generated function executing the whole block
   in a single call, its instructions' templates inlined with their
   operands passed in as closure cells.  A few instruction kinds
   (:func:`_calls_closure`) are instead called through their
   per-instruction closure.

4. **Fusion plans** — CFG discovery, template selection and source
   assembly depend only on the program and the template-selection
   context, so their outcome is cached per program (:class:`_Plan`):
   a later run of the same program re-binds every block closure
   from the plan without generating or compiling any source.

5. **Block-threaded dispatch** — the run loop executes one block per
   iteration: one table lookup, one limit compare against the whole
   block length, one call.  Per-run introspection (block dispatches,
   fallback single-steps, closure sites) lands in
   ``cpu.engine_stats`` and travels on
   :class:`~repro.machine.cpu.RunResult`.

Trap semantics stay **bit-identical** to the other engines without
slowing the happy path: the generator records which source line
belongs to which instruction offset, so when something raises, the
faulting offset is recovered from the exception traceback's line
number in the generated frame and the instruction count is rewound to
exactly what the per-instruction engines would report.  Control
transfers into the middle of a block (a computed ``callr`` into a
non-leader pc) fall back to single-instruction stepping on the
per-instruction closures, as does any block that could bust the
instruction limit mid-flight.
"""

from __future__ import annotations

import re
import types
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import Op, REG_FP, REG_RA, REG_SP
from repro.isa.program import Program
from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    MASK32,
    MAXINT,
    SHADOW_SPACE_BASE,
    STACK_TOP,
    to_signed,
)
from repro.machine.errors import (
    AbortError,
    BoundsError,
    DivideByZeroError,
    HaltSignal,
    InstructionLimitExceeded,
    InvalidCodePointerError,
    MemoryFault,
    NonPointerError,
    Trap,
)

#: opcodes that end a basic block (transfer or stop control)
TERMINATORS = frozenset({
    Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL, Op.CALLR, Op.RET,
    Op.HALT, Op.ABORT,
})

#: opcodes with a static branch/call target
_TARGETED = frozenset({Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL})

#: cap on fused block length; the capped tail simply becomes the next
#: block, entered by fallthrough
MAX_BLOCK_LEN = 64


class BasicBlock:
    """One CFG node: a maximal straight-line instruction run.

    ``succs`` holds the *static* successor pcs: branch targets and
    fallthrough points.  Indirect transfers (``callr``/``ret``) and
    program exit have no static successors.
    """

    __slots__ = ("start", "length", "succs")

    def __init__(self, start: int, length: int,
                 succs: Tuple[int, ...]):
        self.start = start
        self.length = length
        self.succs = succs

    @property
    def end(self) -> int:
        """pc one past the last instruction of the block."""
        return self.start + self.length

    def __repr__(self):
        return ("BasicBlock(%d..%d -> %s)"
                % (self.start, self.end - 1, list(self.succs)))


def find_leaders(program: Program) -> set:
    """Pcs where a basic block may begin.

    Leaders are the program entry, every static branch/call target,
    the instruction after every control transfer (branch fallthrough
    and call/``callr`` return point), and every in-range ``setcode``
    immediate — the only way this ISA materializes a code-pointer
    constant for an indirect call.
    """
    instrs = program.instrs
    n = len(instrs)
    leaders = set()
    if not n:
        return leaders
    leaders.add(program.entry)
    for i, instr in enumerate(instrs):
        op = instr.op
        if op in _TARGETED:
            target = instr.target
            if target is not None and 0 <= target < n:
                leaders.add(target)
            if i + 1 < n:
                leaders.add(i + 1)
        elif op in TERMINATORS:  # callr/ret/halt/abort
            if i + 1 < n:
                leaders.add(i + 1)
        elif op is Op.SETCODE and instr.rs is None:
            target = (instr.imm or 0) & MASK32
            if target < n:
                leaders.add(target)
    return leaders


def _static_succs(program: Program, start: int,
                  length: int) -> Tuple[int, ...]:
    instrs = program.instrs
    n = len(instrs)
    last = instrs[start + length - 1]
    op = last.op
    fall = start + length
    if op is Op.JMP:
        return (last.target,)
    if op in (Op.BEQZ, Op.BNEZ):
        succs = [last.target]
        if fall < n:
            succs.append(fall)
        return tuple(succs)
    if op is Op.CALL:
        return (last.target,)
    if op in (Op.CALLR, Op.RET, Op.HALT, Op.ABORT):
        return ()
    return (fall,) if fall < n else ()


def find_blocks(program: Program) -> List[BasicBlock]:
    """Discover the basic blocks of a linked program, in pc order.

    Every leader opens a block that extends to the first terminator,
    the instruction before the next leader, or the fusion cap,
    whichever comes first.  Capped tails open follow-on blocks at
    non-leader pcs (they are only ever entered by fallthrough).
    """
    instrs = program.instrs
    n = len(instrs)
    leaders = find_leaders(program)
    blocks: List[BasicBlock] = []
    starts = sorted(leaders)
    seen = set()
    while starts:
        next_starts: List[int] = []
        for start in starts:
            if start in seen:
                continue
            seen.add(start)
            j = start
            while True:
                if instrs[j].op in TERMINATORS:
                    break
                nxt = j + 1
                if nxt >= n or nxt in leaders or nxt in seen:
                    break
                if nxt - start >= MAX_BLOCK_LEN:
                    next_starts.append(nxt)
                    break
                j = nxt
            length = j - start + 1
            blocks.append(BasicBlock(
                start, length, _static_succs(program, start, length)))
        starts = sorted(next_starts)
    blocks.sort(key=lambda b: b.start)
    return blocks


# -- instruction templates ---------------------------------------------------

# Every instruction is a *part*: a template id (the shape), the operand
# values it binds into the generated function, and its source.  Operand
# names are stems (``rd``, ``k``) suffixed with the part's offset in the
# generated function at compile time, as are the ``{i}`` fields of its
# source lines.  Functions with equal shape-id tuples share one
# compiled code object; operands travel as closure parameters, never as
# literals.  ``_template_part`` is total: every opcode in every operand
# form, under every run configuration, has a template.  A fused block
# is the parts of its instructions; a per-instruction closure is a
# one-part fuser.

_M32 = str(MASK32)
_MSB = str(0x80000000)
_MAX = str(MAXINT)
_RA = str(REG_RA)

_RD_RS = ("rd", "rs")
_RD_RS_RT = ("rd", "rs", "rt")
_RD_RS_K = ("rd", "rs", "k")
_RD_K = ("rd", "k")


class _Part:
    """One instruction's template: shape id, operands, source.

    ``names`` are the operand name stems, ``args`` their values.
    ``body`` returns the source lines; it runs only when the shape
    signature misses ``_fuse_cache``, so fusing or decoding known
    shapes builds no source at all.  ``closure_pc`` is set on the
    fused engine's closure parts: the pc whose per-run closure is the
    part's first operand.  The fusion plan cache stores specs with
    those positions marked so a later run can re-bind its own
    closures (every other operand is program-stable).
    """

    __slots__ = ("shape", "names", "args", "body", "closure_pc")

    def __init__(self, shape: str, names: Tuple[str, ...], args: tuple,
                 body, closure_pc: Optional[int] = None):
        self.shape = shape
        self.names = names
        self.args = args
        self.body = body
        self.closure_pc = closure_pc


def _lines(*lines: str):
    """A template body with fixed source lines."""
    return lambda: lines


def _set_rd(value: str, base: str = "0", bound: str = "0"):
    """Body writing ``rd``: value, then base, then bound."""
    return _lines("value[rd{i}] = " + value, "rbase[rd{i}] = " + base,
                  "rbound[rd{i}] = " + bound)


class _FuseCtx:
    """Build-time facts that select and specialize templates.

    Every fact a template's source depends on is folded into its
    shape id, so one compiled fuser serves every run whose facts
    agree; everything else reaches the source as an env-bound name.
    """

    __slots__ = ("observer", "full_mode", "hb_present", "temporal",
                 "timing", "fast_timing", "word_mem", "comp_expr",
                 "comp_tag", "mem_tag")

    def __init__(self, env):
        self.observer = env.observer is not None
        self.full_mode = env.full_mode
        self.hb_present = env.hb is not None
        self.temporal = env.temporal_check is not None
        self.timing = env.memsys is not None
        # the fast model hands out compiled probes; the classic model
        # only its generic access entry point
        self.fast_timing = env.dprobe is not None
        # the word templates inline the flat-arena word view and, with
        # HardBound, the stock engine's check and metadata path
        self.word_mem = env.use_words and (env.inline_check
                                           or env.hb is None)
        # splice the stock encodings' compressibility decision
        # straight into the metadata templates (subclassed encodings
        # return None and keep the _isc call)
        self.comp_expr = None
        self.comp_tag = ""
        if env.hb is not None:
            from repro.metadata.encodings import inline_compressible_expr
            expr = inline_compressible_expr(env.hb.encoding,
                                            "v", "mb", "mbd")
            if expr is not None:
                self.comp_expr = expr
                self.comp_tag = "_c" + type(env.hb.encoding).__name__
        charge = ("f" if self.fast_timing
                  else "c" if self.timing else "n")
        #: the word templates' shape suffix
        self.mem_tag = "%d%s%d%d%s" % (self.full_mode, charge,
                                       self.temporal, self.observer,
                                       self.comp_tag)

    def key(self) -> tuple:
        """Everything template selection depends on (the plan key)."""
        return (self.observer, self.full_mode, self.hb_present,
                self.temporal, self.timing, self.fast_timing,
                self.word_mem, self.comp_tag)


# -- memory templates ---------------------------------------------------------

_HEAP = str(HEAP_BASE)
_GLOB = str(GLOBAL_BASE)
_STOP = str(STACK_TOP)

_EA_SI = "ea = (value[rs{i}] + value[rt{i}] * sc{i} + k{i}) & " + _M32
_EA_S = "ea = (value[rs{i}] + k{i}) & " + _M32
_EA_I = "ea = (value[rt{i}] * sc{i} + k{i}) & " + _M32
_EA_NAMES = {"si": ("rs", "rt", "sc", "k"), "s": ("rs", "k"),
             "i": ("rt", "sc", "k"), "a": ("k",)}


def _ea(instr) -> Tuple[str, tuple, str]:
    """Form tag, operand values and source line of the effective
    address ``[rs + rt*scale + disp]`` (shared by load, store, lea);
    ``_EA_NAMES`` holds each form's operand names."""
    rs, rt = instr.rs, instr.rt
    if rs is not None and rt is not None:
        return "si", (rs, rt, instr.scale, instr.disp), _EA_SI
    if rs is not None:
        return "s", (rs, instr.disp), _EA_S
    if rt is not None:
        return "i", (rt, instr.scale, instr.disp), _EA_I
    return "a", (instr.disp & MASK32,), "ea = k{i}"


# The fast model's charge: the composite-MRU hit (the access repeats
# the previous probe's key granule, so only the access counters
# advance) inline, everything else one call of the fast model's
# compiled probe.  How an access is charged lives in repro.caches.fast
# alone.  The classic model charges through its generic entry point.

#: word access + its tag byte, fast model
_WORD_CHARGE = [
    "wkey = ea >> _wps",
    "if wkey == _wpm[0] and (ea + 3) >> _wps == wkey:",
    "    _wdc[0] += 1",
    "    _wtc[0] += 1",
    "else:",
    "    _wp(ea)",
]

#: plain data word, fast model
_DATA_CHARGE = [
    "bkey = ea >> _dps",
    "if bkey == _dpm[0] and (ea + 3) >> _dps == bkey:",
    "    _dc[0] += 1",
    "else:",
    "    _dp(ea)",
]


def _charge_lines(ctx: _FuseCtx, write: bool) -> List[str]:
    """Timing charge of a word access (and, with HardBound, its tag)."""
    if ctx.fast_timing:
        return _WORD_CHARGE if ctx.hb_present else _DATA_CHARGE
    if not ctx.timing:
        return []
    lines = ["_da(ea, 4, %s, 'data')" % write]
    if ctx.hb_present:
        lines.append("_da(_tb + (ea >> _ts), 1, %s, 'tag')" % write)
    return lines


def _shadow_charge(ctx: _FuseCtx, key: str, write: bool) -> List[str]:
    """Timing charge of an uncompressed pointer's shadow double word."""
    if ctx.fast_timing:
        return ["_sp(%s)" % key]
    if ctx.timing:
        return ["_da(%d + (%s) * 2, 8, %s, 'shadow')"
                % (SHADOW_SPACE_BASE, key, write)]
    return []


def _word_read_lines(acc: str, stack_first: bool = False) -> List[str]:
    """Merged segment check + flat-arena word read into ``v``.

    The segment check doubles as arena routing (see
    :mod:`repro.machine.memory`); unaligned words spill to the raw
    entry points.  The three segment ranges are disjoint, so the check
    order is unobservable (same value, same ``MemoryFault``
    otherwise); frame-register addressing (``stack_first``) therefore
    probes the stack arena first, where the heap and globals compares
    would almost always fail.
    """
    heap = [
        "if %s <= ea and end <= _mem.brk:" % _HEAP,
        "    v = _heap[1][(ea - %s) >> 2] if not ea & 3 "
        "else _rr(ea, 4)" % _HEAP,
    ]
    glob = [
        "if %s <= ea and end <= _gl:" % _GLOB,
        "    v = _glob[1][(ea - %s) >> 2] if not ea & 3 "
        "else _rr(ea, 4)" % _GLOB,
    ]
    stack = [
        "if _sb <= ea and end <= %s:" % _STOP,
        "    v = _stk[1][(ea - _sb) >> 2] if not ea & 3 "
        "else _rr(ea, 4)",
    ]
    order = (stack + heap + glob) if stack_first \
        else (heap + glob + stack)
    lines = ["end = ea + 4"] + order[:2]
    for branch in (order[2:4], order[4:6]):
        lines.append("el" + branch[0])
        lines.append(branch[1])
    lines += ["else:", "    raise _mf(ea, %r)" % acc]
    return lines


def _word_write_lines(acc: str, stack_first: bool = False) -> List[str]:
    """Merged segment check + flat-arena word write of ``v``."""
    heap = [
        "if %s <= ea and end <= _mem.brk:" % _HEAP,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _heap[1][(ea - %s) >> 2] = v" % _HEAP,
    ]
    glob = [
        "if %s <= ea and end <= _gl:" % _GLOB,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _glob[1][(ea - %s) >> 2] = v" % _GLOB,
    ]
    stack = [
        "if _sb <= ea and end <= %s:" % _STOP,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _stk[1][(ea - _sb) >> 2] = v",
    ]
    order = (stack + heap + glob) if stack_first \
        else (heap + glob + stack)
    lines = ["end = ea + 4", "v = value[rd{i}]"] + order[:5]
    for branch in (order[5:10], order[10:15]):
        lines.append("el" + branch[0])
        lines.extend(branch[1:])
    lines += ["else:", "    raise _mf(ea, %r)" % acc]
    return lines


def _hb_check_lines(acc: str, si: bool, frame: bool,
                    full: bool) -> List[str]:
    """Figure 3C/D bounds check, specialized for the operand form."""
    lines = ["b = rbase[rs{i}]", "bd = rbound[rs{i}]"]
    if si:
        lines += [
            "if not (b or bd):",
            "    b = rbase[rt{i}]",
            "    bd = rbound[rt{i}]",
        ]
    lines += [
        "if b or bd:",
        "    _hbs.checks += 1",
        "    if ea < b or ea >= bd:",
        "        raise _be(ea, b, bd, %r)" % acc,
    ]
    # frame-register accesses without bounds are compiler-owned and
    # exempt; the branch is resolved at template-build time
    if not frame:
        if full:
            lines += ["else:",
                      "    raise _npe(value[rs{i}], %r)" % acc]
        else:
            lines += ["else:",
                      "    _hbs.nonpointer_derefs += 1"]
    return lines


def _load_meta_lines(ctx: _FuseCtx) -> List[str]:
    """HardBound word-load metadata path (load_word_meta inlined).

    The compressibility test is the ``_isc`` closure call, or (stock
    encodings) the decision spliced in as an inline expression.
    """
    lines = [
        "meta = _mg(ea & -4)",
        "if meta is None:",
        "    value[rd{i}] = v",
        "    rbase[rd{i}] = 0",
        "    rbound[rd{i}] = 0",
        "else:",
        "    mb, mbd = meta",
        "    _hbs.pointer_loads += 1",
        "    if %s:" % (ctx.comp_expr or "_isc(v, mb, mbd)"),
        "        _hbs.compressed_loads += 1",
        "    else:",
        "        _hbs.meta_uops += 1",
    ]
    lines += ["        " + line
              for line in _shadow_charge(ctx, "ea & -4", False)]
    lines += [
        "    value[rd{i}] = v",
        "    rbase[rd{i}] = mb",
        "    rbound[rd{i}] = mbd",
    ]
    return lines


def _store_meta_lines(ctx: _FuseCtx) -> List[str]:
    """HardBound word-store metadata path (store_word_meta inlined)."""
    lines = [
        "key = ea & -4",
        "mb = rbase[rd{i}]",
        "mbd = rbound[rd{i}]",
        "if mb == 0 and mbd == 0:",
        "    _mp(key, None)",
        "else:",
        "    _meta[key] = (mb, mbd)",
        "    _hbs.pointer_stores += 1",
        "    if %s:" % (ctx.comp_expr or "_isc(v, mb, mbd)"),
        "        _hbs.compressed_stores += 1",
        "    else:",
        "        _hbs.meta_uops += 1",
    ]
    lines += ["        " + line
              for line in _shadow_charge(ctx, "key", True)]
    return lines


def _word_form(instr, ctx: _FuseCtx) -> bool:
    """Does this load/store take the word template?"""
    return ctx.word_mem and instr.size == 4 and instr.rs is not None




def _t_mem(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """Load/store: the word template where it applies, else the
    generic one."""
    if _word_form(instr, ctx):
        return _mem_part(instr, ctx)
    return _memgen_part(instr, ctx)


def _mem_part(instr, ctx: _FuseCtx) -> _Part:
    """Word load/store with the whole body inlined.

    Effective address, the HardBound bounds check, the temporal check,
    the flat-heap segment check and word-view access, the timing
    charge, the observer hook and the pointer-metadata load/store, in
    the legacy handler's statement order.
    """
    load = instr.op is Op.LOAD
    acc = "read" if load else "write"
    form, args, ea_line = _ea(instr)
    frame = instr.rs in (REG_SP, REG_FP)
    hb = ctx.hb_present
    shape = "%s%s_%s%d%s" % ("ld" if load else "st", "hb" if hb else "pl",
                             form, frame, ctx.mem_tag)

    def body():
        lines = [ea_line]
        if hb:
            lines += _hb_check_lines(acc, form == "si", frame,
                                     ctx.full_mode)
        if ctx.temporal:
            lines.append("_tc(ea, 4)")
        lines += (_word_read_lines(acc, frame) if load
                  else _word_write_lines(acc, frame))
        lines += _charge_lines(ctx, not load)
        if ctx.observer:
            lines.append("_ob.on_mem(ea, 4, %s)" % (not load))
        if hb:
            lines += _load_meta_lines(ctx) if load \
                else _store_meta_lines(ctx)
        elif load:
            lines += ["value[rd{i}] = v",
                      "rbase[rd{i}] = 0",
                      "rbound[rd{i}] = 0"]
        return lines
    return _Part(shape, ("rd",) + _EA_NAMES[form], (instr.rd,) + args,
                 body)


def _memgen_part(instr, ctx: _FuseCtx) -> _Part:
    """Generic-form load/store: every shape the word template does not
    cover.

    Sub-word sizes, index-only and absolute forms, and ablated or
    substituted metadata engines call the env-bound engine entry
    points (``mem_read``, ``data_access``, ``hb.check``,
    ``hb.load_sub_meta``, ...) in the legacy handler's statement
    order, with the constant branches (is an engine attached? an
    observer? word or sub-word?) resolved at template-build time.
    """
    op_load = instr.op is Op.LOAD
    size = instr.size
    acc = "read" if op_load else "write"
    checked = ctx.hb_present and instr.rs is not None
    form, args, ea_line = _ea(instr)
    frame = instr.rs in (REG_SP, REG_FP)
    shape = "%sgen_%s%d%d%d%d%d%d%d" % (
        "ld" if op_load else "st", form, size, frame, checked,
        ctx.full_mode, ctx.temporal, ctx.timing, ctx.observer)
    if ctx.hb_present:
        shape += "h"

    def body():
        lines = [ea_line]
        if checked:
            # pick the guarding register (base preferred, index as
            # fallback), exempt meta-less frame accesses, hand
            # everything else to the engine's check
            if form == "si":
                lines += [
                    "if rbase[rs{i}] or rbound[rs{i}]:",
                    "    sv = value[rs{i}]",
                    "    b = rbase[rs{i}]",
                    "    bd = rbound[rs{i}]",
                    "elif rbase[rt{i}] or rbound[rt{i}]:",
                    "    sv = value[rt{i}]",
                    "    b = rbase[rt{i}]",
                    "    bd = rbound[rt{i}]",
                    "else:",
                    "    sv = value[rs{i}]",
                    "    b = rbase[rs{i}]",
                    "    bd = rbound[rs{i}]",
                ]
            else:
                lines += ["sv = value[rs{i}]",
                          "b = rbase[rs{i}]",
                          "bd = rbound[rs{i}]"]
            call = ("_hbc(sv, b, bd, ea, %d, %r, %s)"
                    % (size, acc, ctx.full_mode))
            if frame:
                lines += ["if b or bd:", "    " + call]
            else:
                lines.append(call)
        if ctx.temporal:
            lines.append("_tc(ea, %d)" % size)
        if op_load:
            lines.append("v = _mr(ea, %d)" % size)
        else:
            lines += ["v = value[rd{i}]", "_mw(ea, %d, v)" % size]
        if ctx.timing:
            lines.append("_da(ea, %d, %s, 'data')" % (size, not op_load))
        if ctx.observer:
            lines.append("_ob.on_mem(ea, %d, %s)" % (size, not op_load))
        if op_load:
            if ctx.hb_present and size == 4:
                lines += ["b, bd = _hblw(ea, v)",
                          "value[rd{i}] = v",
                          "rbase[rd{i}] = b",
                          "rbound[rd{i}] = bd"]
            else:
                if ctx.hb_present:
                    lines.append("_hbls(ea)")
                lines += ["value[rd{i}] = v",
                          "rbase[rd{i}] = 0",
                          "rbound[rd{i}] = 0"]
        elif ctx.hb_present:
            if size == 4:
                lines.append("_hbsw(ea, v, rbase[rd{i}], rbound[rd{i}])")
            else:
                lines.append("_hbss(ea)")
        return lines
    return _Part(shape, ("rd",) + _EA_NAMES[form], (instr.rd,) + args,
                 body)


# -- everything else -----------------------------------------------------------
#
# Each ``_t_*`` function (or factory result) maps one instruction to
# its part; ``_TEMPLATES`` dispatches on the opcode.

_MOVRR = _set_rd("value[rs{i}]", "rbase[rs{i}]", "rbound[rs{i}]")
_MOVRI = _set_rd("k{i}")


def _t_mov(instr, pc: int, ctx: _FuseCtx) -> _Part:
    if instr.rs is not None:
        return _Part("movrr", _RD_RS, (instr.rd, instr.rs), _MOVRR)
    return _Part("movri", _RD_K, (instr.rd, (instr.imm or 0) & MASK32),
                 _MOVRI)


def _addsub_body(rr: bool, sign: str, observer: bool):
    """Figure 3A/B pointer arithmetic: the result inherits the first
    source's bounds, else the second register's (immediates carry
    none); an observer sees every result that carries bounds."""
    if rr:
        head = "v = (value[rs{i}] %s value[rt{i}]) & %s" % (sign, _M32)
        other = ["    rbase[rd{i}] = rbase[rt{i}]",
                 "    rbound[rd{i}] = rbound[rt{i}]"]
    else:
        head = "v = (value[rs{i}] + k{i}) & %s" % _M32
        other = ["    rbase[rd{i}] = 0", "    rbound[rd{i}] = 0"]
    lines = [head,
             "if rbase[rs{i}] or rbound[rs{i}]:",
             "    value[rd{i}] = v",
             "    rbase[rd{i}] = rbase[rs{i}]",
             "    rbound[rd{i}] = rbound[rs{i}]"]
    if observer and not rr:
        lines.append("    _ob.on_pointer_arith(v)")
    lines += ["else:", "    value[rd{i}] = v"] + other
    if observer and rr:
        lines += ["if rbase[rd{i}] or rbound[rd{i}]:",
                  "    _ob.on_pointer_arith(v)"]
    return _lines(*lines)


def _addsub_template(op):
    sign = "-" if op is Op.SUB else "+"
    rr_shapes = ("addsubrr%s0" % sign, "addsubrr%s1" % sign)
    rr_bodies = (_addsub_body(True, sign, False),
                 _addsub_body(True, sign, True))
    ri_bodies = (_addsub_body(False, "+", False),
                 _addsub_body(False, "+", True))
    negate = op is Op.SUB

    def template(instr, pc, ctx):
        observer = ctx.observer
        if instr.rt is not None:
            return _Part(rr_shapes[observer], _RD_RS_RT,
                         (instr.rd, instr.rs, instr.rt),
                         rr_bodies[observer])
        k = instr.imm or 0
        return _Part("addsubri%d" % observer, _RD_RS_K,
                     (instr.rd, instr.rs, -k if negate else k),
                     ri_bodies[observer])
    return template


# Signed compares use the sign-bit flip: for masked values,
# ``to_signed(a) < to_signed(b)`` iff ``a^MSB < b^MSB``.
_CMP_EXPR = {
    Op.SEQ: "==", Op.SNE: "!=", Op.SLT: "<", Op.SLE: "<=", Op.SGT: ">",
    Op.SGE: ">=", Op.SLTU: "<", Op.SGEU: ">=",
}
_SIGNED_CMPS = frozenset({Op.SLT, Op.SLE, Op.SGT, Op.SGE})


def _raw(k: int) -> int:
    return k


def _masked(k: int) -> int:
    return k & MASK32


def _sign_flipped(k: int) -> int:
    return (k & MASK32) ^ 0x80000000


def _shift_count(k: int) -> int:
    return k & 31


def _cmp_template(op):
    rel = _CMP_EXPR[op]
    if op in _SIGNED_CMPS:
        a, b = "(value[rs{i}] ^ %s)" % _MSB, "(value[rt{i}] ^ %s)" % _MSB
        fix = _sign_flipped
    else:
        # equality takes the masked immediate, unsigned compares the
        # raw one
        a, b = "value[rs{i}]", "value[rt{i}]"
        fix = _masked if op in (Op.SEQ, Op.SNE) else _raw
    rr_shape, ri_shape = "cmp_rr_" + op.value, "cmp_ri_" + op.value
    rr_body = _set_rd("1 if %s %s %s else 0" % (a, rel, b))
    ri_body = _set_rd("1 if %s %s k{i} else 0" % (a, rel))

    def template(instr, pc, ctx):
        if instr.rt is not None:
            return _Part(rr_shape, _RD_RS_RT,
                         (instr.rd, instr.rs, instr.rt), rr_body)
        return _Part(ri_shape, _RD_RS_K,
                     (instr.rd, instr.rs, fix(instr.imm or 0)), ri_body)
    return template


# Non-propagating ALU ops whose semantics are pure expressions over
# masked register values (``to_signed(a)`` is ``(a ^ MSB) - MSB``);
# the immediate forms take the constant transformed as the legacy
# handler consumes it (sign-extended for ``mul``, masked to the shift
# width for shifts).  ``div``/``mod`` have their own template below.
_SGN = "((value[%s{i}] ^ " + _MSB + ") - " + _MSB + ")"
_NP_EXPR = {
    Op.MUL: (_SGN % "rs" + " * " + _SGN % "rt", _SGN % "rs" + " * k{i}",
             to_signed),
    Op.AND: ("value[rs{i}] & value[rt{i}]", "value[rs{i}] & k{i}", _raw),
    Op.OR: ("value[rs{i}] | value[rt{i}]", "value[rs{i}] | k{i}", _raw),
    Op.XOR: ("value[rs{i}] ^ value[rt{i}]", "value[rs{i}] ^ k{i}", _raw),
    Op.SHL: ("value[rs{i}] << (value[rt{i}] & 31)",
             "value[rs{i}] << k{i}", _shift_count),
    Op.SHR: ("value[rs{i}] >> (value[rt{i}] & 31)",
             "value[rs{i}] >> k{i}", _shift_count),
    Op.SRA: (_SGN % "rs" + " >> (value[rt{i}] & 31)",
             _SGN % "rs" + " >> k{i}", _shift_count),
}


def _nonprop_template(op):
    rr_expr, ri_expr, fix = _NP_EXPR[op]
    rr_shape, ri_shape = "npx_rr_" + op.value, "npx_ri_" + op.value
    rr_body = _set_rd("(%s) & %s" % (rr_expr, _M32))
    ri_body = _set_rd("(%s) & %s" % (ri_expr, _M32))

    def template(instr, pc, ctx):
        if instr.rt is not None:
            return _Part(rr_shape, _RD_RS_RT,
                         (instr.rd, instr.rs, instr.rt), rr_body)
        return _Part(ri_shape, _RD_RS_K,
                     (instr.rd, instr.rs, fix(instr.imm or 0)), ri_body)
    return template


_DIVMOD_HEAD = ("sa = value[rs{i}]",
                "if sa >= 2147483648:",
                "    sa -= 4294967296")
_DIVMOD = {
    # op: (rr body, ri body) — C truncating division/remainder
    Op.DIV: (
        _lines(*_DIVMOD_HEAD,
               "sb = value[rt{i}]",
               "if sb >= 2147483648:",
               "    sb -= 4294967296",
               "if sb == 0:",
               "    raise _dbz()",
               "q = abs(sa) // abs(sb)",
               "value[rd{i}] = (q if (sa < 0) == (sb < 0) else -q) & "
               + _M32,
               "rbase[rd{i}] = 0",
               "rbound[rd{i}] = 0"),
        _lines(*_DIVMOD_HEAD,
               "q = abs(sa) // ka{i}",
               "value[rd{i}] = (q if (sa < 0) == kn{i} else -q) & " + _M32,
               "rbase[rd{i}] = 0",
               "rbound[rd{i}] = 0")),
    Op.MOD: (
        _lines(*_DIVMOD_HEAD,
               "sb = value[rt{i}]",
               "if sb >= 2147483648:",
               "    sb -= 4294967296",
               "if sb == 0:",
               "    raise _dbz()",
               "q = abs(sa) % abs(sb)",
               "value[rd{i}] = (q if sa >= 0 else -q) & " + _M32,
               "rbase[rd{i}] = 0",
               "rbound[rd{i}] = 0"),
        _lines(*_DIVMOD_HEAD,
               "q = abs(sa) % ka{i}",
               "value[rd{i}] = (q if sa >= 0 else -q) & " + _M32,
               "rbase[rd{i}] = 0",
               "rbound[rd{i}] = 0")),
}
_DBZ = _lines("raise _dbz()")


def _divmod_template(op):
    """Register values are always in [0, 2**32), so the sign test is
    the plain ``to_signed`` branch; an immediate divisor's sign and
    magnitude are bind-time constants, and a zero immediate is a
    certain trap."""
    rr_body, ri_body = _DIVMOD[op]
    name = op.value

    def template(instr, pc, ctx):
        if instr.rt is not None:
            return _Part(name + "rr", _RD_RS_RT,
                         (instr.rd, instr.rs, instr.rt), rr_body)
        sk = to_signed(instr.imm or 0)
        if sk == 0:
            return _Part("dbz", (), (), _DBZ)
        return _Part(name + "ri", ("rd", "rs", "ka", "kn"),
                     (instr.rd, instr.rs, abs(sk), sk < 0), ri_body)
    return template


_JMP = _lines("return t{i}")
_BEQZ = _lines("return t{i} if value[rs{i}] == 0 else None")
_BNEZ = _lines("return t{i} if value[rs{i}] != 0 else None")
_LINK = ("value[%s] = r{i}" % _RA,
         "rbase[%s] = %s" % (_RA, _MAX),
         "rbound[%s] = %s" % (_RA, _MAX))
_CALL = _lines(*_LINK, "return t{i}")


def _t_jmp(instr, pc, ctx):
    return _Part("jmp", ("t",), (instr.target,), _JMP)


def _t_beqz(instr, pc, ctx):
    return _Part("beqz", ("t", "rs"), (instr.target, instr.rs), _BEQZ)


def _t_bnez(instr, pc, ctx):
    return _Part("bnez", ("t", "rs"), (instr.target, instr.rs), _BNEZ)


def _t_call(instr, pc, ctx):
    return _Part("call", ("t", "r"), (instr.target, (pc + 1) & MASK32),
                 _CALL)


def _code_target(reg: str, full: bool) -> List[str]:
    """Fetch an indirect target from ``reg``; full mode demands
    code-pointer metadata, and the target must be a valid pc."""
    lines = ["t = value[%s]" % reg]
    if full:
        lines += ["if rbase[%s] != %s or rbound[%s] != %s:"
                  % (reg, _MAX, reg, _MAX),
                  "    raise _icpe(t)"]
    return lines + ["if t >= _n:", "    raise _icpe(t)"]


_RET = tuple(_lines(*_code_target(_RA, full), "return t")
             for full in (False, True))
_CALLR = tuple(_lines(*_code_target("rs{i}", full), *_LINK, "return t")
               for full in (False, True))


def _t_ret(instr, pc, ctx):
    return _Part("ret%d" % ctx.full_mode, (), (), _RET[ctx.full_mode])


def _t_callr(instr, pc, ctx):
    return _Part("callr%d" % ctx.full_mode, ("rs", "r"),
                 (instr.rs, (pc + 1) & MASK32), _CALLR[ctx.full_mode])


def _t_setbound(instr, pc, ctx: _FuseCtx) -> _Part:
    """``setbound``: the pointer gets ``[value, value + size)``."""
    if instr.rt is not None:
        names, args = _RD_RS_RT, (instr.rd, instr.rs, instr.rt)
        size, form = "sz = value[rt{i}]", "r"
    else:
        names, args = _RD_RS_K, (instr.rd, instr.rs, instr.imm or 0)
        size, form = "sz = k{i}", "i"
    lines = ["v = value[rs{i}]", size,
             "value[rd{i}] = v",
             "rbase[rd{i}] = v",
             "rbound[rd{i}] = (v + sz) & %s" % _M32,
             "_cpu.setbound_count += 1"]
    if ctx.hb_present:
        lines.append("_hbs.setbound_uops += 1")
    if ctx.temporal:
        lines.append("_tmp.mark_allocated(v, (v + sz) & %s)" % _M32)
    if ctx.observer:
        lines.append("_ob.on_setbound(v, sz)")
    shape = "setbound_%s%d%d%d" % (form, ctx.hb_present, ctx.temporal,
                                   ctx.observer)
    return _Part(shape, names, args, _lines(*lines))


_MARKFREE_NOP = _lines("pass")


def _markfree_body(size: str):
    return _lines("base = value[rs{i}]",
                  "sz = " + size,
                  "if sz > 0:",
                  "    _tmp.mark_freed(base, (base + sz) & %s)" % _M32)


_MARKFREE_R = _markfree_body("value[rt{i}]")
_MARKFREE_I = _markfree_body("k{i}")


def _t_markfree(instr, pc, ctx: _FuseCtx) -> _Part:
    """Deallocation hint: poisons the freed range under the temporal
    extension, a no-op otherwise."""
    if not ctx.temporal:
        return _Part("markfree_nop", (), (), _MARKFREE_NOP)
    if instr.rt is not None:
        return _Part("markfree_r", ("rs", "rt"), (instr.rs, instr.rt),
                     _MARKFREE_R)
    return _Part("markfree_i", ("rs", "k"), (instr.rs, instr.imm or 0),
                 _MARKFREE_I)


#: ``rd <- f(rs)`` register ops
_UNARY = {
    Op.NEG: _set_rd("(-value[rs{i}]) & " + _M32),
    Op.NOT: _set_rd("(~value[rs{i}]) & " + _M32),
    Op.READBASE: _set_rd("rbase[rs{i}]"),
    Op.READBOUND: _set_rd("rbound[rs{i}]"),
    Op.CLRBND: _set_rd("value[rs{i}]"),
    Op.SETUNSAFE: _set_rd("value[rs{i}]", "0", _MAX),
    Op.SBRK: _set_rd("_sbrk(_tsg(value[rs{i}]))"),
    Op.XCHG: _lines(
        "value[rd{i}], value[rs{i}] = value[rs{i}], value[rd{i}]",
        "rbase[rd{i}], rbase[rs{i}] = rbase[rs{i}], rbase[rd{i}]",
        "rbound[rd{i}], rbound[rs{i}] = rbound[rs{i}], rbound[rd{i}]"),
}


def _unary_template(op):
    shape, body = op.value, _UNARY[op]

    def template(instr, pc, ctx):
        return _Part(shape, _RD_RS, (instr.rd, instr.rs), body)
    return template


_SETCODE_R = _set_rd("value[rs{i}]", _MAX, _MAX)
_SETCODE_I = _set_rd("k{i}", _MAX, _MAX)


def _t_setcode(instr, pc, ctx):
    if instr.rs is not None:
        return _Part("setcode_r", _RD_RS, (instr.rd, instr.rs), _SETCODE_R)
    return _Part("setcode_i", _RD_K, (instr.rd, instr.imm & MASK32),
                 _SETCODE_I)


#: lea per address form: the result inherits the base register's
#: bounds (the index register's when only it has any)
_LEA = {
    "si": _lines(
        _EA_SI,
        "if rbase[rs{i}] or rbound[rs{i}]:",
        "    b, bd = rbase[rs{i}], rbound[rs{i}]",
        "elif rbase[rt{i}] or rbound[rt{i}]:",
        "    b, bd = rbase[rt{i}], rbound[rt{i}]",
        "else:",
        "    b, bd = 0, 0",
        "rbase[rd{i}] = b",
        "rbound[rd{i}] = bd",
        "value[rd{i}] = ea"),
    "s": _lines(_EA_S,
                "rbase[rd{i}] = rbase[rs{i}]",
                "rbound[rd{i}] = rbound[rs{i}]",
                "value[rd{i}] = ea"),
    "i": _lines(_EA_I,
                "rbase[rd{i}] = rbase[rt{i}]",
                "rbound[rd{i}] = rbound[rt{i}]",
                "value[rd{i}] = ea"),
    "a": _lines("rbase[rd{i}] = 0",
                "rbound[rd{i}] = 0",
                "value[rd{i}] = k{i}"),
}


def _t_lea(instr, pc, ctx):
    form, args, _ = _ea(instr)
    return _Part("lea_" + form, ("rd",) + _EA_NAMES[form],
                 (instr.rd,) + args, _LEA[form])


_OUTPUT = {
    Op.PRINT: _lines('_emit("%d\\n" % _tsg(value[rs{i}]))'),
    Op.PRINTC: _lines("_emit(chr(value[rs{i}] & 255))"),
    Op.PRINTS: _lines("_emit(_rcs(value[rs{i}]))"),
}


def _output_template(op):
    shape, body = op.value, _OUTPUT[op]

    def template(instr, pc, ctx):
        return _Part(shape, ("rs",), (instr.rs,), body)
    return template


def _stop_template(op):
    """``halt``/``abort``: raise with the exit code."""
    exc = "_halt" if op is Op.HALT else "_abort"
    r_shape, i_shape = op.value + "_r", op.value + "_i"
    r_body = _lines("raise %s(_tsg(value[rs{i}]))" % exc)
    i_body = _lines("raise %s(k{i})" % exc)

    def template(instr, pc, ctx):
        if instr.rs is not None:
            return _Part(r_shape, ("rs",), (instr.rs,), r_body)
        return _Part(i_shape, ("k",), (instr.imm or 0,), i_body)
    return template


#: opcode -> ``(instr, pc, ctx) -> _Part``
_TEMPLATES = {
    Op.LOAD: _t_mem, Op.STORE: _t_mem, Op.MOV: _t_mov,
    Op.ADD: _addsub_template(Op.ADD), Op.SUB: _addsub_template(Op.SUB),
    Op.DIV: _divmod_template(Op.DIV), Op.MOD: _divmod_template(Op.MOD),
    Op.JMP: _t_jmp, Op.BEQZ: _t_beqz, Op.BNEZ: _t_bnez,
    Op.CALL: _t_call, Op.CALLR: _t_callr, Op.RET: _t_ret,
    Op.SETBOUND: _t_setbound, Op.SETCODE: _t_setcode,
    Op.MARKFREE: _t_markfree, Op.LEA: _t_lea,
    Op.HALT: _stop_template(Op.HALT), Op.ABORT: _stop_template(Op.ABORT),
}
_TEMPLATES.update((op, _cmp_template(op)) for op in _CMP_EXPR)
_TEMPLATES.update((op, _nonprop_template(op)) for op in _NP_EXPR)
_TEMPLATES.update((op, _unary_template(op)) for op in _UNARY)
_TEMPLATES.update((op, _output_template(op)) for op in _OUTPUT)


def _template_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """The template of the instruction at ``pc``.

    Total over every opcode and operand form; each template follows
    the legacy handler's statement order, counter increments and trap
    types, and the engine differential suite enforces the
    equivalence.
    """
    return _TEMPLATES[instr.op](instr, pc, ctx)


_CALL_F = _lines("f{i}(0)")
_CALL_FT = _lines("return f{i}(t{i})")


def _closure_part(fn, terminator: bool, pc: int) -> _Part:
    """A fused-block call of the per-instruction closure ``fn`` of
    ``pc``."""
    if terminator:
        return _Part("ft", ("f", "t"), (fn, pc), _CALL_FT, closure_pc=pc)
    return _Part("f", ("f",), (fn,), _CALL_F, closure_pc=pc)


#: ops the fused engine calls as per-instruction closures instead of
#: inlining their templates: rare in hot blocks, so inlining them
#: would only grow the generated source
_CLOSURE_OPS = frozenset({
    Op.XCHG, Op.LEA, Op.NEG, Op.NOT, Op.READBASE, Op.READBOUND,
    Op.SETUNSAFE, Op.SETCODE, Op.CLRBND, Op.MARKFREE,
    Op.PRINT, Op.PRINTC, Op.PRINTS, Op.HALT, Op.ABORT,
})


def _calls_closure(instr, ctx: _FuseCtx) -> bool:
    """Does the fused engine call ``instr``'s per-instruction closure
    rather than inline its template?

    Besides ``_CLOSURE_OPS``: pointer arithmetic under an observer,
    ``div``/``mod`` by an immediate zero (a certain trap), and word
    loads/stores under temporal checking or an observer, whose inlined
    bodies would add many block shapes for little gain.
    """
    op = instr.op
    if op in _CLOSURE_OPS:
        return True
    if op is Op.LOAD or op is Op.STORE:
        return (ctx.temporal or ctx.observer) and _word_form(instr, ctx)
    if op is Op.ADD or op is Op.SUB:
        return ctx.observer
    if op is Op.DIV or op is Op.MOD:
        return instr.rt is None and to_signed(instr.imm or 0) == 0
    return False


#: pseudo-filename of the generated fuser source (shows in tracebacks)
_FUSE_FILENAME = "<repro-block-fuse>"

#: shape signature -> (fuse function, body code object, env indices)
_fuse_cache: Dict[Tuple[str, ...], tuple] = {}
#: body code object -> {line number -> instruction offset}
_line_maps: Dict[object, Dict[int, int]] = {}


class _CodeRef:
    """Spec marker: 'this argument is the run's closure for ``pc``'."""

    __slots__ = ("pc",)

    def __init__(self, pc: int):
        self.pc = pc


class _Plan:
    """Program-keyed fusion plan.

    The expensive parts of fusing a program — CFG discovery,
    template selection, source assembly — depend only on the program
    and the template-selection context, not on the run.  A plan
    records their outcome as one ``(start, length, signature, spec)``
    entry per block: the signature keys the compiled fuser in
    ``_fuse_cache``, the spec is the flat closure-argument vector
    with per-run closures marked by :class:`_CodeRef`.
    Re-running the same program (the sharded harness and the
    benchmarks do, constantly) then reduces fusion to re-binding.
    ``fallback`` tallies the closure sites by opcode.
    """

    __slots__ = ("blocks", "fallback")

    def __init__(self):
        self.blocks: Optional[List[tuple]] = None
        self.fallback: Dict[str, int] = {}


#: Program -> {plan key: _Plan}; weak so plans die with their program
_plan_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _part_spec(parts: List[_Part]) -> list:
    """Flat closure-argument vector with closure slots marked."""
    spec: list = []
    for part in parts:
        if part.closure_pc is not None:
            spec.append(_CodeRef(part.closure_pc))
            spec.extend(part.args[1:])
        else:
            spec.extend(part.args)
    return spec


#: shared environment names a template may reference: the register
#: arrays, program length and code-pointer trap, the memory
#: environment (arena cells, segment bounds, raw spill entry points),
#: the HardBound metadata environment, the fast memory model's
#: compiled probes with their composite-hit cells, the classic model's
#: tag-address constants, the trap constructors, and the generic entry
#: points (the cpu, ``to_signed``, ``sbrk``, the byte-level memory
#: accessors, the timing/temporal/observer hooks, the metadata-engine
#: methods and the output sink).  A fuser declares only the names its
#: source references.
_ENV_PARAMS = (
    "value", "rbase", "rbound", "_n", "_icpe",
    "_mem", "_heap", "_glob", "_stk", "_gl", "_sb", "_rr", "_rw",
    "_hbs", "_meta", "_mg", "_mp", "_isc", "_sp",
    "_wp", "_wpm", "_wps", "_wdc", "_wtc", "_dp", "_dpm", "_dps", "_dc",
    "_tb", "_ts",
    "_be", "_npe", "_mf", "_dbz", "_halt", "_abort",
    "_cpu", "_tsg", "_sbrk", "_mr", "_mw", "_da", "_tc", "_ob",
    "_tmp", "_hbc", "_hblw", "_hbls", "_hbsw", "_hbss", "_emit", "_rcs",
)
_ENV_INDEX = {name: j for j, name in enumerate(_ENV_PARAMS)}


def _compile_fuser(signature: Tuple[str, ...], parts: List[_Part]):
    """Compile (or fetch) the fuser for a shape signature.

    Every bound name the body references is re-bound as a
    default-valued parameter of the generated function: CPython then
    reads it as a fast local instead of a closure cell on every
    access, at the cost of one default copy per call.
    """
    cached = _fuse_cache.get(signature)
    if cached is not None:
        return cached
    names = ["%s%d" % (stem, offset) for offset, part in enumerate(parts)
             for stem in part.names]
    lines = ["", ""]
    line_of: Dict[int, int] = {}
    for offset, part in enumerate(parts):
        for raw in part.body():
            lines.append("        " + raw.format(i=offset))
            line_of[len(lines)] = offset
    referenced = set(re.findall(r"[A-Za-z_]\w*", "\n".join(lines)))
    env = [name for name in _ENV_PARAMS if name in referenced]
    lines[0] = "def _fuse(%s):" % ", ".join(names + env)
    lines[1] = ("    def _block(pc%s):"
                % "".join(", %s=%s" % (name, name)
                          for name in names + env
                          if name in referenced))
    lines.append("    return _block")
    namespace: dict = {}
    exec(compile("\n".join(lines), _FUSE_FILENAME, "exec"), namespace)
    fuse = namespace["_fuse"]
    block_code = next(const for const in fuse.__code__.co_consts
                      if isinstance(const, types.CodeType)
                      and const.co_name == "_block")
    entry = (fuse, block_code,
             tuple(_ENV_INDEX[name] for name in env))
    _fuse_cache[signature] = entry
    _line_maps[block_code] = line_of
    return entry


class Fuser:
    """Per-run template state of the decoded and the fused engine.

    Holds the template-selection context and the bound environment,
    turns parts into compiled, bound closures, and owns ``code``: the
    pc-indexed per-instruction closures.  The decoded engine
    dispatches them; the fused engine single-steps on them and calls
    them at its closure sites.  Every slot starts as one shared stub
    that, on first call, compiles its instruction's template as a
    one-part fuser and replaces itself, so a run builds closures only
    for the instructions it executes and the dispatch loops pay no
    per-instruction check.
    """

    __slots__ = ("cpu", "code", "instrs", "ctx", "env_vals", "_stub",
                 "__weakref__")

    def __init__(self, cpu, env):
        self.cpu = cpu
        self.instrs = cpu.program.instrs
        self.ctx = _FuseCtx(env)
        env_map = {
            "value": env.value, "rbase": env.rbase,
            "rbound": env.rbound,
            "_n": len(self.instrs), "_icpe": InvalidCodePointerError,
            "_mem": env.memory, "_heap": env.heap_cell,
            "_glob": env.glob_cell, "_stk": env.stack_cell,
            "_gl": env.globals_limit, "_sb": env.stack_base,
            "_rr": env.raw_read, "_rw": env.raw_write,
            "_hbs": env.hb_stats, "_meta": env.meta_map,
            "_mg": env.meta_get, "_mp": env.meta_pop,
            "_isc": env.is_comp, "_sp": env.sprobe,
            "_wp": env.wprobe, "_wpm": env.wp_mru, "_wps": env.wp_shift,
            "_wdc": env.wp_dctr, "_wtc": env.wp_tctr,
            "_dp": env.dprobe, "_dpm": env.dp_mru, "_dps": env.dp_shift,
            "_dc": env.dp_ctr,
            "_tb": env.tag_base, "_ts": env.tag_shift,
            "_be": BoundsError, "_npe": NonPointerError,
            "_mf": MemoryFault, "_dbz": DivideByZeroError,
            "_halt": HaltSignal, "_abort": AbortError,
            "_cpu": cpu, "_tsg": to_signed, "_sbrk": env.mem_sbrk,
            "_mr": env.mem_read, "_mw": env.mem_write,
            "_da": env.data_access, "_tc": env.temporal_check,
            "_ob": env.observer, "_tmp": env.temporal,
            "_hbc": env.hb_check, "_hblw": env.hb_load_word,
            "_hbls": env.hb_load_sub, "_hbsw": env.hb_store_word,
            "_hbss": env.hb_store_sub,
            "_emit": env.emit, "_rcs": env.read_cstring,
        }
        self.env_vals = tuple(env_map[name] for name in _ENV_PARAMS)

        # the stub reaches its fuser weakly (the run loop holds the
        # fuser): a strong reference would make every run's closures
        # a reference cycle that only the cyclic GC frees
        fuser = weakref.ref(self)

        def stub(pc):
            return fuser().closure(pc)(pc)
        self._stub = stub
        self.code = [stub] * len(self.instrs)

    def closure(self, pc: int):
        """The per-instruction closure for ``pc``, compiled on first
        use."""
        fn = self.code[pc]
        if fn is self._stub:
            part = _template_part(self.instrs[pc], pc, self.ctx)
            entry = _compile_fuser((part.shape,), [part])
            fn = self.code[pc] = self._bind(entry, part.args)
        return fn

    def _bind(self, entry: tuple, args):
        """Bind operands (and the environment) to a compiled fuser."""
        fuse, _, env_idx = entry
        env = self.env_vals
        return fuse(*args, *[env[j] for j in env_idx])

    def make_parts(self, block: BasicBlock,
                   fallback: Dict[str, int]) -> List[_Part]:
        """Parts for the instructions of ``block``; every closure site
        is tallied by opcode in ``fallback``."""
        instrs, ctx = self.instrs, self.ctx
        parts: List[_Part] = []
        for off in range(block.length):
            pc = block.start + off
            instr = instrs[pc]
            if _calls_closure(instr, ctx):
                key = instr.op.value
                fallback[key] = fallback.get(key, 0) + 1
                parts.append(_closure_part(self.closure(pc),
                                           off == block.length - 1, pc))
            else:
                parts.append(_template_part(instr, pc, ctx))
        return parts

    def block_table(self, plan: _Plan) -> list:
        """Fuse every CFG block; pc-indexed ``(fn, len, fall, last)``
        table (``None`` at non-block pcs).  Re-binds the plan's
        recorded blocks when present, else builds them from the CFG
        and records them in the plan."""
        table: list = [None] * len(self.code)
        if plan.blocks is not None:
            closure = self.closure
            for start, length, signature, spec in plan.blocks:
                args = [closure(value.pc) if type(value) is _CodeRef
                        else value for value in spec]
                table[start] = (self._bind(_fuse_cache[signature], args),
                                length, start + length, start + length - 1)
            return table
        records = []
        plan.fallback.clear()
        for block in find_blocks(self.cpu.program):
            start, length = block.start, block.length
            parts = self.make_parts(block, plan.fallback)
            signature = tuple(part.shape for part in parts)
            entry = _compile_fuser(signature, parts)
            table[start] = (self._bind(entry, [arg for part in parts
                                               for arg in part.args]),
                            length, start + length, start + length - 1)
            records.append((start, length, signature, _part_spec(parts)))
        plan.blocks = records
        return table


def _trap_offset(exc: BaseException) -> Optional[int]:
    """Instruction offset within the dispatched function, if any.

    Walks the exception's traceback to the outermost generated frame
    (the dispatched block, or the single-stepped closure; a closure
    called from a block is an inner frame) and maps its line number
    through the line table to the instruction offset that raised.
    Returns ``None`` when the exception passed through no generated
    frame (a fault in the run loop or in building a closure).
    """
    tb = exc.__traceback__
    while tb is not None:
        line_of = _line_maps.get(tb.tb_frame.f_code)
        if line_of is not None:
            return line_of.get(tb.tb_lineno)
        tb = tb.tb_next
    return None


def _rewind(exc: BaseException, icount: int, lpc: int, blen: int):
    """Map a mid-dispatch exception to ``(icount, pc)``.

    The dispatch loop charges a whole function of ``blen``
    instructions up front (one on a single step); when an exception
    maps to an instruction offset inside the generated frame, the
    unexecuted tail is refunded and the faulting pc recovered
    positionally.  Returns ``None`` when the exception passed through
    no generated frame.
    """
    offset = _trap_offset(exc)
    if offset is None:
        return None
    return icount - (blen - offset - 1), lpc - blen + 1 + offset


def _introspection(dispatches: int, single_steps: int,
                   fallback_ops: Dict[str, int]) -> dict:
    """The ``cpu.engine_stats`` record of a fused-engine run.

    The key set is frozen in :mod:`repro.obs.schema` and documented
    in ``docs/OBSERVABILITY.md``; change all three together.  The
    engine forms no traces, so the trace counters are always zero.
    """
    return {
        "engine": "superblocks",
        "block_dispatches": dispatches,
        "fallback_steps": single_steps,
        "closure_fallback_ops": dict(fallback_ops),
        "traces_formed": 0,
        "trace_dispatches": 0,
        "mean_trace_blocks": 0.0,
        "side_exits": 0,
    }


# -- block-threaded run loop -------------------------------------------------

def execute_superblocks(cpu):
    """Run ``cpu`` to halt on fused basic blocks.

    Observable behaviour is bit-identical to the legacy and decoded
    engines: the same statistics, the same trap types/messages, the
    same faulting pc and instruction count on every exit path.  The
    fast path dispatches whole blocks; control transfers into
    non-leader pcs and blocks that could cross the instruction limit
    are single-stepped on the per-instruction closures.  Engine
    introspection is left in ``cpu.engine_stats``.
    """
    from repro.machine.cpu import RunResult
    from repro.machine.decode import bind_env

    env = bind_env(cpu)
    t0 = perf_counter()
    fuser = Fuser(cpu, env)
    code = fuser.code
    timers_add = cpu.timers.add
    t1 = perf_counter()
    timers_add("decode", t1 - t0)
    plans = _plan_cache.get(cpu.program)
    if plans is None:
        plans = _plan_cache[cpu.program] = {}
    plan = plans.get(fuser.ctx.key())
    if plan is None:
        plan = plans[fuser.ctx.key()] = _Plan()
    table = fuser.block_table(plan)
    timers_add("cfg_fusion", perf_counter() - t1)
    n = len(code)
    limit = cpu.config.max_instructions
    pc = cpu.pc
    lpc = pc
    icount = cpu.icount
    blen = 1
    dispatches = 0
    single_steps = 0
    done = False
    t0 = perf_counter()
    try:
        while True:
            entry = table[pc]
            if entry is not None:
                fn, blen, fall, last = entry
                nic = icount + blen
                if nic <= limit:
                    icount = nic
                    lpc = last
                    dispatches += 1
                    npc = fn(pc)
                    pc = fall if npc is None else npc
                    continue
            # single-step: mid-block entry, or the limit may fire
            # within the block — mirror the decoded loop exactly
            lpc = pc
            blen = 1
            single_steps += 1
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(limit)
            npc = code[pc](pc)
            pc = pc + 1 if npc is None else npc
    except HaltSignal as halt:
        # phase and stats must land before RunResult snapshots them
        timers_add("execute", perf_counter() - t0)
        state = _rewind(halt, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = pc
        else:
            cpu.icount, cpu.pc = state
        cpu.engine_stats = _introspection(dispatches, single_steps,
                                          plan.fallback)
        done = True
        return RunResult(cpu, halt.code)
    except IndexError as exc:
        state = _rewind(exc, icount, lpc, blen)
        if state is not None:
            # genuine IndexError inside a fused instruction
            cpu.icount, cpu.pc = state
            raise
        if 0 <= pc < n:
            # genuine IndexError in a single-stepped closure
            cpu.icount = icount
            cpu.pc = lpc
            raise
        # ``pc`` can never go negative (branch targets are label
        # indices, indirect targets masked-unsigned), so this is the
        # out-of-range fetch of the legacy loop
        cpu.icount = icount
        cpu.pc = lpc
        raise MemoryFault(pc, "fetch").at(lpc)
    except Trap as trap:
        state = _rewind(trap, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = lpc
            raise trap.at(lpc)
        cpu.icount, cpu.pc = state
        raise trap.at(cpu.pc)
    except BaseException as exc:
        state = _rewind(exc, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = lpc
        else:
            cpu.icount, cpu.pc = state
        raise
    finally:
        # the halt path snapshots before building its RunResult (the
        # result captures engine_stats and phases at construction);
        # only the trap paths still need the snapshot here
        if not done:
            timers_add("execute", perf_counter() - t0)
            cpu.engine_stats = _introspection(dispatches, single_steps,
                                              plan.fallback)
