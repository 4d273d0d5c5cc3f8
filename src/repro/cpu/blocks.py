"""Superblock compilation: fuse basic blocks into single callables.

The staged engine (PR 2) pays a fixed per-instruction toll in the
commit loop — rip read, halt/fault checks, decode-table lookup, stats
attribute bumps, tracer check, a try/except, and a closure call — even
though most committed instructions are straight-line fall-throughs.
This module removes that toll for runs of *block-safe* instructions by
compiling each basic block into one generated Python function whose
body is the concatenation of the block's handlers with hot state bound
to locals:

* instruction/cycle/l1i-hit counts accumulate in plain locals and are
  flushed to ``CpuStats``/``Cache`` exactly once per block (in a
  ``finally``, so a mid-block fault observes fully-flushed counters);
* the dominant handler shapes are *inlined* into the generated source —
  no closure call, no ``cpu._speculative`` test (blocks never run
  inside a speculation window).  Register-only shapes (``mov``/ALU/
  ``lea`` reg,reg|imm) additionally get flag stores elided when a later
  instruction in the same block provably overwrites all four flags
  before anything can observe them; memory shapes (``mov``/``hmov``
  with one memory operand, ``push``/``pop``) get the whole access path
  inlined — effective address, HFI implicit check, the address
  space's grant-cache hit and the pkey check, and the dTLB/L1D hit fast
  paths from ``TimingModel.mem_access`` — with only grant-cache misses
  (the full ``check_access``), dTLB/L1D misses, and the raw byte
  read/write left as calls;
* every other block-safe handler is called through its precompiled
  ``DecodedOp.run`` closure, pre-bound as a default argument.

That accounting is the in-order one (``timing.inline_commit``).  Under
a scoreboarded backend (``ooo``) blocks stay purely functional and the
scoreboard stays the one timing model: each instruction is bracketed
by ``timing.issue(dop, fetch)`` / ``timing.retire(dop)`` exactly as in
the staged loop, no cycles accumulate in the block, and memory
fragments call their handler so their latency and hmov check reach the
scoreboard through ``mem_access``/``hmov_check``.  The segment-batched
l1i probe carries over: a segment's head gets the probe's latency, the
rest the l1i hit latency.

What a superblock must preserve bit-for-bit (the golden-cycle fixture
and ``verify.fuzz_isa`` enforce this):

* the per-instruction l1i probe (LRU reinsert on hit, full hierarchy
  walk on miss) — fetch timing is part of the architectural cycle
  count;
* mid-block fault fidelity: handlers set ``rip`` before raising, the
  accumulator flush runs before the machine's fault delivery, and the
  retired-count of a partially executed block is reported through
  ``cpu._block_retired`` so the instruction budget stays exact;
* HFI fetch checks: a block only runs with checks hoisted when a
  *single* enabled code region covers the whole block and no earlier
  region in the list intersects it (first-match semantics); anything
  else falls back to single-step, which faults at the exact pc.

Block boundaries: any opcode not registered ``block_safe=True`` (see
:func:`repro.cpu.decode.decoder`) ends the block — all control flow,
HFI transitions, serializers, ``rdtsc`` (reads absolute cycles), and
``hlt``.  Speculation windows never enter blocks: the wrong-path loop
dispatches single-step only, and :meth:`SpeculationJournal.open`
asserts it.  ``CodeMap`` write-invalidation drops every compiled block
covering the patched address, keeping self-modifying code coherent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.checks import implicit_data_check
from ..isa.opcodes import HMOV_REGION, Opcode
from ..isa.operands import Imm, Mem
from ..isa.registers import MASK64, Reg
from ..os.address_space import PAGE, AccessKind, PageFault
from ..telemetry.stats import SuperblockStats
from .decode import BLOCK_SAFE, DecodedOp

#: Block formation limits: a block shorter than MIN_BLOCK_OPS is not
#: worth the dispatch check (a None sentinel is cached instead); longer
#: runs than MAX_BLOCK_OPS are split (bounds compile time and keeps the
#: budget-fit dispatch condition cheap to satisfy).
MIN_BLOCK_OPS = 2
MAX_BLOCK_OPS = 64

#: JIT-style warmup: an entry pc must be dispatched HOT_THRESHOLD
#: times before the (cheap) formation walk even runs, and
#: ``HOT_THRESHOLD + COMPILE_VISIT_BUDGET // block_length`` times
#: before the (expensive) ``compile()`` runs — cold visits
#: single-step.  Rationale: ``compile()`` costs milliseconds and
#: scales with block length, while each block execution saves
#: microseconds *per instruction*, so the break-even execution count
#: is roughly constant-over-length: long blocks compile after a few
#: dozen visits, short ones must prove they are genuinely hot.  Code
#: with a flat profile (many blocks, each executed a handful of
#: times — e.g. gobmk) never compiles and never pays the toll.
HOT_THRESHOLD = 4
COMPILE_VISIT_BUDGET = 2000

_M = MASK64
_SIGN = 1 << 63
_TWO64 = 1 << 64

# Fragment classification for the generated source.
_GENERIC = "generic"        # call the DecodedOp.run closure
_INLINE_NONE = "none"       # inline body, writes no flags, cannot fault
_INLINE_ALL = "all"         # inline body, writes all four flags
_INLINE_MEM = "mem"         # inline body with a data access: may fault

_ALU_BINOPS = {Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.CMP, Opcode.TEST, Opcode.SHL, Opcode.SHR, Opcode.SAR}
_ALU_UNOPS = {Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT}
_HMOV_OPS = frozenset(HMOV_REGION)


def _classify(ins) -> str:
    """Which fragment shape the inliner can use for this instruction.

    Mirrors the fast-path conditions in the exec units exactly: only
    the shapes those handlers fully inline are inlined here, so the
    generated code is a transcription of the handler body (minus the
    speculation branch and the per-instruction ``rip`` store).
    """
    op = ins.opcode
    ops = ins.operands
    if op is Opcode.NOP:
        return _INLINE_NONE
    if op is Opcode.MOV:
        if type(ops[0]) is Reg:
            if type(ops[1]) in (Reg, Imm):
                return _INLINE_NONE
            if isinstance(ops[1], Mem):
                return _INLINE_MEM
            return _GENERIC
        if isinstance(ops[0], Mem) and type(ops[1]) in (Reg, Imm):
            return _INLINE_MEM
        return _GENERIC
    if op in _HMOV_OPS:
        if type(ops[0]) is Reg and isinstance(ops[1], Mem):
            return _INLINE_MEM              # load form
        if isinstance(ops[0], Mem) and type(ops[1]) in (Reg, Imm):
            return _INLINE_MEM              # store form
        return _GENERIC
    if op is Opcode.PUSH:
        return _INLINE_MEM if type(ops[0]) in (Reg, Imm) else _GENERIC
    if op is Opcode.POP:
        return _INLINE_MEM if type(ops[0]) is Reg else _GENERIC
    if op is Opcode.LEA:
        if type(ops[0]) is Reg and isinstance(ops[1], Mem):
            return _INLINE_NONE
        return _GENERIC
    if op in _ALU_BINOPS:
        if type(ops[0]) is Reg and type(ops[1]) in (Reg, Imm):
            return _INLINE_ALL
        return _GENERIC
    if op in _ALU_UNOPS:
        if type(ops[0]) is Reg:
            return _INLINE_NONE if op is Opcode.NOT else _INLINE_ALL
        return _GENERIC
    return _GENERIC


class _SourceBuilder:
    """Accumulates generated source lines plus the binding namespace."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.bindings: Dict[str, object] = {}
        self._regs: Dict[Reg, str] = {}
        #: Machine constants baked into memory-path fragments
        #: (page/line geometry, hit latencies, hmov surcharge).
        self.consts: Dict[str, int] = {}

    def bind(self, name: str, obj) -> str:
        self.bindings[name] = obj
        return name

    def reg(self, reg: Reg) -> str:
        name = self._regs.get(reg)
        if name is None:
            name = self.bind(f"g_{reg.name}", reg)
            self._regs[reg] = name
        return name


def _src_expr(b: _SourceBuilder, operand) -> str:
    """Source text for a register-or-immediate source operand."""
    if type(operand) is Reg:
        return f"R[{b.reg(operand)}]"
    return repr(operand.value & _M)


def _ea_expr(b: _SourceBuilder, mem: Mem) -> str:
    """Source text computing the effective address (``make_ea``)."""
    if mem.base is None and mem.index is None:
        return repr(mem.disp & _M)
    terms = [repr(mem.disp)]
    if mem.base is not None:
        terms.append(f"R[{b.reg(mem.base)}]")
    if mem.index is not None:
        terms.append(f"R[{b.reg(mem.index)}] * {mem.scale}")
    return f"({' + '.join(terms)}) & {_M}"


def _emit_access_checks(b: _SourceBuilder, out: List[str], size: int,
                        is_write: bool, implicit: bool) -> None:
    """HFI implicit check (non-hmov paths) + VMA/pkey check, transcribed
    from ``make_reader``/``make_writer`` and ``Cpu._load_ea``/``_store_ea``.
    """
    if implicit:
        out.append("if HREGS.enabled:")
        out.append(f"    HCHECK(HREGS.data, ea, {size}, {is_write})")
    kind = "AK_WR" if is_write else "AK_RD"
    # Grant-cache hit inlined from ``AddressSpace.check_access``; a miss
    # (or an access running past the cached VMA) takes the full check.
    grant = "GWR" if is_write else "GRD"
    out.append(f"vma = {grant}(ea // {PAGE})")
    out.append(f"if vma is None or ea + {size} > vma.end:")
    out.append(f"    vma = CHK(ea, {size}, {kind})")
    # ``enforce_pkeys`` is fixed at construction (process-attached
    # cores only), so a False value elides the whole pkey test — like
    # every baked constant, it is compile-time state (see module doc).
    if b.consts["EPK"]:
        # (pkru >> 2k) & 0b11 & 0b01  ==  (pkru >> 2k) & 1, and the
        # write path denies on either bit: the mask folds to a constant.
        pk_mask = 0b11 if is_write else 0b01
        out.append("if vma.pkey:")
        out.append("    process = cpu.process")
        out.append("    if process is not None and process.pkru:")
        out.append(f"        if (process.pkru >> (2 * vma.pkey))"
                   f" & {pk_mask}:")
        out.append('            raise PF(ea, ' + kind
                   + ', f"pkey {vma.pkey} denied")')


def _emit_mem_timing(b: _SourceBuilder, out: List[str]) -> None:
    """dTLB + L1D probe, transcribed from ``TimingModel.mem_access``
    (hit fast paths inlined, miss paths through the bound slow calls;
    latency accumulates in ``c`` — blocks never run speculatively)."""
    k = b.consts
    out.append(f"page = ea // {k['PB']}")
    out.append("if page in PAGES:")
    out.append("    del PAGES[page]")
    out.append("    PAGES[page] = True")
    out.append("    tlbh += 1")
    out.append("    tc = 0")
    out.append("else:")
    out.append("    tc = TLBACC(ea)")
    out.append(f"dl = ea // {k['LB']}")
    out.append(f"dw = L1DS[dl % {k['NS']}]")
    out.append(f"dt = dl // {k['NS']}")
    out.append("if dt in dw:")
    out.append("    del dw[dt]")
    out.append("    dw[dt] = True")
    out.append("    dh += 1")
    out.append(f"    c += tc + {k['DH']}")
    out.append("else:")
    out.append("    c += tc + DACC(ea)")


def _emit_load(b: _SourceBuilder, out: List[str], dst: Reg, size: int,
               implicit: bool) -> None:
    _emit_access_checks(b, out, size, is_write=False, implicit=implicit)
    _emit_mem_timing(b, out)
    out.append("ld += 1")
    out.append(f"R[{b.reg(dst)}] = MEMRD(ea, {size}, check=False)")


def _emit_store(b: _SourceBuilder, out: List[str], size: int,
                implicit: bool) -> None:
    """Store of local ``val`` to local ``ea``."""
    _emit_access_checks(b, out, size, is_write=True, implicit=implicit)
    _emit_mem_timing(b, out)
    out.append("st += 1")
    out.append(f"MEMWR(ea, val, {size}, check=False)")


def _emit_mem(b: _SourceBuilder, dop: DecodedOp) -> List[str]:
    """Transcribe one inlined memory-touching handler body.

    Unlike the pure-register fragments these can fault (HFI data trap,
    VMA/pkey page fault), so each fragment stores ``rip`` *first* —
    exactly as every handler does — keeping the architectural rip at
    the faulting instruction's successor when the block unwinds.
    """
    ins = dop.ins
    op = ins.opcode
    ops = ins.operands
    out: List[str] = [f"RF.rip = {dop.next_rip}"]
    if op is Opcode.MOV:
        if type(ops[0]) is Reg:                  # reg <- [mem]
            mem = ops[1]
            out.append(f"ea = {_ea_expr(b, mem)}")
            _emit_load(b, out, ops[0], mem.size, implicit=True)
        else:                                     # [mem] <- reg/imm
            mem = ops[0]
            out.append(f"val = {_src_expr(b, ops[1])}")
            out.append(f"ea = {_ea_expr(b, mem)}")
            _emit_store(b, out, mem.size, implicit=True)
        return out
    if op in _HMOV_OPS:
        region = HMOV_REGION[op]
        extra = b.consts["HX"]
        if extra:                # commit-only charge; blocks never
            out.append(f"c += {extra}")           # run speculatively
        if isinstance(ops[1], Mem):               # load form
            mem = ops[1]
            iv = (f"R[{b.reg(mem.index)}]"
                  if mem.index is not None else "0")
            out.append(f"ea = HMOVA({region}, {iv}, {mem.scale}, "
                       f"{mem.disp}, {mem.size}, False)")
            _emit_load(b, out, ops[0], mem.size, implicit=False)
        else:                                     # store form
            mem = ops[0]
            out.append(f"val = {_src_expr(b, ops[1])}")
            iv = (f"R[{b.reg(mem.index)}]"
                  if mem.index is not None else "0")
            out.append(f"ea = HMOVA({region}, {iv}, {mem.scale}, "
                       f"{mem.disp}, {mem.size}, True)")
            _emit_store(b, out, mem.size, implicit=False)
        return out
    if op is Opcode.PUSH:
        rsp = b.reg(Reg.RSP)
        out.append(f"val = {_src_expr(b, ops[0])}")
        out.append(f"sp = (R[{rsp}] - 8) & {_M}")
        out.append(f"R[{rsp}] = sp")
        out.append("ea = sp")
        _emit_store(b, out, 8, implicit=True)
        return out
    if op is Opcode.POP:
        rsp = b.reg(Reg.RSP)
        out.append(f"ea = R[{rsp}]")
        _emit_access_checks(b, out, 8, is_write=False, implicit=True)
        _emit_mem_timing(b, out)
        out.append("ld += 1")
        out.append("val = MEMRD(ea, 8, check=False)")
        # rsp bump before the destination write, as in the handler
        # (so ``pop rsp`` keeps the loaded value).
        out.append(f"R[{rsp}] = (R[{rsp}] + 8) & {_M}")
        out.append(f"R[{b.reg(ops[0])}] = val")
        return out
    raise AssertionError(f"no mem fragment for {op}")  # pragma: no cover


def _emit_inline(b: _SourceBuilder, ins, flags_live: bool) -> List[str]:
    """Transcribe one inlined handler body (flags elided when dead)."""
    op = ins.opcode
    ops = ins.operands
    out: List[str] = []
    if op is Opcode.NOP:
        return out
    if op is Opcode.MOV:
        d = b.reg(ops[0])
        out.append(f"R[{d}] = {_src_expr(b, ops[1])}")
        return out
    if op is Opcode.LEA:
        d = b.reg(ops[0])
        mem = ops[1]
        terms = [repr(mem.disp)]
        if mem.base is not None:
            terms.append(f"R[{b.reg(mem.base)}]")
        if mem.index is not None:
            terms.append(f"R[{b.reg(mem.index)}] * {mem.scale}")
        if mem.base is None and mem.index is None:
            out.append(f"R[{d}] = {mem.disp & _M}")
        else:
            out.append(f"R[{d}] = ({' + '.join(terms)}) & {_M}")
        return out
    if op in (Opcode.ADD, Opcode.SUB, Opcode.CMP):
        d = b.reg(ops[0])
        src = _src_expr(b, ops[1])
        sub = op is not Opcode.ADD
        if not flags_live:
            if op is Opcode.CMP:
                return out                     # compare with dead flags
            sign = "-" if sub else "+"
            out.append(f"R[{d}] = (R[{d}] {sign} {src}) & {_M}")
            return out
        out.append(f"a = R[{d}]")
        out.append(f"b = {src}")
        if sub:
            out.append(f"res = (a - b) & {_M}")
            out.append("F.zf = res == 0")
            out.append("F.sf = res >> 63 != 0")
            out.append("F.cf = a < b")
            out.append(f"F.of = (a ^ b) & (a ^ res) & {_SIGN} != 0")
        else:
            out.append("wide = a + b")
            out.append(f"res = wide & {_M}")
            out.append("F.zf = res == 0")
            out.append("F.sf = res >> 63 != 0")
            out.append(f"F.cf = wide > {_M}")
            out.append(f"F.of = ~(a ^ b) & (a ^ res) & {_SIGN} != 0")
        if op is not Opcode.CMP:
            out.append(f"R[{d}] = res")
        return out
    if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.TEST):
        d = b.reg(ops[0])
        src = _src_expr(b, ops[1])
        sym = {Opcode.AND: "&", Opcode.TEST: "&",
               Opcode.OR: "|", Opcode.XOR: "^"}[op]
        if not flags_live:
            if op is Opcode.TEST:
                return out                     # test with dead flags
            out.append(f"R[{d}] = R[{d}] {sym} {src}")
            return out
        out.append(f"res = R[{d}] {sym} {src}")
        out.append("F.zf = res == 0")
        out.append("F.sf = res >> 63 != 0")
        out.append("F.cf = False")
        out.append("F.of = False")
        if op is not Opcode.TEST:
            out.append(f"R[{d}] = res")
        return out
    if op in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
        d = b.reg(ops[0])
        if type(ops[1]) is Imm:
            count = repr(ops[1].value & _M & 63)
        else:
            count = f"R[{b.reg(ops[1])}] & 63"
        if op is Opcode.SHL:
            expr = f"(R[{d}] << ({count})) & {_M}"
        elif op is Opcode.SHR:
            expr = f"R[{d}] >> ({count})"
        else:
            out.append(f"a = R[{d}]")
            out.append(f"sa = a - {_TWO64} if a & {_SIGN} else a")
            expr = f"(sa >> ({count})) & {_M}"
        if not flags_live:
            out.append(f"R[{d}] = {expr}")
            return out
        out.append(f"res = {expr}")
        out.append("F.zf = res == 0")
        out.append("F.sf = res >> 63 != 0")
        out.append("F.cf = False")
        out.append("F.of = False")
        out.append(f"R[{d}] = res")
        return out
    if op in (Opcode.INC, Opcode.DEC):
        d = b.reg(ops[0])
        sub = op is Opcode.DEC
        if not flags_live:
            sign = "-" if sub else "+"
            out.append(f"R[{d}] = (R[{d}] {sign} 1) & {_M}")
            return out
        out.append(f"a = R[{d}]")
        if sub:
            out.append(f"res = (a - 1) & {_M}")
            out.append("F.zf = res == 0")
            out.append("F.sf = res >> 63 != 0")
            out.append("F.cf = a < 1")
            out.append(f"F.of = (a ^ 1) & (a ^ res) & {_SIGN} != 0")
        else:
            out.append("wide = a + 1")
            out.append(f"res = wide & {_M}")
            out.append("F.zf = res == 0")
            out.append("F.sf = res >> 63 != 0")
            out.append(f"F.cf = wide > {_M}")
            out.append(f"F.of = ~(a ^ 1) & (a ^ res) & {_SIGN} != 0")
        out.append(f"R[{d}] = res")
        return out
    if op is Opcode.NEG:
        d = b.reg(ops[0])
        if not flags_live:
            out.append(f"R[{d}] = -R[{d}] & {_M}")
            return out
        out.append(f"res = -R[{d}] & {_M}")
        out.append("F.zf = res == 0")
        out.append("F.sf = res >> 63 != 0")
        out.append("F.cf = res != 0")
        out.append("F.of = False")
        out.append(f"R[{d}] = res")
        return out
    if op is Opcode.NOT:
        d = b.reg(ops[0])
        out.append(f"R[{d}] = ~R[{d}] & {_M}")
        return out
    raise AssertionError(f"no inline fragment for {op}")  # pragma: no cover


class Superblock:
    """One compiled basic block: a generated callable plus metadata."""

    __slots__ = ("run", "n", "first", "last", "source")

    def __init__(self, run, n: int, first: int, last: int, source: str):
        self.run = run          # run(cpu) — the generated function
        self.n = n              # instruction count
        self.first = first      # pc of the first instruction
        self.last = last        # pc of the last instruction
        self.source = source    # generated text (debugging aid)

    def covered(self, regions) -> bool:
        """May HFI fetch checks be hoisted over this whole block?

        True only when the *first* region (in list order, matching
        §4.1's first-match semantics) that intersects
        ``[first, last]`` covers both endpoints — implicit code
        regions are aligned contiguous intervals, so covering the
        endpoints covers every pc between — and grants execute.  Any
        partial overlap, no match, or exec-denied match returns False
        and the caller single-steps, reproducing the exact per-pc
        fault the hoisted check cannot.
        """
        lo = self.first
        hi = self.last
        for region in regions:
            if region is None:
                continue
            mask = region.lsb_mask
            base = region.base_prefix
            if (lo & ~mask) == base and (hi & ~mask) == base:
                return region.permission_exec
            if base <= hi and base + mask >= lo:
                return False        # partial overlap: per-pc semantics
        return False                # no match: single-step will fault

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Superblock [{self.first:#x}..{self.last:#x}] "
                f"n={self.n}>")


def compile_superblock(cpu, dops: List[DecodedOp]) -> Superblock:
    """Generate and compile the fused callable for one basic block,
    with in-order accounting inlined or scoreboard calls emitted as
    ``cpu.timing`` requires (see the module docstring)."""
    timing = cpu.timing
    inline = timing.inline_commit
    b = _SourceBuilder()
    b.bind("R", cpu.regs.regs)
    b.bind("F", cpu.regs.flags)
    b.bind("RF", cpu.regs)
    b.bind("S", cpu.stats)
    b.bind("FETCH", timing.fetch)
    l1i = cpu.caches.l1i
    b.bind("L1I", l1i)
    base_cycles = cpu.params.base_cycles
    hit_cycles = cpu.params.l1i_hit_cycles
    hit_plus_base = hit_cycles + base_cycles

    kinds = [_classify(dop.ins) for dop in dops]
    if not inline:
        b.bind("ISSUE", timing.issue)
        b.bind("RETIRE", timing.retire)
        kinds = [_GENERIC if kind is _INLINE_MEM else kind
                 for kind in kinds]
    uses_mem = any(kind is _INLINE_MEM for kind in kinds)
    if uses_mem:
        l1d = cpu.caches.l1d
        b.bind("CHK", cpu.mem.check_access)
        grants = cpu.mem.grants             # cleared in place
        b.bind("GRD", grants[AccessKind.READ].get)
        b.bind("GWR", grants[AccessKind.WRITE].get)
        b.bind("MEMRD", cpu.mem.read)
        b.bind("MEMWR", cpu.mem.write)
        b.bind("PAGES", cpu.tlb._pages)     # shootdown clears in place
        b.bind("TLBO", cpu.tlb)
        b.bind("TLBACC", cpu.tlb.access)
        b.bind("L1DS", l1d._sets)           # flush clears in place
        b.bind("L1D", l1d)
        b.bind("DACC", cpu.caches.data_access)
        b.bind("HREGS", cpu.hfi.regs)       # identity journal-preserved
        b.bind("HCHECK", implicit_data_check)
        b.bind("HMOVA", cpu.hfi.hmov_address)
        b.bind("PF", PageFault)
        b.bind("AK_RD", AccessKind.READ)
        b.bind("AK_WR", AccessKind.WRITE)
        b.consts = {
            "PB": cpu.params.page_bytes,
            "LB": l1d.line_bytes,
            "NS": l1d.n_sets,
            "DH": cpu.params.l1d_hit_cycles,
            "HX": cpu.params.hmov_extra_cycles,
            "EPK": 1 if cpu.enforce_pkeys else 0,
        }

    # Dead-flag elimination, backward: flags written by instruction i
    # are live unless a later *inlined* instruction overwrites all four
    # before anything can observe them.  Generic and memory fragments
    # are barriers (they may fault, exposing the pre-fault flag state),
    # and flags are always live at the block exit (typically a jcc).
    live = True
    flags_live = [True] * len(dops)
    for i in range(len(dops) - 1, -1, -1):
        kind = kinds[i]
        if kind is _GENERIC or kind is _INLINE_MEM:
            live = True
        else:
            flags_live[i] = live
            if kind is _INLINE_ALL:
                live = False

    # Segment the block for fetch-probe batching.  Consecutive
    # instructions sharing an l1i line need only ONE probe: after the
    # first touch the line is MRU and nothing i-side intervenes before
    # the next instruction, so the remaining accesses are guaranteed
    # hits — batching k same-line probes into one (hit: ``h += k``;
    # miss: one hierarchy walk plus k-1 hit latencies) leaves the
    # cache state, hit counters, and cycle total bit-identical to the
    # staged loop's per-instruction probes.  A fragment that can fault
    # (generic call or inlined memory access) ends its segment, so
    # ``n`` and ``c`` are exact whenever an exception can unwind the
    # block mid-flight.
    faulting = [kind is _GENERIC or kind is _INLINE_MEM for kind in kinds]
    ilines = [dop.addr // l1i.line_bytes for dop in dops]
    segments: List[Tuple[int, int]] = []
    start = 0
    for i in range(len(dops)):
        if (i + 1 == len(dops) or faulting[i]
                or ilines[i + 1] != ilines[i]):
            segments.append((start, i))
            start = i + 1

    lines = ["    n = 0", "    cpu._in_block = True"]
    if inline:
        lines.append("    c = 0")
    lines.append("    h = 0")
    if uses_mem:
        lines.append("    ld = 0; st = 0; tlbh = 0; dh = 0")
    lines.append("    try:")
    ways_names: Dict[int, str] = {}
    for seg_start, seg_end in segments:
        k = seg_end - seg_start + 1
        names = " ".join(dop.ins.opcode.name
                         for dop in dops[seg_start:seg_end + 1])
        lines.append(f"        # {dops[seg_start].addr:#x} {names}")
        lines.append(f"        n = {seg_end + 1}")
        # One l1i probe for the whole segment, transcribed from the
        # commit loop (LRU reinsert on hit; hierarchy walk on miss).
        line = ilines[seg_start]
        set_index = line % l1i.n_sets
        tag = line // l1i.n_sets
        w = ways_names.get(set_index)
        if w is None:
            w = b.bind(f"w{set_index}", l1i._sets[set_index])
            ways_names[set_index] = w
        lines.append(f"        if {tag} in {w}:")
        lines.append(f"            del {w}[{tag}]")
        lines.append(f"            {w}[{tag}] = True")
        lines.append(f"            h += {k}")
        if inline:
            lines.append(f"            c += {k * hit_plus_base}")
            lines.append("        else:")
            lines.append(f"            c += FETCH({dops[seg_start].addr})"
                         f" + {base_cycles + (k - 1) * hit_plus_base}")
        else:
            # The probe result is the segment head's fetch latency;
            # the rest of the segment hits the now-MRU line.
            lines.append(f"            fc = {hit_cycles}")
            lines.append("        else:")
            lines.append(f"            fc = FETCH({dops[seg_start].addr})")
        if k > 1:
            lines.append(f"            h += {k - 1}")
        for i in range(seg_start, seg_end + 1):
            dop = dops[i]
            if not inline:
                d = b.bind(f"d{i}", dop)
                fetch = "fc" if i == seg_start else str(hit_cycles)
                lines.append(f"        ISSUE({d}, {fetch})")
            if kinds[i] is _GENERIC:
                r = b.bind(f"r{i}", dop.run)
                lines.append(f"        {r}(cpu)")
            elif kinds[i] is _INLINE_MEM:
                for frag in _emit_mem(b, dop):
                    lines.append(f"        {frag}")
            else:
                for frag in _emit_inline(b, dop.ins, flags_live[i]):
                    lines.append(f"        {frag}")
            if not inline:
                lines.append(f"        RETIRE({d})")
    # Pure-register inlined fragments defer the rip store; generic
    # handlers and memory fragments (which can fault) write it
    # themselves, so only a pure-inlined *last* instruction needs the
    # block-exit rip (mid-block rip is never observable: pure inlined
    # fragments cannot fault and nothing block-safe reads rip).
    if kinds[-1] in (_INLINE_NONE, _INLINE_ALL):
        lines.append(f"        RF.rip = {dops[-1].next_rip}")
    lines.extend([
        "    finally:",
        "        cpu._in_block = False",
        "        cpu._block_retired = n",
        "        S.instructions += n",
    ])
    if inline:
        lines.append("        S.cycles += c")
    lines.append("        L1I._hits += h")
    if uses_mem:
        lines.extend([
            "        S.loads += ld",
            "        S.stores += st",
            "        TLBO._hits += tlbh",
            "        L1D._hits += dh",
        ])

    params = ", ".join(f"{name}={name}" for name in b.bindings)
    source = (f"def _superblock(cpu, {params}):\n" + "\n".join(lines)
              + "\n")
    namespace = dict(b.bindings)
    exec(compile(source, f"<superblock {dops[0].addr:#x}>", "exec"),
         namespace)
    return Superblock(namespace["_superblock"], len(dops), dops[0].addr,
                      dops[-1].addr, source)


class BlockCache:
    """Per-core table of compiled superblocks, keyed by entry pc.

    ``table`` maps an entry pc to its :class:`Superblock`, or to
    ``None`` when formation at that pc was attempted and produced a
    run shorter than :data:`MIN_BLOCK_OPS` (a negative cache, so hot
    ender-adjacent pcs don't re-walk every visit).  ``owners`` maps
    every address a compilation visited back to the entry pcs whose
    blocks cover it, which is what :meth:`invalidate` consumes when
    :class:`~repro.cpu.decode.CodeMap` reports a code write.
    """

    __slots__ = ("cpu", "table", "owners", "heat", "goal", "compiled",
                 "invalidated", "executions", "block_instructions",
                 "fallbacks")

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.table: Dict[int, Optional[Superblock]] = {}
        self.owners: Dict[int, List[int]] = {}
        self.heat: Dict[int, int] = {}
        self.goal: Dict[int, int] = {}
        self.compiled = 0
        self.invalidated = 0
        self.executions = 0
        self.block_instructions = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # formation
    # ------------------------------------------------------------------
    def _walk(self, pc: int):
        """The maximal block-safe run starting at ``pc`` (no compile)."""
        cpu = self.cpu
        decoded = cpu._decoded
        dops: List[DecodedOp] = []
        visited: List[int] = []
        addr = pc
        while len(dops) < MAX_BLOCK_OPS:
            dop = decoded.get(addr)
            if dop is None:
                dop = cpu._decode_at(addr)
                if dop is None:
                    break
            if dop.ins.opcode not in BLOCK_SAFE:
                break
            dops.append(dop)
            visited.append(addr)
            addr = dop.next_rip
        return dops, visited

    def compile_at(self, pc: int) -> Optional[Superblock]:
        """Warm up, then compile the maximal safe run from ``pc``.

        Cold pcs just count visits: the formation walk runs once at
        :data:`HOT_THRESHOLD` visits to size the run (setting the
        length-scaled compile goal), and ``compile()`` runs only when
        the goal is reached — until then the caller single-steps, so
        code that never gets hot never pays the compile toll.
        """
        heat = self.heat
        count = heat.get(pc, 0) + 1
        goal = self.goal.get(pc)
        if goal is None:
            if count < HOT_THRESHOLD:
                heat[pc] = count
                return None
            run_len = len(self._walk(pc)[0])
            if run_len < MIN_BLOCK_OPS:
                heat.pop(pc, None)
                self.table[pc] = None           # negative cache
                self.owners.setdefault(pc, []).append(pc)
                return None
            goal = HOT_THRESHOLD + COMPILE_VISIT_BUDGET // run_len
            self.goal[pc] = goal
        if count < goal:
            heat[pc] = count
            return None
        heat.pop(pc, None)
        self.goal.pop(pc, None)
        dops, visited = self._walk(pc)
        if len(dops) < MIN_BLOCK_OPS:           # code changed under us
            self.table[pc] = None
            self.owners.setdefault(pc, []).append(pc)
            return None
        blk = compile_superblock(self.cpu, dops)
        self.table[pc] = blk
        for covered_addr in visited:
            self.owners.setdefault(covered_addr, []).append(pc)
        self.compiled += 1
        return blk

    # ------------------------------------------------------------------
    # coherence (driven by CodeMap)
    # ------------------------------------------------------------------
    def invalidate(self, addr: int) -> None:
        """A code write at ``addr``: drop every block covering it."""
        entries = self.owners.pop(addr, None)
        if not entries:
            return
        table = self.table
        for entry in entries:
            if entry in table:
                del table[entry]
                self.invalidated += 1

    def clear(self) -> None:
        self.table.clear()
        self.owners.clear()
        self.heat.clear()
        self.goal.clear()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> SuperblockStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return SuperblockStats(
            component="blocks", compiled=self.compiled,
            invalidated=self.invalidated, executions=self.executions,
            block_instructions=self.block_instructions,
            fallbacks=self.fallbacks, cached=len(self.table))
