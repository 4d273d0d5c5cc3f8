"""Seeded ISA-level differential fuzzing across execution backends.

``build_case(seed)`` generates a well-formed program over the full
opcode table — ALU traffic, loads/stores of every operand size,
balanced push/pop, forward branches, bounded loops, direct and
indirect calls, HFI sandbox episodes (region installs, ``hfi_enter``
in every flag combination, in- and out-of-bounds ``hmov``,
``hfi_exit``/``hfi_reenter``), ``xsave``/``xrstor`` pairs, syscalls,
and deliberately-faulting accesses.  ``run_differential(seed)`` then
executes the same program on every requested engine — by default the
staged interpreter, the superblock-compiling ``blocks`` engine, and
the naive :class:`~repro.verify.reference.ReferenceCpu` — starting
from bit-identical address spaces, and asserts equality of the full
architectural end state against the first engine: every GPR, the
flags, ``rip``, the stop reason, the fault record, the
committed-instruction count, the HFI bank (regions, sandbox flags,
cause MSR, lifecycle counters), and all non-zero memory.  Cells that
share a timing model (every engine but the reference oracle) must
additionally agree on every ``CpuStats`` field, cycles included.

Backends are constructed by name through
:func:`repro.cpu.machine.create_backend` — the public engine seam —
so a new conforming backend joins the matrix by adding its name.

``rdtsc`` is the one architectural instruction never generated: it
reads the cycle counter, which the reference engine does not model.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.encoding import encode_region, encode_sandbox
from ..core.regions import (
    ExplicitDataRegion,
    ImplicitCodeRegion,
    ImplicitDataRegion,
)
from ..core.registers import SandboxFlags
from ..cpu.machine import create_backend
from ..isa.assembler import Assembler
from ..isa.instruction import Program
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import Reg
from ..os.address_space import AddressSpace, Prot
from ..params import MachineParams

#: The default differential matrix: every conforming backend, with the
#: staged interpreter as the baseline the others are compared against.
DEFAULT_ENGINES: Tuple[str, ...] = ("staged", "blocks", "reference")

#: Timing models the verify gate crosses with the engine matrix.  The
#: architectural end state must be identical across all of them; only
#: cycle counts may differ.
DEFAULT_TIMINGS: Tuple[str, ...] = ("inorder", "ooo")

# ----------------------------------------------------------------------
# fixed memory layout shared by every generated case
# ----------------------------------------------------------------------
CODE_BASE = 0x0040_0000
CODE_BYTES = 1 << 16
DATA_BASE = 0x0010_0000
DATA_BYTES = 1 << 16
STACK_BASE = 0x002F_0000
STACK_BYTES = 1 << 16
HEAP_BASE = 0x0080_0000
HEAP_BYTES = 1 << 16
SMALL_BOUND = 0x8000

RSP_INIT = STACK_BASE + STACK_BYTES - 0x1000

#: Random loads/stores stay inside [DATA_BASE+0x100, DATA_BASE+0xE000);
#: descriptors and the xsave area live above that so stray stores
#: cannot corrupt them.
SCRATCH_LO, SCRATCH_HI = 0x100, 0xDFF0
XSAVE_OFF = 0xE800
GET_REGION_OFF = 0xE900

DESC_CODE = DATA_BASE + 0xF000
DESC_DATA = DATA_BASE + 0xF020
DESC_STACK = DATA_BASE + 0xF040
DESC_HEAP_LARGE = DATA_BASE + 0xF060
DESC_HEAP_SMALL = DATA_BASE + 0xF080
SANDBOX_DESCS = [DATA_BASE + 0xF100 + 0x10 * i for i in range(4)]
SANDBOX_FLAG_VARIANTS = [
    SandboxFlags(),                                      # native
    SandboxFlags(is_hybrid=True),
    SandboxFlags(is_serialized=True),
    SandboxFlags(switch_on_exit=True),
]

SCRATCH = [Reg.RAX, Reg.RBX, Reg.RCX, Reg.RDX, Reg.RSI,
           Reg.R8, Reg.R9, Reg.R10, Reg.R11]
SIZES = [1, 2, 4, 8]
IMM_POOL = [0, 1, 2, 7, 0xFF, 0x1234, 1 << 31, (1 << 63) - 1,
            1 << 63, (1 << 64) - 1]
JCC = ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae"]


@dataclass
class FuzzCase:
    """One generated program plus the memory image it runs against."""

    seed: int
    program: Program
    entry: int
    mappings: List[Tuple[int, int, Prot, str]]
    preload: List[Tuple[int, bytes]]
    max_instructions: int = 200_000


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.asm = Assembler(base=CODE_BASE)
        self.depth = 0            # tracked push/pop balance
        self.had_episode = False  # an hfi_exit has banked a reenter state
        self._label = 0
        self._fns = ["fn0", "fn1"]

    def fresh_label(self, tag: str) -> str:
        self._label += 1
        return f"{tag}_{self._label}"

    def reg(self) -> Reg:
        return self.rng.choice(SCRATCH)

    def imm(self) -> Imm:
        rng = self.rng
        if rng.random() < 0.6:
            return Imm(rng.choice(IMM_POOL))
        return Imm(rng.randrange(0, 1 << 64))

    # ------------------------------------------------------------------
    # simple steps (safe anywhere, including inside loops and sandboxes)
    # ------------------------------------------------------------------
    def step_simple(self) -> None:
        a, rng = self.asm, self.rng
        kind = rng.choices(
            ["alu_rr", "alu_ri", "shift", "unary", "mov_imm", "mov_rr",
             "load", "store", "load_indexed", "lea", "serialize"],
            weights=[3, 3, 1, 1, 2, 1, 2, 2, 1, 1, 1])[0]
        if kind == "alu_rr":
            op = rng.choice([a.add, a.sub, a.and_, a.or_, a.xor, a.imul])
            op(self.reg(), self.reg())
        elif kind == "alu_ri":
            op = rng.choice([a.add, a.sub, a.and_, a.or_, a.xor, a.imul,
                             a.cmp, a.test])
            op(self.reg(), self.imm())
        elif kind == "shift":
            op = rng.choice([a.shl, a.shr, a.sar])
            op(self.reg(), Imm(rng.randrange(0, 70)))
        elif kind == "unary":
            rng.choice([a.not_, a.neg, a.inc, a.dec])(self.reg())
        elif kind == "mov_imm":
            a.mov(self.reg(), self.imm())
        elif kind == "mov_rr":
            a.mov(self.reg(), self.reg())
        elif kind == "load":
            size = rng.choice(SIZES)
            a.mov(self.reg(), Mem(base=Reg.RBP, size=size,
                                  disp=rng.randrange(SCRATCH_LO,
                                                     SCRATCH_HI)))
        elif kind == "store":
            size = rng.choice(SIZES)
            src = self.reg() if rng.random() < 0.7 else self.imm()
            a.mov(Mem(base=Reg.RBP, size=size,
                      disp=rng.randrange(SCRATCH_LO, SCRATCH_HI)), src)
        elif kind == "load_indexed":
            idx = self.reg()
            a.and_(idx, Imm(0x1FF0))     # keep RBP+idx+disp inside DATA
            a.mov(self.reg(), Mem(base=Reg.RBP, index=idx, scale=1,
                                  disp=0x2000, size=8))
        elif kind == "lea":
            a.lea(self.reg(), Mem(base=Reg.RBP, index=self.reg(),
                                  scale=rng.choice([1, 2, 4, 8]),
                                  disp=rng.randrange(0, 1 << 32)))
        else:
            rng.choice([a.cpuid, a.lfence, a.nop])()

    # ------------------------------------------------------------------
    # structured steps
    # ------------------------------------------------------------------
    def step_stack(self) -> None:
        a, rng = self.asm, self.rng
        if self.depth > 0 and rng.random() < 0.5:
            a.pop(self.reg())
            self.depth -= 1
        else:
            a.push(self.reg() if rng.random() < 0.7 else self.imm())
            self.depth += 1

    def step_skip_block(self) -> None:
        a, rng = self.asm, self.rng
        if rng.random() < 0.7:
            a.cmp(self.reg(), self.imm() if rng.random() < 0.5
                  else self.reg())
        else:
            a.test(self.reg(), self.reg())
        label = self.fresh_label("skip")
        getattr(a, rng.choice(JCC))(label)
        for _ in range(rng.randint(1, 3)):
            self.step_simple()
        a.label(label)

    def step_loop(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.R13, Imm(rng.randint(2, 6)))
        top = self.fresh_label("loop")
        a.label(top)
        for _ in range(rng.randint(1, 2)):
            self.step_simple()
        a.dec(Reg.R13)
        a.jne(top)

    def step_call(self) -> None:
        a, rng = self.asm, self.rng
        fn = rng.choice(self._fns)
        if rng.random() < 0.3:
            a.mov(Reg.R14, LabelRef(fn))
            a.call(Reg.R14)
        else:
            a.call(fn)

    def step_indirect_jmp(self) -> None:
        a = self.asm
        label = self.fresh_label("ijmp")
        a.mov(Reg.R14, LabelRef(label))
        a.jmp(Reg.R14)
        a.label(label)

    def step_xsave_pair(self) -> None:
        a, rng = self.asm, self.rng
        area = Mem(base=Reg.RBP, disp=XSAVE_OFF)
        a.xsave(area)
        for _ in range(rng.randint(1, 3)):
            self.step_simple()
        a.xrstor(area)

    def step_syscall(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.RAX, Imm(rng.randrange(0, 300)))
        (a.int80 if rng.random() < 0.3 else a.syscall)()

    def step_pkru(self) -> None:
        a, rng = self.asm, self.rng
        rng.choice([a.wrpkru, a.rdpkru])()

    def step_region_query(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.RDI, Imm(DATA_BASE + GET_REGION_OFF))
        a.hfi_get_region(rng.randrange(0, 10), Reg.RDI)

    def step_region_clear(self) -> None:
        a, rng = self.asm, self.rng
        if rng.random() < 0.3:
            a.hfi_clear_all_regions()
        else:
            a.hfi_clear_region(rng.randrange(0, 10))

    def step_div(self) -> None:
        a, rng = self.asm, self.rng
        a.mov(Reg.RCX, self.imm() if rng.random() < 0.5
              else Imm(rng.randrange(1, 1 << 32)))
        # RCX may still be zero (the imm pool contains 0): a genuine
        # division fault is a legal outcome both engines must agree on.
        rng.choice([a.idiv, a.imod])(self.reg(), Reg.RCX)

    def step_clflush(self) -> None:
        a, rng = self.asm, self.rng
        a.clflush(Mem(base=Reg.RBP,
                      disp=rng.randrange(SCRATCH_LO, SCRATCH_HI)))

    # ------------------------------------------------------------------
    # hmov traffic (sandbox only)
    # ------------------------------------------------------------------
    def step_hmov(self) -> None:
        a, rng = self.asm, self.rng
        size = rng.choice(SIZES)
        slot = 0 if rng.random() < 0.7 else 1   # large heap / small RO
        limit = HEAP_BYTES if slot == 0 else SMALL_BOUND
        idx_val = rng.randrange(0, limit - 0x40)
        disp = rng.randrange(0, 0x38)
        a.mov(Reg.R12, Imm(idx_val))
        mem = Mem(index=Reg.R12, scale=1, disp=disp, size=size)
        if slot == 1 or rng.random() < 0.5:     # slot 1 is read-only
            a.hmov(slot, self.reg(), mem)
        else:
            src = self.reg() if rng.random() < 0.7 else self.imm()
            a.hmov(slot, mem, src)

    # ------------------------------------------------------------------
    # deliberate faults — each typically ends the run; both engines
    # must agree on the cause, address, and final state.
    # ------------------------------------------------------------------
    def step_fault(self, sandboxed: bool) -> None:
        a, rng = self.asm, self.rng
        if sandboxed:
            kind = rng.choice(["implicit_oob", "hmov_oob", "hmov_clear",
                               "hmov_readonly_store", "region_locked",
                               "xrstor_in_sandbox"])
            if kind == "implicit_oob":
                a.mov(self.reg(), Mem(disp=HEAP_BASE, size=8))
            elif kind == "hmov_oob":
                a.mov(Reg.R12, Imm(HEAP_BYTES + rng.randrange(0, 1 << 20)))
                a.hmov(0, self.reg(), Mem(index=Reg.R12, size=8))
            elif kind == "hmov_clear":
                a.mov(Reg.R12, Imm(0))
                a.hmov(2, self.reg(), Mem(index=Reg.R12, size=8))
            elif kind == "hmov_readonly_store":
                a.mov(Reg.R12, Imm(rng.randrange(0, SMALL_BOUND - 8)))
                a.hmov(1, Mem(index=Reg.R12, size=8), self.reg())
            elif kind == "region_locked":
                a.mov(Reg.RDI, Imm(DESC_HEAP_LARGE))
                a.hfi_set_region(6, Reg.RDI)
            else:
                a.xrstor(Mem(base=Reg.RBP, disp=XSAVE_OFF))
        else:
            kind = rng.choice(["unmapped", "div0", "xrstor_bad",
                               "hmov_disabled"])
            if kind == "unmapped":
                a.mov(self.reg(), Mem(disp=0x5000_0000, size=8))
            elif kind == "div0":
                a.mov(Reg.RCX, Imm(0))
                a.idiv(self.reg(), Reg.RCX)
            elif kind == "xrstor_bad":
                a.xrstor(Mem(base=Reg.RBP, disp=XSAVE_OFF - 0x10))
            else:
                a.mov(Reg.R12, Imm(0))
                a.hmov(0, self.reg(), Mem(index=Reg.R12, size=8))

    # ------------------------------------------------------------------
    # HFI sandbox episode
    # ------------------------------------------------------------------
    def sandbox_episode(self) -> None:
        a, rng = self.asm, self.rng
        for number, desc in ((0, DESC_CODE), (2, DESC_DATA),
                             (3, DESC_STACK), (6, DESC_HEAP_LARGE)):
            a.mov(Reg.RDI, Imm(desc))
            a.hfi_set_region(number, Reg.RDI)
        if rng.random() < 0.8:
            a.mov(Reg.RDI, Imm(DESC_HEAP_SMALL))
            a.hfi_set_region(7, Reg.RDI)
        a.mov(Reg.RDI, Imm(rng.choice(SANDBOX_DESCS)))
        a.hfi_enter(Reg.RDI)
        for _ in range(rng.randint(2, 8)):
            self.sandboxed_step()
        a.hfi_exit()
        self.had_episode = True
        if rng.random() < 0.25:
            a.hfi_reenter()
            for _ in range(rng.randint(1, 2)):
                self.sandboxed_step()
            a.hfi_exit()

    def sandboxed_step(self) -> None:
        rng = self.rng
        kind = rng.choices(
            ["simple", "hmov", "stack", "skip", "call", "syscall",
             "fault"],
            weights=[5, 3, 2, 2, 1, 0.4, 0.25])[0]
        if kind == "simple":
            self.step_simple()
        elif kind == "hmov":
            self.step_hmov()
        elif kind == "stack":
            self.step_stack()
        elif kind == "skip":
            self.step_skip_block()
        elif kind == "call":
            self.step_call()
        elif kind == "syscall":
            self.step_syscall()
        else:
            self.step_fault(sandboxed=True)

    def toplevel_step(self) -> None:
        rng = self.rng
        kind = rng.choices(
            ["simple", "stack", "skip", "loop", "call", "ijmp",
             "episode", "xsave", "syscall", "pkru", "query", "clear",
             "div", "clflush", "reenter", "fault"],
            weights=[6, 2, 2, 1.5, 1.5, 0.7, 2.5, 0.7, 0.7, 0.5, 0.7,
                     0.4, 1, 0.4, 0.4, 0.3])[0]
        if kind == "simple":
            self.step_simple()
        elif kind == "stack":
            self.step_stack()
        elif kind == "skip":
            self.step_skip_block()
        elif kind == "loop":
            self.step_loop()
        elif kind == "call":
            self.step_call()
        elif kind == "ijmp":
            self.step_indirect_jmp()
        elif kind == "episode":
            self.sandbox_episode()
        elif kind == "xsave":
            self.step_xsave_pair()
        elif kind == "syscall":
            self.step_syscall()
        elif kind == "pkru":
            self.step_pkru()
        elif kind == "query":
            self.step_region_query()
        elif kind == "clear":
            self.step_region_clear()
        elif kind == "div":
            self.step_div()
        elif kind == "clflush":
            self.step_clflush()
        elif kind == "reenter":
            if self.had_episode:
                self.asm.hfi_reenter()
                self.step_simple()
                self.asm.hfi_exit()
            else:
                self.step_simple()
        else:
            self.step_fault(sandboxed=False)

    # ------------------------------------------------------------------
    def build(self, seed: int) -> FuzzCase:
        a, rng = self.asm, self.rng
        # prologue: stack, data base pointer, random register state
        a.mov(Reg.RSP, Imm(RSP_INIT))
        a.mov(Reg.RBP, Imm(DATA_BASE))
        for reg in SCRATCH:
            a.mov(reg, Imm(rng.randrange(0, 1 << 64)))
        for _ in range(rng.randint(10, 40)):
            self.toplevel_step()
        a.hlt()
        # subroutines: pure register arithmetic, single ret
        for fn in self._fns:
            a.label(fn)
            for _ in range(rng.randint(2, 4)):
                op = rng.choice([a.add, a.sub, a.xor, a.imul])
                op(rng.choice(SCRATCH), rng.choice(SCRATCH))
            a.ret()
        # exit handler targeted by native-sandbox syscall interposition
        a.label("handler")
        a.nop()
        a.hlt()

        program = a.assemble()
        handler = program.labels["handler"]
        preload: List[Tuple[int, bytes]] = [
            (DESC_CODE, encode_region(
                ImplicitCodeRegion.covering(CODE_BASE, CODE_BYTES))),
            (DESC_DATA, encode_region(
                ImplicitDataRegion.covering(DATA_BASE, DATA_BYTES))),
            (DESC_STACK, encode_region(
                ImplicitDataRegion.covering(STACK_BASE, STACK_BYTES))),
            (DESC_HEAP_LARGE, encode_region(ExplicitDataRegion(
                HEAP_BASE, HEAP_BYTES, permission_read=True,
                permission_write=True, is_large_region=True))),
            (DESC_HEAP_SMALL, encode_region(ExplicitDataRegion(
                HEAP_BASE, SMALL_BOUND, permission_read=True,
                permission_write=False, is_large_region=False))),
        ]
        for addr, flags in zip(SANDBOX_DESCS, SANDBOX_FLAG_VARIANTS):
            preload.append((addr, encode_sandbox(flags, handler)))
        preload.append((DATA_BASE + SCRATCH_LO,
                        rng.randbytes(0x300) if hasattr(rng, "randbytes")
                        else bytes(rng.randrange(256) for _ in range(0x300))))
        preload.append((HEAP_BASE,
                        bytes(rng.randrange(256) for _ in range(0x200))))
        mappings = [
            (CODE_BASE, CODE_BYTES, Prot.READ | Prot.EXEC, "code"),
            (DATA_BASE, DATA_BYTES, Prot.READ | Prot.WRITE, "data"),
            (STACK_BASE, STACK_BYTES, Prot.READ | Prot.WRITE, "stack"),
            (HEAP_BASE, HEAP_BYTES, Prot.READ | Prot.WRITE, "heap"),
        ]
        return FuzzCase(seed=seed, program=program, entry=CODE_BASE,
                        mappings=mappings, preload=preload)


def build_case(seed: int) -> FuzzCase:
    """Deterministically generate the fuzz program for ``seed``."""
    return _Generator(seed).build(seed)


# ----------------------------------------------------------------------
# differential execution
# ----------------------------------------------------------------------
def _fresh_backend(engine: str, case: FuzzCase, params: MachineParams,
                   timing: str = "inorder"):
    """A named backend with the case's address space, program loaded."""
    space = AddressSpace(params)
    for base, length, prot, name in case.mappings:
        space.mmap(length, prot, addr=base, name=name)
    for addr, data in case.preload:
        space.write_bytes(addr, data, check=False)
    cpu = create_backend(engine, timing=timing, params=params, memory=space)
    cpu.load_program(case.program)
    return cpu


def build_matrix(engines: Tuple[str, ...],
                 timings: Tuple[str, ...]) -> List[Tuple[str, str]]:
    """The (engine, timing) cross, minus redundant cells.

    The reference oracle has no timing backend (it is architectural
    only), so it appears once regardless of how many timing models are
    swept.
    """
    matrix: List[Tuple[str, str]] = []
    for engine in engines:
        for timing in timings:
            if engine == "reference" and timing != timings[0]:
                continue
            matrix.append((engine, timing))
    return matrix


def _guarded_run(cpu, entry: int, max_instructions: int) -> Dict[str, object]:
    try:
        result = cpu.run(entry, max_instructions=max_instructions)
    except Exception as exc:  # engines must agree even on escapes
        return {"exception": f"{type(exc).__name__}: {exc}"}
    fault = result.fault
    return {
        "reason": result.reason,
        "rip": result.rip,
        "fault": (None if fault is None else
                  (fault.kind, fault.hfi_cause, fault.addr, fault.detail)),
    }


def _hfi_digest(hfi) -> Dict[str, object]:
    regs = hfi.regs
    return {
        "enabled": regs.enabled,
        "flags": regs.flags,
        "exit_handler": regs.exit_handler,
        "cause_msr": regs.cause_msr,
        "code": tuple(regs.code),
        "data": tuple(regs.data),
        "explicit": tuple(regs.explicit),
        "enters": hfi.enters,
        "exits": hfi.exits,
        "region_installs": hfi.region_installs,
        "serializations": hfi.serializations,
    }


def architectural_digest(cpu) -> Dict[str, object]:
    """Full architectural end state of either engine, comparison-ready.

    All-zero memory pages are dropped: the engines may lazily
    materialize different page sets, but the bytes must agree.
    """
    flags = cpu.regs.flags
    return {
        "regs": {reg.name: cpu.regs.regs[reg] for reg in Reg},
        "flags": (flags.zf, flags.sf, flags.cf, flags.of),
        "rip": cpu.regs.rip,
        "hfi": _hfi_digest(cpu.hfi),
        "memory": {page: bytes(buf)
                   for page, buf in cpu.mem._pages.items() if any(buf)},
    }


@dataclass
class DifferentialOutcome:
    """Result of one staged-vs-reference run."""

    seed: int
    reason: str = ""
    instructions: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _diff_digests(base: Dict, other: Dict, base_name: str,
                  other_name: str, out: List[str]) -> None:
    for name, value in base["regs"].items():
        theirs = other["regs"][name]
        if value != theirs:
            out.append(f"reg {name}: {base_name}={value:#x} "
                       f"{other_name}={theirs:#x}")
    if base["flags"] != other["flags"]:
        out.append(f"flags: {base_name}={base['flags']} "
                   f"{other_name}={other['flags']}")
    if base["rip"] != other["rip"]:
        out.append(f"rip: {base_name}={base['rip']:#x} "
                   f"{other_name}={other['rip']:#x}")
    for key, value in base["hfi"].items():
        theirs = other["hfi"][key]
        if value != theirs:
            out.append(f"hfi.{key}: {base_name}={value!r} "
                       f"{other_name}={theirs!r}")
    pages = set(base["memory"]) | set(other["memory"])
    for page in sorted(pages):
        mine = base["memory"].get(page)
        theirs = other["memory"].get(page)
        if mine != theirs:
            out.append(
                f"memory page {page:#x} differs "
                f"({base_name}={'present' if mine else 'absent'}, "
                f"{other_name}={'present' if theirs else 'absent'})")


def run_differential(seed: int,
                     params: Optional[MachineParams] = None,
                     max_instructions: int = 200_000,
                     engines: Tuple[str, ...] = DEFAULT_ENGINES,
                     timings: Tuple[str, ...] = ("inorder",),
                     ) -> DifferentialOutcome:
    """Run one seed on every (engine, timing) cell; report
    disagreements vs the first cell.

    Timing models must not change architecture: cycle counts may (and
    do) differ across ``timings``, but registers, flags, rip, memory,
    the HFI bank, committed instruction counts, and run outcomes must
    be bit-identical — that is the pluggable-timing contract.  Within
    one timing model the engines must not change timing either: the
    first non-reference cell of each timing model is the reference for
    every ``CpuStats`` field of the later ones.
    """
    params = params if params is not None else MachineParams()
    case = build_case(seed)
    matrix = build_matrix(engines, timings)
    base_engine, base_timing = matrix[0]
    base_name = (base_engine if len(timings) == 1
                 else f"{base_engine}/{base_timing}")
    base = _fresh_backend(base_engine, case, params, timing=base_timing)
    base_out = _guarded_run(base, case.entry, case.max_instructions)

    outcome = DifferentialOutcome(
        seed=seed, reason=str(base_out.get("reason", "exception")),
        instructions=base.stats.instructions)
    base_ok = "exception" not in base_out
    base_digest = architectural_digest(base) if base_ok else None
    #: timing model -> (cell name, CpuStats fields) of its first cell
    timed: Dict[str, Tuple[str, Dict[str, int]]] = {}
    if base_ok and base_engine != "reference":
        timed[base_timing] = (base_name, asdict(base.stats))
    for other_engine, other_timing in matrix[1:]:
        other_name = (other_engine if len(timings) == 1
                      else f"{other_engine}/{other_timing}")
        other = _fresh_backend(other_engine, case, params,
                               timing=other_timing)
        other_out = _guarded_run(other, case.entry, case.max_instructions)
        if other_engine != "reference" and "exception" not in other_out:
            stats = asdict(other.stats)
            first = timed.setdefault(other_timing, (other_name, stats))
            for key, value in first[1].items():
                if stats[key] != value:
                    outcome.divergences.append(
                        f"stats.{key}: {first[0]}={value} "
                        f"{other_name}={stats[key]}")
        for key in sorted(set(base_out) | set(other_out)):
            if base_out.get(key) != other_out.get(key):
                outcome.divergences.append(
                    f"outcome.{key}: {base_name}={base_out.get(key)!r} "
                    f"{other_name}={other_out.get(key)!r}")
        if not base_ok or "exception" in other_out:
            continue
        if base.stats.instructions != other.stats.instructions:
            outcome.divergences.append(
                f"instructions: {base_name}={base.stats.instructions} "
                f"{other_name}={other.stats.instructions}")
        _diff_digests(base_digest, architectural_digest(other),
                      base_name, other_name, outcome.divergences)
    return outcome


def run_seeds(seeds, params: Optional[MachineParams] = None,
              engines: Tuple[str, ...] = DEFAULT_ENGINES,
              timings: Tuple[str, ...] = ("inorder",),
              ) -> List[DifferentialOutcome]:
    """Differentially execute every seed; returns one outcome per seed."""
    return [run_differential(seed, params=params, engines=engines,
                             timings=timings)
            for seed in seeds]
