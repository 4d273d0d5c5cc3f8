"""The one Spectre experiment every PoC in this package runs (§5.3).

A variant contributes only its victim program and the way it invokes
it; :class:`SpectreHarness` owns everything else:

* the memory layout — victim data, probe array, host secret, stack and
  HFI descriptors at fixed bases, each its own mapping;
* the HFI sandbox: code regions in slots 0.., data/probe/stack in
  slots 2-4, descriptors 24 bytes apart with the sandbox descriptor
  after them, entered by the victim's prologue and left by its
  ``hfi_exit; hlt`` epilogue.  The secret is never covered — the host
  protects it exactly as the paper describes;
* the flush+reload cache channel.  The transmitter is a speculative
  load of ``probe + secret * stride``; the receiver flushes the probe
  array, runs the victim, then times one load per slot as an
  ``rdtsc``-bracketed loop would (base cost + cache latency).  A slot
  at or under the L2-hit threshold was filled during speculation, and
  the fastest such slot is the leaked byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Dict, List, Optional, Sequence

from ..core import ImplicitCodeRegion, ImplicitDataRegion, SandboxFlags
from ..core.encoding import encode_region, encode_sandbox
from ..cpu.machine import Cpu
from ..isa import Assembler, Imm, Mem, Program, Reg
from ..os.address_space import AddressSpace, Prot
from ..params import MachineParams

CODE_BASE = 0x40_0000
DATA_BASE = 0x10_0000       # victim data (sandbox-visible)
PROBE_BASE = 0x20_0000      # probe array (sandbox-visible)
SECRET_BASE = 0x30_0000     # host secret (NOT covered by HFI regions)
STACK_BASE = 0x0F_0000
DESC_BASE = 0x0E_0000
REGION_BYTES = 1 << 16
STACK_TOP = STACK_BASE + REGION_BYTES - 64

#: One byte value per cache-line-disjoint slot (the classic 512-byte
#: stride defeats adjacent-line prefetching).
PROBE_STRIDE = 512
PROBE_SLOTS = 256
PROBE_BYTES = PROBE_STRIDE * PROBE_SLOTS + 4096

#: Where the disclosure gadget finds its pointer to the secret.
SECRET_PTR_ADDR = DATA_BASE + 8


@dataclass
class AttackResult:
    """Outcome of one leak attempt."""

    latencies: List[int]
    threshold: int
    hits: Dict[int, int]
    leaked_value: Optional[int]

    @property
    def leaked(self) -> bool:
        return self.leaked_value is not None


class SpectreHarness:
    """Address space, CPU, HFI sandbox and cache channel of one PoC."""

    def __init__(self, params: MachineParams, protect_with_hfi: bool,
                 code_bases: Sequence[int] = (CODE_BASE,)):
        self.params = params
        self.protect_with_hfi = protect_with_hfi
        self.space = AddressSpace(params)
        self.cpu = Cpu(params, memory=self.space)
        if not isinstance(self.cpu, Cpu):
            # The reference oracle models no caches: no channel to time.
            raise ValueError(
                f"the Spectre harness needs a cache model; engine "
                f"{self.cpu.engine!r} has none (use staged or blocks)")
        for base, size, name in (
                (DATA_BASE, REGION_BYTES, "victim-data"),
                (PROBE_BASE, PROBE_BYTES, "probe"),
                (SECRET_BASE, 1 << 12, "secret"),
                (STACK_BASE, REGION_BYTES, "stack"),
                (DESC_BASE, 1 << 12, "descriptors")):
            self.space.mmap(size, Prot.rw(), addr=base, name=name)
        self._slots: List[int] = []
        if protect_with_hfi:
            self._stage_descriptors(code_bases)

    def _stage_descriptors(self, code_bases: Sequence[int]) -> None:
        regions = [ImplicitCodeRegion.covering(base, REGION_BYTES)
                   for base in code_bases]
        regions += [ImplicitDataRegion.covering(base, size, read=True,
                                                write=True)
                    for base, size in ((DATA_BASE, REGION_BYTES),
                                       (PROBE_BASE, PROBE_BYTES),
                                       (STACK_BASE, REGION_BYTES))]
        self._slots = list(range(len(code_bases))) + [2, 3, 4]
        for i, region in enumerate(regions):
            self.space.write_bytes(DESC_BASE + 24 * i, encode_region(region))
        self.space.write_bytes(DESC_BASE + 24 * len(regions), encode_sandbox(
            SandboxFlags(is_hybrid=True, is_serialized=True)))

    # ------------------------------------------------------------------
    # victim construction
    # ------------------------------------------------------------------
    def victim_assembler(self) -> Assembler:
        """An assembler at CODE_BASE that has already entered the
        sandbox (when protected)."""
        asm = Assembler(base=CODE_BASE)
        if self.protect_with_hfi:
            for i, slot in enumerate(self._slots):
                asm.mov(Reg.RDI, Imm(DESC_BASE + 24 * i))
                asm.hfi_set_region(slot, Reg.RDI)
            asm.mov(Reg.RDI, Imm(DESC_BASE + 24 * len(self._slots)))
            asm.hfi_enter(Reg.RDI)
        return asm

    def emit_exit(self, asm: Assembler) -> None:
        """Leave the sandbox (when protected) and halt."""
        if self.protect_with_hfi:
            asm.hfi_exit()
        asm.hlt()

    @staticmethod
    def emit_transmit(asm: Assembler) -> None:
        """Touch ``probe[RAX * PROBE_STRIDE]``: the cache-channel send."""
        asm.shl(Reg.RAX, Imm(9))
        asm.mov(Reg.RSI, Mem(base=Reg.RAX, disp=PROBE_BASE, size=1))

    @classmethod
    def emit_gadget(cls, asm: Assembler) -> None:
        """The disclosure gadget: transmit the byte SECRET_PTR_ADDR
        points to."""
        asm.mov(Reg.R9, Mem(disp=SECRET_PTR_ADDR))
        asm.mov(Reg.RAX, Mem(base=Reg.R9, size=1))
        cls.emit_transmit(asm)

    def load(self, entry: Program, *others: Program) -> None:
        """Load the programs; runs start at ``entry``."""
        self._entry = entry.base
        for program in (entry,) + others:
            self.cpu.load_program(program)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_victim(self, cells: Dict[int, int]) -> None:
        """Write the victim's 8-byte inputs, then run it on a fresh
        stack."""
        for addr, value in cells.items():
            self.space.write(addr, value, 8)
        self.cpu.regs.write(Reg.RSP, STACK_TOP)
        self.cpu.run(self._entry, max_instructions=200)

    def plant_secret(self, value: int) -> int:
        """Write the secret byte into host memory; returns its address."""
        self.space.write(SECRET_BASE, value, 1)
        return SECRET_BASE

    def leak(self, invoke: Callable[[], None],
             ignore: Container[int] = ()) -> AttackResult:
        """Flush the probe, ``invoke`` the victim, reload every slot and
        pick the fastest hit outside ``ignore`` (bytes the training
        runs touched architecturally)."""
        caches, base_cycles = self.cpu.caches, self.params.base_cycles
        slots = [PROBE_BASE + value * PROBE_STRIDE
                 for value in range(PROBE_SLOTS)]
        for addr in slots:
            caches.flush_line(addr)
        invoke()
        # Each slot is timed before its own fill, so one pass is sound.
        latencies = [base_cycles + caches.data_access(addr)
                     for addr in slots]
        threshold = self.params.l2_hit_cycles + base_cycles + 1
        hits = {value: lat for value, lat in enumerate(latencies)
                if lat <= threshold}
        candidates = {v: lat for v, lat in hits.items() if v not in ignore}
        leaked = (min(candidates, key=candidates.get) if candidates
                  else None)
        return AttackResult(latencies=latencies, threshold=threshold,
                            hits=hits, leaked_value=leaked)
