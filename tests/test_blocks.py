"""Superblock engine: backend conformance, formation, and coherence.

Pins down the ``blocks`` execution backend introduced with the
:class:`~repro.cpu.machine.ExecutionBackend` API:

* every named engine constructs through :func:`create_backend` and
  conforms to the protocol; unknown names are rejected;
* hot straight-line runs compile into superblocks whose architectural
  *and* timing effects are bit-identical to the staged interpreter,
  including mid-block faults;
* code writes through ``cpu._code`` drop every compiled block covering
  the patched address (self-modifying code stays coherent);
* speculation windows never open inside a block, and the blocks engine
  stays off the deepcopy path;
* the three-way fuzz matrix (staged / blocks / reference) agrees on
  full architectural state.
"""

import copy
import dataclasses
import unittest.mock

import pytest

import repro.cpu.blocks as blocks_mod
from repro.core import ImplicitCodeRegion
from repro.cpu import Cpu
from repro.cpu.blocks import Superblock
from repro.cpu.machine import (
    DEFAULT_ENGINE,
    ENGINES,
    ExecutionBackend,
    create_backend,
    default_engine,
)
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AccessKind, AddressSpace, Process, Prot
from repro.params import MachineParams
from repro.verify.fuzz_isa import run_seeds
from repro.verify.reference import ReferenceCpu

UNMAPPED = 0x66_0000
HEAP = 0x10_0000


@pytest.fixture
def params():
    return MachineParams()


@pytest.fixture
def eager(monkeypatch):
    """Compile on the second visit: no warmup, deterministic tests."""
    monkeypatch.setattr(blocks_mod, "HOT_THRESHOLD", 1)
    monkeypatch.setattr(blocks_mod, "COMPILE_VISIT_BUDGET", 0)


def make_cpu(params, engine="blocks"):
    mem = AddressSpace(params)
    cpu = Cpu(params, memory=mem, engine=engine)
    mem.mmap(1 << 16, Prot.rw(), addr=HEAP)
    stack = mem.mmap(1 << 16, Prot.rw(), addr=0x7F_0000)
    cpu.regs.write(Reg.RSP, stack + (1 << 16) - 64)
    return cpu


def _hot_loop(iterations=200):
    """A counted loop whose body is a straight block-safe run."""
    asm = Assembler()
    asm.mov(Reg.RAX, Imm(0))
    asm.mov(Reg.RBX, Imm(HEAP))
    asm.mov(Reg.RCX, Imm(iterations))
    asm.label("loop")
    asm.mov(Reg.RDX, Mem(base=Reg.RBX, disp=16))
    asm.add(Reg.RAX, Reg.RDX)
    asm.add(Reg.RAX, Imm(3))
    asm.mov(Mem(base=Reg.RBX, disp=16), Reg.RAX)
    asm.dec(Reg.RCX)
    asm.jne("loop")
    asm.hlt()
    return asm.assemble()


def _digest(cpu):
    f = cpu.regs.flags
    return {
        "regs": dict(cpu.regs.regs),
        "flags": (f.zf, f.sf, f.cf, f.of),
        "rip": cpu.regs.rip,
        "instructions": cpu.stats.instructions,
        "cycles": cpu.stats.cycles,
        "loads": cpu.stats.loads,
        "stores": cpu.stats.stores,
        "l1d_hits": cpu.caches.l1d._hits,
        "l1i_hits": cpu.caches.l1i._hits,
        "tlb_hits": cpu.tlb._hits,
    }


class TestBackendApi:
    def test_every_engine_conforms(self, params):
        for engine in ENGINES:
            backend = create_backend(engine, params=params)
            assert isinstance(backend, ExecutionBackend)
            assert backend.engine == engine

    def test_reference_engine_is_the_oracle(self, params):
        assert isinstance(create_backend("reference", params=params),
                          ReferenceCpu)
        assert not isinstance(create_backend("blocks", params=params),
                              ReferenceCpu)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            create_backend("threaded-jit")
        with pytest.raises(ValueError, match="unknown engine"):
            Cpu(engine="Staged")

    def test_default_engine_scoping(self, params):
        assert Cpu(params).engine == DEFAULT_ENGINE == "blocks"
        with default_engine("staged"):
            assert Cpu(params).engine == "staged"
            assert Cpu(params, engine="blocks").engine == "blocks"
        assert Cpu(params).engine == DEFAULT_ENGINE

    def test_staged_engine_has_no_block_cache(self, params):
        assert Cpu(params, engine="staged")._blocks is None
        assert Cpu(params, engine="blocks")._blocks is not None


class TestBlockFormation:
    def test_hot_loop_compiles_and_matches_staged(self, params):
        program = _hot_loop(1200)
        results = {}
        for engine in ("staged", "blocks"):
            cpu = make_cpu(params, engine)
            cpu.load_program(program)
            assert cpu.run(program.base).reason == "hlt"
            results[engine] = _digest(cpu)
            if engine == "blocks":
                stats = cpu._blocks.stats()
                assert stats.compiled >= 1
                assert stats.executions > 0
                assert stats.block_instructions > 0
        assert results["staged"] == results["blocks"]

    def test_cold_code_never_compiles(self, params):
        # 3 visits < HOT_THRESHOLD (4): formation never even walks.
        program = _hot_loop(3)
        cpu = make_cpu(params, "blocks")
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"
        assert cpu._blocks.compiled == 0

    def test_short_runs_negative_cached(self, params, eager):
        # A 1-instruction body (below MIN_BLOCK_OPS) caches a None
        # sentinel instead of re-walking every visit.
        asm = Assembler()
        asm.mov(Reg.RCX, Imm(50))
        asm.label("loop")
        asm.dec(Reg.RCX)
        asm.jne("loop")
        asm.hlt()
        program = asm.assemble()
        cpu = make_cpu(params, "blocks")
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"
        # The loop entry's run is a lone ``dec``: too short to compile,
        # so the table holds a None sentinel for it.
        entry = program.labels["loop"]
        assert cpu._blocks.table.get(entry, "absent") is None

    def test_mid_block_fault_matches_staged(self, params, eager):
        # rbx walks off the 64 KiB heap mapping: the load faults on a
        # later iteration, *inside* the compiled block under ``blocks``.
        asm = Assembler()
        asm.mov(Reg.RAX, Imm(0))
        asm.mov(Reg.RBX, Imm(HEAP + (1 << 16) - 4 * 0x1000))
        asm.mov(Reg.RCX, Imm(64))
        asm.label("loop")
        asm.mov(Reg.RDX, Mem(base=Reg.RBX, disp=0))
        asm.add(Reg.RAX, Reg.RDX)
        asm.add(Reg.RBX, Imm(0x1000))
        asm.dec(Reg.RCX)
        asm.jne("loop")
        asm.hlt()
        program = asm.assemble()
        results = {}
        for engine in ("staged", "blocks"):
            cpu = make_cpu(params, engine)
            cpu.load_program(program)
            result = cpu.run(program.base)
            assert result.reason == "fault"
            assert result.fault.kind == "page"
            assert result.fault.addr == HEAP + (1 << 16)
            results[engine] = _digest(cpu)
        assert results["staged"] == results["blocks"]


class TestInvalidation:
    def test_code_patch_drops_covering_block(self, params, eager):
        program = _hot_loop(40)
        cpu = make_cpu(params, "blocks")
        cpu.load_program(program)
        assert cpu.run(program.base).reason == "hlt"
        cache = cpu._blocks
        assert cache.compiled >= 1
        entry = program.labels["loop"]
        assert isinstance(cache.table.get(entry), Superblock)

        # Patch an instruction *inside* the block (not its entry).
        patched = Assembler()
        patched.add(Reg.RAX, Imm(1000))
        replacement = patched.assemble().instructions[0]
        body_second = program.instructions[4].addr  # add rax, rdx
        cpu._code[body_second] = replacement
        assert cache.invalidated >= 1
        assert entry not in cache.table

        # Semantics after the patch still match a staged run of the
        # same patched program.
        staged = make_cpu(params, "staged")
        staged.load_program(program)
        staged._code[body_second] = replacement
        cpu.regs.write(Reg.RAX, 0)
        staged.regs.write(Reg.RAX, 0)
        assert cpu.run(program.base).reason == "hlt"
        assert staged.run(program.base).reason == "hlt"
        assert cpu.regs.read(Reg.RAX) == staged.regs.read(Reg.RAX)

    def test_clear_resets_warmup_state(self, params, eager):
        program = _hot_loop(40)
        cpu = make_cpu(params, "blocks")
        cpu.load_program(program)
        cpu.run(program.base)
        cache = cpu._blocks
        assert cache.table
        cache.clear()
        assert not cache.table and not cache.owners
        assert not cache.heat and not cache.goal


#: VM changes to the heap page a compiled block loads from and stores
#: to; each must reach the block through the grant cache's
#: invalidation, faulting exactly where the staged loop faults.
def _revoke_none(cpu):
    cpu.mem.mprotect(HEAP, 0x1000, Prot.NONE)


def _revoke_write(cpu):
    cpu.mem.mprotect(HEAP, 0x1000, Prot.READ)


def _unmap(cpu):
    cpu.mem.munmap(HEAP, 0x1000)


def _deny_pkey(cpu):
    cpu.process.pkru = 0b01 << 2            # access-disable for key 1
    cpu.mem.set_pkey(HEAP, 0x1000, 1)


class TestGrantCacheCoherence:
    @pytest.mark.parametrize("revoke", [_revoke_none, _revoke_write,
                                        _unmap, _deny_pkey])
    def test_vm_change_under_compiled_block(self, params, eager, revoke):
        program = _hot_loop(200)
        results = {}
        for engine in ("staged", "blocks"):
            mem = AddressSpace(params)
            cpu = Cpu(params, process=Process(pid=1, address_space=mem),
                      engine=engine)
            mem.mmap(1 << 16, Prot.rw(), addr=HEAP)
            cpu.load_program(program)
            assert cpu.run(program.base).reason == "hlt"
            assert HEAP // 0x1000 in mem.grants[AccessKind.WRITE]
            revoke(cpu)
            if engine == "blocks":
                assert isinstance(cpu._blocks.table.get(program.base),
                                  Superblock)
                executions = cpu._blocks.executions
            result = cpu.run(program.base)
            assert result.reason == "fault"
            assert result.fault.kind == "page"
            if engine == "blocks":          # the fault unwound a block
                assert cpu._blocks.executions == executions + 1
            results[engine] = (result.fault, result.rip,
                               dataclasses.asdict(cpu.stats),
                               _digest(cpu))
        assert results["staged"] == results["blocks"]

    def test_straddle_past_granted_page_matches_staged(self, params,
                                                       eager):
        # Each iteration's first load grants its page; the second reads
        # 8 bytes at offset 0xffc of the same page, which straddles off
        # the end of the heap mapping on the last page.
        asm = Assembler()
        asm.mov(Reg.RBX, Imm(HEAP + (1 << 16) - 8 * 0x1000))
        asm.mov(Reg.RCX, Imm(16))
        asm.label("loop")
        asm.mov(Reg.RDX, Mem(base=Reg.RBX, disp=0))
        asm.mov(Reg.RSI, Mem(base=Reg.RBX, disp=0xFFC))
        asm.add(Reg.RBX, Imm(0x1000))
        asm.dec(Reg.RCX)
        asm.jne("loop")
        asm.hlt()
        program = asm.assemble()
        results = {}
        for engine in ("staged", "blocks"):
            cpu = make_cpu(params, engine)
            cpu.load_program(program)
            result = cpu.run(program.base)
            assert result.reason == "fault"
            assert result.fault.addr == HEAP + (1 << 16)
            assert "straddles" in result.fault.detail
            results[engine] = (result.fault, result.rip, _digest(cpu))
        assert results["staged"] == results["blocks"]


class TestSpeculationAndJournal:
    def test_journal_refuses_to_open_inside_block(self, params):
        cpu = make_cpu(params, "blocks")
        cpu._in_block = True
        with pytest.raises(RuntimeError):
            cpu._journal.open(cpu)

    def test_speculative_loop_matches_staged(self, params, eager):
        # A mispredicting loop speculates past the block's branch; the
        # wrong path must single-step and roll back identically.
        program = _hot_loop(300)
        results = {}
        for engine in ("staged", "blocks"):
            cpu = make_cpu(params, engine)
            cpu.load_program(program)
            assert cpu.run(program.base).reason == "hlt"
            assert cpu.stats.speculative_instructions > 0
            results[engine] = _digest(cpu)
        assert results["staged"] == results["blocks"]

    def test_no_deepcopy_in_blocks_engine(self, params, eager):
        cpu = make_cpu(params, "blocks")
        program = _hot_loop(300)
        cpu.load_program(program)
        real_deepcopy = copy.deepcopy
        with unittest.mock.patch("copy.deepcopy",
                                 side_effect=real_deepcopy) as spy:
            assert cpu.run(program.base).reason == "hlt"
        assert cpu._blocks.compiled >= 1
        assert spy.call_count == 0


class TestHfiCoverage:
    def test_covered_requires_full_single_region_match(self):
        blk = Superblock(run=None, n=3, first=0x40_0000, last=0x40_0010,
                         source="")
        covering = ImplicitCodeRegion.covering(0x40_0000, 1 << 16)
        assert blk.covered([covering])
        assert blk.covered([None, covering])
        # First-match semantics: an earlier partially-overlapping
        # region wins and forces single-stepping.
        partial = ImplicitCodeRegion.covering(0x40_0000, 8)
        assert not blk.covered([partial, covering])
        assert not blk.covered([])
        no_exec = dataclasses.replace(
            ImplicitCodeRegion.covering(0x40_0000, 1 << 16),
            permission_exec=False)
        assert not blk.covered([no_exec])


class TestDifferentialMatrix:
    def test_three_way_fuzz_agrees(self, params, eager):
        outcomes = run_seeds(range(25), params=params,
                             engines=("staged", "blocks", "reference"))
        bad = [o for o in outcomes if not o.ok]
        assert not bad, "\n".join(
            f"seed {o.seed}: {line}" for o in bad
            for line in o.divergences[:4])
