"""Unit tests for the virtual-memory substrate."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.os import (
    PAGE,
    AccessKind,
    AddressSpace,
    OutOfAddressSpace,
    PageFault,
    Prot,
)
from repro.params import MachineParams


@pytest.fixture
def space():
    return AddressSpace(MachineParams())


class TestMmap:
    def test_mmap_returns_page_aligned(self, space):
        addr = space.mmap(100, Prot.rw())
        assert addr % PAGE == 0

    def test_mmap_fixed_placement(self, space):
        addr = space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        assert addr == 0x7000_0000

    def test_mmap_overlap_rejected(self, space):
        space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        with pytest.raises(ValueError):
            space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)

    def test_huge_reservation_is_cheap(self, space):
        # Wasm's 8 GiB guard scheme must not materialize pages.
        addr = space.mmap(8 << 30, Prot.NONE)
        assert space.present_pages == 0
        assert space.reserved_bytes >= 8 << 30
        assert space.find_vma(addr + (4 << 30)) is not None

    def test_va_exhaustion(self):
        space = AddressSpace(MachineParams(), va_bits=33)  # 8 GiB VA
        space.mmap(4 << 30, Prot.NONE)
        with pytest.raises(OutOfAddressSpace):
            space.mmap(8 << 30, Prot.NONE)

    def test_munmap_frees_range(self, space):
        addr = space.mmap(4 * PAGE, Prot.rw())
        space.write(addr, 0xAB, 1)
        space.munmap(addr, 4 * PAGE)
        assert space.find_vma(addr) is None
        assert space.present_pages == 0


class TestMprotect:
    def test_mprotect_changes_permissions(self, space):
        addr = space.mmap(4 * PAGE, Prot.NONE)
        with pytest.raises(PageFault):
            space.write(addr, 1)
        space.mprotect(addr, PAGE, Prot.rw())
        space.write(addr, 1)
        with pytest.raises(PageFault):
            space.write(addr + PAGE, 1)  # rest still PROT_NONE

    def test_mprotect_splits_vma(self, space):
        addr = space.mmap(4 * PAGE, Prot.NONE, name="heap")
        space.mprotect(addr + PAGE, PAGE, Prot.rw())
        vmas = [v for v in space.vmas() if v.name == "heap"]
        assert len(vmas) == 3

    def test_mprotect_unmapped_raises(self, space):
        with pytest.raises(PageFault):
            space.mprotect(0x9999_0000, PAGE, Prot.rw())

    def test_mprotect_cost_scales_with_pages(self, space):
        addr = space.mmap(1024 * PAGE, Prot.NONE)
        small = space.mprotect(addr, PAGE, Prot.rw())
        large = space.mprotect(addr, 1024 * PAGE, Prot.rw())
        assert large > small


class TestMadvise:
    def test_dontneed_zeroes_contents(self, space):
        addr = space.mmap(2 * PAGE, Prot.rw())
        space.write(addr, 0x1234_5678)
        space.madvise_dontneed(addr, 2 * PAGE)
        assert space.read(addr) == 0

    def test_cost_proportional_to_present_pages(self, space):
        addr = space.mmap(512 * PAGE, Prot.rw())
        cold = space.madvise_dontneed(addr, 512 * PAGE)
        for i in range(256):
            space.write(addr + i * PAGE, 1, 1)
        warm = space.madvise_dontneed(addr, 512 * PAGE)
        assert warm > cold

    def test_guard_pages_still_cost(self, space):
        """Reserved-but-untouched ranges pay a walk cost — the reason
        non-HFI batched teardown loses (§6.3.1)."""
        heap = space.mmap(16 * PAGE, Prot.rw())
        space.mmap(4096 * PAGE, Prot.NONE, addr=heap + 16 * PAGE)
        narrow = space.madvise_dontneed(heap, 16 * PAGE)
        wide = space.madvise_dontneed(heap, (16 + 4096) * PAGE)
        assert wide > narrow


class TestAccess:
    def test_read_write_roundtrip(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        space.write(addr + 100, 0xDEAD_BEEF_CAFE, 8)
        assert space.read(addr + 100, 8) == 0xDEAD_BEEF_CAFE

    def test_cross_page_access(self, space):
        addr = space.mmap(2 * PAGE, Prot.rw())
        space.write(addr + PAGE - 4, 0x1122334455667788, 8)
        assert space.read(addr + PAGE - 4, 8) == 0x1122334455667788

    def test_unmapped_read_faults(self, space):
        with pytest.raises(PageFault) as excinfo:
            space.read(0x5000_0000)
        assert excinfo.value.kind is AccessKind.READ

    def test_write_to_readonly_faults(self, space):
        addr = space.mmap(PAGE, Prot.READ)
        with pytest.raises(PageFault):
            space.write(addr, 1)

    def test_exec_check(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        with pytest.raises(PageFault):
            space.check_access(addr, 1, AccessKind.EXEC)

    def test_straddle_into_guard_faults(self, space):
        heap = space.mmap(PAGE, Prot.rw(), addr=0x7000_0000)
        space.mmap(PAGE, Prot.NONE, addr=0x7000_0000 + PAGE)
        with pytest.raises(PageFault):
            space.write(heap + PAGE - 4, 1, 8)

    def test_bytes_roundtrip(self, space):
        addr = space.mmap(PAGE, Prot.rw())
        space.write_bytes(addr, b"hello world")
        assert space.read_bytes(addr, 11) == b"hello world"


# ----------------------------------------------------------------------
# grant cache: a cached check_access must equal the full check
# ----------------------------------------------------------------------
WINDOW = 0x7000_0000          # probes and VM ops stay in 12 pages here
WINDOW_PAGES = 12
PROTS = [Prot.NONE, Prot.READ, Prot.rw(), Prot.rx(),
         Prot.READ | Prot.WRITE | Prot.EXEC]
REQUIRED = {AccessKind.READ: Prot.READ, AccessKind.WRITE: Prot.WRITE,
            AccessKind.EXEC: Prot.EXEC}

first_page = st.integers(0, WINDOW_PAGES - 1)
pages = st.integers(1, 6)


def _outcome(space, addr, size, kind):
    try:
        return space.check_access(addr, size, kind)
    except PageFault as fault:
        return ("fault", fault.addr, fault.kind, fault.reason)


class GrantCacheMachine(RuleBasedStateMachine):
    """Random VM changes interleaved with access probes, run on a
    cached space and on an oracle whose cache is cleared before every
    probe (so it always takes the full check)."""

    def __init__(self):
        super().__init__()
        self.cached = AddressSpace(MachineParams())
        self.oracle = AddressSpace(MachineParams())
        self.grants = dict(self.cached.grants)

    @initialize(prots=st.lists(st.sampled_from(PROTS), min_size=3,
                               max_size=3))
    def layout(self, prots):
        # three 2-page mappings with holes between them
        for i, prot in enumerate(prots):
            self.mmap(4 * i, 2, prot)

    def _both(self, op, page, count, *args):
        for space in (self.cached, self.oracle):
            try:
                getattr(space, op)(WINDOW + page * PAGE, count * PAGE,
                                   *args)
            except (ValueError, PageFault):
                pass            # overlapping mmap / mprotect of a hole

    @rule(page=first_page, count=pages, prot=st.sampled_from(PROTS))
    def mmap(self, page, count, prot):
        for space in (self.cached, self.oracle):
            try:
                space.mmap(count * PAGE, prot, addr=WINDOW + page * PAGE)
            except ValueError:
                pass

    @rule(page=first_page, count=pages, prot=st.sampled_from(PROTS))
    def mprotect(self, page, count, prot):
        self._both("mprotect", page, count, prot)

    @rule(page=first_page, count=pages)
    def munmap(self, page, count):
        self._both("munmap", page, count)

    @rule(page=first_page, count=pages, pkey=st.integers(0, 3))
    def set_pkey(self, page, count, pkey):
        self._both("set_pkey", page, count, pkey)

    @rule(page=first_page, count=pages)
    def madvise_dontneed(self, page, count):
        self._both("madvise_dontneed", page, count)

    # Each probe sweeps one page: a one-byte access at its start warms
    # the cache, then every (offset, size) pair runs twice, the repeat
    # hitting the cache.  Offsets near the page end straddle into the
    # next page: mapped, guard or hole (the last page is always a hole).
    @rule(page=st.integers(0, WINDOW_PAGES),
          kind=st.sampled_from(list(AccessKind)))
    def probe(self, page, kind):
        base = WINDOW + page * PAGE
        accesses = [(base, 1)] + [
            (base + offset, size)
            for offset in (0, 8, 100, PAGE - 8, PAGE - 4, PAGE - 1)
            for size in (1, 2, 4, 8) for _ in range(2)]
        for addr, size in accesses:
            self.oracle._clear_grants()
            assert (_outcome(self.cached, addr, size, kind)
                    == _outcome(self.oracle, addr, size, kind))

    @invariant()
    def grants_are_live_and_keep_identity(self):
        assert self.cached.grants.keys() == self.grants.keys()
        for kind, granted in self.cached.grants.items():
            assert granted is self.grants[kind]
            for number, vma in granted.items():
                assert self.cached.find_vma(number * PAGE) == vma
                assert vma.prot & REQUIRED[kind]


TestGrantCacheDifferential = GrantCacheMachine.TestCase
TestGrantCacheDifferential.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)


class TestGrantCache:
    def test_every_vma_change_invalidates(self, space):
        addr = space.mmap(2 * PAGE, Prot.rw(), addr=WINDOW)
        read = space.grants[AccessKind.READ]
        space.check_access(addr, 8, AccessKind.READ)
        assert read
        space.madvise_dontneed(addr, PAGE)          # contents only
        assert read
        space.mprotect(addr, PAGE, Prot.NONE)
        assert not read and space.grants[AccessKind.READ] is read
        with pytest.raises(PageFault):
            space.check_access(addr, 8, AccessKind.READ)
        # unmapping a whole VMA removes it without inserting a remnant
        space.check_access(addr + PAGE, 8, AccessKind.READ)
        space.munmap(addr + PAGE, PAGE)
        with pytest.raises(PageFault, match="unmapped"):
            space.check_access(addr + PAGE, 8, AccessKind.READ)

    def test_non_canonical_and_negative_addresses_miss(self):
        space = AddressSpace(MachineParams(), va_bits=33)
        top = space.mmap(PAGE, Prot.rw(), addr=(1 << 33) - PAGE)
        space.check_access(top, 8, AccessKind.READ)
        for addr in (top + PAGE - 4, -8):
            with pytest.raises(PageFault) as excinfo:
                space.check_access(addr, 8, AccessKind.READ)
            assert excinfo.value.reason == "non-canonical address"
