"""Two-stage MMU: 2-D walks, EPT violations, dirty logging, walk costs.

Every test runs against both profiles of :class:`TwoStageMMU`
(``NestedMMU`` and ``HModeMMU``). The profile-specific tests at the end
pin the two things the profiles differ in: the price of a stage-2
reference, and whether the walker sets stage-2 A/D bits.
"""

import pytest

from repro.core.vm import GuestMemory
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.mmu import HModeMMU, NestedMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    make_pte,
    split_vaddr,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SIZE

GUEST_PAGES = 64
ROOT_GPA = 0x10000
PT_GPA = 0x11000


#: Stage-2 references priced apart from guest entry reads, so a cycle
#: count tells which weight each reference was charged at.
SPLIT_COSTS = CostModel(mem_ref_cycles=30, gstage_ref_cycles=7)

PROFILES = (NestedMMU, HModeMMU)


class NestedEnv:
    def __init__(self, mmu_cls, prealloc=True, costs=None):
        self.pm = PhysicalMemory(4 * MIB)
        self.alloc = FrameAllocator(self.pm, reserved_frames=8)
        self.gm = GuestMemory(self.pm, GUEST_PAGES)
        self.mmu = mmu_cls(self.pm, self.alloc, self.gm, costs or CostModel())
        if prealloc:
            for gfn in range(GUEST_PAGES):
                hfn = self.alloc.alloc()
                self.gm.map_page(gfn, hfn)
                self.mmu.ept_map(gfn, hfn)

    def guest_map(self, va, gfn, flags):
        dir_idx, tbl_idx, _ = split_vaddr(va)
        pde_gpa = ROOT_GPA + dir_idx * 4
        pde = self.gm.read_u32(pde_gpa)
        if not pde & PTE_PRESENT:
            self.gm.write_u32(
                pde_gpa,
                make_pte(PT_GPA >> 12, PTE_PRESENT | PTE_WRITABLE | PTE_USER),
            )
        self.gm.write_u32(PT_GPA + tbl_idx * 4,
                          make_pte(gfn, flags | PTE_PRESENT))


def envs(**kwargs):
    """One fresh environment per two-stage profile."""
    return [NestedEnv(mmu_cls, **kwargs) for mmu_cls in PROFILES]


def test_real_mode_goes_through_ept():
    for env in envs():
        pa, cycles = env.mmu.translate(0x2000, AccessType.READ, user=False)
        assert pa == env.gm.gpa_to_hpa(0x2000)
        assert cycles > 0  # one EPT walk


def test_two_dimensional_walk_cost():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        costs = env.mmu.costs
        pa, cycles = env.mmu.translate(0x40000050, AccessType.READ, user=True)
        assert pa == (env.gm.map[5] << 12) | 0x50
        # 2 guest levels x (2 EPT + 1 entry read) + final 2 EPT refs = 8,
        # plus A-bit write-backs go through 2-ref EPT walks each (PDE+PTE).
        base_refs = 8
        ad_refs = 4  # first touch sets A on both guest levels
        assert cycles == costs.tlb_hit_cycles + (base_refs + ad_refs) * costs.mem_ref_cycles
        # Second access hits the TLB.
        _, c2 = env.mmu.translate(0x40000054, AccessType.READ, user=True)
        assert c2 == costs.tlb_hit_cycles


def test_guest_ad_bits_maintained():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
        _d, tbl_idx, _ = split_vaddr(0x40000000)
        pte = env.gm.read_u32(PT_GPA + tbl_idx * 4)
        assert pte & PTE_ACCESSED and not pte & PTE_DIRTY
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
        pte = env.gm.read_u32(PT_GPA + tbl_idx * 4)
        assert pte & PTE_DIRTY


def test_guest_fault_is_guest_visible():
    for env in envs():
        env.mmu.set_root(ROOT_GPA)
        with pytest.raises(PageFault):
            env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_guest_permission_checks():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE)  # kernel only
        env.mmu.set_root(ROOT_GPA)
        with pytest.raises(PageFault):
            env.mmu.translate(0x40000000, AccessType.READ, user=True)
        env.mmu.translate(0x40000000, AccessType.READ, user=False)


def test_ept_violation_on_unmapped_gfn():
    for env in envs(prealloc=False):
        with pytest.raises(VMExit) as info:
            env.mmu.translate(0x3000, AccessType.READ, user=False)
        assert info.value.reason is ExitReason.PAGE_FAULT
        assert info.value.qual("kind") == "ept_violation"
        assert info.value.qual("gpa") == 0x3000


def test_dirty_log_protect_and_unprotect():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
        env.mmu.write_protect_gfn(5)
        with pytest.raises(VMExit) as info:
            env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
        assert info.value.qual("kind") == "dirty_log"
        assert info.value.qual("gfn") == 5
        # reads still fine
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
        env.mmu.unprotect_gfn(5)
        env.mmu.translate(0x40000000, AccessType.WRITE, user=True)


def test_dirty_logging_catches_guest_pt_pages_via_ad_writes():
    # Setting the guest A bit writes guest PT memory, which must respect
    # EPT write protection -- PT pages get dirty-logged automatically.
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        pt_gfn = PT_GPA >> 12
        env.mmu.write_protect_gfn(pt_gfn)
        with pytest.raises(VMExit) as info:
            env.mmu.translate(0x40000000, AccessType.READ, user=True)
        assert info.value.qual("kind") == "dirty_log"
        assert info.value.qual("gfn") == pt_gfn


def test_ept_unmap_forces_refault():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
        env.mmu.ept_unmap(5)
        with pytest.raises(VMExit):
            env.mmu.translate(0x40000000, AccessType.READ, user=True)


def test_set_root_flushes_tlb():
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
        assert len(env.mmu.tlb) > 0
        env.mmu.set_root(ROOT_GPA)
        assert len(env.mmu.tlb) == 0


def test_lazy_write_caching_after_dirty_round():
    # After a read fill, the TLB entry is not write-permitting, so the
    # next write re-walks (and can be caught by dirty logging).
    for env in envs():
        env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
        env.mmu.set_root(ROOT_GPA)
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
        env.mmu.write_protect_gfn(5)
        with pytest.raises(VMExit):
            env.mmu.translate(0x40000000, AccessType.WRITE, user=True)


@pytest.mark.parametrize("mmu_cls", PROFILES, ids=["nested", "hmode"])
def test_stall_fn_charged_once_per_miss(mmu_cls):
    env = NestedEnv(mmu_cls)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)  # sets A bits
    env.mmu.flush()
    _, plain = env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.flush()
    calls = []
    env.mmu.stall_fn = lambda: calls.append(1) or 100
    _, stalled = env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert calls == [1]
    assert stalled == plain + 100
    _, hit = env.mmu.translate(0x40000004, AccessType.READ, user=True)
    assert calls == [1]
    assert hit == env.mmu.costs.tlb_hit_cycles


# -- profile-specific expectations --------------------------------------------


@pytest.mark.parametrize("mmu_cls, s2_ref", [
    (NestedMMU, SPLIT_COSTS.mem_ref_cycles),
    (HModeMMU, SPLIT_COSTS.gstage_ref_cycles),
], ids=["nested", "hmode"])
def test_walk_cost_prices_stage2_refs_per_profile(mmu_cls, s2_ref):
    env = NestedEnv(mmu_cls, costs=SPLIT_COSTS)
    # Guest paging off: one stage-2 walk, two references.
    _, cycles = env.mmu.translate(0x2000, AccessType.READ, user=False)
    assert cycles == SPLIT_COSTS.tlb_hit_cycles + 2 * s2_ref

    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    _, cycles = env.mmu.translate(0x40000050, AccessType.READ, user=True)
    # 2 guest entry reads at mem_ref; stage-2: 2 per guest level, 2 for
    # the data page and 2 per guest A-bit write-back (PDE and PTE).
    assert cycles == (SPLIT_COSTS.tlb_hit_cycles
                      + 2 * SPLIT_COSTS.mem_ref_cycles + 10 * s2_ref)


def _s2_flags(env, gfn):
    return env.mmu.ept.lookup(gfn << 12) & 0xFFF


def _s2_pde(env, gfn):
    dir_idx, _, _ = split_vaddr(gfn << 12)
    return env.pm.read_u32(env.mmu.ept.root_pa + dir_idx * 4)


def test_hmode_sets_stage2_ad_bits():
    env = NestedEnv(HModeMMU)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert _s2_flags(env, 5) & PTE_ACCESSED
    assert not _s2_flags(env, 5) & PTE_DIRTY
    assert _s2_flags(env, ROOT_GPA >> 12) & PTE_ACCESSED
    assert _s2_pde(env, 5) & PTE_ACCESSED
    assert not _s2_flags(env, 6) & PTE_ACCESSED  # untouched frame
    env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    assert _s2_flags(env, 5) & PTE_DIRTY
    # The guest D-bit write-back is a stage-2 write to the PT page.
    assert _s2_flags(env, PT_GPA >> 12) & PTE_DIRTY


def test_nested_leaves_stage2_entries_untouched():
    env = NestedEnv(NestedMMU)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    before = list(env.mmu.ept.mappings())
    pde_before = _s2_pde(env, 5)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.translate(0x40000000, AccessType.WRITE, user=True)
    assert list(env.mmu.ept.mappings()) == before
    assert _s2_pde(env, 5) == pde_before


@pytest.mark.parametrize("mmu_cls", PROFILES, ids=["nested", "hmode"])
def test_drop_gfn_unmaps_once(mmu_cls):
    env = NestedEnv(mmu_cls)
    env.guest_map(0x40000000, gfn=5, flags=PTE_WRITABLE | PTE_USER)
    env.mmu.set_root(ROOT_GPA)
    env.mmu.translate(0x40000000, AccessType.READ, user=True)
    env.mmu.drop_gfn(5)
    assert env.mmu.ept.lookup(5 << 12) is None
    assert len(env.mmu.tlb) == 0
    env.mmu.drop_gfn(5)  # already unmapped: a no-op
    with pytest.raises(VMExit) as info:
        env.mmu.translate(0x40000000, AccessType.READ, user=True)
    assert info.value.qual("kind") == "ept_violation"
    assert info.value.qual("gfn") == 5
