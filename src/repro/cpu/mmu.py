"""MMU interface between the interpreter and the memory system.

The CPU calls :meth:`MMUBase.translate` for every fetch, load, and
store. Swapping the MMU object is how the hypervisor interposes on
address translation:

* :class:`BareMMU` -- native execution and hardware-assisted guests with
  nested paging disabled: walks the tables named by PTBR directly.
* :class:`TwoStageMMU` -- guest tables over a host-owned stage-2 table,
  in two profiles: :class:`NestedMMU` (EPT-style nested paging) and
  :class:`HModeMMU` (the H-mode extension's G-stage walk).
* ``ShadowMMU`` (in :mod:`repro.core.shadow`) -- VMM-built shadow
  tables.

``translate`` returns ``(physical_address, extra_cycles)``; it raises
:class:`repro.mem.paging.PageFault` for guest-visible faults and may
raise :class:`repro.cpu.exits.VMExit` for faults the VMM must service.
"""

from typing import Callable, Optional, Set, Tuple

from repro.cpu.exits import ExitReason, VMExit
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AccessType,
    AddressSpace,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_NOEXEC,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTableWalker,
    pte_frame,
    split_vaddr,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.mem.tlb import TLB
from repro.util.units import PAGE_SHIFT

_WD = PTE_WRITABLE | PTE_DIRTY


class MMUBase:
    """Abstract translation interface used by :class:`CPUCore`."""

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        """Translate ``va``; return (pa, cycles). May raise PageFault/VMExit."""
        raise NotImplementedError

    def set_root(self, root_pa: int) -> None:
        """Install a new page-table base (CSRW PTBR)."""
        raise NotImplementedError

    def invlpg(self, va: int) -> None:
        """Invalidate one TLB entry (INVLPG)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Invalidate the whole TLB."""
        raise NotImplementedError

    def via_tlb(self) -> bool:
        """Whether :meth:`translate` currently goes through ``self.tlb``
        (what the block JIT's inline caches replay)."""
        raise NotImplementedError


class BareMMU(MMUBase):
    """Directly walks the page tables named by the current root.

    This is "the hardware MMU": a TLB in front of a 2-level walker.
    With ``paging_enabled`` False (reset state, before the kernel loads
    PTBR) addresses pass through untranslated, which is how boot code
    runs before enabling paging.
    """

    def __init__(
        self,
        physmem: PhysicalMemory,
        costs: CostModel,
        tlb_entries: int = 64,
    ):
        self.physmem = physmem
        self.costs = costs
        self.walker = PageTableWalker(physmem)
        self.tlb = TLB(tlb_entries)
        self.root_pa = 0
        self.paging_enabled = False

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        if not self.paging_enabled:
            return va & 0xFFFFFFFF, 0
        va &= 0xFFFFFFFF
        vpn = va >> PAGE_SHIFT
        # Inlined TLB.lookup (this is the hottest call chain in the
        # whole simulator): same hit conditions, same hit/miss stats,
        # same LRU touch.
        tlb = self.tlb
        pte = tlb._entries.get(vpn)
        if pte is not None and (
            (not user or pte & PTE_USER)
            and (access is not AccessType.WRITE or pte & _WD == _WD)
            and (access is not AccessType.EXEC or not pte & PTE_NOEXEC)
        ):
            tlb._entries.move_to_end(vpn)
            tlb.stats.hits += 1
            return (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), self.costs.tlb_hit_cycles
        tlb.stats.misses += 1
        # walk_quick is the allocation-free twin of walker.walk: same
        # counters, same fault order, same A/D write visibility. The
        # frame bits of the returned PTE equal WalkResult.paddr's frame
        # (A/D updates never touch the frame field).
        pte = self.walker.walk_quick(self.root_pa, va, access, user)
        tlb.insert(vpn, pte)
        return (pte >> PAGE_SHIFT << PAGE_SHIFT) | (va & 0xFFF), self.costs.tlb_miss_cycles

    def set_root(self, root_pa: int) -> None:
        self.root_pa = root_pa & ~0xFFF
        self.paging_enabled = True
        self.tlb.flush()

    def via_tlb(self) -> bool:
        return self.paging_enabled

    def invlpg(self, va: int) -> None:
        self.tlb.invalidate((va & 0xFFFFFFFF) >> PAGE_SHIFT)

    def flush(self) -> None:
        self.tlb.flush()


class TwoStageMMU(MMUBase):
    """Two-dimensional translation: guest tables over a stage-2 table.

    The guest owns its page tables natively -- no PT write protection,
    no fill exits, PTBR writes and INVLPG stay in the guest. The price
    is the walk: a guest-TLB miss walks the guest tables, and every
    guest table *access* is itself a guest-physical address walked
    through the host-owned stage-2 table (``ept``). For 2-level tables
    on both sides that is

        2 guest levels x (2 stage-2 refs + 1 entry read) + 2 final refs = 8

    memory references versus 2 for shadow/native -- the classic
    (n+1)(m+1)-1 amplification measured in experiment E3. Combined
    gva->hpa translations are cached in one TLB.

    Stage-2 permissions double as the host-control plane: an unmapped
    guest frame raises an ``ept_violation`` exit (demand allocation,
    post-copy migration, swap-in), and a write to an entry the host
    write-protected raises a ``dirty_log`` exit (pre-copy migration
    round tracking).

    The two hardware flavours differ only in the profile constants
    below; see :class:`NestedMMU` and :class:`HModeMMU`.
    """

    #: :class:`CostModel` field that prices one stage-2 entry reference.
    #: Guest entry reads are always priced at ``mem_ref_cycles``.
    S2_REF_COST = "mem_ref_cycles"
    #: Whether the walker sets accessed/dirty bits in stage-2 entries.
    S2_SETS_AD = False

    def __init__(
        self,
        host_physmem: PhysicalMemory,
        host_allocator: FrameAllocator,
        guest_mem,
        costs: CostModel,
        tlb_entries: int = 64,
    ):
        self.physmem = host_physmem
        self.costs = costs
        self.guest_mem = guest_mem
        self.tlb = TLB(tlb_entries)
        #: The stage-2 table (gPA -> hPA), host-owned.
        self.ept = AddressSpace(host_physmem, host_allocator)
        self.guest_root: Optional[int] = None
        #: gfns whose stage-2 entry is write-protected for dirty logging.
        self.write_protected_gfns: Set[int] = set()
        #: Optional fault-injection hook: called once per TLB miss,
        #: before the walk; returns extra cycles.
        self.stall_fn: Optional[Callable[[], int]] = None

    # -- stage-2 management (host side) --------------------------------------

    def ept_map(self, gfn: int, hfn: int, writable: bool = True) -> None:
        flags = PTE_PRESENT | PTE_USER | (PTE_WRITABLE if writable else 0)
        self.ept.map(gfn << PAGE_SHIFT, hfn << PAGE_SHIFT, flags)

    def ept_unmap(self, gfn: int) -> None:
        self.ept.unmap(gfn << PAGE_SHIFT)
        self.tlb.flush()  # conservatively drop combined translations

    def drop_gfn(self, gfn: int) -> None:
        """Remove the stage-2 mapping of a guest frame, if any (balloon,
        swap, sharing break)."""
        if self.ept.lookup(gfn << PAGE_SHIFT) is not None:
            self.ept_unmap(gfn)

    def write_protect_gfn(self, gfn: int) -> None:
        pte = self.ept.lookup(gfn << PAGE_SHIFT)
        if pte is None:
            return
        self.write_protected_gfns.add(gfn)
        self.ept.protect(gfn << PAGE_SHIFT, (pte & 0xFFF) & ~PTE_WRITABLE)
        self.tlb.flush()

    def unprotect_gfn(self, gfn: int) -> None:
        self.write_protected_gfns.discard(gfn)
        pte = self.ept.lookup(gfn << PAGE_SHIFT)
        if pte is not None:
            self.ept.protect(gfn << PAGE_SHIFT, (pte & 0xFFF) | PTE_WRITABLE)

    # -- MMUBase interface ----------------------------------------------------

    def translate(self, va: int, access: AccessType, user: bool) -> Tuple[int, int]:
        va &= 0xFFFFFFFF
        vpn = va >> PAGE_SHIFT
        costs = self.costs
        pte = self.tlb.lookup(vpn, access, user)
        if pte is not None:
            return (pte_frame(pte) << PAGE_SHIFT) | (va & 0xFFF), costs.tlb_hit_cycles

        stall = self.stall_fn() if self.stall_fn is not None else 0
        s2_ref = getattr(costs, self.S2_REF_COST)
        if self.guest_root is None:
            # Guest paging off: VA is a gPA; one stage-2 walk.
            hpa = self._s2_walk(va, access)
            flags = PTE_PRESENT | PTE_USER | PTE_ACCESSED
            if access is AccessType.WRITE:
                flags |= PTE_WRITABLE | PTE_DIRTY
            self.tlb.insert(vpn, ((hpa >> PAGE_SHIFT) << PAGE_SHIFT) | flags)
            return hpa, costs.tlb_hit_cycles + 2 * s2_ref + stall

        dir_idx, tbl_idx, offset = split_vaddr(va)
        s2_walks = 3  # PDE read, PTE read, data page; +1 per A/D write-back

        # Level 1: guest PDE (its gPA goes through stage 2).
        pde_gpa = self.guest_root + dir_idx * 4
        pde = self.physmem.read_u32(self._s2_walk(pde_gpa, AccessType.READ))
        if not pde & PTE_PRESENT:
            raise PageFault(va, access, user, present=False)

        # Level 2: guest PTE.
        pte_gpa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        gpte = self.physmem.read_u32(self._s2_walk(pte_gpa, AccessType.READ))
        if not gpte & PTE_PRESENT:
            raise PageFault(va, access, user, present=False)

        combined = pde & gpte
        if user and not combined & PTE_USER:
            raise PageFault(va, access, user, present=True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            raise PageFault(va, access, user, present=True)
        if access is AccessType.EXEC and gpte & PTE_NOEXEC:
            raise PageFault(va, access, user, present=True)

        # Guest A/D updates. A write to a guest PT entry is itself a
        # guest-physical write and must respect stage-2 write permission
        # -- which is exactly how page-table pages get captured by dirty
        # logging on real hardware.
        if not pde & PTE_ACCESSED:
            s2_walks += 1
            self.physmem.write_u32(
                self._s2_walk(pde_gpa, AccessType.WRITE), pde | PTE_ACCESSED
            )
        new_gpte = gpte | PTE_ACCESSED
        if access is AccessType.WRITE:
            new_gpte |= PTE_DIRTY
        if new_gpte != gpte:
            s2_walks += 1
            self.physmem.write_u32(self._s2_walk(pte_gpa, AccessType.WRITE), new_gpte)
            gpte = new_gpte

        # Final level: the data page itself through stage 2.
        hpa = self._s2_walk((pte_frame(gpte) << PAGE_SHIFT) | offset, access)

        flags = PTE_PRESENT | PTE_ACCESSED
        flags |= combined & PTE_USER
        flags |= gpte & PTE_NOEXEC
        if access is AccessType.WRITE:
            # Lazy-W: cache write permission only once D is set, so the
            # next write after a dirty-log round re-walks.
            flags |= PTE_WRITABLE | PTE_DIRTY
        self.tlb.insert(vpn, ((hpa >> PAGE_SHIFT) << PAGE_SHIFT) | flags)
        return hpa, (
            costs.tlb_hit_cycles
            + 2 * costs.mem_ref_cycles
            + 2 * s2_walks * s2_ref
            + stall
        )

    def set_root(self, root_pa: int) -> None:
        """Guest PTBR write: entirely guest-local under two-stage paging."""
        self.guest_root = root_pa & ~0xFFF
        self.tlb.flush()

    def invlpg(self, va: int) -> None:
        self.tlb.invalidate((va & 0xFFFFFFFF) >> PAGE_SHIFT)

    def flush(self) -> None:
        self.tlb.flush()

    def via_tlb(self) -> bool:
        return True  # even with guest paging off (one stage-2 walk)

    def destroy(self) -> None:
        self.ept.destroy()
        self.tlb.flush()

    # -- internals -------------------------------------------------------------

    def _s2_walk(self, gpa: int, access: AccessType) -> int:
        """Walk the stage-2 table for one gPA (two entry references);
        return the hPA.

        Raises :class:`VMExit` (``ept_violation``) when unmapped, or
        (``dirty_log`` if the host write-protected the frame) when a
        write hits a read-only entry.
        """
        physmem = self.physmem
        dir_idx, tbl_idx, offset = split_vaddr(gpa)
        pde_pa = self.ept.root_pa + dir_idx * 4
        pde = physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            raise _s2_exit("ept_violation", gpa, access)
        pte_pa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte = physmem.read_u32(pte_pa)
        if not pte & PTE_PRESENT:
            raise _s2_exit("ept_violation", gpa, access)
        if access is AccessType.WRITE and not (pde & pte & PTE_WRITABLE):
            protected = (gpa >> PAGE_SHIFT) in self.write_protected_gfns
            raise _s2_exit(
                "dirty_log" if protected else "ept_violation", gpa, access
            )
        if self.S2_SETS_AD:
            if not pde & PTE_ACCESSED:
                physmem.write_u32(pde_pa, pde | PTE_ACCESSED)
            new_pte = pte | PTE_ACCESSED
            if access is AccessType.WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                physmem.write_u32(pte_pa, new_pte)
        return (pte_frame(pte) << PAGE_SHIFT) | offset


def _s2_exit(kind: str, gpa: int, access: AccessType) -> VMExit:
    return VMExit(
        ExitReason.PAGE_FAULT, kind=kind,
        gpa=gpa, gfn=gpa >> PAGE_SHIFT, access=access,
    )


class NestedMMU(TwoStageMMU):
    """EPT/NPT-style nested paging: stage-2
    references cost an ordinary memory reference, and the walker never
    writes stage-2 A/D bits (dirty tracking is by write protection)."""

    S2_REF_COST = "mem_ref_cycles"
    S2_SETS_AD = False


class HModeMMU(TwoStageMMU):
    """The H-mode extension's architected two-stage (G-stage) walk.

    Stage-2 references are priced at ``gstage_ref_cycles`` (ablations
    model a dedicated nested-walk cache by lowering it), and the walker
    sets accessed at both stage-2 levels and dirty at the leaf on
    writes. The hypervisor installs the ``hmode.gstage_stall`` fault
    site as ``stall_fn``. It lives in the CPU package because H-mode
    makes two-stage translation part of the architecture.
    """

    S2_REF_COST = "gstage_ref_cycles"
    S2_SETS_AD = True
