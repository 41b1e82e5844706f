"""Two-level page tables: entry format, walker, address-space builder.

The PTE/PDE format (one 32-bit word)::

    31                    12 11      6  5   4   3   2   1   0
    +-----------------------+---------+----+---+---+---+---+---+
    |      frame number     | (unused)| NX | D | A | U | W | P |
    +-----------------------+---------+----+---+---+---+---+---+

Permissions combine across levels the way modern x86 does: an access is
allowed only if *both* the PDE and the PTE allow it (W for writes, U for
user-mode accesses). Accessed bits are set at both levels on a
successful walk; the dirty bit is set at the leaf on writes.
"""

import enum
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.errors import MemoryError_
from repro.util.units import PAGE_SHIFT

PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 3
PTE_DIRTY = 1 << 4
PTE_NOEXEC = 1 << 5

_FLAGS_MASK = (1 << PAGE_SHIFT) - 1

_U32 = struct.Struct("<I")

#: Entries per page-table page (4096 / 4).
ENTRIES_PER_TABLE = 1024


class AccessType(enum.Enum):
    """The three access kinds a walk can be performed for."""

    READ = "read"
    WRITE = "write"
    EXEC = "exec"


@dataclass
class PageFault(Exception):
    """Raised by the walker/TLB when a translation cannot be completed.

    ``present`` distinguishes protection faults (True: the mapping exists
    but forbids this access) from not-present faults (False).
    """

    vaddr: int
    access: AccessType
    user: bool
    present: bool

    def __str__(self) -> str:
        kind = "protection" if self.present else "not-present"
        mode = "user" if self.user else "kernel"
        return (
            f"page fault: {kind} on {self.access.value} of "
            f"{self.vaddr:#010x} in {mode} mode"
        )


def make_pte(pfn: int, flags: int) -> int:
    """Build an entry from a frame number and flag bits."""
    if pfn < 0 or pfn >= (1 << (32 - PAGE_SHIFT)):
        raise MemoryError_(f"PFN {pfn} out of range")
    if flags & ~_FLAGS_MASK:
        raise MemoryError_(f"flags {flags:#x} overlap the frame field")
    return (pfn << PAGE_SHIFT) | flags


def pte_frame(pte: int) -> int:
    """Extract the frame number from an entry."""
    return pte >> PAGE_SHIFT


def split_vaddr(va: int) -> Tuple[int, int, int]:
    """Split a 32-bit virtual address into (dir index, table index, offset)."""
    va &= 0xFFFFFFFF
    return (va >> 22) & 0x3FF, (va >> 12) & 0x3FF, va & 0xFFF


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a successful page-table walk."""

    paddr: int
    pte_paddr: int  # physical address of the leaf PTE (for W^X tricks, dirty scan)
    pte: int
    mem_refs: int  # memory references the walk performed (2 for 2 levels)


class PageTableWalker:
    """Walks 2-level tables stored in a :class:`PhysicalMemory`."""

    def __init__(self, physmem: PhysicalMemory):
        self.physmem = physmem
        self.walks = 0
        self.faults = 0

    def walk(
        self,
        root_pa: int,
        va: int,
        access: AccessType,
        user: bool,
        set_ad: bool = True,
    ) -> WalkResult:
        """Translate ``va``; raise :class:`PageFault` on failure.

        ``root_pa`` is the physical address of the page directory.
        ``user`` is the privilege of the access (True = user mode).
        """
        self.walks += 1
        dir_idx, tbl_idx, offset = split_vaddr(va)

        pde_pa = root_pa + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)

        pte_pa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        pte = self.physmem.read_u32(pte_pa)
        if not pte & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)

        combined = pde & pte
        if user and not combined & PTE_USER:
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        if access is AccessType.EXEC and pte & PTE_NOEXEC:
            self.faults += 1
            raise PageFault(va, access, user, present=True)

        if set_ad:
            new_pde = pde | PTE_ACCESSED
            if new_pde != pde:
                self.physmem.write_u32(pde_pa, new_pde)
            new_pte = pte | PTE_ACCESSED
            if access is AccessType.WRITE:
                new_pte |= PTE_DIRTY
            if new_pte != pte:
                self.physmem.write_u32(pte_pa, new_pte)
                pte = new_pte

        return WalkResult(
            paddr=(pte_frame(pte) << PAGE_SHIFT) | offset,
            pte_paddr=pte_pa,
            pte=pte,
            mem_refs=2,
        )

    def walk_quick(
        self, root_pa: int, va: int, access: AccessType, user: bool
    ) -> int:
        """Translate ``va`` and return the post-A/D leaf PTE.

        Semantically identical to :meth:`walk` with ``set_ad=True`` --
        same walk/fault counting, same fault order, same A/D update
        order -- but reads table entries straight from the backing
        buffer and skips the :class:`WalkResult` allocation. A/D
        updates still go through ``physmem.write_u32`` so write
        watchers (SMC invalidation, dirty tracking) observe them. This
        is the hot translate path of :class:`~repro.cpu.mmu.BareMMU`;
        the virtualized MMUs keep the structured :meth:`walk`.
        """
        self.walks += 1
        pm = self.physmem
        buf = pm._data
        size = pm.size
        pde_pa = root_pa + ((va >> 22) & 0x3FF) * 4
        if pde_pa + 4 > size:
            pm.read_u32(pde_pa)  # out of RAM: raise the canonical error
        pde = _U32.unpack_from(buf, pde_pa)[0]
        if not pde & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)
        pte_pa = (pde >> PAGE_SHIFT << PAGE_SHIFT) + ((va >> 12) & 0x3FF) * 4
        if pte_pa + 4 > size:
            pm.read_u32(pte_pa)
        pte = _U32.unpack_from(buf, pte_pa)[0]
        if not pte & PTE_PRESENT:
            self.faults += 1
            raise PageFault(va, access, user, present=False)
        combined = pde & pte
        if user and not combined & PTE_USER:
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        if access is AccessType.WRITE and not combined & PTE_WRITABLE:
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        if access is AccessType.EXEC and pte & PTE_NOEXEC:
            self.faults += 1
            raise PageFault(va, access, user, present=True)
        new_pde = pde | PTE_ACCESSED
        if new_pde != pde:
            pm.write_u32(pde_pa, new_pde)
        new_pte = pte | PTE_ACCESSED
        if access is AccessType.WRITE:
            new_pte |= PTE_DIRTY
        if new_pte != pte:
            pm.write_u32(pte_pa, new_pte)
            pte = new_pte
        return pte


class AddressSpace:
    """Owns one page-table tree and provides map/unmap/protect.

    Used by the guest kernel builder (to construct guest page tables in
    guest-physical memory) and by the VMM (to construct shadow and nested
    tables in host-physical memory). Page-table pages are allocated from
    the supplied :class:`FrameAllocator` and returned on teardown.
    """

    def __init__(self, physmem: PhysicalMemory, allocator: FrameAllocator):
        self.physmem = physmem
        self.allocator = allocator
        self.root_pfn = allocator.alloc(zero=True)
        self._table_frames = [self.root_pfn]
        self.mapped_pages = 0

    @property
    def root_pa(self) -> int:
        return self.root_pfn << PAGE_SHIFT

    def map(self, va: int, pa: int, flags: int) -> None:
        """Install a 4 KiB mapping; allocates an inner table if needed."""
        if pa & _FLAGS_MASK:
            raise MemoryError_(f"physical address {pa:#x} not page-aligned")
        if va & _FLAGS_MASK:
            raise MemoryError_(f"virtual address {va:#x} not page-aligned")
        dir_idx, tbl_idx, _ = split_vaddr(va)
        pde_pa = self.root_pa + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            table_pfn = self.allocator.alloc(zero=True)
            self._table_frames.append(table_pfn)
            # Directory entries carry the union of permissions; leaf PTEs
            # then restrict. Granting W|U here matches common kernels.
            pde = make_pte(table_pfn, PTE_PRESENT | PTE_WRITABLE | PTE_USER)
            self.physmem.write_u32(pde_pa, pde)
        pte_pa = (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
        old = self.physmem.read_u32(pte_pa)
        if not old & PTE_PRESENT:
            self.mapped_pages += 1
        self.physmem.write_u32(pte_pa, make_pte(pa >> PAGE_SHIFT, flags | PTE_PRESENT))

    def unmap(self, va: int) -> None:
        """Remove a mapping (leaves inner tables in place)."""
        pte_pa = self._pte_pa(va)
        if pte_pa is None:
            return
        if self.physmem.read_u32(pte_pa) & PTE_PRESENT:
            self.mapped_pages -= 1
        self.physmem.write_u32(pte_pa, 0)

    def protect(self, va: int, flags: int) -> None:
        """Replace the flag bits of an existing mapping."""
        pte_pa = self._pte_pa(va)
        if pte_pa is None:
            raise MemoryError_(f"protect of unmapped address {va:#x}")
        pte = self.physmem.read_u32(pte_pa)
        if not pte & PTE_PRESENT:
            raise MemoryError_(f"protect of non-present address {va:#x}")
        self.physmem.write_u32(
            pte_pa, make_pte(pte_frame(pte), (flags | PTE_PRESENT) & _FLAGS_MASK)
        )

    def clear_pde(self, dir_idx: int) -> None:
        """Drop one directory entry and its whole 4 MiB leaf table.

        Used by shadow paging to invalidate a subtree after the guest
        rewrites a page-directory entry.
        """
        if not 0 <= dir_idx < ENTRIES_PER_TABLE:
            raise MemoryError_(f"directory index {dir_idx} out of range")
        pde_pa = self.root_pa + dir_idx * 4
        pde = self.physmem.read_u32(pde_pa)
        if not pde & PTE_PRESENT:
            return
        table_pfn = pte_frame(pde)
        table_pa = table_pfn << PAGE_SHIFT
        for tbl_idx in range(ENTRIES_PER_TABLE):
            if self.physmem.read_u32(table_pa + tbl_idx * 4) & PTE_PRESENT:
                self.mapped_pages -= 1
        self.physmem.write_u32(pde_pa, 0)
        if table_pfn in self._table_frames:
            self._table_frames.remove(table_pfn)
            self.allocator.free(table_pfn)

    def lookup(self, va: int) -> Optional[int]:
        """Return the PTE for ``va`` (no side effects), or None."""
        pte_pa = self._pte_pa(va)
        if pte_pa is None:
            return None
        pte = self.physmem.read_u32(pte_pa)
        return pte if pte & PTE_PRESENT else None

    def mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield (va, pte) for every present leaf mapping."""
        for dir_idx in range(ENTRIES_PER_TABLE):
            pde = self.physmem.read_u32(self.root_pa + dir_idx * 4)
            if not pde & PTE_PRESENT:
                continue
            table_pa = pte_frame(pde) << PAGE_SHIFT
            for tbl_idx in range(ENTRIES_PER_TABLE):
                pte = self.physmem.read_u32(table_pa + tbl_idx * 4)
                if pte & PTE_PRESENT:
                    yield ((dir_idx << 22) | (tbl_idx << 12), pte)

    def destroy(self) -> None:
        """Free every page-table page this space allocated."""
        for pfn in self._table_frames:
            self.allocator.free(pfn)
        self._table_frames = []
        self.mapped_pages = 0

    def _pte_pa(self, va: int) -> Optional[int]:
        dir_idx, tbl_idx, _ = split_vaddr(va)
        pde = self.physmem.read_u32(self.root_pa + dir_idx * 4)
        if not pde & PTE_PRESENT:
            return None
        return (pte_frame(pde) << PAGE_SHIFT) + tbl_idx * 4
