"""VM snapshot and restore.

A snapshot captures everything a paused VM is: configuration, vCPU
architectural + virtual state, device state, and guest memory (zero
pages are elided -- freshly booted guests are mostly zeros). Snapshots
serialize to a self-describing binary blob (`to_bytes`/`from_bytes`),
so they can be written to disk and restored into any hypervisor later
-- the same machinery real platforms use for suspend/resume, cloning,
and crash-consistent backups.

The format is a plain struct-based codec (no pickle): a tampered or
truncated blob fails loudly, and blobs are stable across Python
versions.
"""

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.modes import MMUVirtMode, VirtMode
from repro.cpu.mmu import TwoStageMMU
from repro.core.shadow import ShadowMMU
from repro.core.vm import GuestConfig, VirtualMachine
from repro.cpu.isa import CSR, Cause
from repro.util.errors import ConfigError
from repro.util.units import PAGE_SIZE

_MAGIC = b"PVSN"
_VERSION = 1
_ZERO_PAGE = b"\x00" * PAGE_SIZE

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


@dataclass
class VMSnapshot:
    """In-memory snapshot of one paused VM."""

    config: GuestConfig
    regs: List[int]
    pc: int
    csr: List[int]
    vcsr: List[int]
    cycles: int
    instret: int
    pending_irqs: Set[int]
    cpu_halted: bool
    vcpu_halted: bool
    pending_virqs: Set[int]
    ballooned_gfns: Set[int]
    console_text: str
    timer_state: Tuple[int, int, Optional[int], int]  # period, mode, deadline, expirations
    power_state: Tuple[bool, int]
    pic_pending: List[bool]
    block_data: bytes
    virtio_blk_data: bytes
    virtio_blk_queue: Tuple[int, int, int, int, int]
    #: non-zero guest pages only: gfn -> page bytes
    pages: Dict[int, bytes] = field(default_factory=dict)
    #: every mapped gfn (zero pages included by membership)
    mapped_gfns: Set[int] = field(default_factory=set)

    @property
    def stored_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += _U32.pack(_VERSION)
        _pack_str(out, self.config.name)
        out += _U64.pack(self.config.memory_bytes)
        _pack_str(out, self.config.virt_mode.value)
        _pack_str(out, self.config.mmu_mode.value)
        out += bytes([
            int(self.config.with_virtio),
            int(self.config.with_emulated_io),
            int(self.cpu_halted),
            int(self.vcpu_halted),
            int(self.power_state[0]),
        ])
        for reg in self.regs:
            out += _U32.pack(reg & 0xFFFFFFFF)
        out += _U32.pack(self.pc)
        for value in self.csr:
            out += _U32.pack(value & 0xFFFFFFFF)
        for value in self.vcsr:
            out += _U32.pack(value & 0xFFFFFFFF)
        out += _U64.pack(self.cycles)
        out += _U64.pack(self.instret)
        _pack_u32_list(out, sorted(self.pending_irqs))
        _pack_u32_list(out, sorted(self.pending_virqs))
        _pack_u32_list(out, sorted(self.ballooned_gfns))
        _pack_str(out, self.console_text)
        period, mode, deadline, expirations = self.timer_state
        out += _U64.pack(period)
        out += _U32.pack(mode)
        out += _U64.pack(0xFFFFFFFFFFFFFFFF if deadline is None
                         else deadline)
        out += _U64.pack(expirations)
        out += _U32.pack(self.power_state[1])
        out += _U32.pack(len(self.pic_pending))
        out += bytes(int(p) for p in self.pic_pending)
        _pack_bytes(out, self.block_data)
        _pack_bytes(out, self.virtio_blk_data)
        for value in self.virtio_blk_queue:
            out += _U32.pack(value)
        _pack_u32_list(out, sorted(self.mapped_gfns))
        out += _U32.pack(len(self.pages))
        for gfn in sorted(self.pages):
            out += _U32.pack(gfn)
            out += self.pages[gfn]
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "VMSnapshot":
        reader = _Reader(blob)
        if reader.take(4) != _MAGIC:
            raise ConfigError("not a pyvisor snapshot (bad magic)")
        version = reader.u32()
        if version != _VERSION:
            raise ConfigError(f"unsupported snapshot version {version}")
        name = reader.string()
        memory_bytes = reader.u64()
        virt_mode = VirtMode(reader.string())
        mmu_mode = MMUVirtMode(reader.string())
        flags = reader.take(5)
        config = GuestConfig(
            name=name, memory_bytes=memory_bytes, virt_mode=virt_mode,
            mmu_mode=mmu_mode, with_virtio=bool(flags[0]),
            with_emulated_io=bool(flags[1]),
        )
        regs = [reader.u32() for _ in range(16)]
        pc = reader.u32()
        csr = [reader.u32() for _ in range(16)]
        vcsr = [reader.u32() for _ in range(16)]
        cycles = reader.u64()
        instret = reader.u64()
        pending_irqs = set(reader.u32_list())
        pending_virqs = set(reader.u32_list())
        ballooned = set(reader.u32_list())
        console_text = reader.string()
        period = reader.u64()
        mode = reader.u32()
        deadline_raw = reader.u64()
        deadline = None if deadline_raw == 0xFFFFFFFFFFFFFFFF else deadline_raw
        expirations = reader.u64()
        power_code = reader.u32()
        pic_len = reader.u32()
        pic_pending = [bool(b) for b in reader.take(pic_len)]
        block_data = reader.blob()
        vblk_data = reader.blob()
        vblk_queue = tuple(reader.u32() for _ in range(5))
        mapped = set(reader.u32_list())
        count = reader.u32()
        pages = {}
        for _ in range(count):
            gfn = reader.u32()
            pages[gfn] = reader.take(PAGE_SIZE)
        reader.expect_end()
        return cls(
            config=config, regs=regs, pc=pc, csr=csr, vcsr=vcsr,
            cycles=cycles, instret=instret, pending_irqs=pending_irqs,
            cpu_halted=bool(flags[2]), vcpu_halted=bool(flags[3]),
            pending_virqs=pending_virqs, ballooned_gfns=ballooned,
            console_text=console_text,
            timer_state=(period, mode, deadline, expirations),
            power_state=(bool(flags[4]), power_code),
            pic_pending=pic_pending, block_data=block_data,
            virtio_blk_data=vblk_data, virtio_blk_queue=vblk_queue,
            pages=pages, mapped_gfns=mapped,
        )


def snapshot_vm(vm: VirtualMachine) -> VMSnapshot:
    """Capture a paused VM (the caller must not run it concurrently)."""
    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    timer = vm.devices["timer"]
    power = vm.devices["power"]
    block = vm.devices.get("block")
    vblk = vm.devices.get("virtio_blk")
    pages: Dict[int, bytes] = {}
    mapped: Set[int] = set()
    for gfn in vm.guest_mem.map:
        mapped.add(gfn)
        content = vm.guest_mem.read_gfn(gfn)
        if content != _ZERO_PAGE:
            pages[gfn] = content
    queue = (
        (vblk.queue.desc_gpa, vblk.queue.avail_gpa, vblk.queue.used_gpa,
         vblk.queue.size, vblk.queue.last_avail_idx)
        if vblk is not None else (0, 0, 0, 0, 0)
    )
    return VMSnapshot(
        config=vm.config,
        regs=list(cpu.regs),
        pc=cpu.pc,
        csr=list(cpu.csr),
        vcsr=list(vcpu.vcsr),
        cycles=cpu.cycles,
        instret=cpu.instret,
        pending_irqs={int(c) for c in cpu.pending_irqs},
        cpu_halted=cpu.halted,
        vcpu_halted=vcpu.halted,
        pending_virqs={int(c) for c in vm.pending_virqs},
        ballooned_gfns=set(vm.ballooned_gfns),
        console_text=vm.devices["console"].text,
        timer_state=(timer.period, timer.mode, timer.deadline,
                     timer.expirations),
        power_state=(power.shutdown_requested, power.code),
        pic_pending=list(vm.pic.pending),
        block_data=_elide_zeros(block.data) if block is not None else b"",
        virtio_blk_data=_elide_zeros(vblk.data) if vblk is not None else b"",
        virtio_blk_queue=queue,
        pages=pages,
        mapped_gfns=mapped,
    )


def restore_vm(hypervisor, snapshot: VMSnapshot,
               name: Optional[str] = None) -> VirtualMachine:
    """Materialize a snapshot as a fresh (paused) VM."""
    config = GuestConfig(
        name=name or snapshot.config.name,
        memory_bytes=snapshot.config.memory_bytes,
        virt_mode=snapshot.config.virt_mode,
        mmu_mode=snapshot.config.mmu_mode,
        with_virtio=snapshot.config.with_virtio,
        with_emulated_io=snapshot.config.with_emulated_io,
        prealloc=True,
    )
    vm = hypervisor.create_vm(config)
    # Drop frames that were not mapped at snapshot time (balloon).
    for gfn in list(vm.guest_mem.map):
        if gfn not in snapshot.mapped_gfns:
            mmu = vm.vcpus[0].cpu.mmu
            if isinstance(mmu, TwoStageMMU):
                mmu.ept_unmap(gfn)
            hypervisor.allocator.free(vm.guest_mem.unmap_page(gfn))
    for gfn, content in snapshot.pages.items():
        vm.guest_mem.write_gfn(gfn, content)

    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    cpu.regs = list(snapshot.regs)
    cpu.pc = snapshot.pc
    cpu.csr = list(snapshot.csr)
    cpu.cycles = snapshot.cycles
    cpu.instret = snapshot.instret
    cpu.pending_irqs = {Cause(c) for c in snapshot.pending_irqs}
    cpu.halted = snapshot.cpu_halted
    vcpu.vcsr = list(snapshot.vcsr)
    vcpu.halted = snapshot.vcpu_halted
    vm.pending_virqs = {Cause(c) for c in snapshot.pending_virqs}
    vm.ballooned_gfns = set(snapshot.ballooned_gfns)

    console = vm.devices["console"]
    console._chars = list(snapshot.console_text)
    timer = vm.devices["timer"]
    timer.period, timer.mode, timer.deadline, timer.expirations = (
        snapshot.timer_state
    )
    power = vm.devices["power"]
    power.shutdown_requested, power.code = snapshot.power_state
    vm.pic.pending = list(snapshot.pic_pending)
    if "block" in vm.devices and snapshot.block_data:
        vm.devices["block"].data[:] = snapshot.block_data
    if "virtio_blk" in vm.devices and snapshot.virtio_blk_data:
        vblk = vm.devices["virtio_blk"]
        vblk.data[:] = snapshot.virtio_blk_data
        (vblk.queue.desc_gpa, vblk.queue.avail_gpa, vblk.queue.used_gpa,
         vblk.queue.size, vblk.queue.last_avail_idx) = snapshot.virtio_blk_queue

    # Rebuild translation structures from the restored root.
    mmu = cpu.mmu
    if isinstance(mmu, ShadowMMU):
        root = (cpu.csr[CSR.PTBR]
                if config.virt_mode is VirtMode.HW_ASSIST
                else vcpu.vcsr[CSR.PTBR])
        if root:
            mmu.switch_guest_root(root)
            if mmu.ring_compression:
                mmu.set_view(kernel=not vcpu.virtual_user)
    elif isinstance(mmu, TwoStageMMU):
        if cpu.csr[CSR.PTBR]:
            mmu.set_root(cpu.csr[CSR.PTBR])
    return vm


def _elide_zeros(data) -> bytes:
    """Untouched (all-zero) disk images need not be stored."""
    content = bytes(data)
    return b"" if content.count(0) == len(content) else content


# -- codec helpers -----------------------------------------------------------


def _pack_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _pack_bytes(out: bytearray, data: bytes) -> None:
    out += _U32.pack(len(data))
    out += data


def _pack_u32_list(out: bytearray, values) -> None:
    out += _U32.pack(len(values))
    for value in values:
        out += _U32.pack(value)


class _Reader:
    def __init__(self, blob: bytes):
        self._blob = blob
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._blob):
            raise ConfigError("truncated snapshot")
        data = self._blob[self._pos : self._pos + n]
        self._pos += n
        return data

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def u32_list(self):
        return [self.u32() for _ in range(self.u32())]

    def expect_end(self) -> None:
        if self._pos != len(self._blob):
            raise ConfigError(
                f"snapshot has {len(self._blob) - self._pos} trailing bytes"
            )
