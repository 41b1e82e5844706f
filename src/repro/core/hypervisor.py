"""The hypervisor: VM construction, the run loop, exit handling.

One :class:`Hypervisor` owns host physical memory and any number of
VMs. :meth:`Hypervisor.run` executes a VM until it halts, shuts down,
or exhausts a budget, servicing VM exits as they arise:

* world-switch cycles are charged per exit (``vmexit_cycles``, or
  ``hypercall_cycles`` for VMCALL, or ``bt_reflect_cycles`` when the
  resident binary-translation monitor intercepts without a hardware
  world switch);
* every exit is recorded in the VM's :class:`~repro.core.stats.ExitStats`
  with its reason and handler detail -- the raw table behind E1.

The hypercall ABI (VMCALL with the number in the instruction, arguments
in a0..a3, result in a0) serves both paravirtual guests and PV drivers
inside HVM guests.
"""

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bt import BTEngine
from repro.core.emulate import emulate_guest_store, emulate_privileged
from repro.core.modes import MMUVirtMode, VirtMode
from repro.core.policies import DeprivilegedPolicy, HModePolicy, HWAssistPolicy
from repro.core.shadow import ShadowMMU
from repro.core.vcpu import VCPU
from repro.core.vm import GuestConfig, GuestMemory, VirtualMachine
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import CPUCore, StopReason, TrapInfo
from repro.cpu.isa import (
    CSR, Cause, HEDELEG_ALL, HIDELEG_ALL, MODE_KERNEL, Op,
)
from repro.cpu.mmu import HModeMMU, NestedMMU, TwoStageMMU
from repro.devices.block import BLOCK_BASE, BlockDevice
from repro.devices.bus import PortBus
from repro.devices.console import CONSOLE_BASE, ConsoleDevice
from repro.devices.irq import (
    IRQ_BLOCK_LINE,
    IRQ_CONSOLE_LINE,
    IRQ_NET_LINE,
    IRQ_TIMER_LINE,
    IRQ_VIRTIO_BLK_LINE,
    IRQ_VIRTIO_NET_LINE,
    InterruptController,
    PIC_BASE,
)
from repro.devices.net import NetDevice, NET_BASE
from repro.devices.power import POWER_BASE, PowerControl
from repro.devices.timer import TIMER_BASE, TimerDevice
from repro.devices.virtio import (
    VIRTIO_BLK_BASE,
    VIRTIO_NET_BASE,
    VirtioBlockDevice,
    VirtioNetDevice,
)
from repro.mem.costs import CostModel
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.obs.registry import MetricsRegistry
from repro.util.errors import ConfigError, GuestError, MemoryError_
from repro.util.units import MIB, PAGE_SHIFT, bytes_to_pages

#: Instructions to run between device pumps.
PUMP_SLICE = 4000

#: Without a watchdog attached, a stalled vCPU still terminates the run
#: loop after this many consecutive no-progress pumps (safety net so an
#: instruction budget -- which a stalled vCPU can never spend -- does
#: not spin forever).
STALL_HUNG_PUMPS = 64


class HypercallNumbers(enum.IntEnum):
    """The hypercall ABI."""

    SET_VBAR = 1
    SET_PTBR = 2
    #: a0 = gPA of an array of (gpa, value) u32 pairs, a1 = pair count.
    #: Applies all page-table updates in one exit (Xen-style multicall).
    MMU_BATCH = 3
    SET_IE = 4
    IRET = 5
    CONSOLE_PUTC = 6
    YIELD = 7
    HALT = 8
    INVLPG = 9
    #: a0 = gfn the guest's balloon driver surrenders.
    BALLOON_GIVE = 10
    #: a0 = gfn to re-populate (balloon deflate).
    BALLOON_TAKE = 11


class RunOutcome(enum.Enum):
    HALTED = "halted"  # guest idle with no wakeup source
    SHUTDOWN = "shutdown"  # guest requested power-off
    INSTR_LIMIT = "instr_limit"
    CYCLE_LIMIT = "cycle_limit"
    HUNG = "hung"  # no forward progress: watchdog fired (or stall limit)


#: gfn of the PV shared-info page (counted from the top of guest RAM).
def shared_info_gfn(vm: VirtualMachine) -> int:
    return vm.num_pages - 1


_SHARED_IE_OFFSET = 0


class Hypervisor:
    """A host machine running virtual machines."""

    def __init__(
        self,
        memory_bytes: int = 128 * MIB,
        costs: Optional[CostModel] = None,
        tlb_entries: int = 64,
        registry: Optional[MetricsRegistry] = None,
        physmem: Optional[PhysicalMemory] = None,
    ):
        self.costs = costs or CostModel()
        self.costs.validate()
        #: ``physmem`` lets a caller supply the backing store -- the
        #: hypervisor-under-hypervisor scenario aliases an *inner*
        #: hypervisor's "physical" memory onto a slice of an H-mode
        #: guest's RAM (memory_bytes is then ignored).
        self.physmem = physmem if physmem is not None else PhysicalMemory(memory_bytes)
        self.allocator = FrameAllocator(self.physmem, reserved_frames=16)
        self.tlb_entries = tlb_entries
        #: The run's metrics registry; every VM gets a ``vm.<name>``
        #: scope in it, and hypervisor-level counters live under
        #: ``core.*`` / ``overcommit.*``. A private registry is made
        #: when the caller (tests, ad-hoc scripts) does not share one.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.vms: Dict[str, VirtualMachine] = {}
        #: Per-VM dirty-page callbacks (registered by live migration):
        #: called with (vm, gfn) on each dirty-log exit.
        self.dirty_handlers: Dict[str, Callable] = {}
        #: Composable EPT-fault dispatch chain: ``(name, handler)``
        #: entries consulted in registration order on every EPT
        #: violation for an unbacked gfn. A handler returns True to
        #: *claim* the fault (and must leave the gfn mapped) or False
        #: to decline, passing it down the chain. Fallback-tier
        #: handlers run after every normal handler has declined; if
        #: nobody claims, the hypervisor demand-zeroes the page.
        self._ept_fault_handlers: List[Tuple[str, Callable]] = []
        self._ept_fault_fallbacks: List[Tuple[str, Callable]] = []
        self._legacy_ept_hook: Optional[Callable] = None
        self._legacy_ept_wrapper: Optional[Callable] = None
        #: Write-fault (dirty-log exit) dispatch chain, same claim /
        #: decline contract with ``(vm, gfn) -> bool`` handlers. The
        #: page sharer's copy-on-write break lives here.
        self._write_fault_handlers: List[Tuple[str, Callable]] = []
        #: Installed by repro.overcommit.sharing.PageSharer: the
        #: cross-subsystem shared-frame refcount protocol (swap and
        #: teardown consult it before freeing frames).
        self.sharing = None
        #: Optional repro.util.eventlog.EventLog: when set, every VM
        #: exit is traced with its reason, handler detail, and guest pc.
        self.trace = None
        #: Optional repro.faults.injector.FaultInjector: when set, the
        #: run loop evaluates the ``vcpu.stall`` site each pump (a hung
        #: guest: the vCPU burns cycles but retires nothing).
        self.injector = None

    # -- fault dispatch chains --------------------------------------------

    def register_ept_fault_handler(
        self, handler: Callable, name: Optional[str] = None,
        fallback: bool = False,
    ) -> Callable:
        """Add ``handler`` to the EPT-fault dispatch chain.

        ``handler(vm, gfn, access) -> bool`` claims the fault by
        returning True (it must leave ``gfn`` mapped) or declines with
        False so the next handler -- and ultimately the demand-zero
        default -- sees it. ``fallback=True`` queues the handler after
        every normal one (host swap's residency tracker uses this to
        observe demand allocations without shadowing anyone). The
        handler itself is the deregistration token. Multiple owners
        (host swap, post-copy) compose instead of clobbering a single
        hook slot.
        """
        label = name if name else getattr(handler, "__qualname__", "handler")
        chain = (self._ept_fault_fallbacks if fallback
                 else self._ept_fault_handlers)
        if any(h == handler for _n, h in chain):
            raise ConfigError(f"EPT fault handler {label!r} already registered")
        chain.append((label, handler))
        return handler

    def unregister_ept_fault_handler(self, handler: Callable) -> bool:
        """Remove ``handler`` from either chain tier; True if found."""
        for chain in (self._ept_fault_handlers, self._ept_fault_fallbacks):
            for i, (_name, h) in enumerate(chain):
                if h == handler:
                    del chain[i]
                    return True
        return False

    def register_write_fault_handler(
        self, handler: Callable, name: Optional[str] = None,
    ) -> Callable:
        """Add ``handler(vm, gfn) -> bool`` to the write-fault chain.

        Consulted on dirty-log exits after per-VM dirty logging; a
        claiming handler owns the fault (the sharer's COW break). The
        returned name labels the exit detail, so register COW breakers
        with ``name="cow_break"`` to keep exit tables stable.
        """
        label = name if name else getattr(handler, "__qualname__", "handler")
        if any(h == handler for _n, h in self._write_fault_handlers):
            raise ConfigError(f"write fault handler {label!r} already registered")
        self._write_fault_handlers.append((label, handler))
        return handler

    def unregister_write_fault_handler(self, handler: Callable) -> bool:
        for i, (_name, h) in enumerate(self._write_fault_handlers):
            if h == handler:
                del self._write_fault_handlers[i]
                return True
        return False

    @property
    def ept_fault_hook(self) -> Optional[Callable]:
        """Legacy single-owner hook, kept as a chain adapter.

        Assigning a callable registers a claim-everything handler (the
        old contract: the hook services every fault and leaves the gfn
        mapped); assigning None removes it. New code should register a
        chain handler with claim/decline semantics instead.
        """
        return self._legacy_ept_hook

    @ept_fault_hook.setter
    def ept_fault_hook(self, hook: Optional[Callable]) -> None:
        if self._legacy_ept_wrapper is not None:
            self.unregister_ept_fault_handler(self._legacy_ept_wrapper)
            self._legacy_ept_wrapper = None
        self._legacy_ept_hook = hook
        if hook is not None:
            def wrapper(vm, gfn, access, _hook=hook):
                _hook(vm, gfn, access)
                return True
            self._legacy_ept_wrapper = wrapper
            self.register_ept_fault_handler(wrapper, name="legacy_hook")

    def _dispatch_ept_fault(self, vm: VirtualMachine, gfn: int, access) -> str:
        """Walk the chain until a handler claims; demand-zero otherwise.

        Returns the claiming handler's name (``core.ept_dispatch.*``
        counts claims per owner, the raw table behind the E7 routing
        regression test).
        """
        for name, handler in self._ept_fault_handlers:
            if handler(vm, gfn, access):
                self.registry.counter(f"core.ept_dispatch.{name}").inc()
                return name
        for name, handler in self._ept_fault_fallbacks:
            if handler(vm, gfn, access):
                self.registry.counter(f"core.ept_dispatch.{name}").inc()
                return name
        vm.guest_mem.map_page(gfn, self.allocator.alloc())
        self.registry.counter("core.ept_dispatch.demand_zero").inc()
        return "demand_zero"

    # -- VM construction --------------------------------------------------

    def create_vm(self, config: GuestConfig) -> VirtualMachine:
        config.validate()
        if config.name in self.vms:
            raise ConfigError(f"duplicate VM name {config.name!r}")
        pages = bytes_to_pages(config.memory_bytes)
        guest_mem = GuestMemory(self.physmem, pages)
        # A VM recreated under the same name (micro-reboot, snapshot
        # restore) starts its telemetry from zero, exactly as the old
        # per-VM stat structs did.
        self.registry.reset(f"vm.{config.name}.")
        vm = VirtualMachine(
            config, guest_mem, metrics=self.registry.scope(f"vm.{config.name}")
        )
        self.registry.counter("core.vms_created").inc()

        if config.prealloc:
            for gfn in range(pages):
                guest_mem.map_page(gfn, self.allocator.alloc())

        if config.mmu_mode is MMUVirtMode.SHADOW:
            mmu = ShadowMMU(
                self.physmem,
                self.allocator,
                guest_mem,
                self.costs,
                tlb_entries=self.tlb_entries,
                ring_compression=config.virt_mode is not VirtMode.HW_ASSIST,
                trap_pt_writes=config.virt_mode is not VirtMode.PARAVIRT,
            )
        else:
            hmode = config.mmu_mode is MMUVirtMode.HMODE
            mmu = (HModeMMU if hmode else NestedMMU)(
                self.physmem,
                self.allocator,
                guest_mem,
                self.costs,
                tlb_entries=self.tlb_entries,
            )
            if hmode:
                mmu.stall_fn = self._hmode_stall_cycles
            if config.prealloc:
                for gfn, hfn in guest_mem.map.items():
                    mmu.ept_map(gfn, hfn)

        cpu = CPUCore(mmu, self.costs, port_bus=None, cpu_id=0)
        vcpu = VCPU(vm, cpu, index=0)
        vm.vcpus.append(vcpu)

        if config.virt_mode is VirtMode.HW_ASSIST:
            if config.mmu_mode is MMUVirtMode.HMODE:
                cpu.policy = HModePolicy(
                    vcpu, HEDELEG_ALL, HIDELEG_ALL,
                    deleg_miss_fn=self._hmode_deleg_miss,
                )
                self.registry.counter("core.hmode.vms_created").inc()
            else:
                cpu.policy = HWAssistPolicy(
                    vcpu,
                    intercept_paging=config.mmu_mode is MMUVirtMode.SHADOW,
                )
        else:
            cpu.policy = DeprivilegedPolicy(vcpu)
            if isinstance(mmu, ShadowMMU):
                vcpu.on_virtual_mode_change = mmu.set_view
                mmu.set_view(kernel=True)

        self._attach_devices(vm)

        if config.virt_mode is VirtMode.BINARY_TRANSLATION:
            vm.bt = BTEngine(
                vcpu,
                self.costs,
                port_bus=vm.port_bus,
                hypercall_handler=lambda vc, num: self._do_hypercall(vm, vc, num),
            )
        else:
            vm.bt = None

        if config.virt_mode is VirtMode.PARAVIRT:
            # Shared info page: the guest reads/writes its virtual IE
            # here with plain loads/stores -- zero exits.
            guest_mem.write_u32(
                (shared_info_gfn(vm) << PAGE_SHIFT) + _SHARED_IE_OFFSET, 0
            )

        self.vms[config.name] = vm
        return vm

    def _attach_devices(self, vm: VirtualMachine) -> None:
        vm.port_bus = PortBus()
        dev_scope = vm.metrics.scope("dev")
        vm.pic = InterruptController(sink=vm, metrics=dev_scope.scope("irq"))
        vm.port_bus.register(vm.pic, PIC_BASE, 1)

        console = ConsoleDevice(irq=vm.pic.line(IRQ_CONSOLE_LINE))
        vm.port_bus.register(console, CONSOLE_BASE, 2)
        vm.devices["console"] = console

        timer = TimerDevice(vm.pic.line(IRQ_TIMER_LINE),
                            metrics=dev_scope.scope("timer"))
        vm.port_bus.register(timer, TIMER_BASE, 3)
        vm.devices["timer"] = timer

        power = PowerControl()
        vm.port_bus.register(power, POWER_BASE, 1)
        vm.devices["power"] = power

        mem = vm.guest_mem
        if vm.config.with_emulated_io:
            block = BlockDevice(mem, vm.pic.line(IRQ_BLOCK_LINE),
                                metrics=dev_scope.scope("block"))
            vm.port_bus.register(block, BLOCK_BASE, 6)
            vm.devices["block"] = block
            net = NetDevice(mem, vm.pic.line(IRQ_NET_LINE),
                            metrics=dev_scope.scope("net"))
            vm.port_bus.register(net, NET_BASE, 7)
            vm.devices["net"] = net
        if vm.config.with_virtio:
            vblock = VirtioBlockDevice(mem, vm.pic.line(IRQ_VIRTIO_BLK_LINE),
                                       metrics=dev_scope.scope("virtio_blk"))
            vm.port_bus.register(vblock, VIRTIO_BLK_BASE, 6)
            vm.devices["virtio_blk"] = vblock
            vnet = VirtioNetDevice(mem, vm.pic.line(IRQ_VIRTIO_NET_LINE),
                                   metrics=dev_scope.scope("virtio_net"))
            vm.port_bus.register(vnet, VIRTIO_NET_BASE, 14)
            vm.devices["virtio_net"] = vnet
        self.registry.counter("devices.attached").inc(len(vm.devices))

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Tear a VM down and return every host frame it held."""
        mmu = vm.vcpus[0].cpu.mmu
        if hasattr(mmu, "destroy"):
            mmu.destroy()
        for gfn in list(vm.guest_mem.map):
            hfn = vm.guest_mem.unmap_page(gfn)
            if self.sharing is None or self.sharing.drop_mapping(vm, gfn, hfn):
                self.allocator.free(hfn)
        self.vms.pop(vm.name, None)
        self.dirty_handlers.pop(vm.name, None)

    def load_program(self, vm: VirtualMachine, program) -> None:
        """Copy an assembled image into guest-physical memory."""
        vm.guest_mem.write_bytes(program.base, program.data)

    def reset_vcpu(self, vm: VirtualMachine, entry: int, index: int = 0) -> None:
        """Architectural reset of a vCPU to begin guest boot at ``entry``.

        Under HW_ASSIST the core really starts in kernel mode. Under the
        deprivileged modes the core is pinned to real *user* mode (the
        guest kernel never gets the hardware privilege) while the vCPU's
        virtual mode starts at kernel.
        """
        vcpu = vm.vcpus[index]
        cpu = vcpu.cpu
        cpu.reset(entry)
        vcpu.halted = False
        vcpu.vcsr = [0] * 16
        vcpu.vcsr[CSR.MODE] = MODE_KERNEL
        if vm.config.virt_mode is not VirtMode.HW_ASSIST:
            cpu.set_mode(1)  # MODE_USER: the guest is deprivileged
            mmu = cpu.mmu
            if isinstance(mmu, ShadowMMU) and mmu.ring_compression:
                mmu.set_view(kernel=True)

    # -- the run loop ---------------------------------------------------------

    def run(
        self,
        vm: VirtualMachine,
        max_guest_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        watchdog=None,
    ) -> RunOutcome:
        """Run vCPU 0 of ``vm`` until halt/shutdown/budget.

        ``watchdog`` (a
        :class:`~repro.faults.watchdog.GuestProgressWatchdog`) is beat
        with the retired-instruction counter immediately before each
        guest entry -- a legally idle (halted) VM never reaches that
        point without pending work, so it cannot false-positive. When
        the watchdog declares a hang, ``run`` returns
        :data:`RunOutcome.HUNG` and leaves the VM as-is for recovery
        (see :class:`~repro.faults.recovery.MicroRebooter`).
        """
        vcpu = vm.vcpus[0]
        cpu = vcpu.cpu
        start_instret = cpu.instret
        start_cycles = self._vm_time(vm)
        timer: TimerDevice = vm.devices["timer"]
        power: PowerControl = vm.devices["power"]
        stalled_pumps = 0

        while True:
            if power.shutdown_requested:
                return RunOutcome.SHUTDOWN
            if max_guest_instructions is not None and (
                cpu.instret - start_instret >= max_guest_instructions
            ):
                return RunOutcome.INSTR_LIMIT
            if max_cycles is not None and (
                self._vm_time(vm) - start_cycles >= max_cycles
            ):
                return RunOutcome.CYCLE_LIMIT

            timer.rebase_if_armed(cpu.cycles)
            timer.tick(cpu.cycles)

            # Retire-edge events due at the boundary we exited on must
            # fire before the idle check: an intercepted instruction
            # (e.g. a HLT exit) leaves the core's own run loop before
            # its top-of-loop poll can see an event due at that exact
            # edge, and a raise may be the only thing that wakes the
            # guest.
            events = cpu.events
            if events is not None and cpu.instret >= events.next_due:
                events.fire_due(cpu.instret)

            if self._vm_idle(vm, vcpu):
                deadline = timer.next_deadline()
                if deadline is None:
                    return RunOutcome.HALTED
                # Fast-forward idle time to the next timer expiry.
                cpu.cycles = max(cpu.cycles, deadline)
                timer.tick(cpu.cycles)

            if vm.config.virt_mode is not VirtMode.HW_ASSIST:
                self._maybe_inject(vm, vcpu)
                if self._vm_idle(vm, vcpu):
                    continue  # injection refused (virtual IE off): idle again

            if self.injector is not None and not vcpu.stalled and (
                self.injector.fires("vcpu.stall")
            ):
                vcpu.stalled = True

            if watchdog is not None and watchdog.beat(cpu.instret):
                return RunOutcome.HUNG
            if vcpu.stalled:
                stalled_pumps += 1
                if watchdog is None and stalled_pumps >= STALL_HUNG_PUMPS:
                    return RunOutcome.HUNG
            else:
                stalled_pumps = 0

            cycle_budget = None
            if max_cycles is not None:
                cycle_budget = max_cycles - (self._vm_time(vm) - start_cycles)
            try:
                self._enter_guest(vm, vcpu, max_guest_instructions,
                                  start_instret, cycle_budget)
            except VMExit as exit_:
                try:
                    self._handle_exit(vm, vcpu, exit_)
                except VMExit as nested:
                    # Servicing an exit can itself exit -- e.g. the
                    # emulator reflects a trap into a guest whose
                    # vector is gone (triple fault). One re-dispatch
                    # suffices: the only nested exit reflection can
                    # produce is TRIPLE_FAULT, which is terminal.
                    self._handle_exit(vm, vcpu, nested)

    def _enter_guest(self, vm, vcpu, max_guest_instructions, start_instret,
                     cycle_budget=None) -> None:
        cpu = vcpu.cpu
        slice_ = PUMP_SLICE
        if max_guest_instructions is not None:
            slice_ = min(
                slice_, max_guest_instructions - (cpu.instret - start_instret)
            )
        if vcpu.stalled:
            # A hung guest: wall-clock time passes but nothing retires.
            # The watchdog sees instret flat-lining and declares a hang.
            cpu.cycles += slice_
            return
        if (
            vm.bt is not None
            and vcpu.virtual_mode == MODE_KERNEL
            and not vcpu.halted
        ):
            bt_budget = slice_ * 4
            if cycle_budget is not None:
                bt_budget = min(bt_budget, cycle_budget)
            vm.bt.run(max_cycles=bt_budget)
            return
        # A per-entry cycle bound keeps ``max_cycles`` honest even when
        # the guest burns cycles without retiring instructions inside
        # one slice (trap-delivery livelock): without it the
        # instruction-bounded core run would never come back to the
        # pump loop's cycle check.
        result = cpu.run(max_instructions=slice_, cycle_guard=cycle_budget)
        if result.stop is StopReason.VMEXIT:
            raise result.exit
        if result.stop is StopReason.HALT:
            # Native HLT semantics can only be reached by HW_ASSIST
            # guests with nested paging and HLT interception off; treat
            # as a virtual halt either way.
            vcpu.halted = True

    def _vm_idle(self, vm: VirtualMachine, vcpu: VCPU) -> bool:
        if vm.config.virt_mode is VirtMode.HW_ASSIST:
            if (
                vcpu.cpu.halted
                and vcpu.cpu.pending_irqs
                and vcpu.cpu.csr[CSR.IE]
            ):
                return False  # core will wake on its own
            # With IE clear a pending IRQ cannot wake the core: entering
            # the guest would return HALT immediately and the pump loop
            # would spin forever. Architecturally dead, so: idle.
            return vcpu.cpu.halted or vcpu.halted
        if not (vcpu.halted or vcpu.cpu.halted):
            return False
        # A pending virq only makes the VM runnable if it can actually be
        # injected; with virtual IE clear the guest is architecturally
        # dead (mirrors the HW_ASSIST branch above).
        return not (vm.pending_virqs and self._guest_ie(vm, vcpu))

    # -- virtual interrupt injection ----------------------------------------

    def _guest_ie(self, vm: VirtualMachine, vcpu: VCPU) -> int:
        if vm.config.virt_mode is VirtMode.PARAVIRT:
            return vm.guest_mem.read_u32(
                (shared_info_gfn(vm) << PAGE_SHIFT) + _SHARED_IE_OFFSET
            )
        return vcpu.vcsr[CSR.IE]

    def _maybe_inject(self, vm: VirtualMachine, vcpu: VCPU) -> None:
        if not vm.pending_virqs or not self._guest_ie(vm, vcpu):
            return
        for cause in (Cause.IRQ_TIMER, Cause.IRQ_DEVICE):
            if cause in vm.pending_virqs:
                vm.pending_virqs.discard(cause)
                self._reflect(vm, vcpu, TrapInfo(cause, 0, epc=vcpu.cpu.pc))
                vm.stats.injected_irqs += 1
                vcpu.halted = False
                vcpu.cpu.halted = False
                return

    def _reflect(self, vm: VirtualMachine, vcpu: VCPU, info: TrapInfo) -> None:
        pv = vm.config.virt_mode is VirtMode.PARAVIRT
        shared_gpa = (shared_info_gfn(vm) << PAGE_SHIFT) if pv else 0
        if pv:
            # The shared page is the PV source of truth for IE; sync it
            # into vcsr so ESTATUS snapshots the right prior value.
            vcpu.vcsr[CSR.IE] = vm.guest_mem.read_u32(
                shared_gpa + _SHARED_IE_OFFSET
            )
        vcpu.reflect_trap(info)
        if pv:
            # Publish the trap block and disable events, Xen-style: the
            # guest reads cause/value/epc with plain loads (no exits).
            vm.guest_mem.write_u32(shared_gpa + _SHARED_IE_OFFSET, 0)
            vm.guest_mem.write_u32(shared_gpa + 4, vcpu.vcsr[CSR.ECAUSE])
            vm.guest_mem.write_u32(shared_gpa + 8, vcpu.vcsr[CSR.EVAL])
            vm.guest_mem.write_u32(shared_gpa + 12, vcpu.vcsr[CSR.EPC])

    # -- H-mode fault hooks -------------------------------------------------

    def _hmode_stall_cycles(self) -> int:
        """``hmode.gstage_stall`` site: extra cycles on a two-stage walk.

        Models contention on the hardware nested-walk path. Timing-only:
        guest-visible architectural state is untouched.
        """
        if self.injector is not None and self.injector.fires("hmode.gstage_stall"):
            self.registry.counter("core.hmode.gstage_stalls").inc()
            return 8 * self.costs.gstage_ref_cycles
        return 0

    def _hmode_deleg_miss(self) -> bool:
        """``hmode.delegation_miss`` site: one delegated trap exits anyway.

        The exit handler re-injects the trap, so the guest converges to
        the same architectural state; only the host pays a world switch.
        """
        if self.injector is not None and self.injector.fires("hmode.delegation_miss"):
            self.registry.counter("core.hmode.delegation_misses").inc()
            return True
        return False

    # -- exit dispatch -----------------------------------------------------

    def _vm_time(self, vm: VirtualMachine) -> int:
        return vm.vcpus[0].cpu.cycles + vm.stats.vmm_cycles

    def _handle_exit(self, vm: VirtualMachine, vcpu: VCPU, exit_: VMExit) -> None:
        costs = self.costs
        mode = vm.config.virt_mode
        reason = exit_.reason
        if reason is ExitReason.VMCALL:
            switch = costs.hypercall_cycles
            vm.stats.hypercalls += 1
        elif mode is VirtMode.BINARY_TRANSLATION:
            switch = costs.bt_reflect_cycles
        else:
            switch = costs.vmexit_cycles
        vm.stats.world_switches += 1
        handler_cycles = 0
        detail = ""

        if reason is ExitReason.GUEST_TRAP:
            info: TrapInfo = exit_.qual("trap")
            ins = exit_.qual("ins")
            if mode is VirtMode.HW_ASSIST:
                # H-mode: a non-delegated guest trap (or a delegation
                # miss injected by the fault site). Inject it exactly as
                # hardware event injection on VM entry would: the core's
                # own delivery microcode runs against real guest state,
                # so the result is bit-identical to native delegation.
                vcpu.cpu.deliver_trap(info)
                detail = info.cause.name.lower()
                if exit_.qual("deleg_miss"):
                    detail = f"deleg_miss.{detail}"
                handler_cycles = costs.emulate_cycles
                self.registry.counter("core.hmode.trap_exits").inc()
            elif info.cause is Cause.PRIV and not vcpu.virtual_user:
                # Only the guest *kernel* (deprivileged onto real user
                # mode) gets its privileged instructions emulated. A
                # PRIV trap raised while the virtual mode is user is the
                # guest's own application touching privileged state; the
                # hardware answer is a trap into the guest kernel, so
                # reflect it -- emulating here would be a guest-level
                # privilege escalation (and diverges from HW_ASSIST).
                if ins is None:
                    ins = vcpu.cpu.fetch(vcpu.cpu.pc)
                detail = emulate_privileged(vcpu, ins, port_bus=vm.port_bus)
                handler_cycles = costs.emulate_cycles
            else:
                self._reflect(vm, vcpu, info)
                detail = info.cause.name.lower()
                handler_cycles = costs.trap_cycles
        elif reason is ExitReason.VMCALL:
            detail = self._do_hypercall(vm, vcpu, exit_.qual("num"))
        elif reason in (ExitReason.IO_IN, ExitReason.IO_OUT):
            handler_cycles = costs.emulate_cycles
            port = exit_.qual("port")
            cpu = vcpu.cpu
            if reason is ExitReason.IO_OUT:
                vm.port_bus.io_out(port, exit_.qual("value"))
            else:
                ins = cpu.fetch(cpu.pc)
                cpu.write_reg(ins.rd, vm.port_bus.io_in(port))
            cpu.pc = (cpu.pc + 4) & 0xFFFFFFFF
            detail = f"port_{port:#x}"
        elif reason is ExitReason.CSR_WRITE:
            # HW-assist + shadow: intercepted PTBR write.
            value = exit_.qual("value")
            vcpu.cpu.csr[CSR.PTBR] = value & 0xFFFFFFFF
            vcpu.cpu.mmu.switch_guest_root(value)
            vcpu.cpu.pc = (vcpu.cpu.pc + 4) & 0xFFFFFFFF
            handler_cycles = costs.emulate_cycles
            detail = "ptbr"
        elif reason is ExitReason.PRIV_INSTR and exit_.qual("op") is Op.INVLPG:
            vcpu.cpu.mmu.invlpg(exit_.qual("va"))
            vcpu.cpu.pc = (vcpu.cpu.pc + 4) & 0xFFFFFFFF
            handler_cycles = costs.emulate_cycles
            detail = "invlpg"
        elif reason is ExitReason.HLT:
            vcpu.cpu.pc = (vcpu.cpu.pc + 4) & 0xFFFFFFFF
            vcpu.cpu.halted = True
            vcpu.halted = True
            detail = "hlt"
        elif reason is ExitReason.PAGE_FAULT:
            detail, handler_cycles = self._handle_memory_exit(vm, vcpu, exit_)
        elif reason is ExitReason.TRIPLE_FAULT:
            raise GuestError(
                f"VM {vm.name}: triple fault (cause="
                f"{exit_.qual('cause')}, value={exit_.qual('value'):#x}, "
                f"pc={exit_.guest_pc:#x})"
            )
        else:
            raise GuestError(f"unhandled VM exit {exit_!r}")

        vm.stats.vmm_cycles += switch + handler_cycles
        vm.exit_stats.record(reason, switch + handler_cycles, detail)
        if self.trace is not None:
            self.trace.emit(
                self._vm_time(vm), "vmexit", reason.value,
                vm=vm.name, detail=detail, pc=vcpu.cpu.pc,
                cycles=switch + handler_cycles,
            )

    def _handle_memory_exit(self, vm, vcpu, exit_):
        costs = self.costs
        kind = exit_.qual("kind")
        mmu = vcpu.cpu.mmu
        if kind == "shadow_fill":
            mmu.fill(exit_.qual("va"), exit_.qual("access"))
            vm.stats.shadow_fills += 1
            return "shadow_fill", costs.shadow_fill_cycles
        if kind == "pt_write":
            ins = vcpu.cpu.fetch(vcpu.cpu.pc)
            emulate_guest_store(vcpu, ins, vm.guest_mem, mmu)
            vm.stats.shadow_pt_writes += 1
            return "pt_write", costs.shadow_ptwrite_cycles
        if kind == "dirty_log":
            gfn = exit_.qual("gfn")
            handler = self.dirty_handlers.get(vm.name)
            if handler is not None:
                handler(vm, gfn)  # dirty logging sees every write, COW too
            for name, wf_handler in self._write_fault_handlers:
                if wf_handler(vm, gfn):
                    return name, costs.shadow_fill_cycles
            mmu.unprotect_gfn(gfn)
            return "dirty_log", costs.emulate_cycles
        if kind == "ept_violation":
            gpa = exit_.qual("gpa")
            gfn = gpa >> PAGE_SHIFT
            vm.stats.ept_violations += 1
            if gfn >= vm.num_pages:
                raise GuestError(
                    f"VM {vm.name}: access to gPA {gpa:#x} beyond guest RAM"
                )
            if not vm.guest_mem.is_mapped(gfn):
                claimant = self._dispatch_ept_fault(
                    vm, gfn, exit_.qual("access")
                )
                # Whatever re-backed the page (swap-in, post-copy
                # fetch, demand zero), the balloon no longer holds it.
                vm.ballooned_gfns.discard(gfn)
            hfn = vm.guest_mem.map.get(gfn)
            if hfn is None:
                raise MemoryError_(
                    f"EPT fault handler {claimant!r} left gfn {gfn} "
                    f"unmapped in {vm.name}"
                )
            if mmu.ept.lookup(gfn << PAGE_SHIFT) is None:
                mmu.ept_map(gfn, hfn)
            return "ept_violation", costs.shadow_fill_cycles
        raise GuestError(f"unknown memory exit kind {kind!r}")

    # -- hypercalls ---------------------------------------------------------

    def _do_hypercall(self, vm: VirtualMachine, vcpu: VCPU, num: int) -> str:
        cpu = vcpu.cpu
        a0, a1 = cpu.regs[1], cpu.regs[2]
        advance = True
        try:
            call = HypercallNumbers(num)
        except ValueError:
            cpu.write_reg(1, 0xFFFFFFFF)  # unknown hypercall: -1
            cpu.pc = (cpu.pc + 4) & 0xFFFFFFFF
            return "unknown"

        if call is HypercallNumbers.SET_VBAR:
            vcpu.vcsr[CSR.VBAR] = a0
        elif call is HypercallNumbers.SET_PTBR:
            vcpu.vcsr[CSR.PTBR] = a0
            cpu.mmu.set_root(a0)
        elif call is HypercallNumbers.MMU_BATCH:
            count = a1
            for i in range(count):
                gpa = vm.guest_mem.read_u32(a0 + i * 8)
                value = vm.guest_mem.read_u32(a0 + i * 8 + 4)
                vm.guest_mem.write_u32(gpa, value)
                if isinstance(cpu.mmu, ShadowMMU):
                    cpu.mmu.handle_guest_pt_write(gpa)
                vm.stats.vmm_cycles += 2 * self.costs.mem_ref_cycles
            cpu.write_reg(1, count)
        elif call is HypercallNumbers.SET_IE:
            vcpu.vcsr[CSR.IE] = a0 & 1
            if vm.config.virt_mode is VirtMode.PARAVIRT:
                vm.guest_mem.write_u32(
                    (shared_info_gfn(vm) << PAGE_SHIFT) + _SHARED_IE_OFFSET,
                    a0 & 1,
                )
        elif call is HypercallNumbers.IRET:
            vcpu.emulate_iret()
            if vm.config.virt_mode is VirtMode.PARAVIRT:
                vm.guest_mem.write_u32(
                    (shared_info_gfn(vm) << PAGE_SHIFT) + _SHARED_IE_OFFSET,
                    vcpu.vcsr[CSR.IE],
                )
            advance = False
        elif call is HypercallNumbers.CONSOLE_PUTC:
            vm.devices["console"].port_write(CONSOLE_BASE, a0)
        elif call is HypercallNumbers.YIELD:
            pass  # scheduling hint; meaningful under the DES scheduler
        elif call is HypercallNumbers.HALT:
            vcpu.halted = True
        elif call is HypercallNumbers.INVLPG:
            cpu.mmu.invlpg(a0)
        elif call is HypercallNumbers.BALLOON_GIVE:
            self._balloon_give(vm, vcpu, a0)
        elif call is HypercallNumbers.BALLOON_TAKE:
            self._balloon_take(vm, vcpu, a0)
        if advance:
            cpu.pc = (cpu.pc + 4) & 0xFFFFFFFF
        return call.name.lower()

    def _balloon_give(self, vm: VirtualMachine, vcpu: VCPU, gfn: int) -> None:
        ok = self.balloon_give(vm, gfn)
        vcpu.cpu.write_reg(1, 0 if ok else 0xFFFFFFFF)

    def _balloon_take(self, vm: VirtualMachine, vcpu: VCPU, gfn: int) -> None:
        ok = self.balloon_take(vm, gfn)
        vcpu.cpu.write_reg(1, 0 if ok else 0xFFFFFFFF)

    def balloon_give(self, vm: VirtualMachine, gfn: int) -> bool:
        """Balloon mechanism: surrender one backed guest frame.

        The hypercall handler and the host-side pressure controller
        (modelling a cooperating guest balloon driver) both land here.
        Shared frames route through the sharer's refcount, so a balloon
        give can never free a frame other VMs still map.
        """
        if gfn >= vm.num_pages or not vm.guest_mem.is_mapped(gfn):
            return False
        vm.vcpus[0].cpu.mmu.drop_gfn(gfn)
        hfn = vm.guest_mem.unmap_page(gfn)
        if self.sharing is None or self.sharing.drop_mapping(vm, gfn, hfn):
            self.allocator.free(hfn)
        vm.ballooned_gfns.add(gfn)
        self.registry.counter("overcommit.balloon.inflations").inc()
        self.registry.counter("overcommit.operations").inc()
        return True

    def balloon_take(self, vm: VirtualMachine, gfn: int) -> bool:
        """Balloon deflate: re-populate a previously surrendered gfn."""
        if gfn not in vm.ballooned_gfns:
            return False
        hfn = self.allocator.alloc()
        vm.guest_mem.map_page(gfn, hfn)
        vm.ballooned_gfns.discard(gfn)
        mmu = vm.vcpus[0].cpu.mmu
        if isinstance(mmu, TwoStageMMU):
            mmu.ept_map(gfn, hfn)
        self.registry.counter("overcommit.balloon.deflations").inc()
        self.registry.counter("overcommit.operations").inc()
        return True
