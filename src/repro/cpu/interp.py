"""The VISA interpreter core.

One :class:`CPUCore` executes instructions against a pluggable MMU and
port bus, charging cycles from a :class:`~repro.mem.costs.CostModel`.
Virtualization interposes through a :class:`VirtPolicy`: every
architecturally sensitive point (traps, CSR access, I/O, HLT, VMCALL,
INVLPG) first offers the event to the policy, which can

* return :data:`NATIVE` -- the CPU applies bare-hardware semantics;
* return a replacement value / handled marker -- the policy emulated the
  event against virtual state;
* raise :class:`~repro.cpu.exits.VMExit` -- a world switch to the VMM.

With ``policy=None`` the core is exactly a bare machine; this is the
"native" baseline in experiment E1.
"""

import enum
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.isa import (
    CSR,
    Cause,
    Instruction,
    MODE_KERNEL,
    MODE_USER,
    Op,
    PUBLIC_CSRS,
    decode,
)
from repro.cpu.mmu import MMUBase
from repro.mem.costs import CostModel
from repro.mem.paging import AccessType, PageFault
from repro.util.errors import GuestError

#: Sentinel returned by policy hooks meaning "apply native semantics".
NATIVE = object()
#: Sentinel returned by policy hooks meaning "event fully handled".
HANDLED = object()

#: Decode-cache sizing: evict the oldest ``_DECODE_EVICT`` entries once
#: the cache passes ``_DECODE_CACHE_MAX`` instead of dropping everything.
_DECODE_CACHE_MAX = 65536
_DECODE_EVICT = 8192

_READONLY_CSRS = frozenset(
    {int(CSR.MODE), int(CSR.CYCLES), int(CSR.INSTRET), int(CSR.CPUID)}
)

#: IRQ delivery priority (first match wins).
_IRQ_PRIORITY = (Cause.IRQ_TIMER, Cause.IRQ_DEVICE)


@dataclass(frozen=True)
class TrapInfo:
    """A trap that is about to be (or was) delivered."""

    cause: Cause
    value: int
    epc: int


class StopReason(enum.Enum):
    HALT = "halt"
    INSTR_LIMIT = "instr_limit"
    CYCLE_LIMIT = "cycle_limit"
    VMEXIT = "vmexit"
    #: An attached EventSchedule fired with ``exit_on_fire`` set: the
    #: caller (a VMM pump) gets control to inject before re-entry.
    EVENT = "event"


@dataclass
class RunResult:
    """Outcome of one :meth:`CPUCore.run` call."""

    stop: StopReason
    instructions: int
    cycles: int
    exit: Optional[VMExit] = None


class VirtPolicy:
    """Default policy: everything native. VMM policies override hooks.

    Hooks may raise :class:`VMExit`; any other return contract is given
    per method. ``cpu`` is the calling core.
    """

    def trap(self, cpu: "CPUCore", info: TrapInfo, ins: Optional[Instruction]):
        """A trap is about to be delivered to the guest vector."""
        return NATIVE

    def csr_read(self, cpu: "CPUCore", csr: int, user: bool):
        """Return the value to load, or NATIVE."""
        return NATIVE

    def csr_write(self, cpu: "CPUCore", csr: int, value: int):
        """Return HANDLED if emulated, or NATIVE."""
        return NATIVE

    def io(self, cpu: "CPUCore", is_in: bool, port: int, value: int):
        """For IN return the value read; for OUT return HANDLED; or NATIVE."""
        return NATIVE

    def vmcall(self, cpu: "CPUCore", num: int):
        """Return HANDLED / a result, or NATIVE (VMCALL is then illegal)."""
        return NATIVE

    def hlt(self, cpu: "CPUCore"):
        """Return HANDLED to swallow the halt, or NATIVE to stop the loop."""
        return NATIVE

    def invlpg(self, cpu: "CPUCore", va: int):
        """Return HANDLED if emulated, or NATIVE."""
        return NATIVE

    def sensitive(self, cpu: "CPUCore", op: Op):
        """User-mode STI/CLI. Return HANDLED to emulate, NATIVE to ignore."""
        return NATIVE


class CPUCore:
    """One VISA hardware thread."""

    def __init__(
        self,
        mmu: MMUBase,
        costs: Optional[CostModel] = None,
        port_bus=None,
        cpu_id: int = 0,
        jit: Optional[bool] = None,
    ):
        self.mmu = mmu
        self.costs = costs or CostModel()
        self.port_bus = port_bus
        self.policy: Optional[VirtPolicy] = None

        self.regs: List[int] = [0] * 16
        self.pc = 0
        self.csr: List[int] = [0] * 16
        self.csr[CSR.CPUID] = cpu_id
        self.cycles = 0
        self.instret = 0
        self.pending_irqs = set()
        self.halted = False
        #: Optional :class:`~repro.devices.schedule.EventSchedule`:
        #: asynchronous device events keyed on this core's retire count,
        #: fired at exact instruction edges by every run loop. None
        #: means no schedule (the common case).
        self.events = None
        #: Budget ceilings published for self-looping compiled blocks:
        #: absolute instret/cycles values past which a block must return
        #: to the dispatcher instead of looping in place. Set per run by
        #: :meth:`_run_compiled`; the sentinel means "no budget".
        self._loop_stop = 1 << 62
        self._cycle_stop = 1 << 62

        self._decode_cache: Dict[Tuple[int, int], Instruction] = {}
        #: pfn -> decode-cache keys living in that frame (for targeted
        #: invalidation when a store lands on cached code).
        self._decode_frames: Dict[int, Set[Tuple[int, int]]] = {}
        #: Frames holding cached decodes and/or compiled blocks; the
        #: physmem write watcher fires :meth:`_on_code_write` for these.
        self._code_pfns: Set[int] = set()
        #: True/False = explicit; None = default on. The compiled path
        #: additionally requires no ``max_cycles`` budget, and under a
        #: VMM policy no ``cycle_guard`` either (see :meth:`run`).
        self.jit_enabled = True if jit is None else jit
        self._jit = None  # lazily: BlockJIT
        physmem = getattr(mmu, "physmem", None)
        if physmem is not None and hasattr(physmem, "watch_writes"):
            physmem.watch_writes(self._code_pfns, self._on_code_write)

    # -- architectural helpers ----------------------------------------------

    @property
    def mode(self) -> int:
        return self.csr[CSR.MODE]

    @property
    def user_mode(self) -> bool:
        return self.csr[CSR.MODE] == MODE_USER

    def set_mode(self, mode: int) -> None:
        self.csr[CSR.MODE] = mode

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & 0xFFFFFFFF

    def assert_irq(self, cause: Cause) -> None:
        """Latch an interrupt for delivery at the next instruction edge."""
        if cause not in (Cause.IRQ_TIMER, Cause.IRQ_DEVICE):
            raise ValueError(f"{cause} is not an interrupt cause")
        self.pending_irqs.add(cause)
        self.halted = False

    def reset(self, pc: int) -> None:
        """Architectural reset: kernel mode, paging off, IRQs clear."""
        self.regs = [0] * 16
        self.pc = pc & 0xFFFFFFFF
        cpu_id = self.csr[CSR.CPUID]
        self.csr = [0] * 16
        self.csr[CSR.CPUID] = cpu_id
        self.csr[CSR.MODE] = MODE_KERNEL
        self.pending_irqs.clear()
        self.halted = False

    # -- memory access (through the MMU) -------------------------------------

    def load_u32(self, va: int) -> int:
        pa, cyc = self.mmu.translate(va, AccessType.READ, self.user_mode)
        self.cycles += cyc
        return self.mmu.physmem.read_u32(pa)

    def store_u32(self, va: int, value: int) -> None:
        pa, cyc = self.mmu.translate(va, AccessType.WRITE, self.user_mode)
        self.cycles += cyc
        self.mmu.physmem.write_u32(pa, value)

    def load_u8(self, va: int) -> int:
        pa, cyc = self.mmu.translate(va, AccessType.READ, self.user_mode)
        self.cycles += cyc
        return self.mmu.physmem.read_u8(pa)

    def store_u8(self, va: int, value: int) -> None:
        pa, cyc = self.mmu.translate(va, AccessType.WRITE, self.user_mode)
        self.cycles += cyc
        self.mmu.physmem.write_u8(pa, value)

    # -- trap machinery -----------------------------------------------------

    def deliver_trap(self, info: TrapInfo) -> None:
        """Unconditionally vector a trap into the (guest) kernel.

        Public because VMMs use it to *inject* events (reflected traps,
        virtual interrupts) exactly the way hardware event injection
        works on VM entry.
        """
        vbar = self.csr[CSR.VBAR]
        if vbar == 0:
            if self.policy is not None:
                raise VMExit(ExitReason.TRIPLE_FAULT, guest_pc=self.pc,
                             cause=info.cause, value=info.value)
            raise GuestError(
                f"triple fault: trap {info.cause.name} with no vector "
                f"installed (pc={self.pc:#x}, value={info.value:#x})"
            )
        self.csr[CSR.ESTATUS] = self.csr[CSR.MODE] | (self.csr[CSR.IE] << 1)
        self.csr[CSR.MODE] = MODE_KERNEL
        self.csr[CSR.IE] = 0
        self.csr[CSR.EPC] = info.epc & 0xFFFFFFFF
        self.csr[CSR.ECAUSE] = int(info.cause)
        self.csr[CSR.EVAL] = info.value & 0xFFFFFFFF
        self.pc = vbar
        self.cycles += self.costs.trap_cycles

    def _trap(self, cause: Cause, value: int, epc: int,
              ins: Optional[Instruction] = None) -> None:
        info = TrapInfo(cause, value, epc)
        if self.policy is not None:
            outcome = self.policy.trap(self, info, ins)
            if outcome is HANDLED:
                return
            assert outcome is NATIVE, f"bad trap-hook return {outcome!r}"
        self.deliver_trap(info)

    # -- fetch/decode ---------------------------------------------------------

    def fetch(self, va: int) -> Instruction:
        """Fetch and decode the instruction at ``va`` (charges MMU cycles)."""
        pa, cyc = self.mmu.translate(va, AccessType.EXEC, self.user_mode)
        self.cycles += cyc
        word = self.mmu.physmem.read_u32(pa)
        cached = self._decode_cache.get((pa, word))
        if cached is not None and not cached.has_imm32:
            return cached
        imm_word = 0
        if (word >> 24) & 0x80:
            imm_va = va + 4
            if (va & 0xFFF) + 8 > 0x1000:
                imm_pa, cyc2 = self.mmu.translate(
                    imm_va, AccessType.EXEC, self.user_mode
                )
                self.cycles += cyc2
            else:
                imm_pa = pa + 4
            imm_word = self.mmu.physmem.read_u32(imm_pa)
        key = (pa, word)
        cached = self._decode_cache.get(key)
        if cached is not None and cached.imm32 == (imm_word & 0xFFFFFFFF):
            return cached
        ins = decode(word, imm_word)
        if len(self._decode_cache) > _DECODE_CACHE_MAX:
            self._evict_decode_entries()
        self._decode_cache[key] = ins
        pfn = pa >> 12
        frames = self._decode_frames.get(pfn)
        if frames is None:
            frames = self._decode_frames[pfn] = set()
            self._code_pfns.add(pfn)
        frames.add(key)
        return ins

    def _evict_decode_entries(self) -> None:
        """Drop the oldest decode entries (dict preserves insert order)."""
        cache = self._decode_cache
        frames = self._decode_frames
        for key in list(islice(iter(cache), _DECODE_EVICT)):
            del cache[key]
            pfn = key[0] >> 12
            keys = frames.get(pfn)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del frames[pfn]
                    self._unwatch_pfn_if_unused(pfn)

    def _unwatch_pfn_if_unused(self, pfn: int) -> None:
        if pfn in self._decode_frames:
            return
        jit = self._jit
        if jit and pfn in jit._frame_keys:
            return
        self._code_pfns.discard(pfn)

    def _on_code_write(self, pfn: int) -> None:
        """Physmem write watcher: a store landed on cached code."""
        keys = self._decode_frames.pop(pfn, None)
        if keys:
            cache = self._decode_cache
            for key in keys:
                cache.pop(key, None)
        jit = self._jit
        if jit:
            jit.invalidate_pfn(pfn)
        self._code_pfns.discard(pfn)

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (or deliver one pending interrupt)."""
        if self.csr[CSR.IE] and self.pending_irqs:
            for cause in _IRQ_PRIORITY:
                if cause in self.pending_irqs:
                    self.pending_irqs.discard(cause)
                    self._trap(cause, 0, epc=self.pc)
                    return
        pc = self.pc
        try:
            ins = self.fetch(pc)
        except PageFault as fault:
            self.cycles += self.costs.instr_cycles
            if pc == self.csr[CSR.VBAR] and not self.user_mode:
                # The kernel-mode fetch of the trap vector itself faulted:
                # delivering PF_EXEC would re-enter the vector with
                # identical translation state and fault again, forever
                # (so run() would never terminate -- no instruction ever
                # retires). Same terminal condition as a trap with no
                # vector installed.
                if self.policy is not None:
                    raise VMExit(ExitReason.TRIPLE_FAULT, guest_pc=pc,
                                 cause=Cause.PF_EXEC, value=fault.vaddr)
                raise GuestError(
                    f"triple fault: PF_EXEC fetching the trap vector "
                    f"(pc={pc:#x}, value={fault.vaddr:#x})"
                )
            self._trap(Cause.PF_EXEC, fault.vaddr, epc=pc)
            return
        self.cycles += self.costs.instr_cycles
        self.execute(ins)

    def execute(self, ins: Instruction) -> None:
        """Execute one decoded instruction at the current pc.

        Exposed (not underscored) because the binary translator drives
        it directly for innocuous instructions.
        """
        self.instret += 1
        pc = self.pc
        next_pc = (pc + ins.length) & 0xFFFFFFFF
        op = ins.op
        regs = self.regs

        if op.value <= Op.MOVI.value:  # ALU / moves
            if op is Op.MOVI:
                self.write_reg(ins.rd, ins.imm32)
            elif op is Op.MOV:
                self.write_reg(ins.rd, regs[ins.ra])
            elif op is Op.NOP:
                pass
            else:
                a = regs[ins.ra]
                is_imm, bsrc = ins.operand_b
                b = bsrc if is_imm else regs[bsrc]
                value = self._alu(op, a, b, pc)
                if value is None:  # DIV0 trap was raised
                    return
                self.write_reg(ins.rd, value)
            self.pc = next_pc
            return

        if op.value <= Op.STB.value:  # loads/stores
            addr = (regs[ins.ra] + ins.simm12) & 0xFFFFFFFF
            try:
                if op is Op.LD:
                    self.write_reg(ins.rd, self.load_u32(addr))
                elif op is Op.ST:
                    self.store_u32(addr, regs[ins.rb])
                elif op is Op.LDB:
                    self.write_reg(ins.rd, self.load_u8(addr))
                else:
                    self.store_u8(addr, regs[ins.rb] & 0xFF)
            except PageFault as fault:
                cause = (
                    Cause.PF_WRITE
                    if fault.access is AccessType.WRITE
                    else Cause.PF_READ
                )
                self._trap(cause, fault.vaddr, epc=pc, ins=ins)
                return
            except VMExit:
                # The monitor services the exit (shadow fill, dirty
                # log, PT-write emulation) and the instruction either
                # re-executes or is completed by the emulator; either
                # way this attempt did not retire. Compiled blocks
                # restore the same boundary state on their exception
                # path, keeping instret bit-identical across engines.
                self.instret -= 1
                raise
            self.pc = next_pc
            return

        if op.value <= Op.BGEU.value:  # control transfer
            self._control(ins, op, next_pc)
            return

        self._system(ins, op, pc, next_pc)

    def run(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        cycle_guard: Optional[int] = None,
    ) -> RunResult:
        """Run until halt, a limit, or a VM exit.

        Dispatches to the compiled-block engine over any MMU and under
        any VMM policy, unless a cycle budget must stop at an exact
        instruction edge: ``max_cycles`` always, and ``cycle_guard``
        under a policy (the VMM's scheduler quantum or hang guard).
        Compiled blocks stop only at block boundaries, so those runs
        take the reference interpreter loop.

        ``cycle_guard`` is a coarse safety net against guests that burn
        cycles without retiring instructions (trap-delivery livelock):
        on a bare core (no policy) it does not demote the core to the
        reference interpreter, and the compiled engine only honours it
        at block boundaries. A guard trip returns
        :data:`StopReason.CYCLE_LIMIT`; the precise stop state is *not*
        part of the bit-identical interp/JIT contract (the differential
        fuzzer compares guard trips by class only).
        """
        if self.jit_enabled and max_cycles is None and (
            self.policy is None or cycle_guard is None
        ):
            jit = self._jit
            if jit is None:
                from repro.cpu.jit import BlockJIT

                jit = self._jit = BlockJIT(self)
            return self._run_compiled(jit, max_instructions, cycle_guard)
        return self._run_interp(max_instructions, max_cycles, cycle_guard)

    def _run_compiled(
        self,
        jit,
        max_instructions: Optional[int],
        cycle_guard: Optional[int] = None,
    ) -> RunResult:
        """Block-at-a-time loop; falls back to :meth:`step` per slow case."""
        jit.check_costs()
        start_instr = self.instret
        start_cycles = self.cycles
        limit = max_instructions
        events = self.events
        limit_stop = start_instr + limit if limit is not None else 1 << 62
        # Self-looping closures honour _loop_stop at every loop edge, so
        # folding the next event edge into it is the irq-poll guard: the
        # closure returns to this dispatcher exactly at the due edge.
        self._loop_stop = (
            min(limit_stop, events.next_due) if events is not None
            else limit_stop
        )
        self._cycle_stop = (
            start_cycles + cycle_guard if cycle_guard is not None else 1 << 62
        )
        lookup = jit.lookup
        step = self.step
        csr = self.csr
        ie = int(CSR.IE)
        mo = int(CSR.MODE)
        while True:
            if events is not None and self.instret >= events.next_due:
                fired = events.fire_due(self.instret)
                self._loop_stop = min(limit_stop, events.next_due)
                if fired and events.exit_on_fire:
                    return RunResult(
                        StopReason.EVENT,
                        self.instret - start_instr,
                        self.cycles - start_cycles,
                    )
            if cycle_guard is not None and (
                self.cycles - start_cycles >= cycle_guard
            ):
                return RunResult(
                    StopReason.CYCLE_LIMIT,
                    self.instret - start_instr,
                    self.cycles - start_cycles,
                )
            if self.halted:
                if csr[ie] and self.pending_irqs:
                    self.halted = False
                else:
                    return RunResult(
                        StopReason.HALT,
                        self.instret - start_instr,
                        self.cycles - start_cycles,
                    )
            try:
                if csr[ie] and self.pending_irqs:
                    if limit is not None and (
                        self.instret - start_instr >= limit
                    ):
                        return RunResult(
                            StopReason.INSTR_LIMIT,
                            self.instret - start_instr,
                            self.cycles - start_cycles,
                        )
                    step()
                    continue
                if limit is None:
                    blk = lookup(self.pc, csr[mo])
                    if blk is None or (
                        events is not None
                        and blk[1] > events.next_due - self.instret
                    ):
                        # No straight-line block may retire past a due
                        # event edge: fall back to stepping so the edge
                        # lands between instructions, like the oracle.
                        step()
                    else:
                        blk[0](self)
                else:
                    done = self.instret - start_instr
                    if done >= limit:
                        return RunResult(
                            StopReason.INSTR_LIMIT,
                            done,
                            self.cycles - start_cycles,
                        )
                    blk = lookup(self.pc, csr[mo])
                    if blk is None or blk[1] > limit - done or (
                        events is not None
                        and blk[1] > events.next_due - self.instret
                    ):
                        step()
                    else:
                        blk[0](self)
            except VMExit as exit_:
                return RunResult(
                    StopReason.VMEXIT,
                    self.instret - start_instr,
                    self.cycles - start_cycles,
                    exit=exit_,
                )

    def jit_stats(self) -> Dict[str, int]:
        """Host-compiler counters (all zero when the JIT never engaged)."""
        stats = {
            "enabled": int(self.jit_enabled),
            "active": int(bool(self._jit)),
            "decode_cache_entries": len(self._decode_cache),
            "blocks_compiled": 0,
            "blocks_invalidated": 0,
            "fallback_steps": 0,
            "blocks_cached": 0,
            "ic_hits": 0,
            "pc_cache_entries": 0,
        }
        if self._jit:
            stats.update(self._jit.stats())
        return stats

    def _run_interp(
        self,
        max_instructions: Optional[int] = None,
        max_cycles: Optional[int] = None,
        cycle_guard: Optional[int] = None,
    ) -> RunResult:
        """The reference interpreter loop (the correctness oracle)."""
        start_instr = self.instret
        start_cycles = self.cycles
        if cycle_guard is not None and (
            max_cycles is None or cycle_guard < max_cycles
        ):
            max_cycles = cycle_guard
        events = self.events
        while True:
            if events is not None and self.instret >= events.next_due:
                # The architected delivery rule: an event due at retire
                # edge N is raised after instruction N retires and, if
                # unmasked, delivered (inside step) before the fetch of
                # N+1. Firing precedes the halt check so a raise can
                # wake a halted core.
                if events.fire_due(self.instret) and events.exit_on_fire:
                    return RunResult(
                        StopReason.EVENT,
                        self.instret - start_instr,
                        self.cycles - start_cycles,
                    )
            if self.halted:
                if self.csr[CSR.IE] and self.pending_irqs:
                    self.halted = False
                else:
                    return RunResult(
                        StopReason.HALT,
                        self.instret - start_instr,
                        self.cycles - start_cycles,
                    )
            if max_instructions is not None and (
                self.instret - start_instr >= max_instructions
            ):
                return RunResult(
                    StopReason.INSTR_LIMIT,
                    self.instret - start_instr,
                    self.cycles - start_cycles,
                )
            if max_cycles is not None and (
                self.cycles - start_cycles >= max_cycles
            ):
                return RunResult(
                    StopReason.CYCLE_LIMIT,
                    self.instret - start_instr,
                    self.cycles - start_cycles,
                )
            try:
                self.step()
            except VMExit as exit_:
                return RunResult(
                    StopReason.VMEXIT,
                    self.instret - start_instr,
                    self.cycles - start_cycles,
                    exit=exit_,
                )

    # -- opcode groups -----------------------------------------------------

    def _alu(self, op: Op, a: int, b: int, pc: int) -> Optional[int]:
        if op is Op.ADD:
            return (a + b) & 0xFFFFFFFF
        if op is Op.SUB:
            return (a - b) & 0xFFFFFFFF
        if op is Op.AND:
            return a & b
        if op is Op.OR:
            return a | b
        if op is Op.XOR:
            return a ^ b
        if op is Op.SHL:
            return (a << (b & 31)) & 0xFFFFFFFF
        if op is Op.SHR:
            return (a & 0xFFFFFFFF) >> (b & 31)
        if op is Op.SAR:
            return (_signed(a) >> (b & 31)) & 0xFFFFFFFF
        if op is Op.SLT:
            return 1 if _signed(a) < _signed(b) else 0
        if op is Op.SLTU:
            return 1 if (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF) else 0
        if op is Op.MUL:
            self.cycles += self.costs.mul_extra_cycles
            return (a * b) & 0xFFFFFFFF
        if op is Op.DIVU or op is Op.REMU:
            self.cycles += self.costs.div_extra_cycles
            if b == 0:
                self._trap(Cause.DIV0, 0, epc=pc)
                return None
            return (a // b if op is Op.DIVU else a % b) & 0xFFFFFFFF
        raise AssertionError(f"not an ALU op: {op}")

    def _control(self, ins: Instruction, op: Op, next_pc: int) -> None:
        regs = self.regs
        if op is Op.JAL:
            self.write_reg(ins.rd, next_pc)
            self.pc = ins.imm32
            return
        if op is Op.JALR:
            target = regs[ins.ra]
            self.write_reg(ins.rd, next_pc)
            self.pc = target & 0xFFFFFFFF
            return
        a, b = regs[ins.ra], regs[ins.rb]
        if op is Op.BEQ:
            taken = a == b
        elif op is Op.BNE:
            taken = a != b
        elif op is Op.BLT:
            taken = _signed(a) < _signed(b)
        elif op is Op.BGE:
            taken = _signed(a) >= _signed(b)
        elif op is Op.BLTU:
            taken = a < b
        else:  # BGEU
            taken = a >= b
        self.pc = ins.imm32 if taken else next_pc

    def _system(self, ins: Instruction, op: Op, pc: int, next_pc: int) -> None:
        user = self.user_mode
        policy = self.policy

        if op is Op.SYSCALL:
            # EPC points past the instruction so IRET resumes after it.
            self._trap(Cause.SYSCALL, ins.simm12 & 0xFFF, epc=next_pc, ins=ins)
            return
        if op is Op.BRK:
            self._trap(Cause.BREAK, 0, epc=next_pc, ins=ins)
            return
        if op is Op.VMCALL:
            if policy is not None:
                outcome = policy.vmcall(self, ins.simm12 & 0xFFF)
                if outcome is not NATIVE:
                    self.pc = next_pc
                    return
            self._trap(Cause.ILLEGAL, 0, epc=pc, ins=ins)
            return

        if op is Op.STI or op is Op.CLI:
            if user:
                # Sensitive, non-trapping: silently ignored in user mode
                # (the Popek-Goldberg violation), unless a policy fixes it.
                if policy is not None:
                    policy.sensitive(self, op)
                self.pc = next_pc
                return
            self.csr[CSR.IE] = 1 if op is Op.STI else 0
            self.pc = next_pc
            return

        if op is Op.CSRR:
            self._csr_read(ins, pc, next_pc, user)
            return
        if op is Op.CSRW:
            self._csr_write(ins, pc, next_pc, user)
            return

        # Remaining ops are privileged: trap from user mode.
        if user:
            self._trap(Cause.PRIV, int(op), epc=pc, ins=ins)
            return

        if op is Op.IRET:
            estatus = self.csr[CSR.ESTATUS]
            self.csr[CSR.MODE] = estatus & 1
            self.csr[CSR.IE] = (estatus >> 1) & 1
            self.pc = self.csr[CSR.EPC]
            self.cycles += self.costs.iret_cycles
            return
        if op is Op.HLT:
            if policy is not None:
                outcome = policy.hlt(self)
                if outcome is HANDLED:
                    self.pc = next_pc
                    return
            self.pc = next_pc
            self.halted = True
            return
        if op is Op.INVLPG:
            va = self.regs[ins.ra]
            if policy is not None:
                outcome = policy.invlpg(self, va)
                if outcome is HANDLED:
                    self.pc = next_pc
                    return
            self.mmu.invlpg(va)
            self.pc = next_pc
            return
        if op is Op.OUT or op is Op.IN:
            self._io(ins, op, next_pc)
            return
        raise AssertionError(f"unhandled system op {op}")

    def _csr_read(self, ins: Instruction, pc: int, next_pc: int, user: bool) -> None:
        csr = ins.simm12 & 0xFFF
        try:
            is_public = CSR(csr) in PUBLIC_CSRS
        except ValueError:
            is_public = False
        if user and not is_public:
            # Non-public CSR from user mode: privileged trap.
            self._trap(Cause.PRIV, int(Op.CSRR), epc=pc, ins=ins)
            return
        if self.policy is not None:
            outcome = self.policy.csr_read(self, csr, user)
            if outcome is not NATIVE:
                self.write_reg(ins.rd, int(outcome) & 0xFFFFFFFF)
                self.pc = next_pc
                return
        if csr == CSR.CYCLES:
            value = self.cycles & 0xFFFFFFFF
        elif csr == CSR.INSTRET:
            value = self.instret & 0xFFFFFFFF
        elif 0 <= csr < len(self.csr):
            value = self.csr[csr]
        else:
            self._trap(Cause.ILLEGAL, csr, epc=pc, ins=ins)
            return
        self.write_reg(ins.rd, value)
        self.pc = next_pc

    def _csr_write(self, ins: Instruction, pc: int, next_pc: int, user: bool) -> None:
        csr = ins.simm12 & 0xFFF
        value = self.regs[ins.ra]
        if user:
            self._trap(Cause.PRIV, int(Op.CSRW), epc=pc, ins=ins)
            return
        if self.policy is not None:
            outcome = self.policy.csr_write(self, csr, value)
            if outcome is HANDLED:
                self.pc = next_pc
                return
        if csr in _READONLY_CSRS or not 0 <= csr < len(self.csr):
            self._trap(Cause.ILLEGAL, csr, epc=pc, ins=ins)
            return
        self.csr[csr] = value & 0xFFFFFFFF
        if csr == CSR.PTBR:
            self.mmu.set_root(value)
        self.pc = next_pc

    def _io(self, ins: Instruction, op: Op, next_pc: int) -> None:
        port = ins.simm12 & 0xFFF
        self.cycles += self.costs.io_port_cycles
        if op is Op.OUT:
            value = self.regs[ins.ra]
            if self.policy is not None:
                outcome = self.policy.io(self, False, port, value)
                if outcome is HANDLED:
                    self.pc = next_pc
                    return
            if self.port_bus is not None:
                self.port_bus.io_out(port, value)
            self.pc = next_pc
            return
        # IN
        if self.policy is not None:
            outcome = self.policy.io(self, True, port, 0)
            if outcome is not NATIVE:
                self.write_reg(ins.rd, int(outcome) & 0xFFFFFFFF)
                self.pc = next_pc
                return
        value = self.port_bus.io_in(port) if self.port_bus is not None else 0
        self.write_reg(ins.rd, value & 0xFFFFFFFF)
        self.pc = next_pc


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value
