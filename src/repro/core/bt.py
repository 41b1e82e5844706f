"""Binary translation engine (VMware-style software VMM).

Guest **kernel** code never executes directly: the translator decodes
basic blocks on first touch, classifies each instruction, and caches a
*translated block*:

* innocuous instructions are executed natively (interpreter fast path);
* privileged and sensitive instructions become **inline callouts** into
  monitor emulation against the vCPU's virtual state -- no hardware
  world switch, cost :attr:`~repro.mem.costs.CostModel.bt_callout_cycles`
  each. This both restores Popek-Goldberg correctness (user-mode STI /
  CLI / CSRR of MODE and IE are rewritten, so the guest sees virtual
  state) and removes the trap-per-instruction tax of trap-and-emulate.

Blocks end at control transfers. Block dispatch costs
``bt_dispatch_cycles`` (translation-cache hash lookup) unless the
(predecessor, successor) pair has been *chained*, after which dispatch
is free -- the measured benefit of chaining in experiment E9.

Guest **user** code still runs directly (traps exit to the VMM and are
reflected); the hypervisor switches between direct execution and the
translator on virtual privilege transitions.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.emulate import emulate_privileged
from repro.core.vcpu import VCPU
from repro.cpu.exits import ExitReason, VMExit
from repro.cpu.interp import TrapInfo
from repro.cpu.jit import _STORE_OPS, compile_bt_block
from repro.cpu.isa import CSR, Cause, DecodeError, Instruction, MODE_KERNEL, Op
from repro.mem.costs import CostModel
from repro.mem.paging import AccessType, PageFault

#: Maximum instructions per translated block.
MAX_BLOCK_INSTRUCTIONS = 32

#: Instructions that end a block (control transfers; the callout
#: terminators IRET/HLT/SYSCALL/VMCALL/BRK and PTBR writes end
#: blocks too).
_TERMINATORS = frozenset(
    {Op.JAL, Op.JALR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU}
)

#: Instructions rewritten into monitor callouts.
_CALLOUT_OPS = frozenset(
    {
        Op.CSRR,
        Op.CSRW,
        Op.IRET,
        Op.HLT,
        Op.STI,
        Op.CLI,
        Op.IN,
        Op.OUT,
        Op.INVLPG,
        Op.VMCALL,
        Op.SYSCALL,
        Op.BRK,
    }
)


@dataclass
class TranslatedBlock:
    """One guest basic block, translated."""

    start_va: int
    items: List[Tuple[str, Instruction]]  # ("native" | "callout", ins)
    code_gfns: Set[int] = field(default_factory=set)
    #: Fused host closure for the item list (compiled lazily on first
    #: execution; cleared when the cost model changes).
    fn: Optional[Callable] = None

    @property
    def num_instructions(self) -> int:
        return len(self.items)


class BTEngine:
    """Per-vCPU binary translator with block cache and chaining."""

    def __init__(
        self,
        vcpu: VCPU,
        costs: CostModel,
        port_bus=None,
        hypercall_handler: Optional[Callable[[VCPU, int], None]] = None,
        cache_enabled: bool = True,
        chaining_enabled: bool = True,
        compile_enabled: bool = True,
    ):
        self.vcpu = vcpu
        self.costs = costs
        self.port_bus = port_bus
        self.hypercall_handler = hypercall_handler
        self.cache_enabled = cache_enabled
        self.chaining_enabled = chaining_enabled
        #: When True, blocks execute as fused host closures; False keeps
        #: the per-item reference walk (the correctness oracle).
        self.compile_enabled = compile_enabled

        self._cache: Dict[Tuple[Optional[int], int], TranslatedBlock] = {}
        self._chains: Set[Tuple[int, int]] = set()
        self._gfn_blocks: Dict[int, Set[Tuple[Optional[int], int]]] = {}
        self._costs_sig = self._cost_signature()
        #: Self-modifying-code protection: host frames backing translated
        #: guest code, watched for writes on the physical memory (stores
        #: the translator runs natively, hypercall side effects and
        #: device DMA all land there). A write drops every translation
        #: backed by the written frame's guest page(s).
        self._watched_hfns: Set[int] = set()
        self._hfn_gfns: Dict[int, Set[int]] = {}
        #: Invalidation epoch, shared with fused closures: bumped on
        #: every cache invalidation so an in-flight block can bail at
        #: the store that rewrote translated code. The next fetch then
        #: re-translates from the new bytes -- same strict
        #: SMC-visible-at-next-fetch rule the bare-core JIT enforces.
        self._epoch = [0]
        self.vcpu.cpu.mmu.physmem.watch_writes(
            self._watched_hfns, self._on_code_write
        )

    # -- public API ------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> str:
        """Execute translated guest-kernel code until a stop condition.

        Returns ``"mode_switch"`` (guest dropped to virtual user mode),
        ``"halted"`` (virtual HLT), or ``"budget"``. VMExits raised
        during execution (guest faults, shadow fills) propagate to the
        hypervisor, which services them and re-enters here.
        """
        vm = self.vcpu.vm
        cpu = self.vcpu.cpu
        start_cycles = cpu.cycles
        prev_block_va: Optional[int] = None
        sig = self._cost_signature()
        if sig != self._costs_sig:
            self._costs_sig = sig
            for cached in self._cache.values():
                cached.fn = None  # closures bake costs in; recompile
        events = cpu.events
        while True:
            if events is not None and cpu.instret >= events.next_due:
                # Retire-edge event firing, before the halt check: a
                # raise can wake a virtually-halted guest, exactly as
                # the hardware-assist core wakes in its run loop.
                events.fire_due(cpu.instret)
            if vm.pending_virqs and self.vcpu.vcsr[CSR.IE]:
                # Unmasked pending virq: deliver before the next fetch
                # (the same edge the hardware-assist core delivers at).
                self.vcpu.halted = False
                self.vcpu.try_inject_virq()
                prev_block_va = None
                continue
            if self.vcpu.virtual_mode != MODE_KERNEL or self.vcpu.halted:
                break
            if max_cycles is not None and cpu.cycles - start_cycles >= max_cycles:
                return "budget"
            key = self._key(cpu.pc)
            block = self._cache.get(key) if self.cache_enabled else None
            if block is None:
                block = self._translate(cpu.pc)
                if block is None:
                    # First fetch of the block faulted: the PF_EXEC was
                    # reflected into the guest, whose pc now sits at its
                    # vector. Re-dispatch from there.
                    prev_block_va = None
                    continue
                vm.stats.bt_block_misses += 1
                if self.cache_enabled:
                    self._cache[key] = block
                    for gfn in block.code_gfns:
                        self._gfn_blocks.setdefault(gfn, set()).add(key)
                    self._watch_block(block)
            else:
                vm.stats.bt_block_hits += 1
            # Dispatch cost, unless chained from the previous block.
            if prev_block_va is not None:
                link = (prev_block_va, block.start_va)
                if self.chaining_enabled and link in self._chains:
                    vm.stats.bt_chained += 1
                else:
                    cpu.cycles += self.costs.bt_dispatch_cycles
                    if self.chaining_enabled:
                        self._chains.add(link)
            else:
                cpu.cycles += self.costs.bt_dispatch_cycles
            prev_block_va = block.start_va
            if (
                events is not None
                and block.num_instructions > events.next_due - cpu.instret
            ):
                # A scheduled edge falls inside this block: walk it
                # item-by-item so the event fires (and delivers) at the
                # exact retire edge instead of the block boundary.
                self._execute_block_edge(block, events)
            else:
                self._execute_block(block)
        return "halted" if self.vcpu.halted else "mode_switch"

    def invalidate_gfn(self, gfn: int) -> None:
        """Drop translations backed by a guest frame (self-modifying or
        re-used code pages)."""
        keys = self._gfn_blocks.pop(gfn, None)
        if not keys:
            return
        self._epoch[0] += 1
        for key in keys:
            self._cache.pop(key, None)
        # Drop only chains touching an invalidated block's entry point
        # (as predecessor or successor); unrelated links keep their
        # free-dispatch status instead of being rebuilt from scratch.
        dropped = {key[1] for key in keys}
        self._chains = {
            link
            for link in self._chains
            if link[0] not in dropped and link[1] not in dropped
        }

    def flush(self) -> None:
        self._epoch[0] += 1
        self._cache.clear()
        self._chains.clear()
        self._gfn_blocks.clear()
        self._watched_hfns.clear()
        self._hfn_gfns.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)

    def _watch_block(self, block: TranslatedBlock) -> None:
        """Arm write-watching for the frames backing a cached block."""
        guest_map = self.vcpu.vm.guest_mem.map
        for gfn in block.code_gfns:
            hfn = guest_map.get(gfn)
            if hfn is None:
                continue
            self._hfn_gfns.setdefault(hfn, set()).add(gfn)
            self._watched_hfns.add(hfn)

    def _on_code_write(self, hfn: int) -> None:
        """Physmem write watcher: a store landed on translated code."""
        gfns = self._hfn_gfns.pop(hfn, None)
        self._watched_hfns.discard(hfn)
        if gfns:
            for gfn in gfns:
                self.invalidate_gfn(gfn)

    # -- internals -------------------------------------------------------

    def _cost_signature(self) -> Tuple[int, int, int, int]:
        c = self.costs
        return (
            c.instr_cycles,
            c.mul_extra_cycles,
            c.div_extra_cycles,
            c.bt_callout_cycles,
        )

    def _key(self, va: int) -> Tuple[Optional[int], int]:
        mmu = self.vcpu.cpu.mmu
        root = getattr(mmu, "guest_root", None)
        return (root, va)

    def _translate(self, va: int) -> Optional[TranslatedBlock]:
        """Decode one basic block starting at ``va``.

        Returns ``None`` when the *first* fetch takes a guest page
        fault: the fault is reflected into the guest exactly as a
        hardware instruction fetch would trap, and the caller
        re-dispatches from the guest's vector. A fault past the first
        instruction truncates the block at the faulting boundary --
        execution re-enters at the cursor and faults architecturally
        then. (Without this, a guest jump to a non-executable page
        escaped as a host-level PageFault instead of a guest trap.)
        An undecodable word past the first instruction likewise ends the
        block before it, so the guest aborts only if it reaches the word.
        """
        cpu = self.vcpu.cpu
        vm = self.vcpu.vm
        items: List[Tuple[str, Instruction]] = []
        code_gfns: Set[int] = set()
        cursor = va
        for _ in range(MAX_BLOCK_INSTRUCTIONS):
            try:
                ins = cpu.fetch(cursor)  # may raise VMExit (shadow fill)
            except DecodeError:
                if items:
                    break  # undecodable tail: block ends before it
                raise
            except PageFault as fault:
                if items:
                    break
                cpu.cycles += self.costs.trap_cycles
                if cursor == self.vcpu.vcsr[CSR.VBAR]:
                    # Fetching the guest's own trap vector faulted:
                    # reflecting would re-enter the vector and fault
                    # again forever. Same terminal condition as the
                    # hardware-assist triple-fault guard.
                    raise VMExit(ExitReason.TRIPLE_FAULT, guest_pc=cursor,
                                 cause=Cause.PF_EXEC, value=fault.vaddr)
                self.vcpu.reflect_trap(
                    TrapInfo(Cause.PF_EXEC, fault.vaddr, epc=cursor)
                )
                return None
            mmu = cpu.mmu
            if hasattr(mmu, "_guest_walk") and getattr(mmu, "guest_root", None) is not None:
                code_gfns.add(mmu._guest_walk(cursor, AccessType.EXEC).gfn)
            else:
                # Guest paging off: VA is the guest-physical address.
                code_gfns.add(cursor >> 12)
            if ins.op in _CALLOUT_OPS:
                items.append(("callout", ins))
                if ins.op in (Op.IRET, Op.HLT, Op.SYSCALL, Op.VMCALL, Op.BRK):
                    break
                if (ins.op is Op.CSRW
                        and ins.simm12 & 0xFFF == int(CSR.PTBR)):
                    # A PTBR write changes instruction-fetch translation;
                    # the rest of this block was decoded under the old
                    # root. End the block so dispatch re-fetches (and, if
                    # the new root does not map the next pc, re-faults)
                    # under the new root, exactly like hardware.
                    break
            else:
                items.append(("native", ins))
                if ins.op in _TERMINATORS:
                    break
            cursor += ins.length
        cpu.cycles += self.costs.bt_translate_cycles * len(items)
        vm.stats.bt_translated_instructions += len(items)
        return TranslatedBlock(start_va=va, items=items, code_gfns=code_gfns)

    def _execute_block(self, block: TranslatedBlock) -> None:
        if not self.compile_enabled:
            self._execute_block_interp(block)
            return
        fn = block.fn
        if fn is None:
            fn = block.fn = compile_bt_block(self, block)
        fn(self.vcpu.cpu)

    def _execute_block_edge(self, block: TranslatedBlock, events) -> None:
        """Per-item walk honouring retire-edge event delivery.

        Used instead of the fused closure when a scheduled event edge
        lands inside the block. Cycle charges are identical to
        :meth:`_execute_block_interp` (which the closures match
        cycle-for-cycle), so which executor ran is invisible to the
        differential comparison.
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        vm = vcpu.vm
        costs = self.costs
        epoch = self._epoch
        e0 = epoch[0]
        last = block.items[-1]
        for item in block.items:
            kind, ins = item
            if cpu.instret >= events.next_due:
                events.fire_due(cpu.instret)
                if vm.pending_virqs and vcpu.vcsr[CSR.IE]:
                    vcpu.halted = False
                    vcpu.try_inject_virq()
                    return
            if kind == "native":
                cpu.cycles += costs.instr_cycles
                cpu.execute(ins)  # VMExit may propagate (guest fault)
                if ins.op in _STORE_OPS and epoch[0] != e0 and item is not last:
                    return
            else:
                cpu.cycles += costs.bt_callout_cycles
                if self._callout(ins):
                    return

    def _execute_block_interp(self, block: TranslatedBlock) -> None:
        """Reference per-item walk; the oracle the fused closures must
        match cycle-for-cycle (see tests/test_cpu_jit.py)."""
        cpu = self.vcpu.cpu
        costs = self.costs
        epoch = self._epoch
        e0 = epoch[0]
        last = block.items[-1]
        for item in block.items:
            kind, ins = item
            if kind == "native":
                cpu.cycles += costs.instr_cycles
                cpu.execute(ins)  # VMExit may propagate (guest fault)
                # The store may have rewritten translated code (ours
                # included): stop at the boundary so the next fetch
                # re-translates from the new bytes.
                if ins.op in _STORE_OPS and epoch[0] != e0 and item is not last:
                    return
            else:
                cpu.cycles += costs.bt_callout_cycles
                stop = self._callout(ins)
                if stop:
                    return

    def _callout(self, ins: Instruction) -> bool:
        """Run monitor logic for one rewritten instruction.

        Returns True when the block must stop (privilege change, halt,
        trap reflection).
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        vm = vcpu.vm
        vm.stats.bt_callouts += 1
        # A rewritten instruction retires like any other guest
        # instruction. Under hardware assist the same instruction bumps
        # instret in the core before its intercept exit is serviced
        # (CPUCore.execute never rolls privileged exits back), so
        # retiring here keeps instret -- and everything metered by it:
        # run-loop instruction budgets, watchdog beats, guest CSRR
        # INSTRET -- comparable across virtualization engines instead
        # of silently undercounting emulated work.
        cpu.instret += 1
        op = ins.op

        if op is Op.SYSCALL or op is Op.BRK:
            cause = Cause.SYSCALL if op is Op.SYSCALL else Cause.BREAK
            cpu.cycles += self.costs.trap_cycles
            vcpu.reflect_trap(
                TrapInfo(cause, ins.simm12 & 0xFFF, epc=cpu.pc + ins.length)
            )
            return True

        if op is Op.VMCALL:
            if self.hypercall_handler is None:
                raise RuntimeError("BT guest issued VMCALL with no handler")
            vm.stats.hypercalls += 1
            cpu.cycles += self.costs.hypercall_cycles
            self.hypercall_handler(vcpu, ins.simm12 & 0xFFF)
            if vcpu.halted or vcpu.virtual_mode != MODE_KERNEL:
                return True
            return self._post_retire_inject()

        if op in (Op.IN, Op.OUT):
            cpu.cycles += self.costs.emulate_cycles
        emulate_privileged(vcpu, ins, port_bus=self.port_bus)
        if op is Op.IRET:
            if vcpu.virtual_mode != MODE_KERNEL:
                return True
        elif op is Op.HLT:
            return True
        return self._post_retire_inject()

    def _post_retire_inject(self) -> bool:
        """Delivery edge after a non-stopping callout retires.

        First fire any schedule event due at this retire edge (device
        raises from the emulated instruction itself come first, matching
        the hardware core's execute-then-fire order -- and keeping the
        timer-vs-device priority race identical), then deliver an
        unmasked pending virq before the next item executes. Returns
        True when an injection redirected the pc (the block must stop).
        """
        vcpu = self.vcpu
        cpu = vcpu.cpu
        events = cpu.events
        if events is not None and cpu.instret >= events.next_due:
            events.fire_due(cpu.instret)
        if vcpu.vm.pending_virqs and vcpu.vcsr[CSR.IE]:
            vcpu.try_inject_virq()
            return True
        return False
