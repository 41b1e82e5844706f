"""Differential tests: closure-compiled blocks vs the reference interpreter.

Every test runs the same program twice -- ``CPUCore(jit=False)`` (the
oracle) and ``CPUCore(jit=True)`` -- and asserts the full architectural
state is bit-identical: regs, CSRs, cycles, instret, pc, halted, the
trap sequence, memory, and (when paging) TLB statistics, contents, and
LRU order.
"""

import pytest

from repro.cpu.assembler import Assembler
from repro.cpu.interp import CPUCore, StopReason
from repro.cpu.isa import CSR, Op, encode
from repro.cpu.mmu import BareMMU
from repro.mem.costs import CostModel
from repro.mem.paging import (
    AddressSpace,
    PTE_PRESENT,
    PTE_WRITABLE,
)
from repro.mem.physmem import FrameAllocator, PhysicalMemory
from repro.util.units import MIB, PAGE_SIZE

VEC = 0x3000


def _make_cpu(jit: bool, tlb_entries: int = 64):
    pm = PhysicalMemory(1 * MIB)
    cpu = CPUCore(BareMMU(pm, CostModel(), tlb_entries=tlb_entries), jit=jit)
    cpu.reset(0x1000)
    return cpu, pm


def _snapshot(cpu, pm):
    tlb = cpu.mmu.tlb
    return {
        "regs": tuple(cpu.regs),
        "csr": tuple(cpu.csr),
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "pc": cpu.pc,
        "halted": cpu.halted,
        "tlb_stats": (
            tlb.stats.hits,
            tlb.stats.misses,
            tlb.stats.evictions,
            tlb.stats.invalidations,
            tlb.stats.flushes,
        ),
        "tlb_lru": tuple(tlb._entries.items()),
        "mem": pm.read_bytes(0, pm.size),
    }


def _run_pair(image, *, setup=None, max_instructions=50_000, org=0x1000,
              tlb_entries=64):
    """Run ``image`` on both engines; assert identical outcomes."""
    outcomes = []
    cpus = []
    for jit in (False, True):
        cpu, pm = _make_cpu(jit, tlb_entries=tlb_entries)
        pm.write_bytes(org, image)
        pm.write_bytes(VEC, encode(Op.HLT))
        cpu.csr[CSR.VBAR] = VEC
        if setup is not None:
            setup(cpu, pm)
        traps = []
        orig = cpu.deliver_trap

        def record(info, _orig=orig, _traps=traps):
            _traps.append((int(info.cause), info.value, info.epc))
            return _orig(info)

        cpu.deliver_trap = record
        error = None
        result = None
        try:
            result = cpu.run(max_instructions=max_instructions)
        except Exception as exc:  # compared, not suppressed
            error = type(exc).__name__
        outcomes.append(
            {
                "stop": result.stop if result else None,
                "error": error,
                "traps": tuple(traps),
                **_snapshot(cpu, pm),
            }
        )
        cpus.append(cpu)
    interp_out, jit_out = outcomes
    for key in interp_out:
        assert interp_out[key] == jit_out[key], f"divergence in {key}"
    return cpus[1], jit_out


def _asm(src: str):
    return Assembler().assemble(src).data


class TestStraightLine:
    def test_alu_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 123456789
    mul s1, s0, 31
    add s1, s1, s0
    xor s2, s1, s0
    shl s2, s2, 7
    sar t0, s2, 3
    slt t1, t0, s0
    sltu t2, t0, s0
    hlt
"""
        )
        cpu, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        assert cpu.jit_stats()["blocks_compiled"] >= 1

    def test_loop_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 500
    li s1, 0
loop:
    mul s1, s1, 31
    add s1, s1, s0
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""
        )
        cpu, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        # The hot loop executes as one compiled block per iteration.
        assert cpu.jit_stats()["blocks_compiled"] >= 2

    def test_mem_ops_paging_off(self):
        image = _asm(
            """
.org 0x1000
    li s0, 0x8000
    li s1, 0xDEADBEEF
    st [s0+0], s1
    ld s2, [s0+0]
    stb [s0+8], s1
    ldb t0, [s0+8]
    st [s0-4], s2
    ld t1, [s0-4]
    hlt
"""
        )
        _run_pair(image)

    def test_jal_jalr_links(self):
        image = _asm(
            """
.org 0x1000
    call sub1
    li t0, 7
    hlt
sub1:
    li s2, 9
    ret
"""
        )
        _, out = _run_pair(image)
        assert out["stop"] is StopReason.HALT
        assert out["regs"][11] == 9 and out["regs"][5] == 7

    def test_div0_trap_mid_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 99
    li s1, 0
    add s2, s0, 1
    divu t0, s0, s1
    li t1, 1
    hlt
"""
        )
        _, out = _run_pair(image)
        assert len(out["traps"]) == 1
        cause, value, epc = out["traps"][0]
        assert value == 0

    def test_div_by_immediate_zero_falls_back(self):
        # Constant DIV0 is left to the reference path; behaviour must
        # still match exactly.
        image = b"".join(
            [
                encode(Op.MOVI, rd=5, imm32=7),
                encode(Op.DIVU, rd=6, ra=5, imm32=0),
                encode(Op.HLT),
            ]
        )
        _, out = _run_pair(image)
        assert len(out["traps"]) == 1

    def test_instruction_limit_mid_block(self):
        image = _asm(
            """
.org 0x1000
    li s0, 100000
loop:
    add s1, s1, 1
    add s2, s2, 2
    xor t0, s1, s2
    sub s0, s0, 1
    bnez s0, loop
    hlt
"""
        )
        for limit in (1, 2, 3, 7, 50, 101):
            outcomes = []
            for jit in (False, True):
                cpu, pm = _make_cpu(jit)
                pm.write_bytes(0x1000, image)
                result = cpu.run(max_instructions=limit)
                outcomes.append(
                    (result.stop, result.instructions, cpu.cycles,
                     cpu.instret, cpu.pc, tuple(cpu.regs))
                )
            assert outcomes[0] == outcomes[1], f"limit={limit}"
            assert outcomes[0][0] is StopReason.INSTR_LIMIT


class TestSelfModifyingCode:
    def test_store_into_later_block(self):
        # Patch an instruction several blocks ahead, then jump to it.
        patch = int.from_bytes(encode(Op.MOV, rd=5, ra=6), "little")
        image = b"".join(
            [
                encode(Op.MOVI, rd=1, imm32=patch),     # 0x1000
                encode(Op.MOVI, rd=2, imm32=0x1020),    # 0x1008
                encode(Op.ST, ra=2, rb=1, simm12=0),    # 0x1010 patches 0x1020
                encode(Op.JAL, rd=0, imm32=0x1020),     # 0x1014
                encode(Op.NOP),                          # 0x1018
                encode(Op.NOP),                          # 0x101C
                encode(Op.NOP),                          # 0x1020 <- patched
                encode(Op.HLT),                          # 0x1024
            ]
        )

        def setup(cpu, pm):
            cpu.regs[6] = 777

        cpu, out = _run_pair(image, setup=setup)
        assert out["regs"][5] == 777  # the patched MOV executed

    def test_store_into_own_block(self):
        # The store lands *later in the same basic block*: the reference
        # interpreter re-fetches each instruction so it executes the new
        # bytes; the compiled block must bail at the store boundary.
        patch = int.from_bytes(encode(Op.MOV, rd=5, ra=6), "little")
        image = b"".join(
            [
                encode(Op.MOVI, rd=1, imm32=patch),     # 0x1000
                encode(Op.MOVI, rd=2, imm32=0x1014),    # 0x1008
                encode(Op.ST, ra=2, rb=1, simm12=0),    # 0x1010 patches 0x1014
                encode(Op.NOP),                          # 0x1014 <- patched
                encode(Op.HLT),                          # 0x1018
            ]
        )

        def setup(cpu, pm):
            cpu.regs[6] = 4242

        cpu, out = _run_pair(image, setup=setup)
        assert out["regs"][5] == 4242
        assert cpu.jit_stats()["blocks_invalidated"] >= 1

    def test_decode_cache_invalidated_on_code_write(self):
        cpu, pm = _make_cpu(jit=False)
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=1))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=10)
        assert any(key[0] == 0x1000 for key in cpu._decode_cache)
        # Overwrite the cached code page; targeted entries must go.
        pm.write_u32(0x1000, int.from_bytes(encode(Op.NOP), "little"))
        assert not any(key[0] == 0x1000 for key in cpu._decode_cache)


class TestPaging:
    @staticmethod
    def _setup_paging(cpu, pm, pages=80, data_va=0x100000):
        allocator = FrameAllocator(pm, reserved_frames=64)
        space = AddressSpace(pm, allocator)
        flags = PTE_PRESENT | PTE_WRITABLE
        # Identity-map low memory (code, vector, stack).
        for page in range(16):
            space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
        for i in range(pages):
            frame = allocator.alloc(zero=True)
            space.map(data_va + i * PAGE_SIZE, frame << 12, flags)
        cpu.mmu.set_root(space.root_pa)

    def test_store_walk_differential(self):
        # More mapped pages than TLB entries: the data walks evict TLB
        # entries (including the code page), exercising the epoch guard.
        image = _asm(
            """
.org 0x1000
    li t0, 2
outer:
    li s0, 0x100000
    li s1, 80
loop:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, loop
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(image, setup=self._setup_paging)
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0  # evictions actually happened

    def test_page_fault_mid_block(self):
        # One unmapped page in the middle of the walk: PF_WRITE must be
        # delivered from inside a compiled block with exact state.
        def setup(cpu, pm):
            allocator = FrameAllocator(pm, reserved_frames=64)
            space = AddressSpace(pm, allocator)
            flags = PTE_PRESENT | PTE_WRITABLE
            for page in range(16):
                space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
            space.map(0x100000, allocator.alloc() << 12, flags)
            # 0x101000 deliberately unmapped.
            cpu.mmu.set_root(space.root_pa)

        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 55
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    st [s0+0], s1
    li t1, 1
    hlt
"""
        )
        _, out = _run_pair(image, setup=setup)
        assert len(out["traps"]) == 1
        cause, value, _epc = out["traps"][0]
        assert value == 0x101000

    def test_invlpg_differential(self):
        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 3
loop:
    st [s0+0], s1
    invlpg s0
    ld s2, [s0+0]
    sub s1, s1, 1
    bnez s1, loop
    hlt
"""
        )
        _, out = _run_pair(image, setup=self._setup_paging)
        assert out["tlb_stats"][3] > 0  # invalidations happened

    def test_set_root_mid_run(self):
        # Two address spaces alias the same code but different data
        # frames; switching PTBR mid-run must flush the EXEC memo.
        def setup(cpu, pm):
            allocator = FrameAllocator(pm, reserved_frames=64)
            flags = PTE_PRESENT | PTE_WRITABLE
            roots = []
            for _ in range(2):
                space = AddressSpace(pm, allocator)
                for page in range(16):
                    space.map(page * PAGE_SIZE, page * PAGE_SIZE, flags)
                space.map(0x100000, allocator.alloc(zero=True) << 12, flags)
                roots.append(space.root_pa)
            cpu.mmu.set_root(roots[0])
            cpu.regs[12] = roots[1]  # fp holds the second root

        image = _asm(
            """
.org 0x1000
    li s0, 0x100000
    li s1, 11
    st [s0+0], s1
    csrw PTBR, fp
    li s1, 22
    st [s0+0], s1
    ld s2, [s0+0]
    hlt
"""
        )
        _, out = _run_pair(image, setup=setup)
        assert out["stop"] is StopReason.HALT
        assert out["regs"][11] == 22  # load came from the *second* space


class TestInlineCacheEdges:
    """Edge cases of the compiled-block inline-cache fast path."""

    def test_guard_bailout_replays_tail_exactly_once(self):
        # TLB capacity 4 but six data pages touched by one straight-line
        # block: the data walks evict the code-page entry mid-block, the
        # code-page guard trips after the slow-path translate, and the
        # tail of the block replays through the dispatcher. Cycles, TLB
        # stats, and memory must come out identical -- the replayed ops
        # must be charged exactly once.
        image = _asm(
            """
.org 0x1000
    li t1, 77
    li s0, 0x100000
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add s0, s0, 4096
    st [s0+0], t1
    add t1, t1, 1
    hlt
"""
        )
        cpu, out = _run_pair(
            image,
            setup=lambda c, p: TestPaging._setup_paging(c, p, pages=8),
            tlb_entries=4,
        )
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0  # evictions actually happened
        assert cpu.jit_stats()["blocks_compiled"] > 0

    def test_self_loop_under_constant_code_page_eviction(self):
        # The inner loop is a self-looping compiled block whose data
        # walk keeps evicting its own code page from the 4-entry TLB,
        # so it can never settle into the in-closure loop for long.
        image = _asm(
            """
.org 0x1000
    li t0, 6
outer:
    li s0, 0x100000
    li s1, 6
page:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(
            image,
            setup=lambda c, p: TestPaging._setup_paging(c, p, pages=8),
            tlb_entries=4,
        )
        assert out["stop"] is StopReason.HALT
        assert out["tlb_stats"][2] > 0
        assert cpu.jit_stats()["blocks_compiled"] > 0

    def test_epoch_counter_overflow(self):
        # TLB epochs only ever increment; pre-seed the counter just
        # below 2**63 so the eviction-heavy run carries it across the
        # boundary while compiled blocks are live. Python ints don't
        # wrap, but the compiled code must keep agreeing with the
        # interpreter while epochs exceed any fixed word size.
        def setup(cpu, pm):
            TestPaging._setup_paging(cpu, pm, pages=8)
            cpu.mmu.tlb.epoch = (1 << 63) - 2

        image = _asm(
            """
.org 0x1000
    li t0, 4
outer:
    li s0, 0x100000
    li s1, 8
page:
    st [s0+0], s1
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""
        )
        cpu, out = _run_pair(image, setup=setup, tlb_entries=4)
        assert out["stop"] is StopReason.HALT
        assert cpu.mmu.tlb.epoch >= (1 << 63)

    # -- warm-state resume (migration / micro-reboot analogues) -----------

    _RESUME_IMAGE = """
.org 0x1000
    li t0, 12
outer:
    li s0, 0x100000
    li s1, 20
page:
    st [s0+0], s1
    ld s2, [s0+0]
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, page
    sub t0, t0, 1
    bnez t0, outer
    hlt
"""

    @classmethod
    def _boot(cls, image):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, image)
        pm.write_bytes(VEC, encode(Op.HLT))
        cpu.csr[CSR.VBAR] = VEC
        TestPaging._setup_paging(cpu, pm)
        return cpu, pm

    @staticmethod
    def _restore_into(dst_cpu, dst_pm, src_cpu, src_pm):
        """Copy full simulated state, the way ``restore_vm`` does for
        architectural state -- plus TLB/walker state, which at this
        layer is part of the deterministic contract."""
        dst_pm.write_bytes(0, src_pm.read_bytes(0, src_pm.size))
        dst_cpu.regs = list(src_cpu.regs)
        dst_cpu.pc = src_cpu.pc
        dst_cpu.csr = list(src_cpu.csr)
        dst_cpu.cycles = src_cpu.cycles
        dst_cpu.instret = src_cpu.instret
        dst_cpu.halted = src_cpu.halted
        dst_cpu.mmu.root_pa = src_cpu.mmu.root_pa
        dst_cpu.mmu.paging_enabled = src_cpu.mmu.paging_enabled
        dst_tlb, src_tlb = dst_cpu.mmu.tlb, src_cpu.mmu.tlb
        # In-place: the compiled fast path holds bound references to
        # the entry table.
        dst_tlb._entries.clear()
        dst_tlb._entries.update(src_tlb._entries)
        dst_tlb.epoch = src_tlb.epoch
        for f in ("hits", "misses", "flushes", "invalidations", "evictions"):
            setattr(dst_tlb.stats, f, getattr(src_tlb.stats, f))
        dst_cpu.mmu.walker.walks = src_cpu.mmu.walker.walks
        dst_cpu.mmu.walker.faults = src_cpu.mmu.walker.faults

    def test_warm_ic_continuation_equals_cold_resume(self):
        # Live-migration resume analogue: stop mid-workload with warm
        # inline caches, clone the full state into a never-run core
        # (whose JIT is cold, as after restore_vm), finish both. The
        # warm ICs must be pure cache: final state bit-identical.
        image = _asm(self._RESUME_IMAGE)
        warm, warm_pm = self._boot(image)
        warm.run(max_instructions=500)
        assert not warm.halted
        assert warm.jit_stats()["blocks_compiled"] > 0  # ICs are warm
        cold, cold_pm = self._boot(image)
        self._restore_into(cold, cold_pm, warm, warm_pm)
        warm.run(max_instructions=50_000)
        cold.run(max_instructions=50_000)
        assert _snapshot(warm, warm_pm) == _snapshot(cold, cold_pm)

    def test_restore_over_warm_core_invalidates_stale_ics(self):
        # Micro-reboot analogue with a twist: the receiving core has
        # *already* compiled blocks and trained ICs for the same code
        # pages. Restoring rewrites guest memory, which must fire the
        # code-page write watcher and invalidate every stale block; the
        # rebooted core then has to agree with an uninterrupted run.
        image = _asm(self._RESUME_IMAGE)
        ref, ref_pm = self._boot(image)
        ref.run(max_instructions=50_000)
        assert ref.halted

        warm, warm_pm = self._boot(image)
        warm.run(max_instructions=500)
        target, target_pm = self._boot(image)
        target.run(max_instructions=300)  # trains ICs at a *different* point
        assert target.jit_stats()["blocks_compiled"] > 0
        self._restore_into(target, target_pm, warm, warm_pm)
        target.run(max_instructions=50_000)
        assert _snapshot(target, target_pm) == _snapshot(ref, ref_pm)


class TestEngineManagement:
    def test_jit_disabled_never_compiles(self):
        cpu, pm = _make_cpu(jit=False)
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100)
        stats = cpu.jit_stats()
        assert stats["enabled"] == 0 and stats["active"] == 0
        assert stats["blocks_compiled"] == 0

    def test_policy_without_budget_compiles(self):
        from repro.cpu.interp import VirtPolicy

        cpu, pm = _make_cpu(jit=True)
        cpu.policy = VirtPolicy()
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100)
        assert cpu.jit_stats()["blocks_compiled"] == 1
        assert cpu.regs[3] == 5

    def test_policy_with_cycle_guard_forces_reference_path(self):
        # A VMM's cycle budget must stop at an exact instruction edge,
        # which compiled blocks cannot do.
        from repro.cpu.interp import VirtPolicy

        cpu, pm = _make_cpu(jit=True)
        cpu.policy = VirtPolicy()
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100, cycle_guard=10_000)
        assert cpu.jit_stats()["blocks_compiled"] == 0
        assert cpu.regs[3] == 5

    def test_shadow_with_guest_paging_off_steps(self):
        from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode

        hv = Hypervisor(memory_bytes=4 * MIB)
        vm = hv.create_vm(GuestConfig(
            name="boot", memory_bytes=1 * MIB, virt_mode=VirtMode.HW_ASSIST,
            mmu_mode=MMUVirtMode.SHADOW, prealloc=True))
        vm.guest_mem.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5)
                                 + encode(Op.ADD, rd=3, ra=3, imm32=1)
                                 + encode(Op.HLT))
        hv.reset_vcpu(vm, 0x1000)
        cpu = vm.vcpus[0].cpu
        assert not cpu.mmu.via_tlb()
        cpu.run(max_instructions=2)
        stats = cpu.jit_stats()
        assert stats["active"] == 1
        assert stats["blocks_compiled"] == 0
        assert stats["fallback_steps"] == 2
        assert cpu.regs[3] == 6

    def test_cost_model_change_flushes_blocks(self):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100)
        jit = cpu._jit
        assert jit and jit.stats()["blocks_cached"] > 0
        import dataclasses

        cpu.costs = dataclasses.replace(
            cpu.costs, instr_cycles=cpu.costs.instr_cycles + 1
        )
        jit.check_costs()
        assert jit.stats()["blocks_cached"] == 0

    def test_decode_cache_bounded_eviction(self, monkeypatch):
        import repro.cpu.interp as interp

        monkeypatch.setattr(interp, "_DECODE_CACHE_MAX", 32)
        monkeypatch.setattr(interp, "_DECODE_EVICT", 8)
        cpu, pm = _make_cpu(jit=False)
        # 64 distinct MOVI instructions then HLT: more than the cap.
        addr = 0x1000
        for i in range(64):
            pm.write_bytes(addr, encode(Op.MOVI, rd=3, imm32=i))
            addr += 8
        pm.write_bytes(addr, encode(Op.HLT))
        result = cpu.run(max_instructions=1000)
        assert result.stop is StopReason.HALT
        assert cpu.regs[3] == 63
        assert len(cpu._decode_cache) <= 33
        # The frame index stays consistent with the cache contents.
        indexed = {k for keys in cpu._decode_frames.values() for k in keys}
        assert indexed == set(cpu._decode_cache)

    def test_mid_run_invalidation_then_recompile(self):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=5))
        pm.write_bytes(0x1008, encode(Op.HLT))
        cpu.run(max_instructions=100)
        compiled_before = cpu.jit_stats()["blocks_compiled"]
        assert compiled_before >= 1
        # External write to the code page (e.g. DMA) drops the block...
        pm.write_bytes(0x1000, encode(Op.MOVI, rd=3, imm32=9))
        assert cpu.jit_stats()["blocks_invalidated"] >= 1
        # ...and a re-run recompiles and executes the new code.
        cpu.reset(0x1000)
        cpu.run(max_instructions=100)
        assert cpu.regs[3] == 9
        assert cpu.jit_stats()["blocks_compiled"] > compiled_before


class TestCompiledMatchesOracleOnWorkloads:
    @pytest.mark.parametrize("workload_name,args", [
        ("cpu_bound", (400,)),
        ("memtouch", (8, 2)),
        ("syscall_storm", (25,)),
    ])
    def test_native_nanoos_differential(self, workload_name, args):
        from repro.core.machine import Machine
        from repro.guest import KernelOptions, boot_native, build_kernel
        from repro.guest import workloads

        kernel = build_kernel(
            KernelOptions(pv=False, memory_bytes=16 * MIB, timer_period=0)
        )
        workload = getattr(workloads, workload_name)(*args)
        states = []
        for jit in (False, True):
            machine = Machine(memory_bytes=16 * MIB, jit=jit)
            diag = boot_native(machine, kernel, workload)
            tlb = machine.mmu.tlb
            states.append(
                (
                    diag,
                    machine.cpu.cycles,
                    machine.cpu.instret,
                    tuple(machine.cpu.regs),
                    tuple(machine.cpu.csr),
                    (tlb.stats.hits, tlb.stats.misses, tlb.stats.evictions),
                    tuple(tlb._entries.items()),
                )
            )
        assert states[0] == states[1]


class TestProcessWideCodeCache:
    LOOP = """
.org 0x1000
    li s0, 0x100000
    li s1, 40
loop:
    st [s0+0], s1
    ld s2, [s0+0]
    add t1, t1, s2
    add s0, s0, 4096
    sub s1, s1, 1
    bnez s1, loop
    hlt
"""

    def _core(self):
        cpu, pm = _make_cpu(jit=True)
        pm.write_bytes(0x1000, _asm(self.LOOP))
        TestPaging._setup_paging(cpu, pm, pages=40)
        return cpu, pm

    def test_cores_share_code_but_not_closures_or_inline_caches(self):
        alone = []
        for _ in range(2):
            cpu, pm = self._core()
            assert cpu.run(max_instructions=50_000).stop is StopReason.HALT
            alone.append(_snapshot(cpu, pm))
        assert alone[0] == alone[1]

        a, a_pm = self._core()
        b, b_pm = self._core()
        # Interleave short slices so each core's blocks run while the
        # other's inline caches hold different translations.
        for _ in range(200):
            for cpu in (a, b):
                if not cpu.halted:
                    cpu.run(max_instructions=7)
        assert a.halted and b.halted
        assert _snapshot(a, a_pm) == alone[0]
        assert _snapshot(b, b_pm) == alone[0]

        shared = 0
        for key, blk in a._jit._blocks.items():
            other = b._jit._blocks.get(key)
            if not blk or not other:
                continue
            fn_a, fn_b = blk[0], other[0]
            assert fn_a is not fn_b
            assert fn_a.__code__ is fn_b.__code__
            assert fn_a.__globals__ is not fn_b.__globals__
            if "_ic" in fn_a.__globals__:
                assert fn_a.__globals__["_ic"] is not fn_b.__globals__["_ic"]
                shared += 1
        assert shared > 0
