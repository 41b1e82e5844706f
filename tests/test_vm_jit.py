"""Differential tests: the block JIT vs the reference interpreter in VMs.

Every virtualized config (the six VMM boot modes) runs the same guest
twice -- with the vCPU's block JIT on and with it off
(``vm.vcpus[0].cpu.jit_enabled = False``) -- and every modelled
statistic must be bit-identical: cycles, instret, registers, real and
virtual CSRs, TLB statistics and entries in LRU order, the VM's
counters and exit counts, and guest memory.

Two guest sources: the five NanoOS programs of the benchmark's
guest-mix at small sizes, and seeded fuzz images (root seed 17) run
with no cycle budget, so the compiled engine engages.
"""

import pytest

from repro.core import GuestConfig, Hypervisor, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.devices.schedule import EventSchedule
from repro.fuzz import gen
from repro.fuzz.diff import _ABORTS, vmm_cycle_guard
from repro.guest import KernelOptions, build_kernel
from repro.guest import workloads as programs
from repro.guest.loader import read_diag
from repro.util.units import MIB

#: (boot mode, virt mode, MMU mode, paravirtual kernel).
VMM_MODES = (
    ("trap-emulate", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False),
    ("bin-transl", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False),
    ("paravirt", VirtMode.PARAVIRT, MMUVirtMode.SHADOW, True),
    ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW, False),
    ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False),
    ("hw-hmode", VirtMode.HW_ASSIST, MMUVirtMode.HMODE, False),
)
MODE_IDS = [m[0] for m in VMM_MODES]

GUEST_MEMORY = 16 * MIB

PROGRAMS = {
    "cpu_bound": lambda: programs.cpu_bound(300),
    "memtouch": lambda: programs.memtouch(80, 2),
    "syscall_storm": lambda: programs.syscall_storm(20),
    "pt_mix": lambda: programs.pt_mix(4, 96, 32, 12345),
    "vblk_write": lambda: programs.vblk_write(2, 2),
}

FUZZ_ROOT_SEED = 17
FUZZ_CASES = 40
FUZZ_MAX_INSTRUCTIONS = 600


def _vm_state(hv, vm, outcome):
    vcpu = vm.vcpus[0]
    cpu = vcpu.cpu
    tlb = cpu.mmu.tlb
    return {
        "outcome": outcome,
        "pc": cpu.pc,
        "halted": (cpu.halted, vcpu.halted),
        "cycles": cpu.cycles,
        "instret": cpu.instret,
        "regs": list(cpu.regs),
        "csr": list(cpu.csr),
        "vcsr": list(vcpu.vcsr),
        "pending": (sorted(c.name for c in cpu.pending_irqs),
                    sorted(c.name for c in vm.pending_virqs)),
        "tlb_stats": (tlb.stats.hits, tlb.stats.misses, tlb.stats.flushes,
                      tlb.stats.invalidations, tlb.stats.evictions),
        "tlb_entries": list(tlb._entries.items()),
        "vm_stats": {
            name: getattr(vm.stats, name)
            for name in ("guest_instructions", "guest_cycles", "vmm_cycles",
                         "world_switches", "hypercalls", "reflected_traps",
                         "injected_irqs", "shadow_fills", "shadow_pt_writes",
                         "ept_violations", "bt_translated_instructions",
                         "bt_callouts", "bt_block_hits", "bt_block_misses",
                         "bt_chained")
        },
        "exits": dict(vm.exit_stats.counts),
        "metrics": hv.registry.values(),
        "mem": vm.guest_mem.read_bytes(0, vm.guest_mem.size),
    }


def _assert_same(ref, jit):
    for key in ref:
        assert ref[key] == jit[key], f"JIT-on diverges in {key}"


# -- NanoOS guest-mix programs --------------------------------------------


_KERNELS = {}


def _kernel(pv):
    if pv not in _KERNELS:
        _KERNELS[pv] = build_kernel(
            KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY))
    return _KERNELS[pv]


def _boot(mode, program, jit):
    _label, virt_mode, mmu_mode, pv = mode
    hv = Hypervisor(memory_bytes=2 * GUEST_MEMORY)
    vm = hv.create_vm(GuestConfig(name="g", memory_bytes=GUEST_MEMORY,
                                  virt_mode=virt_mode, mmu_mode=mmu_mode))
    cpu = vm.vcpus[0].cpu
    cpu.jit_enabled = jit
    kernel = _kernel(pv)
    hv.load_program(vm, kernel)
    hv.load_program(vm, program)
    hv.reset_vcpu(vm, kernel.entry)
    outcome = hv.run(vm, max_guest_instructions=2_000_000)
    return hv, vm, outcome


@pytest.mark.parametrize("prog", sorted(PROGRAMS))
@pytest.mark.parametrize("mode", VMM_MODES, ids=MODE_IDS)
def test_nanoos_program_jit_matches_reference(mode, prog):
    program = PROGRAMS[prog]()
    states = []
    for jit in (False, True):
        hv, vm, outcome = _boot(mode, program, jit)
        assert outcome is RunOutcome.HALTED or outcome is RunOutcome.SHUTDOWN
        assert read_diag(vm.guest_mem).clean
        states.append(_vm_state(hv, vm, outcome))
        cpu = vm.vcpus[0].cpu
        if jit:
            assert cpu.jit_stats()["blocks_compiled"] > 0
        else:
            assert cpu.jit_stats()["active"] == 0
    _assert_same(*states)


# -- seeded fuzz images -----------------------------------------------------


def _fuzz_run(segments, mode, event_seed, jit, max_cycles=None):
    _label, virt_mode, mmu_mode, _pv = mode
    hv = Hypervisor(memory_bytes=8 * gen.MEM_BYTES, tlb_entries=64)
    vm = hv.create_vm(GuestConfig(
        name="fuzz", memory_bytes=gen.MEM_BYTES, virt_mode=virt_mode,
        mmu_mode=mmu_mode, tlb_entries=64, prealloc=True,
        with_virtio=True, with_emulated_io=False,
    ))
    for addr in sorted(segments):
        vm.guest_mem.write_bytes(addr, segments[addr])
    hv.reset_vcpu(vm, gen.PRE_BASE)
    cpu = vm.vcpus[0].cpu
    cpu.jit_enabled = jit
    cpu.events = EventSchedule.seeded(
        event_seed, horizon=FUZZ_MAX_INSTRUCTIONS, controller=vm.pic,
        console=vm.devices["console"],
        exit_on_fire=virt_mode is not VirtMode.HW_ASSIST,
    )
    try:
        outcome = hv.run(vm, max_guest_instructions=FUZZ_MAX_INSTRUCTIONS,
                         max_cycles=max_cycles).value
    except _ABORTS as exc:
        outcome = f"abort: {type(exc).__name__}: {exc}"
    return hv, vm, outcome


@pytest.mark.parametrize("mode", VMM_MODES, ids=MODE_IDS)
def test_fuzz_images_jit_matches_reference(mode):
    compared = 0
    compiled = 0
    for index in range(FUZZ_CASES):
        spec = gen.generate_case(FUZZ_ROOT_SEED, index)
        segments = gen.build_image(spec)
        event_seed = (FUZZ_ROOT_SEED ^ (index * 2654435761)) ^ 0x9E3779B9
        _hv, _vm, guarded = _fuzz_run(
            segments, mode, event_seed, jit=False,
            max_cycles=vmm_cycle_guard(FUZZ_MAX_INSTRUCTIONS))
        if guarded in ("cycle_limit", "hung"):
            continue  # a hang: the unguarded runs would never stop
        states = []
        for jit in (False, True):
            hv, vm, outcome = _fuzz_run(segments, mode, event_seed, jit)
            states.append(_vm_state(hv, vm, outcome))
            if jit:
                compiled += vm.vcpus[0].cpu.jit_stats()["blocks_compiled"]
        try:
            _assert_same(*states)
        except AssertionError as exc:
            raise AssertionError(f"fuzz case {index}: {exc}") from None
        compared += 1
    assert compared >= FUZZ_CASES * 3 // 4
    assert compiled > 0
