"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs a fixed unit
of work per round through the program's public functions, checks every
output against an oracle, and returns one :class:`OpRecord` per op.
Every op constructs its machine, hypervisor or fleet afresh, so the
modelled caches (TLB, JIT block cache, BT translation cache) start
empty, as they do for each ``repro run``.
"""

import gc
import hashlib
import math
import statistics
import time
from typing import Dict, List, Tuple

from repro.cluster import coordinator
from repro.cluster.coordinator import ClusterSimConfig, run_sharded_cluster
from repro.cluster.workgen import generate_fleet
from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.core.hypervisor import RunOutcome
from repro.core.snapshot import VMSnapshot, restore_vm, snapshot_vm
from repro.fuzz import campaign, diff, gen
from repro.fuzz.campaign import manifest_identity, run_campaign
from repro.fuzz.diff import VMM_CONFIGS, default_opts
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads as programs
from repro.guest.loader import read_diag
from repro.migration import LiveMigrator
from repro.overcommit.controller import MemoryPressureController
from repro.util.units import MIB

from harness import (OpRecord, Tracer, Unit, calibration_sample, probe,
                     tail_percentile)

OFF = Tracer(enabled=False)

GUEST_MEMORY = 16 * MIB
HOST_MEMORY = 64 * MIB
MAX_INSTRUCTIONS = 30_000_000

#: (boot mode, virt mode, MMU mode, paravirtual kernel), named as
#: ``repro list`` names them.
BOOT_MODES: Tuple[Tuple[str, object, object, bool], ...] = (
    ("native", None, None, False),
    ("trap-emulate", VirtMode.TRAP_EMULATE, MMUVirtMode.SHADOW, False),
    ("bin-transl", VirtMode.BINARY_TRANSLATION, MMUVirtMode.SHADOW, False),
    ("paravirt", VirtMode.PARAVIRT, MMUVirtMode.SHADOW, True),
    ("hw-shadow", VirtMode.HW_ASSIST, MMUVirtMode.SHADOW, False),
    ("hw-nested", VirtMode.HW_ASSIST, MMUVirtMode.NESTED, False),
    ("hw-hmode", VirtMode.HW_ASSIST, MMUVirtMode.HMODE, False),
)
VMM_MODES = BOOT_MODES[1:]

MMU_KINDS = {"BareMMU": "bare", "ShadowMMU": "shadow",
             "NestedMMU": "nested", "HModeMMU": "hmode"}

def derive(*parts) -> int:
    """A 32-bit seed that is a pure function of ``parts``."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


# -- reading the program's public statistics --------------------------------


def core_stats(cpu) -> Tuple[Dict[str, object], Dict[str, float]]:
    """(sim statistics, per-layer counts) of one guest core."""
    tlb = cpu.mmu.tlb.stats
    kind = MMU_KINDS[type(cpu.mmu).__name__]
    jit = cpu.jit_stats()
    sim = {"cycles": cpu.cycles, "instret": cpu.instret, "tlb": kind,
           "tlb_counts": [tlb.hits, tlb.misses, tlb.flushes,
                          tlb.invalidations, tlb.evictions]}
    counts = {
        "cpu.instret": cpu.instret,
        "cpu.guest_runs": 1,
        "cpu.jit.active_runs": jit["active"],
        "cpu.jit.blocks_compiled": jit["blocks_compiled"],
        "cpu.jit.blocks_invalidated": jit["blocks_invalidated"],
        "cpu.jit.fallback_steps": jit["fallback_steps"],
        "cpu.jit.ic_hits": jit["ic_hits"],
        f"mem.tlb.{kind}.hits": tlb.hits,
        f"mem.tlb.{kind}.misses": tlb.misses,
    }
    return sim, counts


def _queue_counts(blk, net) -> Dict[str, float]:
    queues = ([blk.queue] if blk is not None else []) + (
        [net.tx.queue, net.rx.queue] if net is not None else [])
    kicks = sum(q.kicks for q in queues)
    requests = sum(q.requests for q in queues)
    return {"devices.virtio.kicks": kicks, "devices.virtio.requests": requests}


def machine_stats(machine) -> Tuple[Dict[str, object], Dict[str, float]]:
    sim, counts = core_stats(machine.cpu)
    counts.update(_queue_counts(machine.virtio_blk, machine.virtio_net))
    counts["devices.irq.delivered"] = machine.pic.raised_count
    sim["irqs"] = machine.pic.raised_count
    return sim, counts


def vm_stats(vm) -> Tuple[Dict[str, object], Dict[str, float]]:
    sim, counts = core_stats(vm.vcpus[0].cpu)
    st = vm.stats
    exits = dict(vm.exit_stats.counts)
    sim.update({
        "vmm_cycles": st.vmm_cycles, "exits": exits,
        "shadow_fills": st.shadow_fills,
        "shadow_pt_writes": st.shadow_pt_writes,
        "ept_violations": st.ept_violations,
        "world_switches": st.world_switches, "hypercalls": st.hypercalls,
        "bt": [st.bt_block_hits, st.bt_block_misses, st.bt_chained,
               st.bt_callouts],
        "irqs": vm.pic.raised_count,
    })
    counts.update({
        "core.exits": sum(exits.values()),
        "core.shadow_fills": st.shadow_fills,
        "core.shadow_pt_writes": st.shadow_pt_writes,
        "core.ept_violations": st.ept_violations,
        "core.world_switches": st.world_switches,
        "core.hypercalls": st.hypercalls,
        "core.vmm_cycles": st.vmm_cycles,
        "core.bt.block_hits": st.bt_block_hits,
        "core.bt.block_misses": st.bt_block_misses,
        "core.bt.chained": st.bt_chained,
        "core.bt.callouts": st.bt_callouts,
        "devices.irq.delivered": vm.pic.raised_count,
    })
    for key, n in exits.items():
        reason = key.split(":", 1)[0]
        counts[f"core.exits.{reason}"] = counts.get(
            f"core.exits.{reason}", 0) + n
    counts.update(_queue_counts(vm.devices.get("virtio_blk"),
                                vm.devices.get("virtio_net")))
    return sim, counts


def _add(into: Dict[str, float], more: Dict[str, float]) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


def _make_vm(hv, name: str, virt_mode, mmu_mode):
    return hv.create_vm(GuestConfig(name=name, memory_bytes=GUEST_MEMORY,
                                    virt_mode=virt_mode, mmu_mode=mmu_mode))


class Workload:
    """Base: ``setup(seed)``, then ``round_units(rnd, tracer)``."""

    name = ""
    #: Whether ops retire guest instructions (``guest_mips`` applies).
    has_guest = True
    min_rounds = 1
    min_ops = 1
    #: Calibration-loop samples taken before each unit of work.
    cal_samples = 2

    @property
    def tail_pct(self) -> int:
        return tail_percentile(self.min_ops)

    def round_input(self, rnd: int) -> int:
        """Rounds with equal keys run identical inputs."""
        return 0

    def probes(self, tracer: Tracer) -> List:
        """Context managers active for the whole run (traced or not)."""
        return []

    def end_to_end_extra(self, phase) -> Dict[str, float]:
        return {}

    def layer_metrics(self, phase) -> Dict[str, float]:
        """Per-layer metrics this workload derives from an untraced phase."""
        return {}


# -- guest-mix ----------------------------------------------------------------


class GuestMix(Workload):
    """Five NanoOS programs, each booted once under each boot mode."""

    name = "guest-mix"
    min_rounds = 3
    min_ops = 105  # 3 rounds of 35 boots

    def setup(self, seed: int, tracer: Tracer = OFF) -> None:
        self.seed = seed
        iterations = 6000 + seed % 101
        walk_seed = derive(seed, "pt_mix") | 1
        with tracer.span("guest.build"):
            self._build(iterations, walk_seed)
        pairs = [(p, m) for p in self.programs for m in BOOT_MODES]
        order = sorted(range(len(pairs)),
                       key=lambda i: derive(seed, "order", i))
        self.order = [pairs[i] for i in order]

    def _build(self, iterations: int, walk_seed: int) -> None:
        self.kernels = {
            pv: build_kernel(KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY))
            for pv in (False, True)
        }
        # (program, its exit-value oracle); memtouch's 96 pages exceed
        # the 64-entry TLB, pt_mix churns the page tables.
        self.programs = {
            "cpu_bound": (programs.cpu_bound(iterations),
                          programs.expected_cpu_bound(iterations)),
            "memtouch": (programs.memtouch(96, 3),
                         programs.expected_memtouch(96, 3)),
            "syscall_storm": (programs.syscall_storm(400), 400),
            "pt_mix": (programs.pt_mix(16, 1024, 128, walk_seed),
                       programs.expected_pt_mix(16, 1024, 128, walk_seed)),
            "vblk_write": (programs.vblk_write(12, 4), 48),
        }

    def round_units(self, rnd: int, tracer: Tracer) -> List[Unit]:
        return [Unit(f"{prog}/{mode[0]}", 1,
                     lambda prog=prog, mode=mode: [self._boot(prog, mode,
                                                              tracer)])
                for prog, mode in self.order]

    def _boot(self, prog: str, mode, tracer: Tracer) -> OpRecord:
        label, virt_mode, mmu_mode, pv = mode
        program, expected = self.programs[prog]
        kernel = self.kernels[pv]
        start = time.perf_counter()
        if virt_mode is None:
            with tracer.span("core.construct"):
                machine = Machine(memory_bytes=GUEST_MEMORY)
            g0 = time.perf_counter()
            with tracer.span("guest.run", mode=label):
                diag = boot_native(machine, kernel, program, MAX_INSTRUCTIONS)
            guest_s = time.perf_counter() - g0
            sim, counts = machine_stats(machine)
            cpu = machine.cpu
        else:
            with tracer.span("core.construct"):
                hv = Hypervisor(memory_bytes=HOST_MEMORY)
                vm = _make_vm(hv, "g", virt_mode, mmu_mode)
            g0 = time.perf_counter()
            with tracer.span("guest.run", mode=label):
                diag = boot_vm(hv, vm, kernel, program, MAX_INSTRUCTIONS)
            guest_s = time.perf_counter() - g0
            sim, counts = vm_stats(vm)
            cpu = vm.vcpus[0].cpu
        seconds = time.perf_counter() - start
        ok = diag.clean and diag.user_result == expected
        sim["result"] = diag.user_result
        return OpRecord(kind=f"{prog}/{label}", seconds=seconds, ok=ok,
                        sim=sim, counts=counts, guest_instr=cpu.instret,
                        guest_s=guest_s,
                        error=None if ok else f"result {diag.user_result} "
                        f"!= {expected}, clean={diag.clean}")

    def end_to_end_extra(self, phase) -> Dict[str, float]:
        """E1's headline: geometric mean over programs x virtualized
        modes of (guest + VMM cycles) / native cycles."""
        total = {}
        for r in phase.ops[:len(self.order)]:
            total[r.kind] = r.sim.get("cycles", 0) + r.sim.get("vmm_cycles", 0)
        logs = []
        for prog in self.programs:
            native = total.get(f"{prog}/native")
            for mode in VMM_MODES:
                virt = total.get(f"{prog}/{mode[0]}")
                if native and virt:
                    logs.append(math.log(virt / native))
        if not logs:
            return {}
        return {"virt_overhead": math.exp(statistics.fmean(logs))}

    def layer_metrics(self, phase) -> Dict[str, float]:
        out = {}
        for mode in BOOT_MODES:
            ops = [r for r in phase.ops
                   if r.kind.endswith("/" + mode[0]) and r.guest_s > 0]
            secs = sum(r.guest_s for r in ops)
            out[f"cpu.mips.{mode[0]}"] = (
                sum(r.guest_instr for r in ops) / secs / 1e6 if secs else 0.0)
        return out


# -- fuzz ---------------------------------------------------------------------


class Fuzz(Workload):
    """One seeded differential campaign per round, ``jobs=1``."""

    name = "fuzz"
    cases = 40
    min_rounds = 5
    min_ops = 200

    def __init__(self, bug=None):
        self.opts = {**default_opts(), "fault_rate": 0.05, "bug": bug}
        self._case: Dict[str, float] = {}
        self._injectors: List = []
        self._records: List[OpRecord] = []

    def setup(self, seed: int, tracer: Tracer = OFF) -> None:
        """Construct one instance of every backend the campaign runs."""
        self.seed = seed
        gen.build_image(gen.generate_case(derive(seed, "fuzz", 0), 0))
        for name, virt_mode, mmu_mode in VMM_CONFIGS:
            Hypervisor(memory_bytes=8 * gen.MEM_BYTES).create_vm(GuestConfig(
                name=name, memory_bytes=gen.MEM_BYTES, virt_mode=virt_mode,
                mmu_mode=mmu_mode, with_emulated_io=False))

    def round_input(self, rnd: int) -> int:
        return rnd

    def probes(self, tracer: Tracer) -> List:
        def on_backend(args, kwargs, result, seconds):
            case = self._case
            case["instr"] = case.get("instr", 0) + result["instret"]
            case["guest_s"] = case.get("guest_s", 0.0) + seconds
            if "tlb" in result:  # bare runs report their TLB; VMM runs do not
                for stat in ("hits", "misses"):
                    key = f"mem.tlb.bare.{stat}"
                    case[key] = case.get(key, 0) + result["tlb"][stat]

        def on_case(args, kwargs, result, seconds):
            fired = sum(1 for inj in self._injectors
                        for _site, _i, hit in inj.trace if hit)
            self._injectors.clear()
            record = self._case_record(result, seconds, fired)
            record.start = time.perf_counter() - seconds
            record.cal = self._next_cal
            self._records.append(record)
            self._case = {}
            # The case pays for collecting its garbage (its machines hold
            # reference cycles); calibrating for the next case is the
            # benchmark's own time, outside the case's and the unit's.
            t0 = time.perf_counter()
            gc.collect()
            t1 = time.perf_counter()
            record.seconds += t1 - t0
            self._next_cal = calibration_sample()
            record.overhead = time.perf_counter() - t1

        return [
            probe(campaign, "run_case", on_case, tracer,
                  lambda a, k: "fuzz.case"),
            # run_case_spec calls run_bare(segments, jit=...) and
            # run_vmm(segments, config_name, ...).
            probe(diff, "run_bare", on_backend, tracer,
                  lambda a, k: "fuzz.backend." + ("jit" if k["jit"]
                                                  else "interp")),
            probe(diff, "run_vmm", on_backend, tracer,
                  lambda a, k: "fuzz.backend." + a[1]),
            probe(diff, "FaultInjector",
                  lambda a, k, inj, s: self._injectors.append(inj), tracer),
            probe(gen, "generate_case", lambda *a: None, tracer,
                  lambda a, k: "fuzz.gen"),
            probe(campaign, "build_manifest", lambda *a: None, tracer,
                  lambda a, k: "obs.manifest"),
        ]

    def _case_record(self, result: Dict, seconds: float,
                     fired: int) -> OpRecord:
        kind = result["verdict"]["kind"]
        counts = {"fuzz.cases": 1,
                  "fuzz.divergences": int(kind == "divergence"),
                  "fuzz.halted": int(result["outcomes"]["interp"] == "halted"),
                  "faults.injected.total": fired,
                  "cpu.instret": int(self._case.get("instr", 0))}
        for stat in ("hits", "misses"):
            key = f"mem.tlb.bare.{stat}"
            counts[key] = self._case.get(key, 0)
        for outcome in result["outcomes"].values():
            key = f"fuzz.outcome.{outcome}"
            counts[key] = counts.get(key, 0) + 1
        return OpRecord(
            kind="case", seconds=seconds, ok=kind == "ok",
            sim={"index": result["index"], "verdict": result["verdict"],
                 "outcomes": result["outcomes"]},
            counts=counts, guest_instr=int(self._case.get("instr", 0)),
            guest_s=self._case.get("guest_s", 0.0),
            error=None if kind == "ok" else
            f"case {result['index']} of root seed {result['root_seed']}:"
            f" {kind} {result['verdict']['fields']}"
            f" between {result['verdict']['pair']}; aborts {result['aborts']}"
            f" (replay: python -m repro fuzz --seed {result['root_seed']}"
            f" --cases {result['index'] + 1})")

    def round_units(self, rnd: int, tracer: Tracer) -> List[Unit]:
        root = derive(self.seed, "fuzz", rnd)

        def run() -> List[OpRecord]:
            self._records = []
            self._next_cal = 0.0  # the harness's sample covers case 0
            out = run_campaign(root, self.cases, jobs=1, opts=self.opts,
                               shrink=False)
            identity = hashlib.sha256(
                manifest_identity(out["manifest"]).encode()).hexdigest()
            records, self._records = self._records, []
            if len(records) != self.cases:
                raise RuntimeError(f"saw {len(records)} of {self.cases} cases")
            for r in records:
                r.sim["manifest_identity"] = identity
            return records

        return [Unit("campaign", self.cases, run)]

    def end_to_end_extra(self, phase) -> Dict[str, float]:
        return {"cases_per_s": statistics.median(
            self.cases / s for s in phase.round_seconds)}


# -- fleet --------------------------------------------------------------------


class Fleet(Workload):
    """The E8s sharded control loop at one fleet size, ``jobs=1``."""

    name = "fleet"
    has_guest = False
    fleet_size = 1000
    runs_per_round = 4
    min_rounds = 15
    min_ops = 60

    def _config(self, rnd: int, i: int) -> ClusterSimConfig:
        return ClusterSimConfig(
            fleet_size=self.fleet_size, shards=8, epochs=6,
            seed=derive(self.seed, "fleet", rnd, i), crash_rate=0.01,
            arrivals_per_epoch=4)

    def setup(self, seed: int, tracer: Tracer = OFF) -> None:
        """Fleet construction: validate the round-0 configs and generate
        their fleets."""
        self.seed = seed
        for i in range(self.runs_per_round):
            config = self._config(0, i)
            config.validate()
            generate_fleet(config.fleet_size, seed=config.seed)

    def round_input(self, rnd: int) -> int:
        return rnd

    def probes(self, tracer: Tracer) -> List:
        if not tracer.enabled:
            return []
        noop = lambda *a: None  # noqa: E731
        return [
            probe(coordinator, "run_cluster_shard_epoch", noop, tracer,
                  lambda a, k: "cluster.epoch"),
            probe(coordinator, "build_manifest", noop, tracer,
                  lambda a, k: "obs.manifest"),
            probe(coordinator, "merge_manifests", noop, tracer,
                  lambda a, k: "obs.manifest"),
            probe(coordinator, "finalize_manifest", noop, tracer,
                  lambda a, k: "obs.manifest"),
        ]

    def round_units(self, rnd: int, tracer: Tracer) -> List[Unit]:
        return [Unit("cluster", 1,
                     lambda i=i: [self._run(self._config(rnd, i), tracer)])
                for i in range(self.runs_per_round)]

    def _run(self, config: ClusterSimConfig, tracer: Tracer) -> OpRecord:
        start = time.perf_counter()
        with tracer.span("cluster.run", shards=config.shards):
            report = run_sharded_cluster(config, jobs=1)
        seconds = time.perf_counter() - start
        metrics = report.manifest["metrics"]

        def total(suffix: str) -> int:
            return int(sum(m["value"] for k, m in metrics.items()
                           if k.endswith(suffix) and m["type"] == "counter"))

        def coord(name: str) -> int:
            m = metrics.get(f"cluster.coordinator.{name}")
            return int(m["value"]) if m else 0

        accepted = coord("admission.accepted")
        replaced = coord("evac.replaced")
        moves = coord("balancer.moves")
        unplaced = coord("evac.unplaced_at_end")
        arrived = total(".messages.arrived")
        departed = total(".messages.departed")
        # Barrier decisions reach the shards one epoch later, so the
        # last barrier's arrivals and departures are still in flight.
        in_flight = (replaced + accepted + moves - arrived) - (moves - departed)
        admitted = config.fleet_size + accepted
        accounted = report.stats["vms_resident"] + unplaced + in_flight
        ok = admitted == accounted
        counts = {
            "cluster.placements": total(".placements"),
            "cluster.admission.accepted": accepted,
            "cluster.evac.replaced": replaced,
            "cluster.balancer.moves": moves,
            "cluster.vms_placed": config.fleet_size + accepted + replaced
            + moves,
            "sim.messages": report.stats["messages"],
            "faults.injected.total": int(
                metrics.get("faults.injected.total", {}).get("value", 0)),
        }
        return OpRecord(kind="cluster", seconds=seconds, ok=ok,
                        sim={"sha256": report.sha256, "stats": report.stats},
                        counts=counts,
                        error=None if ok else
                        f"admitted {admitted} != accounted {accounted}")

    def end_to_end_extra(self, phase) -> Dict[str, float]:
        per_round = len(phase.ops) // len(phase.round_seconds)
        rates = []
        for rnd, secs in enumerate(phase.round_seconds):
            ops = phase.ops[rnd * per_round:(rnd + 1) * per_round]
            rates.append(sum(r.counts["cluster.vms_placed"]
                             for r in ops if r.ok) / secs)
        return {"vms_placed_per_s": statistics.median(rates)}


# -- vm-lifecycle -------------------------------------------------------------

#: 16 MiB guests on a 36 MiB host: three overcommit memory 1.33x.
OVERCOMMIT_HOST = 36 * MIB
OVERCOMMIT_VMS = 3
OVERCOMMIT_ADMIT_FRAMES = (GUEST_MEMORY >> 12) + 128
#: Guest instructions each VM runs between two controller ticks.
OVERCOMMIT_SLICE = 100_000


class VMLifecycle(Workload):
    """Live migration, snapshot/restore and overcommitted admission."""

    name = "vm-lifecycle"
    cal_samples = 3
    min_rounds = 4
    min_ops = 40  # 4 rounds of 10 ops

    def setup(self, seed: int, tracer: Tracer = OFF) -> None:
        self.seed = seed
        with tracer.span("guest.build"):
            self._build()
        # The seed moves the cut points: when migration starts and where
        # the paused guest is snapshotted.
        self.migrate_at = 10_000 + derive(seed, "migrate") % 4096
        self.snapshot_at = 8_000 + derive(seed, "snapshot") % 8192
        ops = ([("migrate", m) for m in VMM_MODES if m[1] is VirtMode.HW_ASSIST]
               + [("snapshot", m) for m in VMM_MODES]
               + [("overcommit", None)])
        order = sorted(range(len(ops)), key=lambda i: derive(seed, "ord", i))
        self.order = [ops[i] for i in order]

    def _build(self) -> None:
        self.kernels = {
            pv: build_kernel(KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY))
            for pv in (False, True)
        }
        # Both guests are still running at their cut points.
        self.dirtier = (programs.memtouch(48, 150),
                        programs.expected_memtouch(48, 150))
        self.paused = (programs.memtouch(32, 80),
                       programs.expected_memtouch(32, 80))
        self.pressure = (programs.memtouch(64, 8),
                         programs.expected_memtouch(64, 8))

    def round_units(self, rnd: int, tracer: Tracer) -> List[Unit]:
        units = []
        for kind, mode in self.order:
            fn = {"migrate": self._migrate, "snapshot": self._snapshot,
                  "overcommit": self._overcommit}[kind]
            name = kind if mode is None else f"{kind}/{mode[0]}"
            units.append(Unit(name, 1, lambda fn=fn, mode=mode, name=name:
                              [fn(name, mode, tracer)]))
        return units

    def _run_guest(self, hv, vm, tracer: Tracer, budget=None):
        cpu = vm.vcpus[0].cpu
        i0, g0 = cpu.instret, time.perf_counter()
        with tracer.span("guest.run"):
            outcome = hv.run(vm, max_guest_instructions=budget)
        return outcome, cpu.instret - i0, time.perf_counter() - g0

    def _migrate(self, name: str, mode, tracer: Tracer) -> OpRecord:
        label, virt_mode, mmu_mode, _pv = mode
        program, expected = self.dirtier
        start = time.perf_counter()
        with tracer.span("core.construct"):
            src = Hypervisor(memory_bytes=HOST_MEMORY)
            dst = Hypervisor(memory_bytes=HOST_MEMORY)
            vm = _make_vm(src, "mig", virt_mode, mmu_mode)
        src.load_program(vm, self.kernels[False])
        src.load_program(vm, program)
        src.reset_vcpu(vm, self.kernels[False].entry)
        _o, n1, s1 = self._run_guest(src, vm, tracer, self.migrate_at)
        with tracer.span("migration.migrate"):
            res = LiveMigrator(src, dst, bytes_per_cycle=4.0).migrate(
                vm, quantum_instructions=5_000, max_rounds=5,
                threshold_pages=4)
        outcome, n2, s2 = self._run_guest(dst, res.dest_vm, tracer,
                                          MAX_INSTRUCTIONS)
        seconds = time.perf_counter() - start
        result = read_diag(res.dest_vm.guest_mem).user_result
        ok = outcome is RunOutcome.SHUTDOWN and result == expected
        sim, counts = vm_stats(res.dest_vm)
        sim.update({"result": result, "rounds": res.rounds,
                    "pages_copied": res.pages_copied,
                    "round_sizes": res.round_sizes,
                    "downtime_cycles": res.downtime_cycles,
                    "transfer_cycles": res.total_transfer_cycles})
        counts.update({"migration.rounds": res.rounds,
                       "migration.pages_copied": res.pages_copied,
                       "migration.guest_pages": vm.num_pages})
        return OpRecord(kind=name, seconds=seconds, ok=ok, sim=sim,
                        counts=counts, guest_instr=n1 + n2, guest_s=s1 + s2,
                        error=None if ok else f"{outcome} result {result}")

    def _snapshot(self, name: str, mode, tracer: Tracer) -> OpRecord:
        label, virt_mode, mmu_mode, pv = mode
        program, expected = self.paused
        kernel = self.kernels[pv]
        start = time.perf_counter()
        with tracer.span("core.construct"):
            hv = Hypervisor(memory_bytes=HOST_MEMORY)
            vm = _make_vm(hv, "snap", virt_mode, mmu_mode)
        hv.load_program(vm, kernel)
        hv.load_program(vm, program)
        hv.reset_vcpu(vm, kernel.entry)
        _o, n1, s1 = self._run_guest(hv, vm, tracer, self.snapshot_at)
        with tracer.span("core.snapshot"):
            blob = snapshot_vm(vm).to_bytes()
        hv.destroy_vm(vm)
        with tracer.span("core.restore"):
            target = Hypervisor(memory_bytes=HOST_MEMORY)
            restored = restore_vm(target, VMSnapshot.from_bytes(blob))
        outcome, n2, s2 = self._run_guest(target, restored, tracer,
                                          MAX_INSTRUCTIONS)
        seconds = time.perf_counter() - start
        result = read_diag(restored.guest_mem).user_result
        ok = outcome is RunOutcome.SHUTDOWN and result == expected
        sim, counts = vm_stats(restored)
        sim.update({"result": result, "snapshot_bytes": len(blob)})
        counts["core.snapshot.bytes"] = len(blob)
        return OpRecord(kind=name, seconds=seconds, ok=ok, sim=sim,
                        counts=counts, guest_instr=n1 + n2, guest_s=s1 + s2,
                        error=None if ok else f"{outcome} result {result}")

    def _overcommit(self, name: str, _mode, tracer: Tracer) -> OpRecord:
        program, expected = self.pressure
        kernel = self.kernels[False]
        start = time.perf_counter()
        with tracer.span("core.construct"):
            hv = Hypervisor(memory_bytes=OVERCOMMIT_HOST)
            controller = MemoryPressureController(hv)
        vms = []
        for i in range(OVERCOMMIT_VMS):
            with tracer.span("overcommit.reclaim"):
                controller.reclaim(OVERCOMMIT_ADMIT_FRAMES)
            vm = _make_vm(hv, f"oc{i}", VirtMode.HW_ASSIST, MMUVirtMode.NESTED)
            hv.load_program(vm, kernel)
            hv.load_program(vm, program)
            hv.reset_vcpu(vm, kernel.entry)
            controller.manage(vm)
            vms.append(vm)
        outcomes, instr, guest_s = {}, 0, 0.0
        pending = list(vms)
        # At most MAX_INSTRUCTIONS per guest: one that never shuts down
        # ends at INSTR_LIMIT, a failed op.
        for _pass in range(MAX_INSTRUCTIONS // OVERCOMMIT_SLICE):
            if not pending:
                break
            still = []
            for vm in pending:
                outcome, n, s = self._run_guest(hv, vm, tracer,
                                                OVERCOMMIT_SLICE)
                instr += n
                guest_s += s
                if outcome is RunOutcome.INSTR_LIMIT:
                    still.append(vm)
                else:
                    outcomes[vm.name] = outcome
            with tracer.span("overcommit.tick"):
                controller.tick()
            pending = still
        for vm in pending:
            outcomes[vm.name] = RunOutcome.INSTR_LIMIT
        seconds = time.perf_counter() - start
        results = {vm.name: read_diag(vm.guest_mem).user_result for vm in vms}
        ok = all(outcomes[n] is RunOutcome.SHUTDOWN and r == expected
                 for n, r in results.items())
        per_vm = [vm.vcpus[0].cpu.cycles + vm.stats.vmm_cycles for vm in vms]
        log = controller.tick_log
        counts = {
            "overcommit.ticks": controller.ticks,
            "overcommit.ballooned": sum(sum(r.inflated.values()) for r in log),
            "overcommit.pages_merged": sum(r.pages_merged for r in log),
            "overcommit.swap_ins": controller.swap.swap_ins,
        }
        for vm in vms:
            _add(counts, vm_stats(vm)[1])
        sim = {"results": results, "per_vm_cycles": per_vm,
               "max_cycles": max(per_vm),
               "tick_log": controller.serialized_log()}
        return OpRecord(kind=name, seconds=seconds, ok=ok, sim=sim,
                        counts=counts, guest_instr=instr, guest_s=guest_s,
                        error=None if ok else
                        f"outcomes {sorted(o.name for o in outcomes.values())}"
                        f" results {results}")

    def end_to_end_extra(self, phase) -> Dict[str, float]:
        first = phase.ops[:len(self.order)]
        return {
            "downtime_cycles": sum(r.sim.get("downtime_cycles", 0)
                                   for r in first),
            "overcommit_max_cycles": max(
                (r.sim["max_cycles"] for r in first if "max_cycles" in r.sim),
                default=None),
        }


WORKLOADS = {w.name: w for w in (GuestMix, Fuzz, Fleet, VMLifecycle)}
