"""Host-throughput benchmark: guest-MIPS, interpreter vs. compiled.

Unlike E1-E10, which measure *simulated* cycles (the paper's data), this
bench measures the **simulator itself**: how many guest instructions per
host wall-clock second each execution engine retires. Three comparisons:

* ``native`` rows -- bare-metal NanoOS runs with the closure compiler
  (:mod:`repro.cpu.jit`) off vs. on;
* ``bt`` rows -- binary-translation guests with the per-item block walk
  vs. fused block closures (``BTEngine.compile_enabled``);
* ``vmm/<mode>`` rows -- NanoOS in each VMM boot mode with the vCPU's
  closure compiler off vs. on (``cpu.jit_enabled``).

Every pair is also a differential test: the simulated cycles, instret,
and workload result must be bit-identical between engines, so the bench
fails loudly if the fast path ever diverges from the oracle. Results are
emitted as ``BENCH_HOST.json`` (schema ``pyvisor.bench.host/1``) for the
CI regression gate, which compares *speedup ratios* (hardware-
independent) against a committed baseline.
"""

import json
import platform
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.common import (
    GUEST_MEMORY,
    HOST_MEMORY,
    MODE_MATRIX,
    new_run_registry,
)
from repro.core import GuestConfig, Hypervisor, Machine, MMUVirtMode, VirtMode
from repro.cpu import jit as block_jit
from repro.cpu.assembler import Program
from repro.guest import KernelOptions, boot_native, boot_vm, build_kernel
from repro.guest import workloads
from repro.obs.manifest import build_manifest
from repro.obs.registry import MetricsRegistry
from repro.util.errors import GuestError
from repro.util.table import Table

BENCH_SCHEMA = "pyvisor.bench.host/1"

#: Default output file name for ``python -m repro perf``.
DEFAULT_OUTPUT = "BENCH_HOST.json"

#: Fraction of the baseline speedup a run may drop to before the gate
#: fails (the ">20% regression" contract).
REGRESSION_TOLERANCE = 0.8

#: (name, quick builder, full builder) -- native workload matrix.
_NATIVE_WORKLOADS: List[Tuple[str, Callable[[], Program], Callable[[], Program]]] = [
    (
        "cpu_bound",
        lambda: workloads.cpu_bound(8000),
        lambda: workloads.cpu_bound(120000),
    ),
    (
        # Full mode runs long enough (~700k instret) that one-time
        # block-compile and boot cost stop dominating the compiled run;
        # the memtouch floor is gated on full mode only for this reason.
        "memtouch",
        lambda: workloads.memtouch(48, 8),
        lambda: workloads.memtouch(192, 512),
    ),
    (
        "syscall_storm",
        lambda: workloads.syscall_storm(250),
        lambda: workloads.syscall_storm(2500),
    ),
]

#: Workloads also run under binary translation (kernel-heavy subset).
_BT_WORKLOADS = ("cpu_bound", "syscall_storm")

#: Workloads run in every VMM boot mode.
_VMM_WORKLOADS = ("cpu_bound", "memtouch", "syscall_storm")


@dataclass
class EngineRow:
    """One (workload, engine) measurement."""

    workload: str
    layer: str  # "native" | "bt" | "vmm/<mode>"
    engine: str  # "interp" | "compiled"
    wall_s: float
    instructions: int
    sim_cycles: int
    guest_mips: float
    #: The workload's exit value (compared between engines).
    result: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "layer": self.layer,
            "engine": self.engine,
            "wall_s": round(self.wall_s, 6),
            "instructions": self.instructions,
            "sim_cycles": self.sim_cycles,
            "guest_mips": round(self.guest_mips, 4),
        }


@dataclass
class HostBenchResult:
    """All measurements plus the JSON payload and rendered tables."""

    quick: bool
    rows: List[EngineRow]
    speedups: Dict[str, float]  # "<layer>/<workload>" -> compiled/interp
    jit_counters: Dict[str, int]
    table: Table
    metrics: Optional[MetricsRegistry] = None
    raw: Dict[str, Any] = field(default_factory=dict)
    #: Top-N cProfile hotspots when the run was profiled (None = off).
    profile: Optional[List[Dict[str, Any]]] = None

    def render(self) -> str:
        return self.table.render()

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "quick": self.quick,
            "host": {
                "python": sys.version.split()[0],
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
            },
            "rows": [row.to_json() for row in self.rows],
            "speedups": {k: round(v, 4) for k, v in self.speedups.items()},
            "jit": dict(self.jit_counters),
        }
        if self.profile is not None:
            payload["profile"] = self.profile
            if self.metrics is not None:
                payload["manifest"] = build_manifest(
                    self.metrics,
                    experiment="host-throughput",
                    extra={"profile": self.profile},
                )
        return payload

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    def check_baseline(self, baseline: Dict[str, Any]) -> List[str]:
        """Compare speedup ratios against a committed baseline.

        Returns a list of failure strings (empty = pass). Only ratios
        are compared -- absolute guest-MIPS depend on the host machine.
        Floors under ``speedups`` are always gated; floors under
        ``speedups_full`` only gate full (non-quick) runs, for ratios
        that quick runs cannot measure honestly (short quick runs are
        dominated by one-time block-compile cost).
        """
        failures = []
        gated = dict(baseline.get("speedups", {}))
        if not self.quick:
            gated.update(baseline.get("speedups_full", {}))
        for key, floor in sorted(gated.items()):
            got = self.speedups.get(key)
            if got is None:
                failures.append(f"{key}: missing from this run")
                continue
            if got < floor * REGRESSION_TOLERANCE:
                failures.append(
                    f"{key}: speedup {got:.2f}x is more than 20% below "
                    f"the baseline {floor:.2f}x"
                )
        return failures

    def baseline_table(self, baseline: Dict[str, Any]) -> str:
        """Render a floors-vs-measured diff table for every gated row
        (the CI failure artifact: shows *which* floor regressed and by
        how much, not just that one did)."""
        gated = dict(baseline.get("speedups", {}))
        if not self.quick:
            gated.update(baseline.get("speedups_full", {}))
        header = (f"{'workload':>24} | {'floor':>7} | {'min ok':>7} | "
                  f"{'measured':>8} | status")
        lines = [header, "-" * len(header)]
        for key, floor in sorted(gated.items()):
            got = self.speedups.get(key)
            min_ok = floor * REGRESSION_TOLERANCE
            if got is None:
                measured, status = "missing", "FAIL"
            else:
                measured = f"{got:.2f}x"
                status = "ok" if got >= min_ok else "FAIL"
            lines.append(f"{key:>24} | {floor:>6.2f}x | {min_ok:>6.2f}x | "
                         f"{measured:>8} | {status}")
        return "\n".join(lines)


def _cold_code_cache() -> None:
    """Start each measured run with no shared compiled code, so a row
    pays its own compile cost whatever rows ran before it."""
    block_jit._CODE_CACHE.clear()


def _measure_native(
    kernel: Program, workload: Program, jit: bool
) -> Tuple[EngineRow, Machine]:
    machine = Machine(memory_bytes=GUEST_MEMORY, jit=jit)
    _cold_code_cache()
    start = perf_counter()
    diag = boot_native(machine, kernel, workload, max_instructions=200_000_000)
    wall = perf_counter() - start
    if not diag.clean:
        raise GuestError(f"host bench native run unclean: {diag}")
    cpu = machine.cpu
    return (
        EngineRow(
            workload="",
            layer="native",
            engine="compiled" if jit else "interp",
            wall_s=wall,
            instructions=cpu.instret,
            sim_cycles=cpu.cycles,
            guest_mips=cpu.instret / wall / 1e6 if wall > 0 else 0.0,
            result=diag.user_result,
        ),
        machine,
    )


def _measure_bt(
    kernel: Program, workload: Program, fused: bool
) -> Tuple[EngineRow, Any]:
    hv = Hypervisor(memory_bytes=HOST_MEMORY)
    vm = hv.create_vm(
        GuestConfig(
            name="hostbench",
            memory_bytes=GUEST_MEMORY,
            virt_mode=VirtMode.BINARY_TRANSLATION,
            mmu_mode=MMUVirtMode.SHADOW,
        )
    )
    vm.bt.compile_enabled = fused
    _cold_code_cache()
    start = perf_counter()
    diag = boot_vm(hv, vm, kernel, workload, max_guest_instructions=200_000_000)
    wall = perf_counter() - start
    if not diag.clean:
        raise GuestError(f"host bench BT run unclean: {diag}")
    cpu = vm.vcpus[0].cpu
    return (
        EngineRow(
            workload="",
            layer="bt",
            engine="compiled" if fused else "interp",
            wall_s=wall,
            instructions=cpu.instret,
            sim_cycles=cpu.cycles,
            guest_mips=cpu.instret / wall / 1e6 if wall > 0 else 0.0,
            result=diag.user_result,
        ),
        vm,
    )


def _measure_vmm(
    kernel: Program, workload: Program, virt_mode: VirtMode,
    mmu_mode: MMUVirtMode, jit: bool,
) -> EngineRow:
    hv = Hypervisor(memory_bytes=HOST_MEMORY)
    vm = hv.create_vm(
        GuestConfig(
            name="hostbench",
            memory_bytes=GUEST_MEMORY,
            virt_mode=virt_mode,
            mmu_mode=mmu_mode,
        )
    )
    cpu = vm.vcpus[0].cpu
    cpu.jit_enabled = jit
    _cold_code_cache()
    start = perf_counter()
    diag = boot_vm(hv, vm, kernel, workload, max_guest_instructions=200_000_000)
    wall = perf_counter() - start
    if not diag.clean:
        raise GuestError(f"host bench VMM run unclean: {diag}")
    return EngineRow(
        workload="",
        layer="",
        engine="compiled" if jit else "interp",
        wall_s=wall,
        instructions=cpu.instret,
        sim_cycles=cpu.cycles,
        guest_mips=cpu.instret / wall / 1e6 if wall > 0 else 0.0,
        result=diag.user_result,
    )


def _assert_identical(name: str, interp: EngineRow, compiled: EngineRow) -> None:
    """The differential bar: host speed is the only permitted delta."""
    if (interp.instructions, interp.sim_cycles, interp.result) != (
        compiled.instructions,
        compiled.sim_cycles,
        compiled.result,
    ):
        raise GuestError(
            f"{name}: compiled engine diverged from the interpreter "
            f"(instret {interp.instructions} vs {compiled.instructions}, "
            f"cycles {interp.sim_cycles} vs {compiled.sim_cycles}, "
            f"result {interp.result} vs {compiled.result})"
        )


def _top_hotspots(profiler, top: int) -> List[Dict[str, Any]]:
    """Extract the top-``top`` functions by cumulative time."""
    import pstats

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    hotspots: List[Dict[str, Any]] = []
    for func in stats.fcn_list[:top]:
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        # Trim host-specific prefixes so manifests diff cleanly across
        # machines.
        short = filename
        if "/repro/" in short:
            short = "repro/" + short.rsplit("/repro/", 1)[1]
        hotspots.append(
            {
                "function": name,
                "file": short,
                "line": lineno,
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    return hotspots


def run_host_throughput(
    quick: bool = False,
    registry: Optional[MetricsRegistry] = None,
    profile_top: int = 0,
) -> HostBenchResult:
    """Measure guest-MIPS for every engine pair; returns all rows.

    ``profile_top`` > 0 wraps the measurement loops in cProfile and
    attaches that many hotspots (by cumulative time) to the result and
    to the obs run manifest, so a gated regression ships with
    attribution. Profiling skews absolute wall times (both engines
    equally); profiled runs are for diagnosis, not for ratio floors.
    """
    registry = registry if registry is not None else new_run_registry()
    kernels = {
        pv: build_kernel(
            KernelOptions(pv=pv, memory_bytes=GUEST_MEMORY, timer_period=0)
        )
        for pv in (False, True)
    }
    kernel = kernels[False]
    profiler = None
    if profile_top:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    rows: List[EngineRow] = []
    speedups: Dict[str, float] = {}
    jit_counters: Dict[str, int] = {
        "blocks_compiled": 0,
        "blocks_invalidated": 0,
        "fallback_steps": 0,
    }
    results: Dict[str, int] = {}

    for name, quick_builder, full_builder in _NATIVE_WORKLOADS:
        builder = quick_builder if quick else full_builder
        interp_row, _ = _measure_native(kernel, builder(), jit=False)
        compiled_row, machine = _measure_native(kernel, builder(), jit=True)
        interp_row.workload = compiled_row.workload = name
        _assert_identical(f"native/{name}", interp_row, compiled_row)
        rows += [interp_row, compiled_row]
        speedups[f"native/{name}"] = (
            compiled_row.guest_mips / interp_row.guest_mips
            if interp_row.guest_mips
            else 0.0
        )
        for key in jit_counters:
            jit_counters[key] += machine.cpu.jit_stats()[key]
        results[name] = machine.cpu.instret

    bt_names = _BT_WORKLOADS[:1] if quick else _BT_WORKLOADS
    for name, quick_builder, full_builder in _NATIVE_WORKLOADS:
        if name not in bt_names:
            continue
        builder = quick_builder if quick else full_builder
        interp_row, _ = _measure_bt(kernel, builder(), fused=False)
        compiled_row, _vm = _measure_bt(kernel, builder(), fused=True)
        interp_row.workload = compiled_row.workload = name
        _assert_identical(f"bt/{name}", interp_row, compiled_row)
        rows += [interp_row, compiled_row]
        speedups[f"bt/{name}"] = (
            compiled_row.guest_mips / interp_row.guest_mips
            if interp_row.guest_mips
            else 0.0
        )

    for label, virt_mode, mmu_mode, pv in MODE_MATRIX[1:]:
        layer = f"vmm/{label}"
        for name, quick_builder, full_builder in _NATIVE_WORKLOADS:
            if name not in _VMM_WORKLOADS:
                continue
            builder = quick_builder if quick else full_builder
            interp_row = _measure_vmm(
                kernels[pv], builder(), virt_mode, mmu_mode, jit=False
            )
            compiled_row = _measure_vmm(
                kernels[pv], builder(), virt_mode, mmu_mode, jit=True
            )
            for row in (interp_row, compiled_row):
                row.workload, row.layer = name, layer
            _assert_identical(f"{layer}/{name}", interp_row, compiled_row)
            rows += [interp_row, compiled_row]
            speedups[f"{layer}/{name}"] = (
                compiled_row.guest_mips / interp_row.guest_mips
                if interp_row.guest_mips
                else 0.0
            )

    hotspots: Optional[List[Dict[str, Any]]] = None
    if profiler is not None:
        profiler.disable()
        hotspots = _top_hotspots(profiler, profile_top)

    scope = registry.scope("host.jit")
    for key, value in jit_counters.items():
        scope.counter(key).inc(value)

    table = Table(
        "Host throughput: guest-MIPS by execution engine",
        [
            "workload", "layer", "engine", "wall s",
            "instructions", "guest-MIPS", "speedup",
        ],
    )
    for row in rows:
        key = f"{row.layer}/{row.workload}"
        table.add_row(
            row.workload,
            row.layer,
            row.engine,
            f"{row.wall_s:.3f}",
            row.instructions,
            f"{row.guest_mips:.3f}",
            f"{speedups[key]:.2f}x" if row.engine == "compiled" else "",
        )
    return HostBenchResult(
        quick=quick,
        rows=rows,
        speedups=speedups,
        jit_counters=jit_counters,
        table=table,
        metrics=registry,
        raw={"results": results},
        profile=hotspots,
    )
