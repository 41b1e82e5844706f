"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload guest-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a full report: all twelve end-to-end metrics
(``null`` where one does not apply to the workload), the sim-statistics
digest and the host facts.
"""

import argparse
import contextlib
import cProfile
import json
import os
import platform
import statistics
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Names and units of the per-layer metrics, in BENCHMARK.json order.
BOOT_MODE_NAMES = ("native", "trap-emulate", "bin-transl", "paravirt",
                   "hw-shadow", "hw-nested", "hw-hmode")
EXIT_REASON_NAMES = ("priv_instr", "sensitive", "csr_write", "io_in",
                     "io_out", "vmcall", "hlt", "page_fault", "guest_trap",
                     "triple_fault", "external_irq", "preempt")
FUZZ_BACKENDS = ("interp", "jit", "hw-shadow", "hw-nested", "hw-hmode",
                 "bt-shadow")
FUZZ_OUTCOMES = ("halted", "shutdown", "abort", "instr_limit", "hang")
PER_LAYER = (
    [(f"cpu.mips.{m}", "Minstr/s") for m in BOOT_MODE_NAMES]
    + [("cpu.instret", "count"), ("cpu.jit.active_frac", "ratio"),
       ("cpu.jit.blocks_compiled", "count"),
       ("cpu.jit.blocks_invalidated", "count"),
       ("cpu.jit.fallback_steps", "count"), ("cpu.jit.ic_hits", "count"),
       ("cpu.self_s", "s")]
    + [(f"mem.tlb.{k}.{s}", u) for k in ("bare", "shadow", "nested", "hmode")
       for s, u in (("hits", "count"), ("misses", "count"),
                    ("hit_ratio", "ratio"))]
    + [("mem.self_s", "s"), ("core.exits", "count")]
    + [(f"core.exits.{r}", "count") for r in EXIT_REASON_NAMES]
    + [("core.exit_s", "s"), ("core.shadow_fills", "count"),
       ("core.shadow_pt_writes", "count"), ("core.ept_violations", "count"),
       ("core.world_switches", "count"), ("core.hypercalls", "count"),
       ("core.vmm_cycles", "cycles"), ("core.bt.block_hit_ratio", "ratio"),
       ("core.bt.chained", "count"), ("core.bt.callouts", "count"),
       ("core.snapshot_s", "s"), ("core.restore_s", "s"),
       ("core.snapshot.bytes", "bytes"), ("core.self_s", "s"),
       ("devices.virtio.kicks", "count"), ("devices.virtio.requests", "count"),
       ("devices.irq.delivered", "count"), ("devices.self_s", "s"),
       ("guest.build_s", "s"),
       ("fuzz.cases", "count"), ("fuzz.divergences", "count")]
    + [(f"fuzz.outcome.{o}", "count") for o in FUZZ_OUTCOMES]
    + [("fuzz.halted_frac", "ratio"), ("fuzz.gen_s", "s")]
    + [(f"fuzz.backend_s.{b}", "s") for b in FUZZ_BACKENDS]
    + [("cluster.placements", "count"), ("cluster.admission.accepted", "count"),
       ("cluster.evac.replaced", "count"), ("cluster.balancer.moves", "count"),
       ("cluster.epoch_s", "s"), ("cluster.barrier_s", "s"),
       ("cluster.self_s", "s"), ("sim.messages", "count"), ("sim.self_s", "s"),
       ("migration.rounds", "count"), ("migration.pages_copied", "count"),
       ("migration.resend_ratio", "ratio"), ("migration.migrate_s", "s"),
       ("overcommit.ticks", "count"), ("overcommit.ballooned", "count"),
       ("overcommit.pages_merged", "count"), ("overcommit.swap_ins", "count"),
       ("overcommit.tick_s", "s"), ("obs.manifest_s", "s"),
       ("faults.injected.total", "count"), ("trace.overhead_s", "s")]
)

#: Per-layer metrics the benchmark cannot observe from outside the
#: program on some workloads, and why; printed with every traced run.
UNOBSERVED = {
    "core.exit_s": "no per-exit timing without spans inside src/; this is "
                   "the profiler's cumulative time per Hypervisor._handle_exit "
                   "call",
    "cpu.jit.* on fuzz": "the cores live inside run_bare/run_vmm, whose "
                         "results carry instret and bare TLB counts only",
    "mem.tlb.{shadow,nested,hmode}.* on fuzz": "run_vmm's result carries "
                                               "no TLB statistics",
}

#: Counts copied as they are from round 0 of the untraced phase.
PLAIN_COUNTS = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "cycles", "bytes") and not name.startswith("mem.tlb")
) + tuple(f"mem.tlb.{k}.{s}" for k in ("bare", "shadow", "nested", "hmode")
          for s in ("hits", "misses"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, base, traced, tracer, profile, functions) -> dict:
    """Every per-layer metric, 0 where the workload bypasses the layer."""
    counts = base.counts
    out = {name: 0.0 for name, _unit in PER_LAYER}
    for name in PLAIN_COUNTS:
        out[name] = counts.get(name, 0)
    out.update(workload.layer_metrics(base))
    out["cpu.jit.active_frac"] = _ratio(counts.get("cpu.jit.active_runs", 0),
                                        counts.get("cpu.guest_runs", 0))
    for kind in ("bare", "shadow", "nested", "hmode"):
        hits = counts.get(f"mem.tlb.{kind}.hits", 0)
        out[f"mem.tlb.{kind}.hit_ratio"] = _ratio(
            hits, hits + counts.get(f"mem.tlb.{kind}.misses", 0))
    out["core.bt.block_hit_ratio"] = _ratio(
        counts.get("core.bt.block_hits", 0),
        counts.get("core.bt.block_hits", 0)
        + counts.get("core.bt.block_misses", 0))
    out["fuzz.halted_frac"] = _ratio(counts.get("fuzz.halted", 0),
                                     counts.get("fuzz.cases", 0))
    out["migration.resend_ratio"] = _ratio(
        counts.get("migration.pages_copied", 0),
        counts.get("migration.guest_pages", 0))

    # Host self time per package from the profiler, per round.
    rounds = len(traced.round_seconds)
    for package in harness.PROFILED_PACKAGES:
        out[f"{package}.self_s"] = profile.get(package, 0.0) / rounds
    calls, cum = functions.get("core:_handle_exit", (0, 0.0))
    out["core.exit_s"] = _ratio(cum, calls)

    # Span means: one call into the layer's public function.
    for metric, span in (("core.snapshot_s", "core.snapshot"),
                         ("core.restore_s", "core.restore"),
                         ("migration.migrate_s", "migration.migrate"),
                         ("overcommit.tick_s", "overcommit.tick"),
                         ("fuzz.gen_s", "fuzz.gen"),
                         ("cluster.epoch_s", "cluster.epoch"),
                         ("obs.manifest_s", "obs.manifest")):
        out[metric] = tracer.mean(span)
    for backend in FUZZ_BACKENDS:
        out[f"fuzz.backend_s.{backend}"] = tracer.mean(
            f"fuzz.backend.{backend}")
    out["guest.build_s"] = tracer.mean("guest.build")
    out["cluster.barrier_s"] = barrier_seconds(tracer)
    out["trace.overhead_s"] = (
        harness.timings(workload, traced, scaled=False)["wall_s"]
        - harness.timings(workload, base, scaled=False)["wall_s"])
    return out


def barrier_seconds(tracer) -> float:
    """Mean coordinator time between two consecutive epochs: the gap
    from the last shard epoch of one barrier to the first of the next."""
    gaps = []
    runs = [i for i, s in enumerate(tracer.spans) if s.name == "cluster.run"]
    for run in runs:
        epochs = sorted((s for s in tracer.spans
                         if s.parent == run and s.name == "cluster.epoch"),
                        key=lambda s: s.start)
        shards = tracer.spans[run].attrs["shards"]
        for k in range(shards, len(epochs), shards):
            gaps.append(epochs[k].start - epochs[k - 1].end)
    return statistics.fmean(gaps) if gaps else 0.0


def host_facts() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    setup_s, setup_measured = harness.time_setup(workload, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    off = harness.Tracer(enabled=False)
    with contextlib.ExitStack() as stack:
        for cm in workload.probes(off):
            stack.enter_context(cm)
        base = harness.run_phase(workload, seconds, off,
                                 workload.min_rounds, workload.min_ops)
    problems = harness.self_check(
        base, lambda a, b: workload.round_input(a) == workload.round_input(b))

    if args.trace:
        tracer = harness.Tracer(enabled=True)
        profiler = cProfile.Profile()
        with contextlib.ExitStack() as stack:
            for cm in workload.probes(tracer):
                stack.enter_context(cm)
            workload.setup(args.seed, tracer)
            profiler.enable()
            try:
                traced = harness.run_phase(workload, seconds, tracer, 1, 1)
            finally:
                profiler.disable()
        problems += harness.self_check(traced, lambda a, b: False,
                                       reference=base)
        per_package, functions = harness.profile_rollup(profiler)
        metrics = layer_metrics(workload, base, traced, tracer, per_package,
                                functions)
        units = dict(PER_LAYER)
        final = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        phases = [base, traced]
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.dump(),
                       "span_self_s": tracer.self_times(),
                       "package_self_s": per_package}, fh)
    else:
        phases = [base]
        final = harness.end_to_end(workload, base, setup_s)

    ops = [r for phase in phases for r in phase.ops]
    failed = sum(1 for r in ops if not r.ok)
    for line in sorted({r.error for r in ops if not r.ok and r.error})[:5]:
        harness.log(f"perfbench: failed op: {line.strip()}")
    for line in problems:
        harness.log(f"perfbench: {line}")
    sim_digest = harness.digest(base.round_digests[:workload.min_rounds])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sim_digest": sim_digest, "round_s": base.round_seconds,
        "report": harness.report(
            workload, base, harness.end_to_end(workload, base, setup_s)),
        "measured_s": dict(harness.timings(workload, base, scaled=False),
                           setup_s=setup_measured),
        "host": host_facts(),
        **({"unobserved": UNOBSERVED} if args.trace else {}),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
