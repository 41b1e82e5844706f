"""Measurement machinery shared by every workload.

The benchmark drives the program as one closed-loop caller: each op
starts only after the previous one returned. Work is grouped into
*rounds*, a fixed unit of work a workload defines; a run repeats rounds
until ``--seconds`` of measurement have passed (and at least the
workload's minimum sample count), so the end-to-end timings summarise
many repetitions of the same work.

Tracing is a separate run mode. It records spans around the calls the
benchmark makes into the program's packages (kept in memory, written
out at the end) and a ``cProfile`` roll-up of host self time per
package, for the layers that run inside a single call.
"""

import cProfile
import contextlib
import gc
import hashlib
import json
import math
import pstats
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: How many times set-up runs in one process; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: The host's speed drifts by tens of percent over tens of seconds when
#: neighbours load the machine. A fixed calibration loop, timed before
#: every op, tracks that drift: gated times are scaled by ``CAL_REF_S``
#: over the mean loop time measured around the op, so they read as
#: seconds on a host that runs the loop in ``CAL_REF_S`` (about what the
#: development host, Python 3.11.7 on x86_64, takes when lightly loaded).
CAL_REF_S = 0.0050
CAL_ITERATIONS = 40_000
#: Half-width of the time window whose calibration samples scale an op.
CAL_WINDOW_S = 1.5

#: Packages of the program whose profiled self time is reported.
PROFILED_PACKAGES = ("cpu", "mem", "core", "devices", "cluster", "sim")


@dataclass
class OpRecord:
    """One op as the benchmark saw it."""

    kind: str
    seconds: float
    ok: bool
    #: Deterministic modelled statistics; the digest input.
    sim: Dict[str, object] = field(default_factory=dict)
    #: Per-layer counts, summed over a round.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Guest instructions retired inside guest-execution calls, and the
    #: host seconds spent in those calls.
    guest_instr: int = 0
    guest_s: float = 0.0
    error: Optional[str] = None
    #: When the op started (perf_counter), the calibration-loop time
    #: measured just before it, and the benchmark's own time (calibrating)
    #: inside the op's unit, which is not part of the unit's time. A unit
    #: that leaves ``cal`` at 0 gets the sample the harness takes before
    #: it.
    start: float = 0.0
    cal: float = 0.0
    overhead: float = 0.0


@dataclass
class Unit:
    """A callable that performs ``n_ops`` ops and returns their records."""

    name: str
    n_ops: int
    fn: Callable[[], List[OpRecord]]


# -- tracing ----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: Dict[str, object]


class Tracer:
    """In-memory span recorder.

    A disabled tracer costs one attribute test per ``span`` call, so
    workloads call it unconditionally.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextlib.contextmanager
    def _record(self, name: str, attrs: Dict[str, object]):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, attrs)

    def new_op(self) -> None:
        self.op += 1

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total s, self s)``; self time is a span's
        duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, List[float]] = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            duration = span.end - span.start
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def mean(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0 when none)."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return statistics.fmean(durations) if durations else 0.0

    def dump(self) -> List[Dict[str, object]]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "attrs": s.attrs}
                for s in self.spans]


@contextlib.contextmanager
def probe(module, attr: str, on_call: Callable, tracer: Tracer,
          span_name: Callable = None):
    """Wrap ``module.attr`` for the duration of the block.

    The program looks the name up at call time, so its own calls go
    through the wrapper; the source is not changed. ``on_call(args,
    kwargs, result, seconds)`` receives every call; with tracing on,
    each call is also a span named ``span_name(args, kwargs)``.
    """
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        cm = (tracer.span(span_name(args, kwargs)) if span_name
              else contextlib.nullcontext())
        with cm:
            start = time.perf_counter()
            result = original(*args, **kwargs)
            seconds = time.perf_counter() - start
        on_call(args, kwargs, result, seconds)
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


# -- statistics -------------------------------------------------------------


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile with at least ten of ``min_ops`` samples
    beyond it."""
    return max(50, math.floor(100 * (min_ops - 10) / min_ops))


def percentile(values: List[float], pct: int) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - 1 - index


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


# -- profiler roll-up -------------------------------------------------------


def _package(filename: str) -> str:
    marker = "/repro/"
    pos = filename.rfind(marker)
    if pos < 0:
        return "other"
    rest = filename[pos + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


def profile_rollup(profile: cProfile.Profile) -> Tuple[Dict[str, float],
                                                       Dict[str, Tuple]]:
    """Self seconds per package, and ``(file, func) -> (calls, cum s)``."""
    stats = pstats.Stats(profile).stats
    per_package: Dict[str, float] = {}
    functions: Dict[str, Tuple[int, float]] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _) in \
            stats.items():
        package = _package(filename)
        per_package[package] = per_package.get(package, 0.0) + tottime
        key = f"{package}:{func}"
        calls, cum = functions.get(key, (0, 0.0))
        functions[key] = (calls + ncalls, cum + cumtime)
    return per_package, functions


# -- calibration ------------------------------------------------------------


def calibration_sample() -> float:
    """Time a fixed pure-Python integer loop (about 5 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


# -- the run loop -----------------------------------------------------------


@dataclass
class UnitTiming:
    rnd: int
    seconds: float
    #: Index range of the unit's ops in ``Phase.ops``.
    first_op: int
    end_op: int


@dataclass
class Phase:
    """Everything one measuring phase (traced or not) produced."""

    round_seconds: List[float] = field(default_factory=list)
    units: List[UnitTiming] = field(default_factory=list)
    ops: List[OpRecord] = field(default_factory=list)
    round_digests: List[str] = field(default_factory=list)
    #: Counts of round 0 (a fixed, deterministic unit of work).
    counts: Dict[str, float] = field(default_factory=dict)


def _run_unit(unit: Unit, tracer: Tracer) -> List[OpRecord]:
    tracer.new_op()
    start = time.perf_counter()
    try:
        with tracer.span(f"op.{unit.name}"):
            return unit.fn()
    except Exception:  # an op that raises is a failed op, not a crash
        seconds = (time.perf_counter() - start) / unit.n_ops
        error = traceback.format_exc(limit=4)
        return [OpRecord(kind=unit.name, seconds=seconds, ok=False,
                         error=error) for _ in range(unit.n_ops)]


def run_phase(workload, seconds: float, tracer: Tracer,
              min_rounds: int, min_ops: int) -> Phase:
    """Repeat rounds for ``seconds`` (and at least the minimums)."""
    phase = Phase()
    started = time.perf_counter()
    rnd = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = rnd >= min_rounds and len(phase.ops) >= min_ops
        if enough and elapsed + statistics.median(phase.round_seconds) > seconds:
            break
        records: List[OpRecord] = []
        busy = 0.0
        for unit in workload.round_units(rnd, tracer):
            cal = statistics.fmean(calibration_sample()
                                   for _ in range(workload.cal_samples))
            t0 = time.perf_counter()
            done = _run_unit(unit, tracer)
            # Each op pays for collecting its garbage (its machines hold
            # reference cycles and tens of MiB), inside the timed region.
            g0 = time.perf_counter()
            gc.collect()
            collect_s = time.perf_counter() - g0
            for r in done:
                r.seconds += collect_s / len(done)
            took = (time.perf_counter() - t0
                    - sum(r.overhead for r in done))
            for r in done:
                if not r.cal:
                    r.start, r.cal = t0, cal
            busy += took
            first = len(phase.ops) + len(records)
            phase.units.append(UnitTiming(rnd, took, first, first + len(done)))
            records.extend(done)
        phase.round_seconds.append(busy)
        phase.ops.extend(records)
        phase.round_digests.append(digest(
            [(r.kind, r.ok, r.sim) for r in records]))
        if rnd == 0:
            for r in records:
                for name, value in r.counts.items():
                    phase.counts[name] = phase.counts.get(name, 0) + value
        rnd += 1
    return phase


def time_setup(workload, seed: int) -> Tuple[float, float]:
    """Median set-up time in (reference, measured) seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cal = statistics.fmean(calibration_sample() for _ in range(3))
        start = time.perf_counter()
        workload.setup(seed)
        seconds = time.perf_counter() - start
        samples.append((seconds * CAL_REF_S / cal, seconds))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def scale_factors(phase: Phase) -> List[float]:
    """Per op: ``CAL_REF_S`` over the mean calibration time of the ops
    that started within ``CAL_WINDOW_S`` of it."""
    starts = [r.start for r in phase.ops]
    cals = [r.cal for r in phase.ops]
    factors = []
    lo = hi = 0
    for start in starts:  # ops are in start order
        while starts[lo] < start - CAL_WINDOW_S:
            lo += 1
        while hi < len(starts) and starts[hi] <= start + CAL_WINDOW_S:
            hi += 1
        factors.append(CAL_REF_S / statistics.fmean(cals[lo:hi]))
    return factors


def timings(workload, phase: Phase, scaled: bool) -> Dict[str, float]:
    """Round and op times, in reference seconds when ``scaled``.

    A unit is scaled by the time-weighted mean factor of its ops."""
    factors = scale_factors(phase) if scaled else [1.0] * len(phase.ops)
    ops = [r.seconds * f for r, f in zip(phase.ops, factors)]
    rounds = [0.0] * len(phase.round_seconds)
    for unit in phase.units:
        span = range(unit.first_op, unit.end_op)
        op_time = sum(phase.ops[i].seconds for i in span)
        factor = (sum(ops[i] for i in span) / op_time if op_time
                  else factors[unit.first_op])
        rounds[unit.rnd] += unit.seconds * factor
    tail, _beyond = percentile(ops, workload.tail_pct)
    return {"wall_s": statistics.fmean(rounds),
            "op_s_p50": statistics.median(ops), "op_s_tail": tail}


def end_to_end(workload, phase: Phase, setup_s: float) -> Dict[str, Dict]:
    """The gated end-to-end metrics, from an untraced phase."""
    out = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name, value in timings(workload, phase, scaled=True).items():
        out[name] = {"value": value, "unit": "s"}
    out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MiB"}
    return out


def report(workload, phase: Phase, e2e: Dict[str, Dict]) -> Dict[str, Dict]:
    """All twelve end-to-end metrics of the full report, ``None`` where
    the metric does not apply to the workload."""
    _tail, beyond = percentile([r.seconds for r in phase.ops],
                               workload.tail_pct)
    attempted = len(phase.ops)
    failed = sum(1 for r in phase.ops if not r.ok)
    guest_s = sum(r.guest_s for r in phase.ops)
    out = dict(e2e)
    out["op_s_tail"] = dict(e2e["op_s_tail"], percentile=workload.tail_pct,
                            samples=attempted, beyond=beyond)
    out["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    out["guest_mips"] = {
        "value": (sum(r.guest_instr for r in phase.ops) / guest_s / 1e6
                  if workload.has_guest and guest_s > 0 else None),
        "unit": "Minstr/s"}
    extra = workload.end_to_end_extra(phase)
    for name, unit in (("cases_per_s", "cases/s"),
                       ("vms_placed_per_s", "VMs/s"),
                       ("virt_overhead", "ratio"),
                       ("downtime_cycles", "cycles"),
                       ("overcommit_max_cycles", "cycles")):
        out[name] = {"value": extra.get(name), "unit": unit}
    return out


def self_check(phase: Phase, same_input: Callable[[int, int], bool],
               reference: Optional[Phase] = None) -> List[str]:
    """Rounds over the same inputs must produce the same sim digest, and
    so must each round of ``reference`` (an untraced run of the same
    rounds)."""
    problems = []
    digests = phase.round_digests
    for a in range(len(digests)):
        for b in range(a + 1, len(digests)):
            if same_input(a, b) and digests[a] != digests[b]:
                problems.append(f"round {b} sim digest differs from round {a}")
                break
    if reference is not None:
        for rnd, (a, b) in enumerate(zip(reference.round_digests, digests)):
            if a != b:
                problems.append(f"traced round {rnd} sim digest differs")
    return problems


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
