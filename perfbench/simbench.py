"""Simulation workload: ``EventDrivenBackend.run`` with a method in the loop.

``sim-sizey`` puts the paper's method (Sizey, incremental training) in
the loop, so the learner dominates.  Each run generates
:data:`INPUTS_PER_RUN` traces from its seed and cycles through them, so
a run's numbers average over several inputs instead of one.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass

from benchlib import (
    SETUP_REPEATS,
    BenchError,
    median,
    percentile,
    self_peak_rss_mb,
    timed_setup,
)
from tracing import (
    PredictorProxy,
    SourceProxy,
    Tracer,
    model_slot_spans,
    span_layer_metrics,
)

from repro.cluster.manager import ResourceManager
from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.workflow.nfcore import build_workflow_trace
from repro.workload.base import as_source

#: Eight 512 GB nodes: large enough that no generated task is unschedulable.
CLUSTER = "512g:8"
TIME_TO_FAILURE = 1.0
INPUTS_PER_RUN = 3
#: Percentiles reported as ``predict_tail_ms`` and ``observe_tail_ms``.
#: Every run makes thousands of both calls.  p99 of observe shows the
#: periodic forest refits; p99 of predict moved by +-40% between runs
#: (interpreter pauses), p90 far less.
TAIL_PERCENTILES = (90, 99)
#: Share of a run's measured time spent timing set-up again between
#: simulations.  A set-up of milliseconds timed only before the run
#: reflects the host's speed of that moment, which on a shared host
#: swings within seconds; spread over the run, its samples see the same
#: stretch of time as the simulations.
SETUP_SHARE = 0.05


@dataclass(frozen=True)
class SimWorkload:
    name: str
    workflow: str
    method: str
    backend: dict


WORKLOADS = {
    "sim-sizey": SimWorkload(
        "sim-sizey", "rnaseq", "Sizey", {"arrival": "poisson:50"}
    ),
}


@dataclass(frozen=True)
class SimInput:
    seed: int
    #: What ``backend.run`` receives.
    workload: object
    n_tasks: int


@dataclass
class Pass:
    """One ``backend.run``: its wall time, outputs and timings."""

    wall_s: float
    n_tasks: int
    n_attempts: int
    n_failures: int
    wastage_gbh: float
    makespan_h: float
    allocations: tuple
    tracer: Tracer
    #: The kernel's phase profile (``KernelProfile``); traced runs only.
    profile: object = None

    @property
    def signature(self) -> tuple:
        """The deterministic outputs, compared bit for bit."""
        return (
            self.n_tasks,
            self.wastage_gbh,
            self.n_failures / self.n_attempts,
            self.makespan_h,
            self.allocations,
        )


def make_inputs(wl: SimWorkload, seed: int) -> list[SimInput]:
    inputs = []
    for i in range(INPUTS_PER_RUN):
        input_seed = seed * INPUTS_PER_RUN + i
        trace = build_workflow_trace(wl.workflow, seed=input_seed)
        inputs.append(SimInput(input_seed, trace, len(trace)))
    return inputs


def run_once(wl: SimWorkload, inp: SimInput, traced: bool, run_id: str = "") -> Pass:
    """One simulation; ``traced`` adds the ingest and ml proxies.

    The predictor is always behind a timing proxy: it is the simulator's
    client-side timer for the two sizing calls, predict and observe.  A
    traced run also turns on the kernel's phase profiler, whose ``place``
    phase times placement on the path the kernel inlines.
    """
    tracer = Tracer(run_id or f"{wl.name}-input{inp.seed}", spans=traced)
    predictor = PredictorProxy(method_factories()[wl.method](), tracer)
    manager = ResourceManager.from_spec(CLUSTER)
    workload = inp.workload
    if traced:
        workload = SourceProxy(as_source(workload), tracer)
    backend = EventDrivenBackend(seed=inp.seed, profile=traced, **wl.backend)
    # Start from a collected heap: the previous run's garbage is not
    # this run's cost.
    gc.collect()
    with model_slot_spans(tracer) if traced else nullcontext():
        with tracer.span("run"):
            result = backend.run(workload, predictor, manager, TIME_TO_FAILURE)
    outcomes = result.ledger.outcomes
    return Pass(
        wall_s=tracer.durations["run"][0],
        n_tasks=result.num_tasks,
        n_attempts=len(outcomes),
        n_failures=result.num_failures,
        wastage_gbh=result.total_wastage_gbh,
        makespan_h=result.cluster.makespan_hours,
        allocations=tuple(
            (o.instance_id, o.attempt, o.allocated_mb) for o in outcomes
        ),
        tracer=tracer,
        profile=result.profile,
    )


def _check(wl: SimWorkload, inp: SimInput, p: Pass, reference: dict) -> None:
    if p.n_tasks != inp.n_tasks:
        raise BenchError(
            f"{wl.name}: completed {p.n_tasks} of {inp.n_tasks} tasks "
            f"(input seed {inp.seed})"
        )
    first = reference.setdefault(inp.seed, p.signature)
    if first != p.signature:
        raise BenchError(
            f"{wl.name}: deterministic outputs differ between runs of "
            f"input seed {inp.seed}"
        )


def _setup(wl: SimWorkload, seed: int, repeats: int = SETUP_REPEATS):
    return timed_setup(lambda: make_inputs(wl, seed), repeats)


def measure(wl: SimWorkload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    inputs, setup_times = _setup(wl, seed)
    between: list[float] = []
    reference: dict = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    k = 0
    while k < len(inputs) or time.perf_counter() - start < seconds:
        inp = inputs[k % len(inputs)]
        p = run_once(wl, inp, traced=False)
        _check(wl, inp, p, reference)
        # Checked: a run's allocations need not stay on the heap.
        p.allocations = ()
        passes.append(p)
        k += 1
        if k == len(inputs):
            # Peak after one run of each input: later repeats would add
            # only this process's own timing records, and more of them
            # on a faster host.
            peak_rss_mb = self_peak_rss_mb()
        if k >= len(inputs):
            while sum(between) < SETUP_SHARE * (time.perf_counter() - start):
                between += _setup(wl, seed, repeats=1)[1]
    predict = [d for p in passes for d in p.tracer.durations["core.predict_batch"]]
    observe = [d for p in passes for d in p.tracer.durations["core.observe"]]
    first = passes[: len(inputs)]
    attempted = sum(inputs[i % len(inputs)].n_tasks for i in range(len(passes)))
    completed = sum(p.n_tasks for p in passes)
    values = {
        "setup_s": median(setup_times + between),
        "tasks_per_s": median([p.n_tasks / p.wall_s for p in passes]),
        "ops_per_s": median(
            [
                (p.tracer.calls("core.predict_batch") + p.tracer.calls("core.observe"))
                / p.wall_s
                for p in passes
            ]
        ),
        "predict_p50_ms": percentile(predict, 50) * 1e3,
        "predict_tail_ms": percentile(predict, TAIL_PERCENTILES[0]) * 1e3,
        "observe_p50_ms": percentile(observe, 50) * 1e3,
        "observe_tail_ms": percentile(observe, TAIL_PERCENTILES[1]) * 1e3,
        "wastage_gbh": sum(p.wastage_gbh for p in first) / len(first),
        "underalloc_share": sum(p.n_failures for p in first)
        / sum(p.n_attempts for p in first),
        "ok_share": completed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "values": values,
        "attempted": attempted,
        "failed": attempted - completed,
        "notes": [
            f"{len(passes)} runs over {len(inputs)} inputs, "
            f"{len(predict)} predict and {len(observe)} observe calls, "
            f"{len(setup_times) + len(between)} set-ups",
        ],
    }


def layer_metrics(traced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes."""
    tracers = [p.tracer for p in traced]
    spans = [(s[1], s[3], s[4]) for t in tracers for s in t.spans]
    durations: dict[str, list[float]] = {}
    for name, start, end in spans:
        durations.setdefault(name, []).append(end - start)

    def count(name):
        return sum(t.counts[name] for t in tracers)

    wall = sum(p.wall_s for p in traced)
    place = [p.profile.phases["place"] for p in traced]
    place_calls = sum(s.calls for s in place)
    place_s = sum(s.seconds for s in place)
    kernel_self = wall - sum(t.child_time_s("run") for t in tracers) - place_s
    events = sum(p.profile.n_events for p in traced)
    sized = count("core.predict_batch.tasks")
    fallbacks = count("core.preset_sized")
    values = span_layer_metrics(spans, wall)
    values.update(
        {
            "workload.tasks": count("workload.tasks.streamed")
            or count("workload.tasks.in_traces"),
            "workload.busy_s": sum(durations.get("workload.ingest", ())),
            "kernel.events": events,
            "kernel.self_s": kernel_self,
            "kernel.events_per_s": events / kernel_self,
            "kernel.makespan_h": median([p.makespan_h for p in traced]),
            "cluster.try_place.calls": place_calls,
            "cluster.try_place.busy_s": place_s,
            # Every dispatched attempt was one successful placement.
            "cluster.try_place.hit_share": (
                sum(p.n_attempts for p in traced) / place_calls
            ),
            "core.predict_batch.tasks": sized,
            "core.model_sized_share": (sized - fallbacks) / sized if sized else 0.0,
        }
    )
    return values


def measure_traced(wl: SimWorkload, seed: int, seconds: float) -> dict:
    """The traced run: an untraced/traced pair per input, per-layer metrics.

    Each pair also checks that tracing changed no output: the traced
    pass must reproduce the untraced pass's deterministic outputs.
    """
    inputs, _ = _setup(wl, seed)
    reference: dict = {}
    plain: list[Pass] = []
    traced: list[Pass] = []
    for k, inp in enumerate(inputs):
        for is_traced, sink in ((False, plain), (True, traced)):
            p = run_once(wl, inp, is_traced, f"{wl.name}-input{inp.seed}-pass{k}")
            _check(wl, inp, p, reference)
            sink.append(p)
    values = layer_metrics(traced)
    values["trace.overhead_s"] = sum(p.wall_s for p in traced) - sum(
        p.wall_s for p in plain
    )
    attempted = 2 * sum(inp.n_tasks for inp in inputs)
    return {
        "values": values,
        "attempted": attempted,
        "failed": attempted - sum(p.n_tasks for p in plain + traced),
        "tracers": [p.tracer for p in traced],
        "notes": [f"{len(inputs)} untraced/traced pairs; traced outputs match untraced"],
    }
