"""Timing proxies around the public calls into each layer of the program.

Everything here wraps the program from outside: a delegating
``MemoryPredictor`` (layer ``core``), a ``WorkloadSource`` proxy (layer
``workload``) and the public ``ModelSlot`` methods (layer ``ml``).  The
kernel inlines placement, so the ``cluster`` layer is read from the
program's own phase profiler instead of a wrapper.  A
wrapper only times the call it forwards; arguments and return values
pass through untouched, so a traced run must reproduce the untraced
run's outputs bit for bit (the benchmark checks this).

A :class:`Tracer` keeps its spans in memory -- name, start, end, parent
and run id -- and writes them out only when asked, at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.core.models import KNNSlot, LinearSlot, MLPSlot, RandomForestSlot
from repro.core.predictor import SizeyPredictor
from repro.sim.interface import MemoryPredictor

__all__ = [
    "Tracer",
    "PredictorProxy",
    "SourceProxy",
    "model_slot_spans",
    "core_spans",
    "span_layer_metrics",
    "ML_CLASSES",
]

#: The four model classes of the paper's pool, by ``ModelSlot.class_name``.
ML_CLASSES = ("linear", "knn", "mlp", "random_forest")


class Tracer:
    """In-memory span store shared by every proxy of one run.

    With ``spans=False`` only per-name call durations are kept (the
    cheap client-side timer the untraced runs use); with ``spans=True``
    every call also becomes a span ``[id, name, parent, start, end]``,
    where ``parent`` is the innermost open span of the calling thread.
    """

    def __init__(self, run_id: str, spans: bool = True) -> None:
        self.run_id = run_id
        self.keep_spans = spans
        self.spans: list[list] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.keep_spans:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.durations[name].append(time.perf_counter() - start)
            return
        stack = self._stack()
        record = [
            next(self._ids),
            name,
            stack[-1][0] if stack else None,
            time.perf_counter(),
            0.0,
        ]
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            stack.pop()
            self.durations[name].append(record[4] - record[3])

    def call(self, name: str, fn, *args):
        """``fn(*args)``, timed as ``name`` (a span when spans are kept)."""
        if self.keep_spans:
            with self.span(name):
                return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.durations[name].append(time.perf_counter() - start)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def child_time_s(self, parent_name: str) -> float:
        """Time the direct children of ``parent_name`` spans cover."""
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return float(
            sum(s[4] - s[3] for s in self.spans if s[2] in parents)
        )

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


class PredictorProxy(MemoryPredictor):
    """Delegating ``MemoryPredictor`` that times every call (layer ``core``)."""

    def __init__(self, inner: MemoryPredictor, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def predict(self, task):
        # The simulation kernel sizes through predict_batch only.
        return self.inner.predict(task)

    def predict_batch(self, tasks):
        tracer = self.tracer
        out = tracer.call("core.predict_batch", self.inner.predict_batch, tasks)
        tracer.counts["core.predict_batch.tasks"] += len(tasks)
        if tracer.keep_spans:
            # A task sized at exactly its user preset fell back to it.
            tracer.counts["core.preset_sized"] += sum(
                float(a) == t.preset_memory_mb for a, t in zip(out, tasks)
            )
        return out

    def observe(self, record):
        return self.tracer.call("core.observe", self.inner.observe, record)

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self.tracer.call(
            "core.on_failure",
            self.inner.on_failure,
            task,
            failed_allocation_mb,
            attempt,
        )

    def begin_trace(self, context=None):
        return self.inner.begin_trace(context)

    def end_trace(self):
        return self.inner.end_trace()


class SourceProxy:
    """``WorkloadSource`` proxy that charges every source call to ingest.

    ``workload.tasks`` counts the task instances the source produced,
    through ``iter_tasks`` or inside the traces of ``iter_traces`` /
    ``trace``, each counted once.
    """

    def __init__(self, source, tracer: Tracer) -> None:
        self._source = source
        self._tracer = tracer
        self._counted: set[int] = set()

    def _count_trace(self, trace) -> None:
        if id(trace) not in self._counted:
            self._counted.add(id(trace))
            self._tracer.counts["workload.tasks.in_traces"] += len(trace)

    @property
    def name(self) -> str:
        return self._source.name

    @property
    def workflow(self) -> str:
        with self._tracer.span("workload.ingest"):
            return self._source.workflow

    @property
    def n_tasks(self):
        with self._tracer.span("workload.ingest"):
            return self._source.n_tasks

    def trace(self):
        with self._tracer.span("workload.ingest"):
            trace = self._source.trace()
        self._count_trace(trace)
        return trace

    def iter_traces(self):
        it = iter(self._source.iter_traces())
        while True:
            with self._tracer.span("workload.ingest"):
                trace = next(it, None)
            if trace is None:
                return
            self._count_trace(trace)
            yield trace

    def iter_tasks(self):
        it = iter(self._source.iter_tasks())
        counts = self._tracer.counts
        while True:
            with self._tracer.span("workload.ingest"):
                inst = next(it, None)
            if inst is None:
                return
            counts["workload.tasks.streamed"] += 1
            yield inst


@contextmanager
def model_slot_spans(tracer: Tracer):
    """Wrap the public ``ModelSlot`` methods of the four model classes.

    ``update_incremental`` and ``train_full`` become ``ml.<c>.fit`` spans,
    or ``ml.<c>.fit_hpo`` for a ``train_full`` with ``do_hpo=True``;
    ``predict`` becomes ``ml.<c>.predict``.  The original methods are
    restored on exit.
    """
    saved = []

    def wrap(cls, attr, span_name):
        original = cls.__dict__[attr]

        if attr == "train_full":
            def method(self, X, y, do_hpo):
                with tracer.span(span_name + "_hpo" if do_hpo else span_name):
                    return original(self, X, y, do_hpo)
        else:
            def method(self, *args, **kwargs):
                with tracer.span(span_name):
                    return original(self, *args, **kwargs)

        saved.append((cls, attr, original))
        setattr(cls, attr, method)

    for cls in (LinearSlot, KNNSlot, MLPSlot, RandomForestSlot):
        c = cls.class_name
        wrap(cls, "train_full", f"ml.{c}.fit")
        wrap(cls, "update_incremental", f"ml.{c}.fit")
        wrap(cls, "predict", f"ml.{c}.predict")
    try:
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


@contextmanager
def core_spans(tracer: Tracer):
    """Time ``SizeyPredictor``'s public calls in place (layer ``core``).

    The sizing server builds its predictors itself, so a delegating proxy
    cannot be handed in; wrapping the class methods times the same calls.
    """
    saved = []
    for attr in ("predict_batch", "observe", "on_failure"):
        original = SizeyPredictor.__dict__[attr]

        def method(self, *args, _original=original, _name=f"core.{attr}", **kwargs):
            with tracer.span(_name):
                return _original(self, *args, **kwargs)

        saved.append((attr, original))
        setattr(SizeyPredictor, attr, method)
    try:
        yield
    finally:
        for attr, original in saved:
            setattr(SizeyPredictor, attr, original)


def busy_union_s(intervals) -> float:
    """Wall time covered by at least one of the ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_layer_metrics(spans, wall_s: float) -> dict:
    """The ``core.*`` and ``ml.*`` call counts and busy times.

    ``spans`` are ``(name, start, end)`` triples.  ``core.wall_share`` is
    the share of ``wall_s`` during which at least one core call ran, so
    concurrent calls on server threads are not counted twice.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    core = []
    for name, start, end in spans:
        durations[name].append(end - start)
        if name.startswith("core."):
            core.append((start, end))

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return float(sum(durations.get(name, ())))

    values = {
        "core.predict_batch.calls": calls("core.predict_batch"),
        "core.predict_batch.busy_s": busy("core.predict_batch"),
        "core.observe.calls": calls("core.observe"),
        "core.observe.busy_s": busy("core.observe"),
        "core.on_failure.calls": calls("core.on_failure"),
        "core.wall_share": busy_union_s(core) / wall_s,
        "ml.hpo.rounds": sum(calls(f"ml.{c}.fit_hpo") for c in ML_CLASSES),
    }
    for c in ML_CLASSES:
        values[f"ml.{c}.fit.calls"] = calls(f"ml.{c}.fit") + calls(f"ml.{c}.fit_hpo")
        values[f"ml.{c}.fit.busy_s"] = busy(f"ml.{c}.fit") + busy(f"ml.{c}.fit_hpo")
        values[f"ml.{c}.predict.busy_s"] = busy(f"ml.{c}.predict")
    return values
