"""Tests of the benchmark harness: proxies, metric names, percentiles."""

from __future__ import annotations

import json
import socket
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH.parent / "src"))
sys.path.insert(0, str(PERFBENCH))

import benchlib  # noqa: E402
import servebench  # noqa: E402
import simbench  # noqa: E402
from benchlib import InsufficientSamples, percentile  # noqa: E402

from repro.cluster.manager import ResourceManager  # noqa: E402
from repro.experiments.factories import method_factories  # noqa: E402
from repro.sim.backends.event import EventDrivenBackend  # noqa: E402
from repro.workflow.nfcore import build_workflow_trace  # noqa: E402

SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def small_sims(monkeypatch):
    """Simulation workloads on 5% traces, one input per run."""
    monkeypatch.setattr(
        simbench, "build_workflow_trace", partial(build_workflow_trace, scale=0.05)
    )
    monkeypatch.setattr(simbench, "INPUTS_PER_RUN", 1)
    # A 5% trace makes too few calls to support p99.
    monkeypatch.setattr(simbench, "TAIL_PERCENTILES", (50, 50))


def _plain_run(wl, inp):
    """The same simulation with no proxy at all."""
    result = EventDrivenBackend(seed=inp.seed, **wl.backend).run(
        inp.workload,
        method_factories()[wl.method](),
        ResourceManager.from_spec(simbench.CLUSTER),
        simbench.TIME_TO_FAILURE,
    )
    return (
        result.total_wastage_gbh,
        result.cluster.makespan_hours,
        tuple((o.instance_id, o.attempt, o.allocated_mb) for o in result.ledger.outcomes),
    )


@pytest.mark.parametrize("name", sorted(simbench.WORKLOADS))
def test_proxies_change_no_output(small_sims, name):
    wl = simbench.WORKLOADS[name]
    (inp,) = simbench.make_inputs(wl, seed=3)
    timed = simbench.run_once(wl, inp, traced=False)
    traced = simbench.run_once(wl, inp, traced=True)
    assert traced.signature == timed.signature
    assert (timed.wastage_gbh, timed.makespan_h, timed.allocations) == _plain_run(wl, inp)
    # The traced run really went through every proxy, and the kernel's
    # profiler timed placement.
    names = {s[1] for s in traced.tracer.spans}
    assert {"run", "core.predict_batch", "core.observe", "workload.ingest"} <= names
    assert traced.profile.phases["place"].calls >= traced.n_attempts
    assert timed.profile is None


def test_model_slot_wrappers_are_removed(small_sims):
    from repro.core.models import RandomForestSlot

    before = RandomForestSlot.__dict__["train_full"]
    wl = simbench.WORKLOADS["sim-sizey"]
    (inp,) = simbench.make_inputs(wl, seed=1)
    traced = simbench.run_once(wl, inp, traced=True)
    assert any(s[1] == "ml.random_forest.fit" for s in traced.tracer.spans)
    assert RandomForestSlot.__dict__["train_full"] is before


@pytest.mark.parametrize("name", sorted(simbench.WORKLOADS))
def test_sim_metric_names_match_spec(small_sims, name):
    wl = simbench.WORKLOADS[name]
    out = simbench.measure(wl, seed=2, seconds=0)
    assert set(out["values"]) == END_TO_END
    assert out["failed"] == 0
    assert all(v > 0 for v in out["values"].values())
    traced = simbench.measure_traced(wl, seed=2, seconds=0)
    assert set(traced["values"]) <= PER_LAYER
    line = json.loads(
        benchlib.result_line(
            {n: 0.0 for n in PER_LAYER} | traced["values"],
            trace=True, correct=True, attempted=1, failed=0,
        )
    )
    assert set(line["metrics"]) == PER_LAYER


def test_serve_metric_names_match_spec():
    calls = servebench.Calls(predict_s=[0.001] * 128, observe_s=[0.1] * 128, due=256)
    online = {
        "calls": calls, "tasks": 1024, "wall": 10.0, "due": 256, "errors": 0,
        "wastage_gbh": 1.0, "underalloc_share": 0.1, "setup_s": 1.0, "rss": 80.0,
    }
    assert set(servebench.online_metrics(online)) == END_TO_END


def test_result_line_refuses_other_names():
    values = {n: 1.0 for n in END_TO_END}
    json.loads(benchlib.result_line(values, trace=False, correct=True,
                                    attempted=1, failed=0))
    with pytest.raises(benchlib.BenchError):
        benchlib.result_line(values | {"extra": 1.0}, trace=False,
                             correct=True, attempted=1, failed=0)
    values.pop("setup_s")
    with pytest.raises(benchlib.BenchError):
        benchlib.result_line(values, trace=False, correct=True,
                             attempted=1, failed=0)


@pytest.mark.parametrize("q, needed", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    with pytest.raises(InsufficientSamples):
        percentile(list(range(needed - 1)), q)
    values = list(np.random.default_rng(0).random(needed))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_refused_request_counts_as_failed():
    """A request nobody answers is due and failed, with no latency."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]

    conn = servebench.connect(port)
    calls = servebench.Calls()
    body = servebench.timed(conn, calls, calls.predict_s, "/predict", {})
    conn.close()
    assert body is None
    assert (calls.due, calls.errors, calls.predict_s) == (1, 1, [])


def test_observe_items_follow_the_outcome():
    trace = build_workflow_trace("rnaseq", seed=0, scale=0.05)
    batch = list(trace)[:2]
    peaks = [t.peak_memory_mb for t in batch]
    items, under = servebench.observe_items(batch, [peaks[0] + 1.0, peaks[1] - 1.0])
    assert under == 1
    assert [(i["success"], i["allocated_mb"]) for i in items] == [
        (True, peaks[0] + 1.0), (False, peaks[1] - 1.0), (True, 0.0)
    ]


def test_server_round_trip(tmp_path, monkeypatch):
    """The out-of-process server answers the benchmark's own client."""
    monkeypatch.setattr(servebench, "WORK_DIR", tmp_path)
    traces = servebench.make_traces(0)
    batch = traces["tenant-a"][:servebench.BATCH]
    server = servebench.Server()
    server.start()

    conn = servebench.connect(server.port)
    try:
        calls = servebench.Calls()
        body = servebench.timed(
            conn, calls, calls.predict_s, "/predict",
            servebench.predict_payload("tenant-a", batch))
        estimates = servebench.checked_estimates(body, len(batch))
        items, _ = servebench.observe_items(batch, estimates)
        reply = servebench.timed(
            conn, calls, calls.observe_s, "/observe",
            {"tenant": "tenant-a", "observations": items})
        rejected = servebench.timed(
            conn, calls, calls.predict_s, "/predict", {"tenant": "tenant-a"})
        assert rejected is None
        assert reply["n_observed"] == len(items)
        assert (calls.due, calls.errors) == (3, 1)
        assert server.peak_rss_mb() > 0
    finally:
        conn.close()
        server.stop()
    with pytest.raises(benchlib.BenchError):
        servebench.checked_estimates({"results": [{"estimate_mb": float("nan")}]}, 1)
