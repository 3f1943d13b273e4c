"""Sizing-service workload: a ``python -m repro serve`` process over HTTP.

The server runs in its own process (one core); this process is the only
client (the other core), with one keep-alive connection per tenant.

``serve-online`` is a closed loop: each of two tenants sizes a batch of
eight rnaseq tasks with ``/predict``, reports their outcomes with
``/observe`` and only then sends the next batch, as a workflow manager
waiting on each reply would.  The tenants take turns, one request in
flight: concurrent requests would make each latency depend on how the
server's threads happen to share the interpreter lock.  An *episode*
replays a slice of :data:`EPISODE_TASKS` tasks of each tenant's trace on
fresh tenants, so an episode that repeats a slice must return the same
estimates.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import (
    ROOT,
    SETUP_REPEATS,
    WORK_DIR,
    BenchError,
    median,
    percentile,
    timed_setup,
)
from tracing import span_layer_metrics

from repro.workflow.nfcore import build_workflow_trace

TENANTS = ("tenant-a", "tenant-b")
BATCH = 8
#: Tasks per tenant in one episode.
EPISODE_TASKS = 64
#: Episode ``e`` replays slice ``e % SLICES`` of each tenant's trace; at
#: least SLICES episodes run, for 128 requests of each kind and wastage
#: over 1024 distinct tasks.
SLICES = 8
#: Percentile reported as ``predict_tail_ms`` and ``observe_tail_ms``: a
#: run makes 128 or more requests of each kind, so p90 has at least ten
#: samples beyond it.
TAIL_PERCENTILE = 90
REQUEST_TIMEOUT_S = 30.0
SERVER_START_TIMEOUT_S = 60.0
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


class TransportError(Exception):
    """A request that got no HTTP response."""


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process; ``spans`` runs it under the launcher."""

    def __init__(self, spans: Path | None = None) -> None:
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._stderr = None

    def start(self) -> None:
        args = ["serve", "--port", "0", "--max-tenants", str(len(TENANTS))]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(LAUNCHER), "--spans", str(self.spans), *args]
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src if not path else src + os.pathsep + path,
            OPENBLAS_NUM_THREADS="1",
        )
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self._stderr = open(WORK_DIR / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        line = self._read_line(SERVER_START_TIMEOUT_S)
        if b"listening on" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(b":", 1)[1])

    def _read_line(self, timeout: float) -> bytes:
        assert self.proc is not None and self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return b""
        return self.proc.stdout.readline()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (a clean shutdown that writes spans), then wait."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        self.proc = None


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
def connect(port: int) -> http.client.HTTPConnection:
    """A keep-alive connection; after a failure it reconnects on next use."""
    return http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)


def request(
    conn: http.client.HTTPConnection, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict]:
    """One request: its status and decoded JSON body, or ``TransportError``."""
    body = None if payload is None else json.dumps(payload).encode()
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data) if data else {}
    except (OSError, http.client.HTTPException, ValueError) as exc:
        conn.close()
        raise TransportError(repr(exc)) from None


def predict_payload(tenant: str, batch) -> dict:
    return {
        "tenant": tenant,
        "tasks": [
            {
                "task_type": t.task_type.name,
                "workflow": t.task_type.workflow,
                "machine": t.machine,
                "instance_id": t.instance_id,
                "input_size_mb": t.input_size_mb,
                "preset_memory_mb": t.task_type.preset_memory_mb,
            }
            for t in batch
        ],
    }


def checked_estimates(body: dict, n: int) -> tuple[float, ...]:
    """The estimates of a /predict reply: one finite, positive per task."""
    results = body.get("results")
    if not isinstance(results, list) or len(results) != n:
        raise BenchError(f"/predict returned {results!r} for {n} tasks")
    estimates = tuple(float(r["estimate_mb"]) for r in results)
    if not all(math.isfinite(e) and e > 0 for e in estimates):
        raise BenchError(f"/predict returned a bad estimate: {estimates}")
    return estimates


def observe_items(batch, estimates) -> tuple[list[dict], int]:
    """What a workflow manager reports after running the sized batch.

    A sufficient estimate is a successful run; an under-allocation is a
    failed attempt followed by a training-only success that reveals the
    true peak (allocation 0, so it adds no wastage).
    """
    items = []
    under = 0
    for t, est in zip(batch, estimates):
        base = {
            "task_type": t.task_type.name,
            "workflow": t.task_type.workflow,
            "machine": t.machine,
            "instance_id": t.instance_id,
            "input_size_mb": t.input_size_mb,
            "peak_memory_mb": t.peak_memory_mb,
            "runtime_hours": t.runtime_hours,
        }
        if est >= t.peak_memory_mb:
            items.append({**base, "success": True, "allocated_mb": est})
        else:
            under += 1
            items.append({**base, "success": False, "allocated_mb": est})
            items.append({**base, "success": True, "allocated_mb": 0.0})
    return items, under


def wastage_gbh(batch, estimates) -> float:
    """Memory wastage of one sized batch, accounted as in the paper's Fig. 8."""
    total = 0.0
    for t, est in zip(batch, estimates):
        if est >= t.peak_memory_mb:
            total += (est - t.peak_memory_mb) / 1024.0 * t.runtime_hours
        else:
            total += est / 1024.0 * t.runtime_hours
    return total


@dataclass
class Calls:
    """Client-side record of one phase."""

    predict_s: list[float] = field(default_factory=list)
    observe_s: list[float] = field(default_factory=list)
    due: int = 0
    errors: int = 0

    @property
    def requests(self) -> int:
        return len(self.predict_s) + len(self.observe_s)


def timed(conn, calls: Calls, sink: list, path: str, payload):
    """One request: its reply body, or ``None`` after a failure."""
    calls.due += 1
    start = time.perf_counter()
    try:
        status, body = request(conn, "POST", path, payload)
    except TransportError:
        calls.errors += 1
        return None
    if status != 200:
        calls.errors += 1
        return None
    sink.append(time.perf_counter() - start)
    return body


def get_metrics(port: int) -> dict:
    conn = connect(port)
    try:
        status, body = request(conn, "GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"GET /metrics returned {status}")
    return body["registry"]["tenants"]


def make_traces(seed: int) -> dict[str, list]:
    """One rnaseq trace per tenant, generated from the workload seed."""
    return {
        name: list(build_workflow_trace("rnaseq", seed=seed * len(TENANTS) + i))
        for i, name in enumerate(TENANTS)
    }


def start_server(seed: int, spans: Path | None, repeats: int):
    """Set-up, timed as :func:`timed_setup` does: traces and server start.

    Returns the traces, the last server (still running; the earlier ones
    are stopped, untimed) and the median set-up time.
    """

    def build():
        traces = make_traces(seed)
        server = Server(spans)
        server.start()
        return traces, server

    (traces, server), times = timed_setup(
        build, repeats, discard=lambda built: built[1].stop()
    )
    return traces, server, median(times)


# ----------------------------------------------------------------------
# serve-online
# ----------------------------------------------------------------------
def _online_batch(conn, tenant, batch, calls, out) -> None:
    """Size one batch, then report its outcomes."""
    body = timed(conn, calls, calls.predict_s, "/predict",
                       predict_payload(tenant, batch))
    if body is None:
        out["complete"] = False
        return
    estimates = checked_estimates(body, len(batch))
    items, under = observe_items(batch, estimates)
    reply = timed(conn, calls, calls.observe_s, "/observe",
                        {"tenant": tenant, "observations": items})
    if reply is None:
        out["complete"] = False
        return
    if reply.get("n_observed") != len(items):
        raise BenchError(
            f"/observe reported {reply.get('n_observed')} of {len(items)}"
        )
    out["estimates"].extend(estimates)
    out["under"] += under
    out["tasks"] += len(batch)
    out["wastage"] += wastage_gbh(batch, estimates)


def _online(port: int, traces: dict, seconds: float, n_episodes: int = 0) -> dict:
    """Closed-loop episodes for ``seconds``, or exactly ``n_episodes``."""
    conns = {name: connect(port) for name in TENANTS}
    calls = Calls()
    episodes = []
    server_lat = {"predict": [], "observe": []}
    sized = {"n_predictions": 0, "preset_fallbacks": 0}
    wall = 0.0
    try:
        while (
            len(episodes) < n_episodes
            if n_episodes
            else len(episodes) < SLICES or wall < seconds
        ):
            lo = (len(episodes) % SLICES) * EPISODE_TASKS
            outs = {
                n: {"estimates": [], "under": 0, "tasks": 0, "wastage": 0.0,
                    "complete": True}
                for n in TENANTS
            }
            start = time.perf_counter()
            for i in range(lo, lo + EPISODE_TASKS, BATCH):
                for n in TENANTS:
                    _online_batch(conns[n], n, traces[n][i : i + BATCH],
                                        calls, outs[n])
            wall += time.perf_counter() - start
            episodes.append(outs)
            tenants = get_metrics(port)
            for t in tenants.values():
                for key in sized:
                    sized[key] += t[key]
            for op in server_lat:
                server_lat[op].extend(
                    (t["latency"][op]["p50_ms"], t["latency"][op]["count"],
                     t["latency"][op]["sum_s"])
                    for t in tenants.values()
                )
            # Evict both tenants (LRU capacity = 2) so that the next
            # episode starts them afresh with the same names and seeds.
            for name in ("evict-0", "evict-1"):
                request(conns[TENANTS[0]], "POST", "/predict",
                        predict_payload(name, traces[TENANTS[0]][:1]))
    finally:
        for conn in conns.values():
            conn.close()
    return {"calls": calls, "episodes": episodes, "wall": wall,
            "server_lat": server_lat, "sized": sized}


def _episode_signature(outs: dict) -> tuple:
    return tuple(
        (tuple(o["estimates"]), o["under"], o["wastage"]) for o in outs.values()
    )


def run_online(port: int, traces: dict, seconds: float, n_episodes: int = 0) -> dict:
    """Closed-loop episodes; a repeated slice must repeat its outputs."""
    r = _online(port, traces, seconds, n_episodes)
    first: dict[int, dict] = {}
    for e, outs in enumerate(r["episodes"]):
        if not all(o["complete"] for o in outs.values()):
            continue
        ref = first.setdefault(e % SLICES, outs)
        if _episode_signature(ref) != _episode_signature(outs):
            raise BenchError("serve-online: a repeated episode gave other estimates")
    if len(first) < SLICES:
        raise BenchError("serve-online: an episode failed on every try")
    outs = [o for e in range(SLICES) for o in first[e].values()]
    under = sum(o["under"] for o in outs)
    r.update(
        due=r["calls"].due,
        errors=r["calls"].errors,
        tasks=sum(o["tasks"] for e in r["episodes"] for o in e.values()),
        signature=tuple(_episode_signature(first[e]) for e in range(SLICES)),
        wastage_gbh=sum(o["wastage"] for o in outs),
        underalloc_share=under / (sum(o["tasks"] for o in outs) + under),
    )
    return r


def online_metrics(r: dict) -> dict:
    calls = r["calls"]
    return {
        "setup_s": r["setup_s"],
        "tasks_per_s": r["tasks"] / r["wall"],
        "ops_per_s": calls.requests / r["wall"],
        "predict_p50_ms": percentile(calls.predict_s, 50) * 1e3,
        "predict_tail_ms": percentile(calls.predict_s, TAIL_PERCENTILE) * 1e3,
        "observe_p50_ms": percentile(calls.observe_s, 50) * 1e3,
        "observe_tail_ms": percentile(calls.observe_s, TAIL_PERCENTILE) * 1e3,
        "wastage_gbh": r["wastage_gbh"],
        "underalloc_share": r["underalloc_share"],
        "ok_share": 1.0 - r["errors"] / r["due"],
        "peak_rss_mb": r["rss"],
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _serve_run(
    seed: int,
    seconds: float,
    spans: Path | None,
    repeats: int,
    n_episodes: int = 0,
) -> dict:
    """Set-up plus the measured episodes against one server process."""
    traces, server, setup_s = start_server(seed, spans, repeats)
    try:
        phase_start = time.perf_counter()
        r = run_online(server.port, traces, seconds, n_episodes)
        r["phase"] = (phase_start, time.perf_counter())
        r["rss"] = server.peak_rss_mb()
        r["setup_s"] = setup_s
    finally:
        server.stop()
    return r


def measure(seed: int, seconds: float) -> dict:
    r = _serve_run(seed, seconds, None, SETUP_REPEATS)
    notes = [f"{len(r['episodes'])} episodes, "
             f"{len(r['calls'].predict_s)} predict and "
             f"{len(r['calls'].observe_s)} observe requests"]
    return {"values": online_metrics(r), "attempted": r["due"],
            "failed": r["errors"], "notes": notes}


def _read_spans(path: Path, window: tuple[float, float]) -> list[tuple]:
    """``(name, start, end)`` of the spans that started inside ``window``.

    The server's span clock is ``time.perf_counter``, which on Linux is
    the system-wide monotonic clock this process reads too.
    """
    spans = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            if window[0] <= s["start"] <= window[1]:
                spans.append((s["name"], s["start"], s["end"]))
    return spans


def _server_p50(snapshots: list) -> float:
    """Count-weighted mean of per-tenant server-side p50s, in ms."""
    n = sum(c for _, c, _ in snapshots)
    return sum(p * c for p, c, _ in snapshots) / n if n else 0.0


def measure_traced(seed: int, seconds: float) -> dict:
    """Untraced then traced server: outputs must match; per-layer metrics.

    Each server runs one episode of every slice; per-layer metrics have
    no bound, so the traced run need not last ``seconds``.
    """
    plain = _serve_run(seed, seconds, None, 1, SLICES)
    spans = WORK_DIR / "spans" / f"serve-online-seed{seed}-server.jsonl"
    # The traced server replays exactly the plain server's episodes, so
    # the difference of the two walls is the cost of tracing.
    traced = _serve_run(seed, seconds, spans, 1, len(plain["episodes"]))
    if plain["signature"] != traced["signature"]:
        raise BenchError("serve-online: tracing changed the server's outputs")
    wall = traced["phase"][1] - traced["phase"][0]
    values = span_layer_metrics(_read_spans(spans, traced["phase"]), wall)
    calls = traced["calls"]
    lat = traced["server_lat"]
    server_predict_ms = _server_p50(lat["predict"])
    n_pred = traced["sized"]["n_predictions"]
    values.update(
        {
            "core.predict_batch.tasks": n_pred,
            "core.model_sized_share": (
                (n_pred - traced["sized"]["preset_fallbacks"]) / n_pred
            ),
            "serve.predict.server_p50_ms": server_predict_ms,
            "serve.observe.server_p50_ms": _server_p50(lat["observe"]),
            "serve.predict.transport_ms": (
                percentile(calls.predict_s, 50) * 1e3 - server_predict_ms
            ),
            "serve.observe.request_share": sum(s for _, _, s in lat["observe"])
            / (sum(calls.predict_s) + sum(calls.observe_s)),
            "serve.requests": traced["due"],
            "serve.errors": traced["errors"],
            "trace.overhead_s": traced["wall"] - plain["wall"],
        }
    )
    return {
        "values": values,
        "attempted": plain["due"] + traced["due"],
        "failed": plain["errors"] + traced["errors"],
        "notes": [f"spans in {spans.relative_to(ROOT)}; traced outputs match untraced"],
    }
