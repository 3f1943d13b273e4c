"""Shared helpers: percentiles, set-up timing, peak RSS and the result line."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for generated inputs and span files, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up is repeated this many times before a run; ``setup_s`` is the
#: median of these and of any set-ups a workload times during the run.
SETUP_REPEATS = 7


class BenchError(RuntimeError):
    """The program produced a wrong output or the run could not measure."""


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample with < 10 values beyond it."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``, refused when unsupported.

    A percentile is reported only when at least ten samples lie beyond
    it: p50 needs 20 samples, p90 needs 100 and p99 needs 1000.
    """
    n = len(values)
    if n * (100.0 - q) < 1000.0 - 1e-9:
        raise InsufficientSamples(
            f"p{q:g} needs {math.ceil(1000.0 / (100.0 - q))} samples, got {n}"
        )
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    frac = rank - lo
    # Equal ends need no interpolation, which also keeps inf - inf out.
    if frac == 0 or a == b:
        return a
    return a + (b - a) * frac


def median(values) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return float(statistics.median(values))


def timed_setup(
    build: Callable[[], object],
    repeats: int = SETUP_REPEATS,
    discard: Callable[[object], None] | None = None,
) -> tuple[object, list[float]]:
    """Run ``build`` ``repeats`` times; (last result, seconds of each).

    ``discard``, untimed, releases each result but the last.
    """
    times: list[float] = []
    result = None
    for _ in range(repeats):
        # Each repeat starts from a collected heap, so the garbage of the
        # one before is not charged to it.
        if times and discard is not None:
            discard(result)
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, times


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def metric_units(trace: bool) -> dict[str, str]:
    """Reported metric name -> unit, from ``BENCHMARK.json``."""
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(
    values: dict[str, float],
    *,
    trace: bool,
    correct: bool,
    attempted: int,
    failed: int,
) -> str:
    """The final JSON line; every metric named in the spec, in its unit."""
    units = metric_units(trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchError(
            f"reported metrics differ from BENCHMARK.json: "
            f"missing {missing}, unexpected {extra}"
        )
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in units
            },
        }
    )
