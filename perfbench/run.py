"""Benchmark of the Sizey reproduction: simulation and sizing-service workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-sizey --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is the JSON result.  A wrong
output of the program, or a checkout without the program's sources,
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("sim-sizey", "serve-online")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, or exit."""
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    # One BLAS thread: the runs share two cores between client and server.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()

    from benchlib import WORK_DIR, BenchError, metric_units, result_line

    try:
        if args.workload.startswith("sim-"):
            import simbench

            wl = simbench.WORKLOADS[args.workload]
            if args.trace:
                out = simbench.measure_traced(wl, args.seed, args.seconds)
            else:
                out = simbench.measure(wl, args.seed, args.seconds)
        else:
            import servebench

            if args.trace:
                out = servebench.measure_traced(args.seed, args.seconds)
            else:
                out = servebench.measure(args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: FAILED: {exc}", file=sys.stderr)
        return 1

    values = out["values"]
    if args.trace:
        # Layers a workload does not run (the kernel under the server,
        # the server under the simulator) read 0.
        values = {name: 0.0 for name in metric_units(trace=True)} | values
        for tracer in out.get("tracers", ()):
            tracer.write(WORK_DIR / "spans" / f"{tracer.run_id}.jsonl")
    for note in out["notes"]:
        print(f"# {args.workload} seed={args.seed}: {note}")
    for name, unit in metric_units(bool(args.trace)).items():
        print(f"{name:32s} {values[name]:16.6f} {unit}")
    print(
        result_line(
            values,
            trace=bool(args.trace),
            correct=True,
            attempted=out["attempted"],
            failed=out["failed"],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
