"""Start the sizing server with timing spans around the core and ml layers.

Usage: ``python perfbench/serve_launcher.py --spans PATH serve [ARGS...]``

Installs the ``ModelSlot`` and ``SizeyPredictor`` wrappers from
:mod:`tracing`, runs the program's own command-line entry point with the
remaining arguments, and writes the spans to ``PATH`` when the server
shuts down.  The program is expected on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from tracing import Tracer, core_spans, model_slot_spans

    tracer = Tracer(args.spans.stem)
    try:
        with core_spans(tracer), model_slot_spans(tracer):
            return repro_main(args.command)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
