"""Run ``repro serve`` with the service layers traced.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [ARGS...]``

Wraps the service's layer boundaries (see ``layers.install_service``),
runs the ``repro`` command line until it stops (SIGTERM), then writes
the spans and per-layer totals to ``SPANS.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from repro.cli import main as repro_main

    tracer = Tracer()
    layers.install_service(tracer)
    code = repro_main(argv)
    spans_path.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
