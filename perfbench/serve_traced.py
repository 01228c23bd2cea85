"""``python -m repro serve`` with the tracer's wrappers installed (traced runs).

    PYTHONPATH=src python3 perfbench/serve_traced.py TRACE.json serve --bundle B --port 0

Installs the same wrappers as the traced in-process host before the CLI
builds the server (the micro-batcher binds ``engine.size_batch`` at
construction), runs the unchanged CLI, and writes the span windows to
``TRACE.json`` after SIGTERM has drained the server.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    trace_path = Path(sys.argv[1])
    tracer = install(Tracer())
    from repro.service.cli import main as cli_main

    code = cli_main(sys.argv[2:])
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
