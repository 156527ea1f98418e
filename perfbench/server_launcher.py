"""Run ``repro server`` in this process, optionally with layer tracing.

    python3 perfbench/server_launcher.py [--trace-out FILE] -- ARGS...

``ARGS`` are exactly the arguments of ``repro server`` (``--root``,
``--port``, ``--tokens``, ...). With ``--trace-out`` the layer wrappers
of :mod:`tracing` are installed before the server starts, and the spans
(plus the live services' queue-depth counters) are written to FILE after
the server has drained on SIGTERM. Without it nothing is wrapped, so the
untraced server is the program exactly as a user runs it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace-out", type=Path, default=None)
    ap.add_argument("server_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]
    # The parent reads the "listening on" line to learn the port.
    sys.stdout.reconfigure(line_buffering=True)

    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    from repro.cli import main as repro_main

    rc = repro_main(["server", *server_args])
    if tracer is not None:
        from tracing import service_extra
        tracer.dump(args.trace_out, extra=service_extra(tracer))
    return rc


if __name__ == "__main__":
    sys.exit(main())
