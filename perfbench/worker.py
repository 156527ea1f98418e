"""One rep of one workload, in a fresh process (spawned by ``run.py``).

A fresh process per rep means no process-global state carries from one
rep to the next: the default compiled cache, the default autotuner,
``INSPECTION_COUNTS`` and the point-fingerprint memo all start empty.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR \\
        --out FILE --spawned T --seconds S --trace 0|1

Writes the rep's result document (metrics, counts, checks, raw samples,
and with ``--trace 1`` the per-layer metrics) to ``--out``. An exception
escapes and the process exits non-zero: ``run.py`` counts the rep failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import platform
from pathlib import Path

from common import write_json

#: workload name -> module (in this directory) implementing one rep
WORKLOADS = {"accuracy_sweep": "sweep", "krr_solve": "krr",
             "serve_http": "serve"}


def environment() -> dict:
    import numpy

    from repro.codegen.compiled import available_backends, select_backend
    from repro.host import host_signature

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "compiled_backend": select_backend(),
            "compiled_backends": list(available_backends()),
            "host_signature": host_signature()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    module = importlib.import_module(WORKLOADS[args.workload])
    args.workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace and module.TRACE_IN_PROCESS:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    spans_out = args.out.with_suffix(".spans.json")
    result = module.run(args.seed, args.workdir, tracer=tracer,
                        trace=bool(args.trace), seconds=args.seconds,
                        spans_out=spans_out)
    result["metrics"].setdefault("setup_s", [result["t_ready"] - args.spawned])
    if tracer is not None:
        from tracing import layer_metrics, unattributed
        tracer.uninstall()
        tracer.dump(spans_out)
        doc = {"spans": tracer.spans, "marks": tracer.marks}
        result["layers"] = {**layer_metrics(doc),
                            "trace.unattributed": unattributed(doc, "main")}
    result["environment"] = environment()
    write_json(args.out, result)


if __name__ == "__main__":
    main()
