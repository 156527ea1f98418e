"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload accuracy_sweep --seed 1 \\
        --seconds 55 --trace 0

Workloads (why each exists: NOTES.md):

* ``accuracy_sweep`` -- the Fig. 10 reuse loop on covtype (inspector and
  PlanStore bound; wide-Q products);
* ``krr_solve``      -- kernel ridge regression by CG (hundreds of Q=1
  products; the inspector only in set-up);
* ``serve_http``     -- two tenants behind ``repro server`` under open-
  and closed-loop HTTP load (net, service and session bound).

BENCHMARK.json lists the first two only: at this commit every
``serve_http`` run fails its byte-identity check (micro-batched and
chunked products differ from solo ones in the last bits; NOTES.md), so
that workload runs on request and exits 1 until the program is fixed.
``--workload all`` runs the three in turn, each in a fresh process.

Each rep runs in a fresh worker process (``worker.py``); reps repeat
until ``--seconds`` is spent (at least MIN_REPS), and every metric is
the median over reps. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced reps of the same topology
and prints the per-layer metrics (from the traced reps) plus the
tracing overhead. Every output is checked; a failed check, a crashed rep
or a failed request makes ``correct`` false and the exit code 1.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A per-run record (environment, raw samples, counts) is written under
``.perfbench/runs/`` in the checkout; scratch roots live under
``.perfbench/tmp/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from common import ROOT, SRC, STATE, child_env, median, now, nproc, write_json

WORKLOADS = ("accuracy_sweep", "krr_solve", "serve_http")

#: Workload metrics (name, unit): printed, recorded, and the source of
#: the end-to-end metrics below.
WORKLOAD_METRICS = {
    "accuracy_sweep": (("setup_s", "s"), ("compile_s", "s"),
                       ("recompile_s", "s"), ("sweep_s", "s"),
                       ("eval_gflops", "GFLOP/s"), ("warm_start_s", "s")),
    "krr_solve": (("setup_s", "s"), ("compile_s", "s"), ("solve_s", "s"),
                  ("iteration_ms", "ms"), ("eval_gflops", "GFLOP/s")),
    "serve_http": (("setup_s", "s"), ("compile_s", "s"),
                   ("light.p50_ms", "ms"), ("light.p99_ms", "ms"),
                   ("heavy.p50_ms", "ms"), ("heavy.p99_ms", "ms"),
                   ("saturate.rps", "1/s"), ("saturate.burst_s", "s"),
                   ("eval_gflops", "GFLOP/s")),
}

#: End-to-end metrics every workload reports (name, unit), and the
#: workload metric (and scale) each one is on each workload. NOTES.md
#: tables what they mean.
END_TO_END = (("setup_s", "s"), ("compile_s", "s"), ("result_s", "s"),
              ("op_ms", "ms"), ("eval_gflops", "GFLOP/s"))
E2E_SOURCE = {
    "accuracy_sweep": {"result_s": ("sweep_s", 1.0),
                       "op_ms": ("recompile_s", 1e3)},
    "krr_solve": {"result_s": ("solve_s", 1.0),
                  "op_ms": ("iteration_ms", 1.0)},
    "serve_http": {"result_s": ("saturate.burst_s", 1.0),
                   "op_ms": ("light.p50_ms", 1.0)},
}

#: Reps per run at least; more run while the --seconds budget allows.
MIN_REPS = {"accuracy_sweep": 3, "krr_solve": 2, "serve_http": 1}

#: Counts that must repeat exactly across reps of one code and seed.
DETERMINISTIC_COUNTS = ("exec.flops", "exec.bytes", "exec.calls",
                        "p2.rank_sum", "cds.bytes", "cg.iterations",
                        "session.p1_builds", "session.p2_builds",
                        "warm.builds")

#: Hard cap on one run (the benchmark must exit within 180 s).
RUN_DEADLINE = 170.0


def fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    """SHA-256 over the package sources: the code's identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def run_rep(workload, seed, index, trace, seconds, rundir, tmp, t_start):
    out = rundir / f"rep-{index}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", str(tmp / f"rep-{index}"), "--out", str(out),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    spawned = now()
    proc = subprocess.Popen([*cmd, "--spawned", repr(spawned)],
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(
            timeout=max(1.0, RUN_DEADLINE - (now() - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        log, _ = proc.communicate()
        log += "\nrep killed: run deadline reached"
    wall = now() - spawned
    if proc.returncode != 0 or not out.exists():
        return {"crashed": True, "log": log[-4000:], "wall": wall,
                "trace": trace}
    rep = json.loads(out.read_text())
    rep.update(crashed=False, log=log[-4000:], wall=wall, trace=trace)
    return rep


def schedule(workload, trace, seconds, reps, elapsed) -> tuple[bool, float]:
    """Whether to start another rep, and the --seconds it gets."""
    if workload == "serve_http":
        # One rep measures the whole --seconds (its phases scale with
        # it); a traced run splits it between an untraced and a traced rep.
        return (len(reps) < (2 if trace else 1),
                seconds / 2 if trace else seconds)
    least = 2 if trace else MIN_REPS[workload]
    if len(reps) < least:
        return True, seconds
    if trace and len(reps) % 2:
        return True, seconds  # finish the untraced/traced pair
    step = max(r["wall"] for r in reps) * (2 if trace else 1)
    return elapsed + step <= seconds, seconds


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run_id = (f"{time.strftime('%Y%m%dT%H%M%S')}-{workload}-seed{seed}"
              f"-trace{int(trace)}-{os.getpid()}")
    rundir = STATE / "runs" / run_id
    tmp = STATE / "tmp" / run_id
    rundir.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    reps: list[dict] = []
    t_start = now()
    try:
        while True:
            go, rep_seconds = schedule(workload, trace, seconds, reps,
                                       now() - t_start)
            if not go:
                break
            rep_trace = trace and len(reps) % 2 == 1
            reps.append(run_rep(workload, seed, len(reps), rep_trace,
                                rep_seconds, rundir, tmp, t_start))
            if reps[-1]["crashed"] or now() - t_start > RUN_DEADLINE:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run_id, rundir, reps


def summarize(workload, reps, trace):
    good = [r for r in reps if not r["crashed"]]
    crashed = len(reps) - len(good)
    attempted = sum(r["attempted"] for r in good) + crashed
    failed = sum(r["failed"] for r in good) + crashed
    checks = [c for r in good for c in r["checks"]]
    problems = [f"rep {i} crashed:\n{r['log']}"
                for i, r in enumerate(reps) if r["crashed"]]
    problems += [f"check failed: {c['name']} ({c['detail']})"
                 for c in checks if not c["ok"]]

    drift = {}
    for key in DETERMINISTIC_COUNTS:
        values = {r["counts"][key] for r in good if key in r["counts"]}
        if len(values) > 1:
            drift[key] = sorted(values)
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]

    def pooled(reps_, name):
        return median(v for r in reps_ for v in r["metrics"].get(name) or ()
                      if v is not None)

    workload_metrics = {name: pooled(untraced, name)
                        for name, _unit in WORKLOAD_METRICS[workload]}
    workload_metrics["error_rate"] = failed / attempted if attempted else 1.0
    report = {}
    if untraced:
        for name, _unit in END_TO_END:
            source, scale = E2E_SOURCE[workload].get(name, (name, 1.0))
            report[name] = workload_metrics[source] * scale

    layers = {}
    if trace and traced:
        from tracing import layer_names
        for name, _unit in layer_names(workload):
            layers[name] = median(r["layers"].get(name, 0.0) for r in traced)
        if untraced:
            result, _ = E2E_SOURCE[workload]["result_s"]
            layers["trace.overhead"] = (pooled(traced, result)
                                        / pooled(untraced, result) - 1.0)
    phases = [(i, name, ph) for i, r in enumerate(reps) if not r["crashed"]
              for name, ph in r.get("phases", {}).items()]
    correct = (not crashed and failed == 0
               and all(c["ok"] for c in checks))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "e2e": report, "workload_metrics": workload_metrics,
            "layers": layers, "drift": drift, "problems": problems,
            "phases": phases}


def environment_record(workload, seed, seconds, trace, reps) -> dict:
    env = next((r["environment"] for r in reps if not r["crashed"]), {})
    blas_env = {k: v for k, v in os.environ.items()
                if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "commit": commit(),
            "source_digest": source_digest(), "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": env.get("numpy"), "numba": env.get("numba"),
            "compiled_backend": env.get("compiled_backend"),
            "host_signature": env.get("host_signature"),
            "blas_thread_env": blas_env,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def emit(workload, summary, trace) -> dict:
    """Print the metric lines; return the final JSON document."""
    metrics = {}
    if trace:
        from tracing import layer_names
        for name, unit in layer_names(workload):
            if name in summary["layers"]:
                metrics[name] = {"value": summary["layers"][name],
                                 "unit": unit}
    else:
        for name, unit in END_TO_END:
            if name in summary["e2e"]:
                metrics[name] = {"value": summary["e2e"][name], "unit": unit}
    print(f"== {workload} ({'traced' if trace else 'untraced'}) ==")
    for name, m in metrics.items():
        print(f"{name:26s} {m['value']:14.6g} {m['unit']}")
        if math.isnan(m["value"]):
            m["value"] = None  # no sample: only in a run that also failed
    if not trace:
        print(f"-- {workload} metrics --")
        units = dict(WORKLOAD_METRICS[workload])
        for name, value in summary["workload_metrics"].items():
            shown = "n/a" if math.isnan(value) else f"{value:14.6g}"
            print(f"{workload}.{name:26s} {shown} "
                  f"{units.get(name, 'ratio')}")
    for rep, name, ph in summary["phases"]:
        print(f"rep {rep} phase {name:9s} sent={ph['sent']} "
              f"ok={ph['succeeded']} "
              f"failed={ph['failed']} generator_lag_p99="
              f"{ph['lag_p99_ms']:.2f}ms "
              f"{'valid' if ph['valid'] else 'INVALID (generator behind)'}")
    for key, values in summary["drift"].items():
        print(f"NONDETERMINISM: count {key} differs across reps: {values}")
    for problem in summary["problems"]:
        print(f"FAILED: {problem}")
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail_early(f"package sources not found under {SRC}; run from the "
                   f"root of a full checkout")
    if args.seconds <= 0:
        fail_early("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    run_id, rundir, reps = run_workload(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    summary = summarize(args.workload, reps, bool(args.trace))
    doc = emit(args.workload, summary, bool(args.trace))
    write_json(rundir / "record.json", {
        "run_id": run_id,
        **environment_record(args.workload, args.seed, args.seconds,
                             bool(args.trace), reps),
        "summary": summary, "result": doc})
    if not doc["metrics"]:
        print("perfbench: no rep completed", file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of this script."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED: {workload} printed no result "
                  f"(exit {proc.returncode})")
            total["correct"] = False
            continue
        total["correct"] &= doc["correct"] and proc.returncode == 0
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for name, m in doc["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
