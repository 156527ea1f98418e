"""Workload ``serve_http``: two tenants behind ``repro server`` over HTTP.

One rep: this process is the load generator. It starts the server in its
own process through ``server_launcher.py`` with the arguments of
``repro server`` (tokens and the audit log on, default ``max_batch`` and
``max_wait_ms``), compiles both tenants (grid, N=1500) over HTTP, and
drives three phases through ``KernelClient`` on at most ``nproc`` threads
(one connection each):

* ``light``: open loop, Poisson arrivals at LIGHT_RATE;
* ``heavy``: open loop, Poisson arrivals at HEAVY_RATE (below the knee);
* ``saturate``: closed loop on ``nproc`` connections, SATURATE_BURSTS
  bursts of BURST_REQUESTS requests each.

Requests alternate between the tenants; 75% carry one column and 25% a
Q=16 panel sent as 4 ``w_chunks`` (one request, 4 dispatcher submits).
Open-loop latency is timed from each request's due time, so a stall
also charges the requests queued behind it. Every response must equal,
byte for byte, the in-process ``Session.matmul`` of the same panel (the
micro-batching contract). Rates are constants, never derived from a run.

Why: compute is ~2 ms per product, so the net front-end, the service's
queue and batching, and the session dominate; the inspector runs only in
set-up.
"""

from __future__ import annotations

import json
import queue
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import HERE, child_env, median, now, nproc, percentile

N = 1500
KERNEL = {"name": "gaussian", "bandwidth": 0.5}
PLAN = {"leaf_size": 32, "bacc": 1e-5}
TENANTS = ("alpha", "beta")
LIGHT_RATE = 20.0   # requests/s
HEAVY_RATE = 80.0   # requests/s; a 2-CPU host saturates at ~110-150
#: shares of --seconds spent in the two open-loop phases
PHASE_SHARE = {"light": 0.35, "heavy": 0.45}
#: the closed loop runs in short bursts so that the median burst time
#: (result_s) rides out the host's speed swings
SATURATE_BURSTS = 8
BURST_REQUESTS = 60
WIDE_SHARE = 0.25
WIDE_Q = 16
CHUNK_COLS = 4
#: distinct panels per kind; responses are checked against precomputed
#: in-process products of these
POOL = {"narrow": 32, "wide": 8}
#: server set-ups per rep (setup_s is their median)
SETUPS = 3
#: a phase is invalid when the generator itself (not the server) ran
#: this late at p99: the scheduler thread woke after the due time
LAG_LIMIT_MS = 10.0
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0

#: the server process, not this one, runs the traced layers
TRACE_IN_PROCESS = False


class Server:
    """One ``repro server`` process (context manager; always torn down)."""

    def __init__(self, root, tokens_path, trace_out=None):
        cmd = [sys.executable, str(HERE / "server_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--root", str(root), "--port", "0",
                "--tokens", str(tokens_path)]
        self.log = open(root.with_suffix(".log"), "w")  # noqa: SIM115
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True,
                                     env=child_env())

    def wait_ready(self) -> str:
        timer = threading.Timer(START_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
        finally:
            timer.cancel()
        raise RuntimeError(f"server exited before listening "
                           f"(rc={self.proc.wait()}); see {self.log.name}")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return rc

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class Phase:
    """Per-phase outcome: counts, latencies, generator lag."""

    def __init__(self):
        self.latency_ms: list[float] = []   # from due (open) / send (closed)
        self.service_ms: list[float] = []   # send -> response, every request
        self.lag_ms: list[float] = []
        self.sent = self.ok = self.failed = 0
        self.errors: list[str] = []
        self.flops = 0
        self.wall = 0.0
        self.bursts: list[tuple[float, int]] = []  # (wall s, flops) each
        self.lock = threading.Lock()

    def summary(self) -> dict:
        lat = self.latency_ms
        return {"sent": self.sent, "succeeded": self.ok,
                "failed": self.failed, "wall_s": self.wall,
                "p50_ms": percentile(lat, 50) if lat else None,
                "p99_ms": percentile(lat, 99) if lat else None,
                "lag_p99_ms": percentile(self.lag_ms, 99)
                if self.lag_ms else 0.0,
                "valid": (not self.lag_ms
                          or percentile(self.lag_ms, 99) <= LAG_LIMIT_MS),
                "errors": self.errors[:5]}


def run(seed: int, workdir, *, trace: bool, seconds: float, spans_out,
        **_unused) -> dict:
    from repro import PlanConfig, Session, get_kernel, load_dataset
    from repro.net.client import KernelClient

    rng = np.random.default_rng(seed)
    points = load_dataset("grid", n=N, seed=seed)
    pools = {"narrow": [rng.standard_normal(N) for _ in range(POOL["narrow"])],
             "wide": [rng.standard_normal((N, WIDE_Q))
                      for _ in range(POOL["wide"])]}
    with Session(plan=PlanConfig(**PLAN)) as session:
        H = session.inspect(points, kernel=get_kernel(**KERNEL))
        refs = {kind: [session.matmul(H, w) for w in panels]
                for kind, panels in pools.items()}
        flops1 = H.evaluation_flops(1)
    workers = nproc()
    tokens = {f"token-{t}": t for t in TENANTS}
    tokens_path = workdir / "tokens.json"
    tokens_path.write_text(json.dumps({"tokens": tokens}))
    t_ready = now()

    # Requests: (tenant index, kind, panel index), fixed by the seed.
    def request_plan(count: int, r) -> list[tuple[int, str, int]]:
        plan = []
        for i in range(count):
            kind = "wide" if r.random() < WIDE_SHARE else "narrow"
            plan.append((i % 2, kind, int(r.integers(POOL[kind]))))
        return plan

    attempted = failed = 0
    checks = []
    setup_s, compile_s = [], []
    trace_out = spans_out if trace else None

    def drive(clients, pids) -> dict[str, "Phase"]:
        def send(req, phase: Phase, t_due: float | None) -> None:
            tenant, kind, idx = req
            t_send = now()
            try:
                if kind == "wide":
                    Y = clients[tenant].matmul(
                        pids[tenant], pools[kind][idx],
                        chunk_cols=CHUNK_COLS)
                else:
                    Y = clients[tenant].matmul(pids[tenant],
                                               pools[kind][idx])
                ref = refs[kind][idx]
                good = Y.tobytes() == ref.tobytes()
                error = None if good else (
                    f"{kind} response differs from Session.matmul "
                    f"(max |diff| {np.abs(Y - ref).max():.1e})")
            except Exception as exc:  # noqa: BLE001 - counted failure
                good, error = False, f"{type(exc).__name__}: {exc}"
            t_done = now()
            with phase.lock:
                phase.sent += 1
                phase.service_ms.append((t_done - t_send) * 1e3)
                if good:
                    phase.ok += 1
                    phase.flops += flops1 * (
                        WIDE_Q if kind == "wide" else 1)
                    start = t_send if t_due is None else t_due
                    phase.latency_ms.append((t_done - start) * 1e3)
                else:
                    phase.failed += 1
                    phase.errors.append(error)

        out = {name: open_loop(rate, PHASE_SHARE[name] * seconds, rng,
                               request_plan, send, workers)
               for name, rate in (("light", LIGHT_RATE),
                                  ("heavy", HEAVY_RATE))}
        out["saturate"] = closed_loop(
            request_plan(SATURATE_BURSTS * BURST_REQUESTS, rng), send,
            workers)
        return out

    n_setups = 1 if trace else SETUPS
    for k in range(n_setups):
        last = k == n_setups - 1
        t0 = now()
        with Server(workdir / f"server-{k}", tokens_path,
                    trace_out if last else None) as server:
            url = server.wait_ready()
            clients = [KernelClient(url, tenant=t, token=f"token-{t}",
                                    timeout=REQUEST_TIMEOUT)
                       for t in TENANTS]
            pids = []
            for client in clients:
                attempted += 1
                info = client.compile(points, kernel=KERNEL, plan=PLAN)
                compile_s.append(info["compile_seconds"])
                pids.append(info["points_id"])
            setup_s.append(now() - t0)
            if last:
                phases = drive(clients, pids)
        attempted += 1
        if server.proc.returncode != 0:
            failed += 1
            checks.append({"name": f"server {k} drained cleanly",
                           "ok": False,
                           "detail": f"exit code {server.proc.returncode}"})

    summaries = {name: ph.summary() for name, ph in phases.items()}
    for name, ph in phases.items():
        attempted += ph.sent
        failed += ph.failed
        checks.append({"name": f"{name}: every response byte-identical "
                               f"to Session.matmul",
                       "ok": ph.failed == 0,
                       "detail": f"{ph.ok}/{ph.sent} ok; {ph.errors[:2]}"})
    sat = phases["saturate"]
    audit = read_audit(workdir / f"server-{n_setups - 1}" / "audit.jsonl")
    bursts = sat.bursts
    gflops = [f / t / 1e9 for t, f in bursts]
    result = {
        "t_ready": t_ready,
        "metrics": {
            "setup_s": setup_s, "compile_s": compile_s,
            **{f"{p}.{q}_ms": [summaries[p][f"{q}_ms"]]
               for p in ("light", "heavy") for q in ("p50", "p99")},
            "saturate.rps": [sat.ok / sat.wall],
            "saturate.burst_s": [t for t, _ in bursts],
            "eval_gflops": gflops},
        "phases": summaries,
        "raw": {"latency_ms": {n: ph.latency_ms for n, ph in phases.items()},
                "audit_statuses": audit["statuses"]},
        "counts": {},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        from tracing import layer_metrics
        handler = median(audit["matmul_ms"])
        doc = json.loads(trace_out.read_text())
        doc["extra"].update(handler_ms=handler,
                            status_4xx=audit["status_4xx"],
                            status_5xx=audit["status_5xx"])
        client_ms = [v for ph in phases.values() for v in ph.service_ms]
        result["layers"] = {
            **layer_metrics(doc),
            "gen.lag_ms": max(summaries[p]["lag_p99_ms"]
                              for p in ("light", "heavy")),
            # request latency (send -> response) the server's handler
            # spans do not cover: client encode/decode, connect, accept
            "trace.unattributed": max(0.0, 1.0 - handler / median(client_ms)),
        }
    return result


def open_loop(rate, duration, rng, request_plan, send, workers):
    """Poisson arrivals at ``rate`` for ``duration`` seconds."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    reqs = request_plan(len(offsets), rng)
    phase = Phase()
    todo: queue.Queue = queue.Queue()

    def worker():
        while (item := todo.get()) is not None:
            send(reqs[item[0]], phase, item[1])

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(workers)]
    for t in threads:
        t.start()
    start = now() + 0.05
    for i, off in enumerate(offsets):
        due = start + float(off)
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        phase.lag_ms.append(max(0.0, now() - due) * 1e3)
        todo.put((i, due))
    for _ in threads:
        todo.put(None)
    for t in threads:
        t.join(REQUEST_TIMEOUT * 2)
    phase.wall = now() - start
    return phase


def closed_loop(reqs, send, workers):
    """Bursts of BURST_REQUESTS: within a burst each of ``workers``
    connections sends its next request on reply."""
    phase = Phase()
    for first in range(0, len(reqs), BURST_REQUESTS):
        it = iter(range(first, min(first + BURST_REQUESTS, len(reqs))))
        lock = threading.Lock()

        def worker(it=it, lock=lock):
            while True:
                with lock:
                    i = next(it, None)
                if i is None:
                    return
                send(reqs[i], phase, None)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(workers)]
        flops0, start = phase.flops, now()
        for t in threads:
            t.start()
        for t in threads:
            t.join(REQUEST_TIMEOUT * 2)
        wall = now() - start
        phase.wall += wall
        phase.bursts.append((wall, phase.flops - flops0))
    return phase


def read_audit(path) -> dict:
    statuses: dict[str, int] = {}
    matmul_ms = []
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            status = int(rec.get("status", 0))
            statuses[str(status)] = statuses.get(str(status), 0) + 1
            if rec.get("verb") == "matmul" and status == 200:
                matmul_ms.append(float(rec["duration_ms"]))
    return {"statuses": statuses, "matmul_ms": matmul_ms,
            "status_4xx": sum(v for k, v in statuses.items()
                              if k.startswith("4")),
            "status_5xx": sum(v for k, v in statuses.items()
                              if k.startswith("5"))}
