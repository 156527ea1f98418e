"""Outside-in layer tracing: spans around calls into the program's layers.

Nothing here edits the package under test. :func:`install` replaces each
layer entry point *at the binding its caller resolves it by* with a
wrapper that records a span (name, start, end, parent, thread) into an
in-memory list; :meth:`Tracer.dump` writes them out when the traced rep
ends, and :func:`layer_metrics` turns them into the per-layer metrics
(self time = a span's duration minus the part its child spans cover).

Example of the binding rule: ``repro.core.inspector.build_cds`` (phase-2
layout) and ``repro.core.io.build_cds`` (the rebuild a disk load runs)
are separate bindings of one function, so they are wrapped separately
and land in different layers. The module object is fetched with
:func:`importlib.import_module`, because the attribute
``repro.core.inspector`` is the ``inspector`` *function*.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path

from common import median, now

#: Per-layer metrics of the workloads in BENCHMARK.json, in the order
#: they are reported (name, unit). A layer the workload leaves idle
#: reports 0.
PER_LAYER = (
    ("p1.tree_s", "s"), ("p1.htree_s", "s"), ("p1.sampling_s", "s"),
    ("p1.blocking_s", "s"),
    ("p2.lowrank_s", "s"), ("p2.coarsen_s", "s"), ("p2.layout_s", "s"),
    ("p2.codegen_s", "s"), ("p2.rank_sum", "count"), ("cds.bytes", "bytes"),
    ("store.put_s", "s"), ("store.put_bytes", "bytes"), ("store.get_s", "s"),
    ("store.rebuild_s", "s"), ("store.disk_hits", "count"),
    ("store.misses", "count"),
    ("session.inspect_hit_ms", "ms"), ("session.p1_builds", "count"),
    ("session.p2_builds", "count"),
    ("codegen.batched_build_s", "s"), ("codegen.compiled_build_s", "s"),
    ("exec.q1_ms", "ms"), ("exec.wide_ms", "ms"), ("exec.calls", "count"),
    ("exec.flops", "flop"), ("exec.bytes", "bytes"),
    ("cg.iterations", "count"), ("cg.overhead_s", "s"),
    ("trace.overhead", "ratio"), ("trace.unattributed", "ratio"),
)

#: Per-layer metrics only ``serve_http`` exercises (service, net and the
#: load generator). That workload is not in BENCHMARK.json (NOTES.md says
#: why), so these are printed by its own runs only.
SERVE_LAYERS = (
    ("service.latency_ms", "ms"), ("service.compute_ms", "ms"),
    ("service.wait_ms", "ms"), ("service.batch_requests", "count"),
    ("service.batch_cols", "count"), ("service.max_queue_depth", "count"),
    ("net.handler_ms", "ms"), ("net.front_ms", "ms"), ("net.decode_ms", "ms"),
    ("net.encode_ms", "ms"), ("net.auth_ms", "ms"), ("net.quota_ms", "ms"),
    ("net.status_4xx", "count"), ("net.status_5xx", "count"),
    ("gen.lag_ms", "ms"),
)


def layer_names(workload: str) -> tuple[tuple[str, str], ...]:
    """The per-layer metrics (name, unit) a workload's traced run prints."""
    return PER_LAYER + (SERVE_LAYERS if workload == "serve_http" else ())

#: Panels at least this wide count as "wide" products (``exec.wide_ms``);
#: the sweep's Q=512 products are wide, KRR's Q=1 products are not.
WIDE_Q = 64

P1_SPANS = ("p1.tree", "p1.htree", "p1.sampling", "p1.blocking")
P2_SPANS = ("p2.lowrank", "p2.coarsen", "p2.layout", "p2.codegen")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        #: span dicts: id, parent, name, t0, t1, thread, attrs
        self.spans: list[dict] = []
        #: named intervals a coverage share is taken over
        self.marks: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: objects a layer handed out that the metrics read at the end
        self.objects: dict[str, list] = defaultdict(list)
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, pre=None, post=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(args, kwargs)`` runs before the call and its value is handed
        to ``post(args, kwargs, result, before, attrs)``, which may fill
        the span's ``attrs`` dict (now or later, e.g. from a callback).
        """
        orig = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
        tls, ids, spans = self._tls, self._ids, self.spans

        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            attrs: dict = {}
            before = pre(args, kwargs) if pre is not None else None
            stack.append(sid)
            t0 = now()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans.append({"id": sid, "parent": parent, "name": name,
                              "t0": t0, "t1": t1,
                              "thread": threading.get_ident(),
                              "attrs": attrs})
            if post is not None:
                post(args, kwargs, result, before, attrs)
            return result

        wrapper.__wrapped__ = orig
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def mark(self, name: str, t0: float, t1: float) -> None:
        self.marks[name].append((t0, t1))

    def dump(self, path: Path, extra: dict | None = None) -> None:
        doc = {"spans": self.spans, "marks": dict(self.marks),
               "extra": extra or {}}
        Path(path).write_text(json.dumps(doc, default=float))


# ---------------------------------------------------------------- install
def _q(W) -> int:
    shape = getattr(W, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark's workloads reach."""
    insp = importlib.import_module("repro.core.inspector")
    for attr, name in (("build_cluster_tree", "p1.tree"),
                       ("build_htree", "p1.htree"),
                       ("build_sampling_plan", "p1.sampling"),
                       ("build_blockset", "p1.blocking"),
                       ("build_coarsenset", "p2.coarsen"),
                       ("build_ir", "p2.codegen"),
                       ("decide_lowering", "p2.codegen"),
                       ("generate_evaluator", "p2.codegen")):
        tracer.wrap(insp, attr, name)
    tracer.wrap(insp, "skeletonize_tree", "p2.lowrank",
                post=lambda a, k, r, b, at: at.update(
                    rank_sum=int(r.sranks.sum())))
    tracer.wrap(insp, "build_cds", "p2.layout",
                post=lambda a, k, r, b, at: at.update(
                    bytes=int(r.total_bytes())))

    io = importlib.import_module("repro.core.io")
    tracer.wrap(io, "build_cds", "store.rebuild")
    tracer.wrap(io, "generate_evaluator", "store.rebuild")

    from repro.api.store import PlanStore

    def put_bytes(args, kwargs, digest, before, attrs):
        store = args[0]
        if store.directory is not None:
            attrs["bytes"] = sum(p.stat().st_size
                                 for p in store._paths(digest) if p.exists())

    def store_stats(args, kwargs):
        s = args[0].stats
        return s.disk_hits, s.misses

    def get_outcome(args, kwargs, result, before, attrs):
        s = args[0].stats
        attrs["disk_hit"] = s.disk_hits - before[0]
        attrs["miss"] = s.misses - before[1]

    tracer.wrap(PlanStore, "put", "store.put", post=put_bytes)
    tracer.wrap(PlanStore, "get", "store.get", pre=store_stats,
                post=get_outcome)

    from repro.api.session import Session

    def builds(args, kwargs):
        st = args[0].stats
        return st.p1_builds, st.p2_builds

    def build_delta(args, kwargs, result, before, attrs):
        st = args[0].stats
        attrs["p1_builds"] = st.p1_builds - before[0]
        attrs["p2_builds"] = st.p2_builds - before[1]

    tracer.wrap(Session, "inspect", "session.inspect", pre=builds,
                post=build_delta)
    tracer.wrap(Session, "matmul", "session.matmul")

    emit = importlib.import_module("repro.codegen.emit")
    tracer.wrap(emit, "generate_batched_evaluator", "codegen.batched")
    compiled = importlib.import_module("repro.codegen.compiled")
    tracer.wrap(compiled, "compile_evaluator", "codegen.compiled")

    from repro.core.executor import Executor

    # Per-HMatrix costs are computed once: evaluation_flops walks every
    # block in Python, which at Q=1 would cost more than the product.
    per_column: dict[int, tuple[object, int, int]] = {}

    def exec_cost(args, kwargs, result, before, attrs):
        H, W = args[1], args[2] if len(args) > 2 else kwargs["W"]
        cached = per_column.get(id(H))
        if cached is None or cached[0] is not H:
            cached = per_column[id(H)] = (H, int(H.evaluation_flops(1)),
                                          int(H.memory_bytes()))
        q = _q(W)
        attrs["q"] = q
        attrs["flops"] = cached[1] * q
        # computed, not measured: generators streamed once + W in + Y out
        attrs["bytes"] = cached[2] + 2 * 8 * H.dim * q

    tracer.wrap(Executor, "matmul", "exec.matmul", post=exec_cost)

    ridge = importlib.import_module("repro.solvers.ridge")
    tracer.wrap(ridge, "conjugate_gradient", "solvers.cg",
                post=lambda a, k, r, b, at: at.update(
                    iterations=int(r.iterations)))
    tracer.wrap(ridge.KernelRidgeRegression, "fit", "solvers.fit")

    from repro.api.service import KernelService

    def on_submit(args, kwargs, future, before, attrs):
        future.add_done_callback(lambda f: attrs.__setitem__("done", now()))

    def batch_shape(args, kwargs):
        t = now()
        batch = args[1]
        return ([t - p.t_submit for p in batch],
                sum(p.cols for p in batch), len(batch))

    def batch_attrs(args, kwargs, result, before, attrs):
        attrs["waits"], attrs["cols"], attrs["requests"] = before

    def keep_service(args, kwargs, result, before, attrs):
        tracer.objects["services"].append(args[0])

    tracer.wrap(KernelService, "__init__", "service.init", post=keep_service)
    tracer.wrap(KernelService, "submit", "service.submit", post=on_submit)
    tracer.wrap(KernelService, "_execute", "service.execute",
                pre=batch_shape, post=batch_attrs)

    server = importlib.import_module("repro.net.server")
    tracer.wrap(server, "decode_array", "net.decode")
    tracer.wrap(server, "encode_array", "net.encode")
    tracer.wrap(server.KernelServer, "_handle", "net.handle")
    from repro.net.auth import TokenAuthenticator
    from repro.net.tenants import Tenant
    tracer.wrap(TokenAuthenticator, "authenticate", "net.auth")
    tracer.wrap(Tenant, "charge", "net.quota")


def service_extra(tracer: Tracer) -> dict:
    """Counters only the live service objects know (read at teardown)."""
    depths = [svc.stats(include_autotune=False)["max_queue_depth"]
              for svc in tracer.objects.get("services", [])]
    return {"max_queue_depth": max(depths, default=0)}


# ----------------------------------------------------------------- derive
def _dur(s) -> float:
    return s["t1"] - s["t0"]


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from one traced rep's dump (see layer_names)."""
    spans = doc["spans"]
    extra = doc.get("extra", {})
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def self_time(s) -> float:
        return _dur(s) - sum(_dur(c) for c in children[s["id"]])

    def descendants(s):
        for c in children[s["id"]]:
            yield c
            yield from descendants(c)

    def total_self(name) -> float:
        return sum(self_time(s) for s in by_name[name])

    def total(name) -> float:
        return sum(_dur(s) for s in by_name[name])

    def attr_sum(name, key) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    out: dict[str, float] = {}
    for short, name in (("tree_s", "p1.tree"), ("htree_s", "p1.htree"),
                        ("sampling_s", "p1.sampling"),
                        ("blocking_s", "p1.blocking")):
        out[f"p1.{short}"] = total_self(name)
    for short, name in (("lowrank_s", "p2.lowrank"),
                        ("coarsen_s", "p2.coarsen"),
                        ("layout_s", "p2.layout"),
                        ("codegen_s", "p2.codegen")):
        out[f"p2.{short}"] = total_self(name)
    out["p2.rank_sum"] = attr_sum("p2.lowrank", "rank_sum")
    out["cds.bytes"] = attr_sum("p2.layout", "bytes")

    out["store.put_s"] = total("store.put")
    out["store.put_bytes"] = attr_sum("store.put", "bytes")
    out["store.get_s"] = total("store.get")
    out["store.rebuild_s"] = total("store.rebuild")
    out["store.disk_hits"] = attr_sum("store.get", "disk_hit")
    out["store.misses"] = attr_sum("store.get", "miss")

    builders = set(P1_SPANS) | set(P2_SPANS) | {"store.rebuild"}
    hits = [_dur(s) * 1e3 for s in by_name["session.inspect"]
            if not any(d["name"] in builders for d in descendants(s))]
    out["session.inspect_hit_ms"] = median(hits) if hits else 0.0
    out["session.p1_builds"] = attr_sum("session.inspect", "p1_builds")
    out["session.p2_builds"] = attr_sum("session.inspect", "p2_builds")

    out["codegen.batched_build_s"] = total("codegen.batched")
    out["codegen.compiled_build_s"] = total("codegen.compiled")

    ex = by_name["exec.matmul"]
    q1 = [self_time(s) * 1e3 for s in ex if s["attrs"].get("q") == 1]
    wide = [self_time(s) * 1e3 for s in ex
            if s["attrs"].get("q", 0) >= WIDE_Q]
    out["exec.q1_ms"] = median(q1) if q1 else 0.0
    out["exec.wide_ms"] = median(wide) if wide else 0.0
    out["exec.calls"] = len(ex)
    out["exec.flops"] = attr_sum("exec.matmul", "flops")
    out["exec.bytes"] = attr_sum("exec.matmul", "bytes")

    out["cg.iterations"] = attr_sum("solvers.cg", "iterations")
    out["cg.overhead_s"] = sum(
        _dur(s) - sum(_dur(d) for d in descendants(s)
                      if d["name"] == "exec.matmul")
        for s in by_name["solvers.cg"])

    subs = [s for s in by_name["service.submit"] if "done" in s["attrs"]]
    out["service.latency_ms"] = (median((s["attrs"]["done"] - s["t0"]) * 1e3
                                        for s in subs) if subs else 0.0)
    batches = by_name["service.execute"]
    compute = [_dur(d) * 1e3 for s in batches for d in children[s["id"]]
               if d["name"] == "session.matmul"]
    out["service.compute_ms"] = median(compute) if compute else 0.0
    waits = [w * 1e3 for s in batches for w in s["attrs"].get("waits", [])]
    out["service.wait_ms"] = median(waits) if waits else 0.0
    n_b = len(batches)
    out["service.batch_requests"] = (
        attr_sum("service.execute", "requests") / n_b if n_b else 0.0)
    out["service.batch_cols"] = (
        attr_sum("service.execute", "cols") / n_b if n_b else 0.0)
    out["service.max_queue_depth"] = extra.get("max_queue_depth", 0)

    # Per matmul request: the handler span, and the layers under it.
    fronts, parts = [], defaultdict(list)
    for h in by_name["net.handle"]:
        sub = list(descendants(h))
        subs = [d for d in sub if d["name"] == "service.submit"]
        if not subs or not all("done" in d["attrs"] for d in subs):
            continue
        served = (max(d["attrs"]["done"] for d in subs)
                  - min(d["t0"] for d in subs))
        fronts.append((_dur(h) - served) * 1e3)
        for key, name in (("decode", "net.decode"), ("encode", "net.encode"),
                          ("auth", "net.auth"), ("quota", "net.quota")):
            parts[key].append(sum(_dur(d) for d in sub
                                  if d["name"] == name) * 1e3)
    out["net.handler_ms"] = extra.get("handler_ms", 0.0)
    out["net.front_ms"] = median(fronts) if fronts else 0.0
    for key in ("decode", "encode", "auth", "quota"):
        out[f"net.{key}_ms"] = median(parts[key]) if parts[key] else 0.0
    out["net.status_4xx"] = extra.get("status_4xx", 0)
    out["net.status_5xx"] = extra.get("status_5xx", 0)
    return out


def unattributed(doc: dict, mark: str) -> float:
    """Share of the marked intervals that no root layer span covers."""
    intervals = doc["marks"].get(mark, [])
    wall = sum(t1 - t0 for t0, t1 in intervals)
    if wall <= 0:
        return 0.0
    covered = 0.0
    roots = [s for s in doc["spans"] if s["parent"] == 0]
    for t0, t1 in intervals:
        for s in roots:
            covered += max(0.0, min(s["t1"], t1) - max(s["t0"], t0))
    return max(0.0, 1.0 - covered / wall)
