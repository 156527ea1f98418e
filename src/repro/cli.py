"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper's inspector/executor workflow as a tool:

* ``inspect``  — points in, ``hmat.npz`` out (compression + structure
  analysis + codegen), optionally saving the reusable p1 artifacts;
* ``evaluate`` — load an ``hmat.npz``, multiply with a dense matrix file
  (or random W) under an execution policy (``--order``, ``--threads``,
  ``--q-chunk``; ``--order auto`` resolves via the profile-guided
  autotuner, persisting profiles in ``--store``), write/report Y;
* ``tune``     — measure the execution-policy grid for a stored HMatrix
  at the given RHS widths and record
  :class:`~repro.tuning.TuningProfile` artifacts (``--store``);
* ``compile``  — inspect point sets into a durable, integrity-checked
  :class:`~repro.api.store.PlanStore` directory (compile once…);
* ``serve``    — replay a JSON request file through a
  :class:`~repro.api.service.KernelService` warm-started from a store
  (…serve forever); ``--expect-warm`` fails if any inspection ran;
  ``--manifest`` writes a schema-validated
  :class:`~repro.observability.RunManifest` at close;
* ``server``   — run the network-facing multi-tenant kernel server
  (:class:`~repro.net.server.KernelServer`): JSON-over-HTTP
  compile/matmul/stats endpoints with token auth, per-tenant PlanStore
  roots, quotas, a JSONL audit log, and SIGTERM-graceful drain;
* ``client``   — talk to a running server from the shell
  (``compile``/``matmul``/``stats``/``metrics``);
* ``stats``    — offline inventory of a PlanStore directory, as
  ``/metrics``-style text or JSON (tolerates rot and version skew);
  ``--tenant`` scopes it to one tenant of a server root;
* ``gc``       — age/version-based PlanStore eviction with
  reclaimed-byte reporting (``--dry-run`` previews);
* ``info``     — print the structural summary of a stored HMatrix;
* ``datasets`` — regenerate Table 1 / emit a synthetic dataset to .npy.

The request-file format consumed by ``compile --requests``/``serve``::

    {
      "datasets": {
        "<points_id>": {"points": "<Table-1 name or .npy path>",
                         "n": 1000, "kernel": "gaussian",
                         "bandwidth": 5.0, "leaf_size": 32, ...}
      },
      "requests": [
        {"points_id": "<points_id>", "q": 4, "seed": 0}, ...
      ]
    }

``datasets`` entries accept the same inspector knobs as the ``inspect``
flags (structure/tau/budget/bacc/leaf_size/max_rank/sampling_size/
tree_method/seed); compiling and serving from the *same file* guarantees
the store keys match.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.api.plan import PlanConfig
from repro.api.policy import VALID_ORDERS, resolve_policy
from repro.core.executor import Executor
from repro.core.io import (
    load_hmatrix,
    load_inspection_p1,
    save_hmatrix,
    save_inspection_p1,
)
from repro.datasets.registry import dataset_names, load_dataset, table1_rows
from repro.kernels.base import get_kernel


def _load_points(spec: str, n: int | None, seed: int) -> np.ndarray:
    """``spec`` is either a dataset name from Table 1 or a .npy path."""
    if spec in dataset_names():
        return load_dataset(spec, n=n, seed=seed)
    return np.load(spec)


def _add_inspector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--structure", default="h2-geometric",
                   choices=["h2-geometric", "hss", "h2-b"],
                   help="HMatrix structure / admissibility flavour")
    p.add_argument("--tau", type=float, default=0.65,
                   help="geometric admissibility parameter")
    p.add_argument("--budget", type=float, default=0.03,
                   help="GOFMM-style budget (h2-b only)")
    p.add_argument("--bacc", type=float, default=1e-5,
                   help="block approximation accuracy")
    p.add_argument("--leaf-size", type=int, default=64)
    p.add_argument("--max-rank", type=int, default=256)
    p.add_argument("--sampling-size", type=int, default=32)
    p.add_argument("--kernel", default="gaussian")
    p.add_argument("--bandwidth", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)


def _make_kernel(args):
    if args.kernel in ("gaussian", "laplace", "matern32"):
        return get_kernel(args.kernel, bandwidth=args.bandwidth)
    return get_kernel(args.kernel)


def _make_plan(args) -> PlanConfig:
    return PlanConfig(structure=args.structure, tau=args.tau,
                      budget=args.budget, bacc=args.bacc,
                      leaf_size=args.leaf_size, max_rank=args.max_rank,
                      sampling_size=args.sampling_size, seed=args.seed)


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    """Execution-policy flags (resolve against the shared default)."""
    p.add_argument("--order", default=None, choices=list(VALID_ORDERS),
                   help="evaluation engine/order (default: batched; "
                        "'auto' resolves via the profile-guided autotuner)")
    p.add_argument("--threads", type=int, default=None,
                   help="thread-pool workers for the per-block code")
    p.add_argument("--q-chunk", type=int, default=None,
                   help="streaming panel width (columns per pass)")


def cmd_inspect(args) -> int:
    points = _load_points(args.points, args.n, args.seed)
    kernel = _make_kernel(args)
    insp = _make_plan(args).to_inspector()

    t0 = time.perf_counter()
    if args.reuse_p1:
        p1 = load_inspection_p1(args.reuse_p1)
        print(f"reusing phase-1 inspection from {args.reuse_p1}")
    else:
        p1 = insp.run_p1(points)
    H = insp.run_p2(p1, kernel)
    dt = time.perf_counter() - t0

    save_hmatrix(H, args.output)
    if args.save_p1:
        save_inspection_p1(p1, args.save_p1)
        print(f"phase-1 artifacts -> {args.save_p1}")
    s = H.summary()
    print(f"inspected N={s['N']} ({s['structure']}) in {dt:.2f}s -> "
          f"{args.output}")
    print(f"  sranks: mean {s['mean_srank']:.1f}, max {s['max_srank']}; "
          f"memory {s['memory_mb']:.2f} MiB "
          f"(ratio {s['compression_ratio']:.1f}x)")
    return 0


def cmd_evaluate(args) -> int:
    from repro.api.store import PlanStore

    H = load_hmatrix(args.hmatrix)
    W = (np.load(args.w) if args.w
         else np.random.default_rng(args.seed).random((H.dim, args.q)))
    policy = resolve_policy(order=args.order, num_threads=args.threads,
                            q_chunk=args.q_chunk)
    store = PlanStore(args.store) if getattr(args, "store", None) else None
    with Executor(policy=policy, store=store) as ex:
        t0 = time.perf_counter()
        Y = ex.matmul(H, W)
        dt = time.perf_counter() - t0
        if policy.is_auto:
            # Report the policy the tuner actually ran (and where the
            # profile came from), not the unresolved "auto".
            tuner = ex.autotuner
            q = W.shape[1] if W.ndim == 2 else 1
            prof = tuner.profile_for(H, q, policy)
            policy = prof.best_policy()
            print(f"auto policy -> order={policy.order}, "
                  f"threads={policy.num_threads}, "
                  f"q_chunk={policy.q_chunk} "
                  f"(source={prof.source}, margin {prof.margin:.2f}x, "
                  f"bucket={prof.width_bucket})")
    gf = H.evaluation_flops(W.shape[1] if W.ndim == 2 else 1) / dt / 1e9
    print(f"evaluated Y = H @ W  (N={H.dim}, Q="
          f"{W.shape[1] if W.ndim == 2 else 1}, order={policy.order}"
          f"{f', threads={policy.num_threads}' if policy.num_threads else ''}"
          f") in {dt:.3f}s ({gf:.2f} GF/s)")
    if args.output:
        np.save(args.output, Y)
        print(f"Y -> {args.output}")
    else:
        print(f"||Y||_F = {np.linalg.norm(Y):.6e}")
    return 0


#: Inspector knobs a dataset spec (request file) may set; defaults are the
#: PlanConfig defaults, exactly like the ``inspect`` flags. ``p`` is
#: included so cross-machine compile/serve can pin the partition count
#: (it is part of the full fingerprint and defaults to the host's cores).
_SPEC_PLAN_KEYS = ("structure", "tau", "budget", "bacc", "leaf_size",
                   "max_rank", "sampling_size", "tree_method", "seed", "p")

#: Non-plan keys a dataset spec may set (dataset source + kernel).
_SPEC_DATA_KEYS = ("points", "n", "kernel", "bandwidth")


def _plan_from_spec(spec: dict) -> PlanConfig:
    unknown = sorted(set(spec) - set(_SPEC_PLAN_KEYS) - set(_SPEC_DATA_KEYS))
    if unknown:
        raise SystemExit(
            f"dataset spec has unknown key(s) {unknown}; valid keys: "
            f"{sorted(_SPEC_PLAN_KEYS + _SPEC_DATA_KEYS)}")
    return PlanConfig(**{k: spec[k] for k in _SPEC_PLAN_KEYS if k in spec})


def _kernel_from_spec(spec: dict):
    name = spec.get("kernel", "gaussian")
    if name in ("gaussian", "laplace", "matern32"):
        return get_kernel(name, bandwidth=spec.get("bandwidth", 5.0))
    return get_kernel(name)


def _spec_points(spec: dict) -> np.ndarray:
    return _load_points(spec["points"], spec.get("n"), spec.get("seed", 0))


def _load_request_file(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("datasets"), dict):
        raise SystemExit(
            f"request file {path} must be a JSON object with a 'datasets' "
            f"mapping (see 'python -m repro serve --help')")
    return doc


def cmd_compile(args) -> int:
    from repro.api.session import Session
    from repro.api.store import PlanStore

    if args.requests:
        specs = _load_request_file(args.requests)["datasets"]
    elif args.points:
        specs = {args.points_id or args.points: {
            "points": args.points, "n": args.n, "seed": args.seed,
            "kernel": args.kernel, "bandwidth": args.bandwidth,
            "structure": args.structure, "tau": args.tau,
            "budget": args.budget, "bacc": args.bacc,
            "leaf_size": args.leaf_size, "max_rank": args.max_rank,
            "sampling_size": args.sampling_size,
        }}
    else:
        print("compile: give a points spec or --requests FILE",
              file=sys.stderr)
        return 2
    store = PlanStore(args.store)
    with Session(store=store) as session:
        for pid, spec in specs.items():
            points = _spec_points(spec)
            t0 = time.perf_counter()
            H = session.inspect(points, kernel=_kernel_from_spec(spec),
                                plan=_plan_from_spec(spec))
            dt = time.perf_counter() - t0
            s = H.summary()
            print(f"compiled {pid}: N={s['N']} ({s['structure']}) in "
                  f"{dt:.2f}s (memory {s['memory_mb']:.2f} MiB)")
    info = store.cache_info()
    print(f"store {args.store}: {info['disk_entries']} artifact(s), "
          f"{store.disk_bytes() / 2**20:.2f} MiB on disk "
          f"(p1_builds={session.stats.p1_builds}, "
          f"p1_hits={session.stats.p1_hits}, "
          f"hmatrix_hits={session.stats.hmatrix_hits})")
    return 0


def cmd_serve(args) -> int:
    from repro.api.service import KernelService
    from repro.api.store import PlanStore

    doc = _load_request_file(args.requests)
    requests = doc.get("requests", [])
    unknown = sorted({str(r.get("points_id")) for r in requests}
                     - set(doc["datasets"]))
    if unknown:
        raise SystemExit(
            f"request file {args.requests}: requests reference points_id(s) "
            f"{unknown} missing from the 'datasets' section")
    manifest = getattr(args, "manifest", None) or False
    if manifest is True and not args.store:
        raise SystemExit(
            "serve: --manifest without a path writes next to the store; "
            "give --store or an explicit --manifest PATH")
    store = PlanStore(args.store) if args.store else None
    policy = (resolve_policy(order=args.order)
              if getattr(args, "order", None) else None)
    with KernelService(store=store, policy=policy,
                       max_batch=args.max_batch,
                       max_wait_ms=args.max_wait_ms,
                       manifest=manifest) as service:
        for pid, spec in doc["datasets"].items():
            service.register(pid, _spec_points(spec),
                             kernel=_kernel_from_spec(spec),
                             plan=_plan_from_spec(spec), warm=True)
        futures = []
        t0 = time.perf_counter()
        for i, req in enumerate(requests):
            pid = req["points_id"]
            n = service.shape(pid)[0]
            W = np.random.default_rng(req.get("seed", i)).random(
                (n, int(req.get("q", 1))))
            futures.append((pid, service.submit(pid, W)))
        for _pid, fut in futures:
            fut.result()
        wall = time.perf_counter() - t0
        stats = service.stats()
        sess = service.session.stats
        disk_hits = service.session.store.stats.disk_hits
    rate = len(requests) / wall if wall > 0 and requests else 0.0
    print(f"served {len(requests)} request(s) over "
          f"{len(doc['datasets'])} endpoint(s) in {wall:.3f}s "
          f"({rate:.1f} req/s)")
    print(f"  latency p50 {stats['p50_ms']:.2f} ms, "
          f"p99 {stats['p99_ms']:.2f} ms; "
          f"batches={stats['batches']}, mean_batch={stats['mean_batch']:.2f},"
          f" max_queue_depth={stats['max_queue_depth']}")
    print(f"  inspection: p1_builds={sess.p1_builds}, "
          f"p2_builds={sess.p2_builds}, hmatrix_hits={sess.hmatrix_hits}, "
          f"store_disk_hits={disk_hits}")
    tune_stats = stats.get("autotune") or {}
    if tune_stats:
        print(f"  autotune: tunes={tune_stats['tunes']}, "
              f"memory_hits={tune_stats['memory_hits']}, "
              f"store_hits={tune_stats['store_hits']}, "
              f"profiles={tune_stats['profiles']}")
    if manifest:
        if service.manifest_path is not None:
            print(f"  run manifest -> {service.manifest_path}")
        else:
            print("  warning: run manifest write failed (best-effort)",
                  file=sys.stderr)
    if args.expect_warm and (sess.p1_builds or sess.p2_builds):
        print("error: --expect-warm but inspection ran "
              f"(p1_builds={sess.p1_builds}, p2_builds={sess.p2_builds}); "
              "run 'repro compile --requests ... --store ...' first",
              file=sys.stderr)
        return 1
    return 0


def cmd_server(args) -> int:
    import signal
    import threading

    from repro.net.server import KernelServer
    from repro.net.tenants import TenantQuota

    quota = TenantQuota(max_requests=args.quota_requests,
                        max_bytes=args.quota_bytes,
                        window_seconds=args.quota_window)
    policy = (resolve_policy(order=args.order)
              if getattr(args, "order", None) else None)
    server = KernelServer(
        args.root, tokens=args.tokens, host=args.host, port=args.port,
        quota=quota, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, policy=policy,
        audit_log=False if args.no_audit else args.audit,
        metrics_token=args.metrics_token)
    stop = threading.Event()

    def _graceful(signum, frame):
        print(f"\nsignal {signal.Signals(signum).name}: draining…",
              file=sys.stderr)
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _graceful)
    server.start()
    print(f"kernel server listening on {server.url} "
          f"(root={args.root}, auth={'on' if server.auth else 'OFF'}, "
          f"max_batch={args.max_batch})")
    stop.wait()
    drained = server.drain(args.drain_timeout)
    server.close(args.drain_timeout)
    stats = server.stats()["server"]
    print(f"drained {'cleanly' if drained else 'with a timeout'}; served "
          f"{stats['responses'].get('2xx', 0)} ok / "
          f"{stats['responses'].get('4xx', 0)} client-error / "
          f"{stats['responses'].get('5xx', 0)} server-error responses "
          f"over {stats['tenants_active']} tenant(s)")
    return 0 if drained else 1


def cmd_client(args) -> int:
    from repro.net.client import KernelClient, ServerError

    if args.action != "metrics" and not args.tenant:
        print(f"client {args.action}: --tenant is required",
              file=sys.stderr)
        return 2
    if args.action == "compile" and not args.points:
        print("client compile: --points is required", file=sys.stderr)
        return 2
    if args.action == "matmul" and not args.points_id:
        print("client matmul: --points-id is required", file=sys.stderr)
        return 2
    client = KernelClient(args.url, tenant=args.tenant, token=args.token,
                          timeout=args.timeout)
    try:
        if args.action == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.action == "compile":
            points = _load_points(args.points, args.n, args.seed)
            plan = {"structure": args.structure, "tau": args.tau,
                    "budget": args.budget, "bacc": args.bacc,
                    "leaf_size": args.leaf_size, "max_rank": args.max_rank,
                    "sampling_size": args.sampling_size, "seed": args.seed}
            info = client.compile(
                points,
                kernel={"name": args.kernel, "bandwidth": args.bandwidth},
                plan=plan, points_id=args.points_id)
            verb = ("compiled" if info["compiled"]
                    else "already compiled (store hit)")
            print(f"{verb} {info['points_id']}: N={info['n']} d={info['d']} "
                  f"plan={info['plan_fingerprint']} in "
                  f"{info['compile_seconds']:.3f}s")
            return 0
        # matmul
        if args.w:
            W = np.load(args.w)
        else:
            # Row count comes from the tenant's endpoint registry.
            endpoints = client.stats().get("endpoints", {})
            n = endpoints.get(args.points_id)
            if n is None:
                print(f"client: points_id {args.points_id!r} not "
                      f"registered (known: {sorted(endpoints)}); "
                      f"compile first", file=sys.stderr)
                return 2
            W = np.random.default_rng(args.seed).random((n, args.q))
        t0 = time.perf_counter()
        Y = client.matmul(args.points_id, W, chunk_cols=args.chunk_cols)
        dt = time.perf_counter() - t0
        print(f"Y = K[{args.points_id}] @ W  {W.shape} -> {Y.shape} "
              f"in {dt:.3f}s")
        if args.output:
            np.save(args.output, Y)
            print(f"Y -> {args.output}")
        else:
            print(f"||Y||_F = {np.linalg.norm(Y):.6e}")
        return 0
    except ServerError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1


def cmd_stats(args) -> int:
    from repro.observability.stats import metrics_text, store_inventory

    directory = Path(args.store)
    if args.tenant:
        scoped = directory / "tenants" / args.tenant / "store"
        if not scoped.is_dir():
            known = sorted(p.parent.name for p
                           in (directory / "tenants").glob("*/store"))
            print(f"stats: no store for tenant {args.tenant!r} under "
                  f"{args.store} (known tenants: {known or 'none'})",
                  file=sys.stderr)
            return 2
        directory = scoped
    if not directory.is_dir():
        print(f"stats: no store directory at {args.store}", file=sys.stderr)
        return 2
    inv = store_inventory(directory)
    if args.tenant:
        inv["tenant"] = args.tenant
    if args.json:
        print(json.dumps(inv, indent=2, sort_keys=True))
    else:
        print(metrics_text(inv, prefix="repro_store"), end="")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import (
        AnalysisError,
        bump_analysis_counter,
        findings_to_doc,
        lint_paths,
        verify_artifact_file,
    )
    from repro.observability.manifest import canonical_json

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"analyze: no such path(s): {missing}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for finding in findings:
        print(finding.format())
    unwaived = [f for f in findings if not f.waived]
    if unwaived:
        bump_analysis_counter("lint_findings", len(unwaived))
    failures = len(unwaived)

    extra: dict = {"paths": [str(p) for p in paths]}
    if args.artifact:
        try:
            verify_artifact_file(args.artifact)
            artifact_ok = True
            print(f"analyze: {args.artifact}: write sets verified")
        except AnalysisError as exc:
            artifact_ok = False
            print(f"analyze: {args.artifact}: {exc}", file=sys.stderr)
            failures += 1
        extra["artifact"] = {"path": str(args.artifact),
                             "verified": artifact_ok}

    if args.threads:
        from repro.analysis import analyze_lock_order

        report = analyze_lock_order(paths)
        for finding in report.findings:
            print(finding.format())
        unwaived_cycles = sum(1 for f in report.findings if not f.waived)
        failures += unwaived_cycles
        extra["lock_order"] = report.to_doc()
        print(f"analyze: lock graph: {len(report.locks)} lock(s), "
              f"{len(report.edges)} edge(s), {len(report.cycles)} "
              f"cycle(s) ({unwaived_cycles} unwaived)")
        if args.lock_graph:
            out = Path(args.lock_graph)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(canonical_json(report.summary()))
            print(f"analyze: lock graph -> {out}")
    if args.sync_traces:
        from repro.analysis import certify_sync_trace_dir

        try:
            sync_results = certify_sync_trace_dir(args.sync_traces)
        except (FileNotFoundError, ValueError) as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
        sync_count = 0
        for name, violations in sorted(sync_results.items()):
            for violation in violations:
                print(f"{name}: UNORDERED {violation.format()}")
                sync_count += 1
        extra["sync"] = {"traces": len(sync_results),
                         "violations": sync_count}
        failures += sync_count
        print(f"analyze: {len(sync_results)} sync trace(s) certified, "
              f"{sync_count} happens-before violation(s)")
    if args.deadlocks:
        from repro.analysis import explore_default_scenarios

        reports = explore_default_scenarios(runs=args.schedules)
        schedule_failures = 0
        inequivalent = 0
        for name, rep in sorted(reports.items()):
            inequivalent += rep.inequivalent
            schedule_failures += len(rep.failures)
            for run, msg in rep.failures:
                print(f"{name}: SCHEDULE {msg}", file=sys.stderr)
        extra["schedules"] = {
            "scenarios": {name: rep.to_doc()
                          for name, rep in sorted(reports.items())},
            "inequivalent": inequivalent,
            "failures": schedule_failures,
        }
        failures += schedule_failures
        print(f"analyze: {inequivalent} inequivalent schedule(s) explored "
              f"across {len(reports)} scenario(s), "
              f"{schedule_failures} failure(s)")

    doc = findings_to_doc(findings, extra=extra)
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(canonical_json(doc))
        print(f"analyze: findings -> {out}")
    print(f"analyze: {len(findings)} finding(s), {len(unwaived)} unwaived, "
          f"{doc['waived']} waived")
    if args.strict and failures:
        print(f"analyze: strict mode: {failures} failure(s)",
              file=sys.stderr)
        return 1
    return 0


def cmd_gc(args) -> int:
    from repro.api.store import PlanStore

    if not Path(args.store).is_dir():
        print(f"gc: no store directory at {args.store}", file=sys.stderr)
        return 2
    store = PlanStore(args.store)
    report = store.gc(max_age=args.max_age,
                      keep_other_versions=args.keep_other_versions,
                      dry_run=args.dry_run)
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"gc {args.store}: scanned {report['scanned']}, removed "
          f"{report['removed']} artifact(s) + {report['run_manifests_removed']}"
          f" run manifest(s), kept {report['kept']}, {verb} "
          f"{report['reclaimed_bytes']} bytes")
    return 0


def cmd_tune(args) -> int:
    from repro.api.store import PlanStore
    from repro.tuning import Autotuner

    H = load_hmatrix(args.hmatrix)
    store = PlanStore(args.store) if args.store else None
    tuner = Autotuner(store=store, reps=args.reps)
    print(f"host: {', '.join(f'{k}={v}' for k, v in tuner.host.items())}")
    for q in args.q:
        prof = tuner.tune(H, q)
        knobs = ", ".join(f"{k}={v}" for k, v in prof.policy.items())
        print(f"q={q} (bucket {prof.width_bucket}): winner {knobs} "
              f"[{prof.source}, margin {prof.margin:.2f}x, "
              f"trials {prof.trials}]")
        for cand in prof.candidates:
            ck = ", ".join(f"{k}={v}" for k, v in cand["policy"].items())
            kind = "measured" if cand.get("measured") else "predicted"
            print(f"    {cand['seconds'] * 1e3:9.3f} ms  ({kind})  {ck}")
    if store is not None:
        print(f"profiles -> {args.store} "
              f"({store.cache_info()['disk_entries']} artifact(s) on disk); "
              f"reuse with: repro evaluate --order auto --store {args.store}")
    return 0


def cmd_info(args) -> int:
    H = load_hmatrix(args.hmatrix)
    for key, value in H.summary().items():
        print(f"{key:20s} {value}")
    if args.source:
        print("\n--- generated evaluation code ---")
        print(H.evaluator.source)
    return 0


def cmd_datasets(args) -> int:
    if args.emit:
        pts = load_dataset(args.emit, n=args.n, seed=args.seed)
        out = args.output or f"{args.emit}.npy"
        np.save(out, pts)
        print(f"{args.emit}: {pts.shape} -> {out}")
        return 0
    print(f"{'ID':>3} {'data':>10} {'N':>8} {'d':>4} {'kind':>11}")
    for row in table1_rows():
        print(f"{row['id']:>3} {row['data']:>10} {row['N']:>8} "
              f"{row['d']:>4} {row['kind']:>11}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MatRox reproduction: inspector-executor HMatrix tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="compress points into an HMatrix")
    p.add_argument("points", help="Table 1 dataset name or .npy point file")
    p.add_argument("-o", "--output", default="hmat.npz")
    p.add_argument("-n", type=int, default=None,
                   help="point count for named datasets")
    p.add_argument("--save-p1", default=None,
                   help="also store reusable phase-1 artifacts here")
    p.add_argument("--reuse-p1", default=None,
                   help="load phase-1 artifacts instead of recomputing")
    _add_inspector_args(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("evaluate", help="multiply a stored HMatrix")
    p.add_argument("hmatrix", help="hmat.npz from 'inspect'")
    p.add_argument("--w", default=None, help=".npy right-hand matrix")
    p.add_argument("-q", type=int, default=16,
                   help="random W columns when --w is not given")
    p.add_argument("-o", "--output", default=None, help="store Y as .npy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--store", default=None,
                   help="PlanStore directory for --order auto tuning "
                        "profiles (tuned once, reused across runs)")
    _add_policy_args(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser(
        "tune",
        help="measure the execution-policy grid for a stored HMatrix "
             "and record tuning profiles")
    p.add_argument("hmatrix", help="hmat.npz from 'inspect'")
    p.add_argument("-q", type=int, nargs="+", default=[1, 16, 256],
                   help="RHS widths to tune (one profile per width bucket)")
    p.add_argument("--store", default=None,
                   help="PlanStore directory to persist the profiles "
                        "(served by --order auto)")
    p.add_argument("--reps", type=int, default=3,
                   help="timed repetitions per candidate (min-of-reps)")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "compile",
        help="inspect points into a durable PlanStore (compile once)")
    p.add_argument("points", nargs="?", default=None,
                   help="Table 1 dataset name or .npy point file "
                        "(or use --requests)")
    p.add_argument("--store", required=True,
                   help="PlanStore directory (created if missing)")
    p.add_argument("--points-id", default=None,
                   help="endpoint name for the compiled artifact "
                        "(default: the points spec)")
    p.add_argument("--requests", default=None,
                   help="compile every dataset in a request file instead "
                        "of a single points spec")
    p.add_argument("-n", type=int, default=None,
                   help="point count for named datasets")
    _add_inspector_args(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser(
        "serve",
        help="replay a request file through KernelService (serve forever)")
    p.add_argument("--requests", required=True,
                   help="JSON request file (see module docstring)")
    p.add_argument("--store", default=None,
                   help="warm-start from this PlanStore directory")
    p.add_argument("--max-batch", type=int, default=8,
                   help="micro-batch size cap (1 disables batching)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="how long the dispatcher lingers for stragglers")
    p.add_argument("--expect-warm", action="store_true",
                   help="exit non-zero if any inspection ran (proves the "
                        "store served every plan)")
    p.add_argument("--order", default=None, choices=list(VALID_ORDERS),
                   help="execution order for served requests ('auto' "
                        "tunes per width bucket, re-tuning on drift; "
                        "profiles persist in --store)")
    p.add_argument("--manifest", nargs="?", const=True, default=None,
                   metavar="PATH",
                   help="write a RunManifest at close: to PATH (a .json "
                        "file or a directory), or, with no value, under "
                        "manifests/ next to --store")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "server",
        help="run the network-facing multi-tenant kernel server")
    p.add_argument("--root", required=True,
                   help="server state directory (per-tenant stores live "
                        "under <root>/tenants/<name>/store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8741,
                   help="bind port (0 picks an ephemeral port)")
    p.add_argument("--tokens", default=None,
                   help="JSON token file ({'tokens': {token: tenant}}); "
                        "omitted, auth is DISABLED (dev mode)")
    p.add_argument("--metrics-token", default=None,
                   help="scrape token for the all-tenants /metrics view "
                        "(with auth on, tenant tokens see only their own "
                        "series)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="per-tenant dispatcher micro-batch cap")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="dispatcher linger for stragglers")
    p.add_argument("--order", default=None, choices=list(VALID_ORDERS),
                   help="execution order for served requests")
    p.add_argument("--quota-requests", type=int, default=None,
                   help="per-tenant request cap per quota window")
    p.add_argument("--quota-bytes", type=int, default=None,
                   help="per-tenant request-body byte cap per window")
    p.add_argument("--quota-window", type=float, default=60.0,
                   help="sliding quota window, seconds")
    p.add_argument("--audit", default=None, metavar="PATH",
                   help="JSONL request-audit log "
                        "(default: <root>/audit.jsonl)")
    p.add_argument("--no-audit", action="store_true",
                   help="disable the request-audit log")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to wait for in-flight requests on "
                        "SIGTERM/SIGINT")
    p.set_defaults(fn=cmd_server)

    p = sub.add_parser(
        "client",
        help="talk to a running kernel server")
    p.add_argument("action",
                   choices=["compile", "matmul", "stats", "metrics"])
    p.add_argument("--url", required=True,
                   help="server base URL, e.g. http://127.0.0.1:8741")
    p.add_argument("--tenant", default=None,
                   help="tenant namespace (required except for metrics)")
    p.add_argument("--token", default=None, help="bearer token")
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--points", default=None,
                   help="compile: Table 1 dataset name or .npy point file")
    p.add_argument("--points-id", default=None,
                   help="endpoint name (compile: optional; matmul: "
                        "required)")
    p.add_argument("-n", type=int, default=None,
                   help="compile: point count for named datasets")
    p.add_argument("--w", default=None,
                   help="matmul: .npy right-hand matrix")
    p.add_argument("-q", type=int, default=16,
                   help="matmul: random W columns when --w is not given")
    p.add_argument("--chunk-cols", type=int, default=None,
                   help="matmul: stream W as column chunks of this width")
    p.add_argument("-o", "--output", default=None,
                   help="matmul: store Y as .npy")
    _add_inspector_args(p)
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser(
        "stats",
        help="offline PlanStore inventory (/metrics-style text or JSON)")
    p.add_argument("--store", required=True,
                   help="PlanStore directory to inventory (or a server "
                        "root with --tenant)")
    p.add_argument("--tenant", default=None,
                   help="scope to one tenant of a server root "
                        "(<store>/tenants/<tenant>/store)")
    p.add_argument("--json", action="store_true",
                   help="print the inventory as JSON instead of metrics "
                        "lines")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "gc",
        help="evict aged/skewed PlanStore artifacts, report reclaimed "
             "bytes")
    p.add_argument("--store", required=True, help="PlanStore directory")
    p.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                   help="evict artifacts (and run manifests) whose "
                        "manifest is older than this many seconds")
    p.add_argument("--keep-other-versions", action="store_true",
                   help="keep artifacts written by other store versions "
                        "(default: evict them)")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without removing it")
    p.set_defaults(fn=cmd_gc)

    p = sub.add_parser(
        "analyze",
        help="project static analysis: lint rules R001-R004, "
             "compiled write-set verification, "
             "concurrency certification (C001, happens-before, "
             "schedule exploration)")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src/repro)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any unwaived finding, lock-order "
                        "cycle, happens-before violation, schedule "
                        "failure, or rejected artifact")
    p.add_argument("--json", default=None,
                   help="write the machine-readable findings JSON here")
    p.add_argument("--artifact", default=None, metavar="NPZ",
                   help="verify a compiled artifact's write sets")
    p.add_argument("--threads", action="store_true",
                   help="build + certify the static lock-acquisition "
                        "graph (rule C001: acyclic)")
    p.add_argument("--lock-graph", default=None, metavar="JSON",
                   help="with --threads, write the canonical lock-graph "
                        "summary here (the golden-file shape)")
    p.add_argument("--sync-traces", default=None, metavar="DIR",
                   help="replay every sync trace (*.synctrace.json) in "
                        "DIR through the happens-before checker")
    p.add_argument("--deadlocks", action="store_true",
                   help="explore perturbed thread schedules over the "
                        "stock serving scenarios (DPOR-lite)")
    p.add_argument("--schedules", type=int, default=24, metavar="N",
                   help="perturbation runs per scenario for --deadlocks "
                        "(default: 24)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("info", help="summarise a stored HMatrix")
    p.add_argument("hmatrix")
    p.add_argument("--source", action="store_true",
                   help="print the generated evaluation code")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("datasets", help="list Table 1 / emit a dataset")
    p.add_argument("--emit", default=None, help="dataset name to generate")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_datasets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
