"""Vector-clock happens-before checker for recorded sync traces.

The repository's one trace checker: it proves the thread tier's locks
actually order every access to a ``# guarded-by:`` annotated attribute.
The input is a sync trace recorded by
:mod:`repro.observability.sync` — lock acquire/release, thread
fork/join, Condition wait cycles, Future set/result, queue put/get, and
``read``/``write`` events for the instrumented guarded attributes.

Replay is classic vector-clock happens-before (the Djit+ scheme: per
variable, the last access epoch of each thread per mode):

* each thread ``t`` owns a clock component; its events advance it;
* ``release(L)`` publishes the releaser's clock into ``L``'s clock
  (join-accumulated: a lock's clock is the union of every critical
  section that left it, which is exactly the mutual-exclusion order);
  ``acquire(L)`` joins it back — so critical sections on one lock are
  pairwise ordered no matter which threads ran them;
* ``fork``/``child`` and ``child_end``/``join`` edges order a thread
  against its creator and its joiner;
* ``fut_set``/``fut_get`` orders a Future's producer before every
  consumer; ``q_put``/``q_get`` conservatively orders all producers of a
  queue before each consumer (over-approximating the per-item edge —
  sound: extra edges can only *hide* races on other variables, never
  invent one, and the dispatcher protocol this certifies drains whole
  batches anyway);
* two accesses to the same ``(obj, attr)`` variable conflict when they
  come from different threads and at least one writes; they are a
  violation when neither happens-before the other.

An empty report certifies the execution: every guarded access really
was ordered by the synchronisation the annotation names.
:func:`seed_unordered_pair` doctors a clean trace by re-attributing one
write to a ghost thread no sync event ever orders — the mutation the
checker must flag, proving it is live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.counters import bump_analysis_counter

__all__ = [
    "HBViolation",
    "certify_sync_trace",
    "certify_sync_trace_dir",
    "certify_sync_trace_file",
    "seed_unordered_pair",
]

#: Accepted trace format (must match repro.observability.sync).
SYNC_TRACE_VERSION = 1


@dataclass(frozen=True)
class HBViolation:
    """Two unordered conflicting accesses to one guarded attribute."""

    attr: str
    guard: str
    thread_a: str
    mode_a: str
    seq_a: int
    thread_b: str
    mode_b: str
    seq_b: int

    def format(self) -> str:
        return (f"{self.attr} (guarded-by {self.guard}): "
                f"{self.thread_a} {self.mode_a} at seq {self.seq_a} and "
                f"{self.thread_b} {self.mode_b} at seq {self.seq_b} are "
                f"unordered (no happens-before path)")


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    for tid, clock in other.items():
        if clock > into.get(tid, 0):
            into[tid] = clock


def certify_sync_trace(trace: dict) -> list[HBViolation]:
    """Every happens-before violation in a sync trace (empty = certified).

    Increments the ``sync_certified``/``sync_flagged`` analysis counters
    so run manifests record what was proven.
    """
    if not isinstance(trace, dict) or \
            trace.get("sync_trace_version") != SYNC_TRACE_VERSION:
        raise ValueError(
            f"not a v{SYNC_TRACE_VERSION} sync trace: "
            f"{type(trace).__name__} with version "
            f"{trace.get('sync_trace_version') if isinstance(trace, dict) else None!r}")
    names = {int(k): v for k, v in trace.get("threads", {}).items()}

    clocks: dict[int, dict[int, int]] = {}       # thread -> vector clock
    lock_vc: dict[int, dict[int, int]] = {}      # lock obj -> published VC
    fut_vc: dict[int, dict[int, int]] = {}       # future obj -> setter VC
    queue_vc: dict[int, dict[int, int]] = {}     # queue obj -> producer VCs
    forks: dict[int, dict[int, int]] = {}        # token -> parent VC
    ends: dict[int, dict[int, int]] = {}         # token -> child-final VC
    # var -> thread -> (own clock at access, seq); split by mode.
    last_write: dict[tuple[int, str], dict[int, tuple[int, int]]] = {}
    last_read: dict[tuple[int, str], dict[int, tuple[int, int]]] = {}
    violations: list[HBViolation] = []
    flagged: set[tuple[int, str, int, int]] = set()

    def vc_of(tid: int) -> dict[int, int]:
        vc = clocks.get(tid)
        if vc is None:
            # Every thread starts with its own component at 1 so an
            # access epoch is never the always-ordered 0.
            vc = clocks[tid] = {tid: 1}
        return vc

    def tick(tid: int) -> None:
        vc = vc_of(tid)
        vc[tid] = vc.get(tid, 0) + 1

    def ordered(epoch: tuple[int, int], by: int, vc: dict[int, int]) -> bool:
        return epoch[0] <= vc.get(by, 0)

    def check(var: tuple[int, str], tid: int, mode: str, seq: int,
              guard: str) -> None:
        vc = vc_of(tid)
        against = [("write", last_write.get(var, {}))]
        if mode == "write":
            against.append(("read", last_read.get(var, {})))
        for other_mode, table in against:
            for other_tid, epoch in table.items():
                if other_tid == tid:
                    continue  # program order
                if ordered(epoch, other_tid, vc):
                    continue
                key = (var[0], var[1], other_tid, tid)
                if key in flagged:
                    continue  # one report per (var, thread-pair)
                flagged.add(key)
                violations.append(HBViolation(
                    attr=var[1], guard=guard,
                    thread_a=names.get(other_tid, str(other_tid)),
                    mode_a=other_mode, seq_a=epoch[1],
                    thread_b=names.get(tid, str(tid)),
                    mode_b=mode, seq_b=seq))
        table = last_write if mode == "write" else last_read
        table.setdefault(var, {})[tid] = (vc.get(tid, 1), seq)

    for ev in sorted(trace.get("events", ()), key=lambda e: e["seq"]):
        op, tid = ev["op"], int(ev["thread"])
        if op == "fork":
            forks[ev["token"]] = dict(vc_of(tid))
            tick(tid)
        elif op == "child":
            parent = forks.get(ev["token"])
            if parent:
                _join(vc_of(tid), parent)
            tick(tid)
        elif op == "child_end":
            ends[ev["token"]] = dict(vc_of(tid))
            tick(tid)
        elif op == "join":
            child = ends.get(ev["token"])
            if child:
                _join(vc_of(tid), child)
            tick(tid)
        elif op == "acquire":
            published = lock_vc.get(ev["obj"])
            if published:
                _join(vc_of(tid), published)
        elif op == "release":
            _join(lock_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "fut_set":
            _join(fut_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "fut_get":
            setter = fut_vc.get(ev["obj"])
            if setter:
                _join(vc_of(tid), setter)
        elif op == "q_put":
            _join(queue_vc.setdefault(ev["obj"], {}), vc_of(tid))
            tick(tid)
        elif op == "q_get":
            produced = queue_vc.get(ev["obj"])
            if produced:
                _join(vc_of(tid), produced)
        elif op in ("read", "write"):
            check((int(ev["obj"]), ev["name"]), tid, op, int(ev["seq"]),
                  ev.get("guard", "?"))
        # "notify" is informational: the edge rides the release after it.

    bump_analysis_counter(
        "sync_flagged" if violations else "sync_certified")
    return violations


def seed_unordered_pair(trace: dict) -> dict:
    """A doctored copy of a clean trace with one guaranteed-unordered
    conflicting write pair.

    Picks a guarded attribute with at least two accesses (one a write)
    and re-attributes the *last* access to a ghost thread that appears
    in no sync event — no fork, no lock, nothing orders it, so the
    checker must flag the pair. Raises ``ValueError`` when the trace has
    no guarded write to use as a victim.
    """
    doctored = json.loads(json.dumps(trace))
    events = doctored.get("events", [])
    by_var: dict[tuple[int, str], list[int]] = {}
    for idx, ev in enumerate(events):
        if ev["op"] in ("read", "write"):
            by_var.setdefault((int(ev["obj"]), ev["name"]), []).append(idx)
    for indices in by_var.values():
        if len(indices) < 2:
            continue
        if not any(events[i]["op"] == "write" for i in indices):
            continue
        victim = events[indices[-1]]
        # If every prior access is a read, the ghost must write; a ghost
        # write conflicts with reads and writes alike.
        victim["op"] = "write"
        victim["thread"] = 999999999
        doctored.setdefault("threads", {})["999999999"] = "ghost"
        return doctored
    raise ValueError(
        "trace has no guarded attribute with a write and a second "
        "access; record a workload that touches guarded state")


def certify_sync_trace_file(path) -> list[HBViolation]:
    """Load + certify one serialized sync trace."""
    from repro.observability.sync import load_sync_trace

    return certify_sync_trace(load_sync_trace(path))


def certify_sync_trace_dir(directory) -> dict[str, list[HBViolation]]:
    """Certify every ``*.synctrace.json`` under ``directory``.

    Raises ``FileNotFoundError`` when no traces are found: a replay gate
    pointed at an empty directory must fail loudly, not vacuously
    certify.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.synctrace.json"))
    if not paths:
        raise FileNotFoundError(f"no sync traces under {directory}")
    return {p.name: certify_sync_trace_file(p) for p in paths}
