"""Sync tracing: the recording half of the thread-tier concurrency
certifier (DESIGN.md §14).

The serving stack's thread tier — :class:`~repro.api.service.KernelService`'s
dispatcher Condition, :class:`~repro.api.store.PlanStore`'s RLock, the
compiled cache's double-checked locks, autotune's per-key locks, the net
server's per-connection threads — synchronises through a handful of
primitives. This module wraps those primitives so that, **under test**, a
process-global :class:`SyncTracer` records every synchronisation event
(lock acquire/release, thread fork/join, Condition wait, Future
set/result, queue put/get) plus every access to a ``# guarded-by:``
annotated attribute. :mod:`repro.analysis.happens_before` replays the
recorded trace through vector clocks and certifies that no two
conflicting guarded accesses were unordered — turning the declarative
``guarded-by`` annotations of the static layer into checked facts.

The production fast path stays free: the :func:`make_lock` /
:func:`make_rlock` / :func:`make_condition` factories hand back plain
:mod:`threading` primitives unless a tracer is installed at construction
time, so an untraced process pays nothing. A traced primitive that
outlives its tracer degrades to a cheap ``is None`` check per operation.

Like :mod:`repro.observability.faults`, installation is process-global
and test-scoped (``with sync_tracing("name") as tracer: ...``); the
schedule-exploration hooks (:attr:`SyncTracer.schedule_hook`) are what
:mod:`repro.analysis.explore` perturbs to drive inequivalent thread
interleavings through the same sync points.

Trace documents are JSON (:data:`SYNC_TRACE_VERSION`):

``{"sync_trace_version": 1, "name": ..., "threads": {ident: name},
"events": [{"seq", "op", "thread", ...}]}``

where ``op`` is one of ``acquire release fork child child_end join
notify fut_set fut_get q_put q_get read write``. ``read``/``write``
events carry the attribute's canonical ``name`` (``Class.attr``), the
owning instance ``obj`` id, the declared ``guard`` and the list of lock
names ``held`` by the accessing thread — diagnostics for the checker's
violation reports.
"""

from __future__ import annotations

import concurrent.futures as _futures
import inspect
import json
import os
import queue as _queue
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "SYNC_TRACE_VERSION",
    "SyncTracer",
    "TracedCondition",
    "TracedLock",
    "TracedRLock",
    "active_sync_tracer",
    "default_instrumented_classes",
    "guarded_attrs_of",
    "install_sync_tracer",
    "instrument_guarded",
    "load_sync_trace",
    "make_condition",
    "make_lock",
    "make_rlock",
    "save_sync_trace",
    "sync_tracing",
    "uninstall_sync_tracer",
]

#: Bump when the trace document layout changes incompatibly; the
#: happens-before checker refuses traces whose version it does not know.
SYNC_TRACE_VERSION = 1

#: Environment variable naming a directory where the test fixtures dump
#: recorded sync traces.
SYNC_TRACE_DIR_ENV = "MATROX_SYNC_TRACE_DIR"

_tracer: "SyncTracer | None" = None
_install_lock = threading.Lock()


def active_sync_tracer() -> "SyncTracer | None":
    """The installed tracer (None in production — the hooks' fast path)."""
    return _tracer


class SyncTracer:
    """Appends synchronisation events to an in-memory trace.

    Thread-safe: every traced primitive in the process funnels through
    :meth:`record`, which assigns a globally monotone ``seq`` under one
    internal (untraced) lock — so the trace's sequence order is
    consistent with the real execution order of the recorded points.
    """

    def __init__(self, name: str = "sync") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._seq = 0
        self._tokens = 0
        self._threads: dict[int, str] = {}
        self._held: dict[int, list[tuple[str, int]]] = {}
        #: Optional ``hook(point, thread_name)`` called *before* each
        #: traced blocking operation — the schedule explorer's sleep
        #: injection point. Must be fast and must not touch traced
        #: primitives.
        self.schedule_hook: Callable[[str, str], None] | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def next_token(self) -> int:
        """Fresh token tying a fork event to its child/join events."""
        with self._lock:
            self._tokens += 1
            return self._tokens

    def schedule_point(self, point: str) -> None:
        hook = self.schedule_hook
        if hook is not None:
            hook(point, threading.current_thread().name)

    def record(self, op: str, *, name: str | None = None,
               obj: int | None = None, token: int | None = None,
               guard: str | None = None) -> None:
        thread = threading.current_thread()
        ident = thread.ident or 0
        with self._lock:
            self._seq += 1
            ev: dict[str, Any] = {"seq": self._seq, "op": op,
                                  "thread": ident}
            self._threads.setdefault(ident, thread.name)
            if name is not None:
                ev["name"] = name
            if obj is not None:
                ev["obj"] = obj
            if token is not None:
                ev["token"] = token
            if guard is not None:
                ev["guard"] = guard
            if op == "acquire" and name is not None and obj is not None:
                self._held.setdefault(ident, []).append((name, obj))
            elif op == "release" and obj is not None:
                held = self._held.get(ident, [])
                for i in range(len(held) - 1, -1, -1):
                    if held[i][1] == obj:
                        del held[i]
                        break
            elif op in ("read", "write"):
                ev["held"] = [h[0] for h in self._held.get(ident, [])]
            self._events.append(ev)

    def thread_count(self) -> int:
        with self._lock:
            return len(self._threads)

    def to_doc(self) -> dict[str, Any]:
        """Snapshot the trace as a JSON-ready document."""
        with self._lock:
            return {
                "sync_trace_version": SYNC_TRACE_VERSION,
                "name": self.name,
                "threads": {str(k): v for k, v in self._threads.items()},
                "events": [dict(ev) for ev in self._events],
            }


# --------------------------------------------------------------------------
# Traced primitives + factories
# --------------------------------------------------------------------------

class TracedLock:
    """``threading.Lock`` recording acquire/release into the tracer."""

    __slots__ = ("_lock", "name")

    def __init__(self, name: str) -> None:
        self._lock = threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracer = _tracer
        if tracer is not None:
            tracer.schedule_point(f"acquire:{self.name}")
        got = self._lock.acquire(blocking, timeout)
        if got and tracer is not None:
            tracer.record("acquire", name=self.name, obj=id(self))
        return got

    def release(self) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.record("release", name=self.name, obj=id(self))
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class TracedRLock:
    """``threading.RLock`` recording only the *outermost* acquire and the
    *final* release — the replay layer never sees reentrancy."""

    __slots__ = ("_lock", "name", "_owner", "_count")

    def __init__(self, name: str) -> None:
        self._lock = threading.RLock()
        self.name = name
        self._owner: int | None = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracer = _tracer
        ident = threading.get_ident()
        outer = self._owner != ident
        if tracer is not None and outer:
            tracer.schedule_point(f"acquire:{self.name}")
        got = self._lock.acquire(blocking, timeout)
        if got:
            if self._owner == ident:
                self._count += 1
            else:
                # _owner/_count are only mutated by the holding thread.
                self._owner = ident
                self._count = 1
                if tracer is not None:
                    tracer.record("acquire", name=self.name, obj=id(self))
        return got

    def release(self) -> None:
        if self._owner == threading.get_ident() and self._count > 1:
            self._count -= 1
            self._lock.release()
            return
        tracer = _tracer
        if tracer is not None:
            tracer.record("release", name=self.name, obj=id(self))
        # Reset ownership *before* the real release: afterwards another
        # thread may already be inside its own acquire().
        self._owner = None
        self._count = 0
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class TracedCondition:
    """``threading.Condition`` whose lock traffic — including the
    release/reacquire pair hidden inside ``wait()`` — is recorded."""

    __slots__ = ("_cv", "name")

    def __init__(self, name: str) -> None:
        self._cv = threading.Condition()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracer = _tracer
        if tracer is not None:
            tracer.schedule_point(f"acquire:{self.name}")
        got = self._cv.acquire(blocking, timeout)
        if got and tracer is not None:
            tracer.record("acquire", name=self.name, obj=id(self))
        return got

    def release(self) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.record("release", name=self.name, obj=id(self))
        self._cv.release()

    def wait(self, timeout: float | None = None) -> bool:
        tracer = _tracer
        if tracer is not None:
            # wait() releases the lock: publish our clock first so the
            # notifier's acquire picks up the edge, then log the
            # reacquire on wakeup.
            tracer.record("release", name=self.name, obj=id(self))
        got = self._cv.wait(timeout)
        tracer = _tracer
        if tracer is not None:
            tracer.record("acquire", name=self.name, obj=id(self))
        return got

    def wait_for(self, predicate: Callable[[], Any],
                 timeout: float | None = None) -> Any:
        # Re-implemented over self.wait() so every hidden release/
        # reacquire cycle lands in the trace (stdlib delegates to its
        # own wait, which we could not observe).
        import time as _time
        endtime: float | None = None
        result = predicate()
        while not result:
            if timeout is not None:
                if endtime is None:
                    endtime = _time.monotonic() + timeout
                waittime = endtime - _time.monotonic()
                if waittime <= 0:
                    break
                self.wait(waittime)
            else:
                self.wait(None)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        tracer = _tracer
        if tracer is not None:
            # Informational only: the happens-before edge is carried by
            # the release that follows, not by notify itself.
            tracer.record("notify", name=self.name, obj=id(self._cv))
        self._cv.notify(n)

    def notify_all(self) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.record("notify", name=self.name, obj=id(self._cv))
        self._cv.notify_all()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


def make_lock(name: str) -> "threading.Lock | TracedLock":
    """A mutex named for the concurrency certifier.

    Plain ``threading.Lock`` unless a :class:`SyncTracer` is installed at
    construction time (i.e. always, outside tests): production pays
    nothing for the tracing capability.
    """
    if _tracer is not None:
        return TracedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | TracedRLock":
    if _tracer is not None:
        return TracedRLock(name)
    return threading.RLock()


def make_condition(name: str) -> "threading.Condition | TracedCondition":
    if _tracer is not None:
        return TracedCondition(name)
    return threading.Condition()


# --------------------------------------------------------------------------
# Thread / Future / Queue patching (installed with the tracer)
# --------------------------------------------------------------------------

_TOKEN_ATTR = "_matrox_sync_token"
_orig: dict[str, Any] = {}


def _patch() -> None:
    if _orig:
        return
    _orig["thread_start"] = threading.Thread.start
    _orig["thread_join"] = threading.Thread.join
    _orig["fut_set_result"] = _futures.Future.set_result
    _orig["fut_set_exception"] = _futures.Future.set_exception
    _orig["fut_result"] = _futures.Future.result
    _orig["q_put"] = _queue.Queue.put
    _orig["q_get"] = _queue.Queue.get

    def start(thread: threading.Thread) -> None:
        tracer = _tracer
        if tracer is not None:
            token = tracer.next_token()
            setattr(thread, _TOKEN_ATTR, token)
            tracer.record("fork", token=token)
            orig_run = thread.run

            def run() -> None:
                t = _tracer
                if t is tracer:
                    t.record("child", token=token)
                try:
                    orig_run()
                finally:
                    t = _tracer
                    if t is tracer:
                        t.record("child_end", token=token)

            thread.run = run  # type: ignore[method-assign]
        _orig["thread_start"](thread)

    def join(thread: threading.Thread,
             timeout: float | None = None) -> None:
        _orig["thread_join"](thread, timeout)
        tracer = _tracer
        token = getattr(thread, _TOKEN_ATTR, None)
        if tracer is not None and token is not None \
                and not thread.is_alive():
            tracer.record("join", token=token)

    def set_result(fut: Any, result: Any) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.record("fut_set", obj=id(fut))
        _orig["fut_set_result"](fut, result)

    def set_exception(fut: Any, exc: Any) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.record("fut_set", obj=id(fut))
        _orig["fut_set_exception"](fut, exc)

    def result(fut: Any, timeout: float | None = None) -> Any:
        try:
            return _orig["fut_result"](fut, timeout)
        finally:
            tracer = _tracer
            if tracer is not None and fut.done():
                tracer.record("fut_get", obj=id(fut))

    def put(q: Any, item: Any, block: bool = True,
            timeout: float | None = None) -> None:
        tracer = _tracer
        if tracer is not None:
            tracer.schedule_point("q_put")
            tracer.record("q_put", obj=id(q))
        _orig["q_put"](q, item, block, timeout)

    def get(q: Any, block: bool = True,
            timeout: float | None = None) -> Any:
        item = _orig["q_get"](q, block, timeout)
        tracer = _tracer
        if tracer is not None:
            tracer.record("q_get", obj=id(q))
        return item

    threading.Thread.start = start  # type: ignore[method-assign]
    threading.Thread.join = join  # type: ignore[method-assign]
    _futures.Future.set_result = set_result  # type: ignore[method-assign]
    _futures.Future.set_exception = set_exception  # type: ignore[method-assign]
    _futures.Future.result = result  # type: ignore[method-assign]
    _queue.Queue.put = put  # type: ignore[method-assign]
    _queue.Queue.get = get  # type: ignore[method-assign]


def _unpatch() -> None:
    if not _orig:
        return
    threading.Thread.start = _orig.pop("thread_start")
    threading.Thread.join = _orig.pop("thread_join")
    _futures.Future.set_result = _orig.pop("fut_set_result")
    _futures.Future.set_exception = _orig.pop("fut_set_exception")
    _futures.Future.result = _orig.pop("fut_result")
    _queue.Queue.put = _orig.pop("q_put")
    _queue.Queue.get = _orig.pop("q_get")
    _orig.clear()


def install_sync_tracer(tracer: SyncTracer) -> SyncTracer:
    """Install ``tracer`` process-globally (tests only; see sync_tracing)."""
    global _tracer
    with _install_lock:
        if _tracer is not None:
            raise RuntimeError(
                "a SyncTracer is already installed; recorded schedules "
                "must not overlap (uninstall_sync_tracer() first)")
        _patch()
        _tracer = tracer
    return tracer


def uninstall_sync_tracer() -> None:
    """Remove any installed tracer and undo the patches (idempotent)."""
    global _tracer
    with _install_lock:
        _tracer = None
        _unpatch()


@contextmanager
def sync_tracing(name: str = "sync") -> Iterator[SyncTracer]:
    """``with sync_tracing("scenario") as tracer:`` — scoped install."""
    tracer = SyncTracer(name)
    install_sync_tracer(tracer)
    try:
        yield tracer
    finally:
        uninstall_sync_tracer()


# --------------------------------------------------------------------------
# Guarded-attribute instrumentation
# --------------------------------------------------------------------------

# Same comment convention as repro.analysis.lint's guarded registry
# (kept textually in sync; lint owns the static side, this regex feeds
# the dynamic side and must not import the analysis layer — the
# observability package stays dependency-light).
_GUARDED_BY_RE = re.compile(
    r"self\.(?P<attr>\w+)\s*(?::[^=]+)?=.*"
    r"#\s*guarded-by:\s*(?P<lock>[\w.\[\]'\"]+)")

_MISSING = object()


def guarded_attrs_of(cls: type) -> dict[str, str]:
    """``{attr: lock}`` for every ``# guarded-by:`` line in the class."""
    try:
        src = inspect.getsource(cls)
    except (OSError, TypeError):
        return {}
    return {m.group("attr"): m.group("lock")
            for m in _GUARDED_BY_RE.finditer(src)}


def instrument_guarded(cls: type,
                       attrs: dict[str, str] | None = None,
                       ) -> Callable[[], None]:
    """Replace ``cls``'s ``# guarded-by:`` attributes with recording
    properties; returns a zero-argument undo callable.

    Works for plain classes (values live in the instance ``__dict__``
    under the real attribute name, so pre-existing instances keep their
    state) and for ``__slots__`` classes (the saved member descriptor
    does the storage). Each read/write lands in the active tracer as a
    ``read``/``write`` event keyed ``ClassName.attr``.
    """
    if attrs is None:
        attrs = guarded_attrs_of(cls)
    saved: dict[str, Any] = {}
    cname = cls.__name__
    for attr, guard in sorted(attrs.items()):
        prior = inspect.getattr_static(cls, attr, _MISSING)
        slot = prior if hasattr(prior, "__set__") \
            and hasattr(prior, "__get__") and prior is not _MISSING else None

        def fget(obj: Any, *, _a: str = attr, _s: Any = slot,
                 _g: str = guard, _n: str = f"{cname}.{attr}") -> Any:
            tracer = _tracer
            if tracer is not None:
                tracer.record("read", name=_n, obj=id(obj), guard=_g)
            if _s is not None:
                return _s.__get__(obj, type(obj))
            try:
                return obj.__dict__[_a]
            except KeyError:
                raise AttributeError(_a) from None

        def fset(obj: Any, value: Any, *, _a: str = attr, _s: Any = slot,
                 _g: str = guard, _n: str = f"{cname}.{attr}") -> None:
            tracer = _tracer
            if tracer is not None:
                tracer.record("write", name=_n, obj=id(obj), guard=_g)
            if _s is not None:
                _s.__set__(obj, value)
            else:
                obj.__dict__[_a] = value

        saved[attr] = prior
        setattr(cls, attr, property(fget, fset))

    def undo() -> None:
        for attr, prior in saved.items():
            if prior is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, prior)

    return undo


def default_instrumented_classes() -> list[type]:
    """The thread-tier classes whose guarded attributes the recording
    fixtures instrument (everything with cross-thread guarded state)."""
    from repro.api.service import KernelService
    from repro.api.store import PlanStore
    from repro.codegen import compiled as _compiled
    from repro.net.server import AuditLog, KernelServer
    from repro.net.tenants import Tenant

    return [KernelService, PlanStore, Tenant, KernelServer, AuditLog,
            _compiled.CompiledCache, _compiled._Runtime]


# --------------------------------------------------------------------------
# Trace I/O
# --------------------------------------------------------------------------

def save_sync_trace(doc: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)
    return path


def load_sync_trace(path: str | Path) -> dict[str, Any]:
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("sync_trace_version")
    if version != SYNC_TRACE_VERSION:
        raise ValueError(
            f"unsupported sync trace version {version!r} in {path} "
            f"(expected {SYNC_TRACE_VERSION})")
    return doc


_dump_counter = 0
_dump_lock = threading.Lock()


def maybe_dump_sync_trace(tracer: SyncTracer,
                          directory: str | Path | None = None) -> Path | None:
    """Dump ``tracer`` to the :data:`SYNC_TRACE_DIR_ENV` directory (or
    ``directory``) when the trace actually exercised concurrency —
    at least two threads recorded — else return None."""
    global _dump_counter
    if directory is None:
        directory = os.environ.get(SYNC_TRACE_DIR_ENV)
    if not directory:
        return None
    if tracer.thread_count() < 2:
        return None
    with _dump_lock:
        _dump_counter += 1
        n = _dump_counter
    stem = re.sub(r"[^\w.-]+", "_", tracer.name).strip("_") or "trace"
    return save_sync_trace(tracer.to_doc(),
                           Path(directory) / f"{stem}.{n}.synctrace.json")
