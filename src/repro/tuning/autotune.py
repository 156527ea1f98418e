"""Profile-guided policy autotuning: ``tune()`` and the :class:`Autotuner`.

The inspector already spends its 8.1% on structure analysis and codegen
so the executor can pick the right lowering; this module closes the same
loop one level up, over the *execution policy*. No single fixed
order/backend/thread/worker/q_chunk setting wins everywhere (the Fig. 5
and Fig. 7 sweeps), so ``ExecutionPolicy(order="auto")`` defers the
choice to a measured, persisted :class:`~repro.tuning.TuningProfile`:

1. **Seed analytically.** Candidates come from the policy grid filtered
   by the host (no thread/process candidates on 1 CPU, no process pool
   below its amortization floor) and are ranked by the
   :mod:`repro.metrics.costmodel` executor prior. A problem below the
   measurement floor (``EXECUTOR_TRIVIAL_FLOPS``) takes the analytic
   winner directly — zero trials, ``source="prior"``.
2. **Measure short trials.** Everything else runs warmup + ``reps``
   timed passes per candidate over a representative trial panel
   (min-of-reps; persistent pools are set up *before* the clock starts,
   matching how an :class:`~repro.core.executor.Executor` amortizes
   them). The winner is recorded with its measured margin.
3. **Persist + warm-start.** With a :class:`~repro.api.store.PlanStore`
   attached, profiles are written next to plan artifacts (same
   atomic-write/verify-on-read path, tier ``"profile"``) and a fresh
   process resolves ``order="auto"`` with **zero re-tunes** — the
   counters in :attr:`Autotuner.stats` prove it.

Re-tune triggers are exactly the profile-key axes: a different operator
(HMatrix fingerprint), an RHS batch drifting into another width bucket
(the :class:`~repro.api.service.KernelService` dispatcher case), a
different host signature, or different pinned knobs.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.policy import (
    DEFAULT_POLICY,
    DEFAULT_Q_CHUNK,
    ExecutionPolicy,
    coalesce_policy,
)
from repro.metrics.costmodel import (
    EXECUTOR_TRIVIAL_FLOPS,
    PROCESS_BACKEND_MIN_FLOPS,
    executor_policy_priors,
)
from repro.observability.sync import make_lock, make_rlock
from repro.tuning.profile import (
    TuningProfile,
    hmatrix_fingerprint,
    host_signature,
    policy_from_knobs,
    policy_knobs,
    policy_pins,
    width_bucket,
)

if TYPE_CHECKING:  # annotation-only: avoids an api->tuning import cycle
    from repro.api.store import PlanStore

__all__ = ["AutotuneBackend", "Autotuner", "AutotuneStats",
           "autotune_backends", "default_autotuner",
           "register_autotune_backend", "reset_default_autotuner",
           "resolve_auto", "tune"]

#: Trial panels are capped here: past ~2x the default streaming chunk,
#: wider trials add wall time without changing any candidate's ranking
#: (per-column cost is flat), and this width still *discriminates* the
#: q_chunk candidate (one pass vs two) for the buckets that get one.
TRIAL_COLS_CAP = 512


# --------------------------------------------------------------------------
# Candidate backends: one registry, enumerated by order="auto",
# `repro tune`, and stats()["autotune"] alike.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AutotuneBackend:
    """One self-describing autotune candidate source.

    ``available(ctx)`` is the capability probe; ``candidates(ctx)``
    yields policy knob dicts (:func:`~repro.tuning.profile.policy_knobs`
    keys). The ``ctx`` dict carries the tuning context: ``host``,
    ``cpus``, ``q``, ``bucket``, ``flops``, ``trial_chunk`` (the widest
    chunk a trial panel can discriminate), and ``has_batched`` (whether
    batch lowering was accepted for the operator).
    """

    name: str
    available: Callable[[dict], bool]
    candidates: Callable[[dict], list]

    def __post_init__(self):
        if not self.name.isidentifier():
            raise ValueError(f"backend name {self.name!r} must be an "
                             f"identifier")


_BACKEND_REGISTRY: dict[str, AutotuneBackend] = {}


def register_autotune_backend(backend: AutotuneBackend) -> AutotuneBackend:
    """Register (or replace) a candidate backend by name."""
    if not isinstance(backend, AutotuneBackend):
        raise TypeError(f"expected AutotuneBackend, got "
                        f"{type(backend).__name__}")
    _BACKEND_REGISTRY[backend.name] = backend
    return backend


def autotune_backends() -> tuple[AutotuneBackend, ...]:
    """Every registered backend, registration-ordered."""
    return tuple(_BACKEND_REGISTRY.values())


def _batched_candidates(ctx: dict) -> list:
    out = [{"order": "batched"}]
    # One streaming pass instead of several: worth trying once the
    # bucket outgrows the generated default panel width. The chunk is
    # capped at the *trial* width so the candidate is only offered when
    # the trial actually discriminates it — a candidate whose trial run
    # is byte-for-byte the default's would make the "measured" winner
    # pure timing noise.
    if ctx["trial_chunk"] > DEFAULT_Q_CHUNK:
        out.append({"order": "batched", "q_chunk": ctx["trial_chunk"]})
    return out


def _original_candidates(ctx: dict) -> list:
    out = [{"order": "original"}]
    if ctx["cpus"] > 1:
        out.append({"order": "original", "num_threads": ctx["cpus"]})
    return out


register_autotune_backend(AutotuneBackend(
    name="batched", available=lambda ctx: True,
    candidates=_batched_candidates))
register_autotune_backend(AutotuneBackend(
    name="original", available=lambda ctx: True,
    candidates=_original_candidates))
register_autotune_backend(AutotuneBackend(
    name="process",
    available=lambda ctx: (ctx["cpus"] > 1
                           and ctx["flops"] >= PROCESS_BACKEND_MIN_FLOPS),
    candidates=lambda ctx: [{"order": "batched", "backend": "process",
                             "num_workers": ctx["cpus"]}]))


def _fingerprint_drop(tuner_ref, key) -> None:
    """weakref.finalize callback: an HMatrix died — drop its memoized
    fingerprint so a CPython-recycled id can never serve a stale one.
    Module-level so the finalizer never keeps the tuner alive."""
    tuner = tuner_ref()
    if tuner is not None:
        with tuner._lock:
            tuner._fingerprints.pop(key, None)


@dataclass
class AutotuneStats:
    """Counters proving where auto policies were resolved from."""

    tunes: int = 0            # full tuning runs (measured or prior)
    trials: int = 0           # individual timed candidate measurements
    memory_hits: int = 0      # profile served from this tuner's memory
    store_hits: int = 0       # profile warm-started from the PlanStore
    prior_shortcuts: int = 0  # tunes that skipped measurement entirely

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Autotuner:
    """Measures, records, and replays winning execution policies.

    Parameters
    ----------
    store:
        Optional :class:`~repro.api.store.PlanStore`; profiles persist
        in its ``"profile"`` tier and warm-start later processes.
    reps:
        Timed repetitions per candidate (min-of-reps is recorded).
    trial_cols:
        Columns in the trial panel; ``None`` uses the width bucket
        capped at :data:`TRIAL_COLS_CAP` (wide buckets are
        representative well before their full width; the q_chunk
        candidate is capped to the same width so trials discriminate
        it).
    min_measured_flops:
        Evaluation-flop floor below which the analytic prior answers
        directly (``source="prior"``, zero trials).

    Thread-safe: one coarse lock guards the profile map and counters
    (profiles are tuned once and then read), so a
    :class:`~repro.api.service.KernelService` dispatcher and caller
    threads may share one tuner.
    """

    def __init__(self, store: PlanStore | None = None, *, reps: int = 2,
                 trial_cols: int | None = None,
                 min_measured_flops: float = EXECUTOR_TRIVIAL_FLOPS,
                 host: dict | None = None):
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        self.store = store
        self.reps = int(reps)
        self.trial_cols = trial_cols
        self.min_measured_flops = float(min_measured_flops)
        self.host = dict(host) if host is not None else host_signature()
        self.stats = AutotuneStats()
        self._profiles: dict[tuple, TuningProfile] = {}
        self._fingerprints: dict[int, str] = {}
        self._lock = make_rlock("Autotuner._lock")
        # Per-profile-key mutexes: concurrent first resolutions of the
        # same key must not each run the full measured trial grid.
        self._key_locks: dict[tuple, threading.Lock] = {}

    # ------------------------------------------------------------ resolution
    def resolve(self, H, q: int,
                policy: ExecutionPolicy | None = None) -> ExecutionPolicy:
        """A concrete policy for ``H`` at RHS width ``q``.

        A non-auto ``policy`` passes through untouched; ``order="auto"``
        resolves via :meth:`profile_for` (memory -> store -> tune).
        """
        pol = coalesce_policy(policy, DEFAULT_POLICY)
        if not pol.is_auto:
            return pol
        return self.profile_for(H, q, pol).best_policy()

    def profile_for(self, H, q: int,
                    policy: ExecutionPolicy | None = None) -> TuningProfile:
        """The profile governing ``(H, q)``, tuning only on a cold miss.

        A cold miss holds a per-key mutex through the store lookup and
        the tuning run, so concurrent first resolutions of one key tune
        exactly once — latecomers block, then hit the fresh profile.
        """
        pol = coalesce_policy(policy, DEFAULT_POLICY)
        pins = policy_pins(pol)
        key = TuningProfile.make_key(self._fingerprint(H), width_bucket(q),
                                     self.host, pins)
        with self._lock:
            prof = self._profiles.get(key)
            if prof is not None:
                self.stats.memory_hits += 1
                return prof
            key_lock = self._key_locks.setdefault(
                key, make_lock("Autotuner._key_locks[*]"))
        with key_lock:
            with self._lock:
                prof = self._profiles.get(key)
                if prof is not None:      # a concurrent tuner beat us
                    self.stats.memory_hits += 1
                    return prof
            prof = self._stored_profile(key)
            if prof is not None:
                with self._lock:
                    self.stats.store_hits += 1
                    self._profiles[key] = prof
                return prof
            return self.tune(H, q, pol)

    def _stored_profile(self, key: tuple) -> TuningProfile | None:
        if self.store is None:
            return None
        doc = self.store.get("profile", key)
        if doc is None:
            return None
        try:
            return TuningProfile.from_dict(doc)
        except ValueError:
            # Version skew or malformed content: a profile is performance
            # metadata, so degrade to one extra tuning run, never an error.
            return None

    def _fingerprint(self, H) -> str:
        # Per-object memo, weakref-guarded like every id()-keyed cache
        # in this codebase: the finalizer drops the entry when H is
        # collected, so a CPython-recycled id can never serve a stale
        # fingerprint (which would replay — and persist — another
        # matrix's profile under the wrong key).
        key = id(H)
        with self._lock:
            fp = self._fingerprints.get(key)
        if fp is None:
            fp = hmatrix_fingerprint(H)
            with self._lock:
                self._fingerprints[key] = fp
                while len(self._fingerprints) > 64:
                    self._fingerprints.pop(next(iter(self._fingerprints)))
            # HMatrix is weakref-able, so TypeError never fires today.
            with contextlib.suppress(TypeError):  # pragma: no cover
                weakref.finalize(H, _fingerprint_drop, weakref.ref(self),
                                 key)
        return fp

    # ----------------------------------------------------------- candidates
    def candidate_policies(self, H, q: int,
                           pins: dict | None = None) -> list[dict]:
        """The policy grid for ``(H, q)`` as knob dicts, pins applied.

        The grid is the union of every registered
        :class:`AutotuneBackend` whose probe passes — one source of
        truth shared with ``repro tune`` and ``stats()["autotune"]``.
        Only result-preserving policies are eligible: ``order="tree"``
        changes the meaning of W's row order, so auto never selects it.
        """
        pins = dict(pins or {})
        ctx = self._backend_ctx(H, q)
        grid: list[dict] = []
        for backend in autotune_backends():
            try:
                if not backend.available(ctx):
                    continue
                grid.extend(dict(knobs) for knobs in backend.candidates(ctx))
            except Exception:  # noqa: BLE001 - a broken probe is a no-op,
                continue       # not a tuning failure
        out, seen = [], set()
        for knobs in grid:
            merged = {**knobs, **pins}
            if (merged.get("backend") == "process"
                    and merged.get("order") == "original"):
                continue  # "original" names the in-process per-block code
            frozen = tuple(sorted(merged.items()))
            if frozen in seen:
                continue
            seen.add(frozen)
            policy_from_knobs(merged)  # validates the combination
            out.append(merged)
        return out

    def _backend_ctx(self, H, q: int) -> dict:
        """The probe/candidate context handed to every backend."""
        bucket = width_bucket(q)
        decision = getattr(H.evaluator, "decision", None)
        return {
            "host": dict(self.host),
            "cpus": int(self.host.get("cpus", 1)),
            "q": int(q),
            "bucket": bucket,
            "flops": float(H.evaluation_flops(bucket)),
            "trial_chunk": min(bucket, self._trial_width(bucket)),
            "has_batched": bool(getattr(decision, "batch", False)),
        }

    # ------------------------------------------------------------ measuring
    def tune(self, H, q: int, policy: ExecutionPolicy | None = None,
             force: bool = False) -> TuningProfile:
        """Run one tuning pass for ``(H, q)`` and record the profile.

        ``force=True`` re-tunes even when a profile already exists
        (the CLI's explicit re-tune path); otherwise an existing profile
        for the same key is simply replaced by the fresh result.
        """
        pol = coalesce_policy(policy, DEFAULT_POLICY)
        pins = policy_pins(pol)
        bucket = width_bucket(q)
        cpus = int(self.host.get("cpus", 1))
        flops = float(H.evaluation_flops(bucket))
        candidates = self.candidate_policies(H, q, pins)

        ranked = executor_policy_priors(candidates, flops, bucket, cpus)
        if flops < self.min_measured_flops and not force:
            scored = [
                {"policy": knobs, "seconds": seconds, "measured": False}
                for knobs, seconds in ranked
            ]
            trials = 0
            with self._lock:
                self.stats.prior_shortcuts += 1
        else:
            W = self._trial_panel(H, bucket)
            scored = []
            for knobs, _prior in ranked:
                seconds = self._measure(H, policy_from_knobs(knobs), W)
                scored.append({"policy": knobs, "seconds": seconds,
                               "measured": True})
            scored.sort(key=lambda c: c["seconds"])
            trials = len(scored) * self.reps
            with self._lock:
                self.stats.trials += trials

        winner = scored[0]
        margin = (scored[1]["seconds"] / winner["seconds"]
                  if len(scored) > 1 and winner["seconds"] > 0 else 1.0)
        prof = TuningProfile(
            hmatrix_fp=self._fingerprint(H),
            width_bucket=bucket,
            host=dict(self.host),
            pins=pins,
            policy=dict(winner["policy"]),
            candidates=scored,
            source="measured" if trials else "prior",
            margin=float(margin),
            trials=trials,
        )
        with self._lock:
            self.stats.tunes += 1
            self._profiles[prof.key] = prof
        if self.store is not None:
            self.store.put("profile", prof.key, prof)
        return prof

    def _trial_width(self, bucket: int) -> int:
        cols = (self.trial_cols if self.trial_cols is not None
                else min(bucket, TRIAL_COLS_CAP))
        return max(1, int(cols))

    def _trial_panel(self, H, bucket: int) -> np.ndarray:
        rng = np.random.default_rng(0xA0701)
        return rng.random((H.dim, self._trial_width(bucket)))

    def _measure(self, H, pol: ExecutionPolicy, W: np.ndarray) -> float:
        """Min-of-reps seconds for one candidate, pools pre-warmed.

        Persistent pools (threads, worker processes) are constructed and
        warmed before timing starts: an Executor/Session amortizes them
        across requests, so steady-state per-call time is the quantity a
        profile must record.
        """
        clock = time.perf_counter

        def timed(call) -> float:
            call()  # warmup (first-touch, lazy compiles, pool spin-up)
            best = float("inf")
            for _ in range(self.reps):
                t0 = clock()
                call()
                best = min(best, clock() - t0)
            return best

        if pol.backend == "process" and pol.order != "original":
            from repro.core.parallel import ProcessEngine
            with ProcessEngine(H, num_workers=pol.num_workers,
                               q_chunk=pol.q_chunk) as engine:
                return timed(lambda: engine.matmul(W, order=pol.order))
        if pol.num_threads and pol.num_threads > 1:
            with ThreadPoolExecutor(max_workers=pol.num_threads) as pool:
                return timed(lambda: H.matmul(
                    W, pool=pool, order=pol.order, q_chunk=pol.q_chunk))
        return timed(lambda: H.matmul(W, order=pol.order,
                                      q_chunk=pol.q_chunk))

    # ------------------------------------------------------------- reporting
    def profiles(self) -> list[TuningProfile]:
        with self._lock:
            return list(self._profiles.values())

    def stats_dict(self) -> dict:
        with self._lock:
            return {**self.stats.as_dict(),
                    "profiles": len(self._profiles),
                    "backends": [b.name for b in autotune_backends()]}


# --------------------------------------------------------------------------
# Module-level convenience layer.
# --------------------------------------------------------------------------

def tune(H, q: int = 16, store: PlanStore | None = None, *, reps: int = 2,
         policy: ExecutionPolicy | None = None,
         trial_cols: int | None = None) -> TuningProfile:
    """One-shot tuning: measure the policy grid for ``H`` at width ``q``.

    Convenience wrapper constructing a throwaway :class:`Autotuner`;
    pass ``store`` (a :class:`~repro.api.store.PlanStore` or a Session's
    store) to persist the profile for later ``order="auto"`` runs.
    """
    tuner = Autotuner(store=store, reps=reps, trial_cols=trial_cols)
    base = coalesce_policy(policy, ExecutionPolicy(order="auto"))
    return tuner.tune(H, q, base)


_default_tuner: Autotuner | None = None
_default_lock = threading.Lock()


def default_autotuner() -> Autotuner:
    """The process-global tuner behind bare ``order="auto"`` calls.

    Free functions and :meth:`HMatrix.matmul` have no Executor to carry
    a tuner, so they share this one (memory-only; an Executor or Session
    with a PlanStore owns its own persistent tuner instead).
    """
    global _default_tuner
    with _default_lock:
        if _default_tuner is None:
            _default_tuner = Autotuner()
        return _default_tuner


def reset_default_autotuner() -> None:
    """Drop the process-global tuner (test isolation)."""
    global _default_tuner
    with _default_lock:
        _default_tuner = None


def resolve_auto(H, W, policy: ExecutionPolicy | None = None,
                 tuner: Autotuner | None = None) -> ExecutionPolicy:
    """Resolve ``order="auto"`` against a W panel (or integer width)."""
    q = (int(W) if np.isscalar(W)
         else W.shape[1] if getattr(W, "ndim", 1) == 2 else 1)
    tuner = tuner if tuner is not None else default_autotuner()
    return tuner.resolve(H, q, policy)
