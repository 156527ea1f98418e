"""Deterministic fault injection: the chaos layer's control plane.

Chaos tests need to break the system at *named interleaving points*, not
with sleeps and luck (the dynamic-partial-order-reduction argument: the
failure schedule is part of the test's identity, so it must be
enumerable and replayable). A :class:`FaultPlan` names exactly which
fault fires where: ``corrupt_tier="p1"|"hmatrix"|"profile"|"compiled"``
flips the payload bytes of the next :class:`~repro.api.store.PlanStore`
load of that tier *between* its SHA-256 verification and its decode,
simulating an artifact rotting in the verify-to-decode window (the
TOCTOU case a plain on-disk tamper test cannot reach).

Each fault fires **once** (the plan records what fired in
:attr:`FaultPlan.fired`), so a recovery retry runs against a healthy
system by construction. Production code consults the process-global
plan through :func:`active_fault_plan`; with no plan installed (the
default, always, outside tests) the hook is a single ``None`` check.

This module imports nothing from the rest of the package so the hook
site (:mod:`repro.api.store`) can import it without cycles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FaultPlan",
    "active_fault_plan",
    "clear_fault_plan",
    "inject_faults",
    "install_fault_plan",
]


@dataclass
class FaultPlan:
    """One enumerated failure schedule (each fault fires at most once).

    Thread-safe: the dispatcher thread of a
    :class:`~repro.api.service.KernelService` and a test's main thread
    may consult the same plan.
    """

    corrupt_tier: str | None = None
    fired: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def take_corrupt(self, tier: str) -> bool:
        """True exactly once for the named store tier's next load."""
        with self._lock:
            if self.corrupt_tier != tier:
                return False
            self.corrupt_tier = None
            self.fired.append(f"corrupt:{tier}")
            return True


_active: FaultPlan | None = None
_install_lock = threading.Lock()


def active_fault_plan() -> FaultPlan | None:
    """The installed plan (None in production — the hooks' fast path)."""
    return _active


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-globally (tests only; see inject_faults)."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError(
                "a FaultPlan is already installed; chaos schedules must "
                "not overlap (clear_fault_plan() first)")
        _active = plan
    return plan


def clear_fault_plan() -> None:
    """Remove any installed plan (idempotent)."""
    global _active
    with _install_lock:
        _active = None


@contextmanager
def inject_faults(plan: FaultPlan):
    """``with inject_faults(FaultPlan(...)) as plan:`` — scoped install."""
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        clear_fault_plan()
