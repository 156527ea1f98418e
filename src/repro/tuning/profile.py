"""Tuning-profile format: keys, host signature, and the profile record.

A :class:`TuningProfile` is the persisted outcome of one autotuning run
(see :mod:`repro.tuning.autotune`): *for this operator, at this RHS
width, on this host (under these pinned knobs), this execution policy
won, by this margin*. Profiles are keyed by

* the **HMatrix fingerprint** — a structural + content digest of the
  compiled operator (dimension, structure sets, lowering decision, CRCs
  of the CDS buffers), so a profile never leaks across operators that
  merely share a Python object id;
* the **RHS-width bucket** — the power-of-two ceiling of the number of
  right-hand-side columns, the quantity the Fig. 5/Fig. 7 sweeps show
  actually moves the optimum (a served batch drifting into a different
  bucket is what triggers a re-tune);
* the **host signature** — effective CPU count (affinity/cgroup-aware),
  BLAS vendor, and machine architecture: the axes along which a
  measured winner stops being transferable;
* any **pinned knobs** — knobs set explicitly alongside
  ``order="auto"`` constrain the candidate grid, so a constrained
  profile must never answer an unconstrained query (or vice versa).

Profiles travel as plain JSON-able dicts through the
:class:`~repro.api.store.PlanStore` ``"profile"`` tier
(``store.put("profile", key, profile)`` / ``store.get("profile", key)``:
the same atomic-write + SHA-256-manifest path as plan artifacts; see
DESIGN.md section 9).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.api.policy import DEFAULT_POLICY, ExecutionPolicy
from repro.host import host_key

__all__ = [
    "PROFILE_FORMAT_VERSION",
    "TuningProfile",
    "hmatrix_fingerprint",
    "policy_from_knobs",
    "policy_knobs",
    "width_bucket",
]

#: Schema version of the profile dict (bump on incompatible change; a
#: mismatched stored profile is discarded and re-tuned, never mis-read).
#: Version 2 dropped the knobs of the removed process backend.
PROFILE_FORMAT_VERSION = 2

#: The ExecutionPolicy fields a profile records / a winner sets.
POLICY_KNOBS = ("order", "num_threads", "q_chunk")

#: Width buckets are capped here: beyond this, evaluation time scales
#: linearly in Q and the per-column policy optimum no longer moves.
MAX_WIDTH_BUCKET = 4096


def width_bucket(q: int) -> int:
    """Power-of-two ceiling of a RHS column count (1 .. MAX_WIDTH_BUCKET)."""
    q = max(1, int(q))
    bucket = 1
    while bucket < q and bucket < MAX_WIDTH_BUCKET:
        bucket *= 2
    return bucket


def policy_knobs(policy: ExecutionPolicy) -> dict:
    """The JSON-able knob dict of a policy (the profile wire format)."""
    return {name: getattr(policy, name) for name in POLICY_KNOBS}


def policy_from_knobs(knobs: dict) -> ExecutionPolicy:
    """Rebuild an :class:`ExecutionPolicy` from :func:`policy_knobs` output."""
    unknown = sorted(set(knobs) - set(POLICY_KNOBS))
    if unknown:
        raise ValueError(f"unknown policy knob(s) {unknown}")
    return ExecutionPolicy(**{k: knobs[k] for k in POLICY_KNOBS
                              if k in knobs})


def hmatrix_fingerprint(H) -> str:
    """Structural + content digest of a compiled HMatrix.

    Derived from the object's *content* (dimension, structure, lowering
    decision, CRC-32 of the sranks and the three CDS buffers), not its
    Python identity, so it is stable across save/load round trips and
    across processes — the property the profile store needs. CRC-32 over
    the packed buffers is O(bytes) at memory speed; an HMatrix is
    fingerprinted once per Executor lifetime, not per request.
    """
    cds = H.cds
    decision = H.evaluator.decision
    parts = [
        f"n={H.dim}",
        f"structure={H.factors.htree.structure}",
        f"height={H.tree.height}",
        f"leaves={len(H.tree.leaves)}",
        f"near={H.factors.htree.num_near()}",
        f"far={H.factors.htree.num_far()}",
        f"decision={decision.block_near:d}{decision.block_far:d}"
        f"{decision.coarsen:d}{decision.peel_root:d}{decision.batch:d}",
        f"sranks={zlib.crc32(np.ascontiguousarray(H.sranks)):08x}",
    ]
    for name in ("basis_buf", "near_buf", "far_buf"):
        # CRC straight over the array's buffer: no bytes copy first.
        buf = np.ascontiguousarray(getattr(cds, name))
        parts.append(f"{name}={len(buf)}:{zlib.crc32(buf):08x}")
    for k in sorted(H.metadata):
        v = H.metadata[k]
        if isinstance(v, (str, int, float, bool)):
            parts.append(f"meta.{k}={v!r}")
    blob = ";".join(parts).encode()
    return format(zlib.crc32(blob), "08x") + format(zlib.adler32(blob), "08x")


def policy_pins(policy: ExecutionPolicy) -> dict:
    """Knobs explicitly constrained alongside ``order="auto"``.

    Any non-order knob that differs from :data:`DEFAULT_POLICY` is
    treated as a user constraint the tuner must honor (an immutable
    frozen dataclass cannot distinguish "explicitly passed the default"
    from "defaulted", so the default values themselves are never pins).
    """
    return {
        name: getattr(policy, name)
        for name in POLICY_KNOBS
        if name != "order"
        and getattr(policy, name) != getattr(DEFAULT_POLICY, name)
    }


@dataclass
class TuningProfile:
    """One autotuning outcome: the winning policy and how it was chosen.

    ``source`` records whether the winner was *measured* (timed trials)
    or taken straight from the cost-model *prior* (problems below the
    measurement floor, where trial noise exceeds any policy delta).
    ``margin`` is runner-up seconds over winner seconds (>= 1.0): how
    decisively the winner won. ``candidates`` keeps every considered
    policy with its seconds (measured or predicted), so benchmarks and
    the CLI can show the whole ranking, not just the pick.
    """

    hmatrix_fp: str
    width_bucket: int
    host: dict
    policy: dict
    candidates: list = field(default_factory=list)
    pins: dict = field(default_factory=dict)
    source: str = "measured"
    margin: float = 1.0
    trials: int = 0
    version: int = PROFILE_FORMAT_VERSION
    # analysis: waive R004 -- profile age bookkeeping: performance
    # metadata, never a correctness input, and excluded from the key
    created: float = field(default_factory=time.time)

    @property
    def key(self) -> tuple:
        return self.make_key(self.hmatrix_fp, self.width_bucket, self.host,
                             self.pins)

    @staticmethod
    def make_key(hmatrix_fp: str, bucket: int, host: dict,
                 pins: dict | None = None) -> tuple:
        pins_part = tuple(sorted((pins or {}).items()))
        return ("tuning", hmatrix_fp, int(bucket), host_key(host), pins_part)

    def best_policy(self) -> ExecutionPolicy:
        """The winning policy as a concrete :class:`ExecutionPolicy`."""
        return policy_from_knobs(self.policy)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "hmatrix_fp": self.hmatrix_fp,
            "width_bucket": self.width_bucket,
            "host": dict(self.host),
            "pins": dict(self.pins),
            "policy": dict(self.policy),
            "candidates": [dict(c) for c in self.candidates],
            "source": self.source,
            "margin": self.margin,
            "trials": self.trials,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TuningProfile":
        """Rebuild a profile; raises ``ValueError`` on schema mismatch.

        Callers treat an invalid stored profile as a miss (re-tune) —
        a profile is performance metadata, never a correctness input, so
        version skew degrades to one extra tuning run, not an error.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"profile must be a dict, got "
                             f"{type(doc).__name__}")
        if doc.get("version") != PROFILE_FORMAT_VERSION:
            raise ValueError(
                f"profile version {doc.get('version')!r} != "
                f"{PROFILE_FORMAT_VERSION}")
        try:
            policy = dict(doc["policy"])
            policy_from_knobs(policy)  # validates knob names + values
            return cls(
                hmatrix_fp=str(doc["hmatrix_fp"]),
                width_bucket=int(doc["width_bucket"]),
                host=dict(doc["host"]),
                policy=policy,
                candidates=[dict(c) for c in doc.get("candidates", [])],
                pins=dict(doc.get("pins", {})),
                source=str(doc.get("source", "measured")),
                margin=float(doc.get("margin", 1.0)),
                trials=int(doc.get("trials", 0)),
                created=float(doc.get("created", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tuning profile: {exc}") from exc
