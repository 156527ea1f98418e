"""repro.tuning — profile-guided execution-policy autotuning.

``ExecutionPolicy(order="auto")`` defers the order/thread/q_chunk
choice to a measured :class:`TuningProfile` keyed by HMatrix
fingerprint x RHS-width bucket x host signature (x pinned knobs), seeded
by the :mod:`repro.metrics.costmodel` executor prior and persisted
through the :class:`~repro.api.store.PlanStore` ``"profile"`` tier.

See DESIGN.md section 9 for the profile format and re-tune triggers.
"""

from repro.tuning.autotune import (
    AutotuneBackend,
    Autotuner,
    AutotuneStats,
    autotune_backends,
    default_autotuner,
    register_autotune_backend,
    reset_default_autotuner,
    resolve_auto,
    tune,
)
from repro.tuning.profile import (
    PROFILE_FORMAT_VERSION,
    TuningProfile,
    hmatrix_fingerprint,
    policy_from_knobs,
    policy_knobs,
    width_bucket,
)

__all__ = [
    "AutotuneBackend",
    "Autotuner",
    "AutotuneStats",
    "PROFILE_FORMAT_VERSION",
    "TuningProfile",
    "autotune_backends",
    "default_autotuner",
    "register_autotune_backend",
    "hmatrix_fingerprint",
    "policy_from_knobs",
    "policy_knobs",
    "reset_default_autotuner",
    "resolve_auto",
    "tune",
    "width_bucket",
]
