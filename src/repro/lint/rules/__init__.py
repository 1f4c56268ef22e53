"""The reprolint rule pack: :data:`RULES`, every rule a run can select.

A new rule subclasses :class:`repro.lint.registry.Rule` (or
:class:`~repro.lint.registry.BannedNameRule`) in one of these modules and
is added to :data:`RULES`.
"""

from repro.lint.rules.determinism import (
    GlobalRebindRule,
    SetIterationRule,
    WallClockRule,
)
from repro.lint.rules.hygiene import (
    AllDriftRule,
    BareExceptRule,
    MutableDefaultRule,
    UnusedSuppressionRule,
)
from repro.lint.rules.invariants import FloatEqualityRule, PaperConstantRule
from repro.lint.rules.lineage import StreamCollisionRule
from repro.lint.rules.observability import ClockFacadeRule, LiteralMetricNameRule
from repro.lint.rules.rng import NumpyGlobalRngRule, StdlibRandomRule
from repro.lint.rules.robustness import (
    AtomicWriteBypassRule,
    SilentBroadExceptRule,
    WallClockBackoffRule,
)

__all__ = ["RULES"]

#: Every rule, in id order (the order ``--list-rules`` prints).
RULES = (
    MutableDefaultRule,
    BareExceptRule,
    AllDriftRule,
    WallClockRule,
    SetIterationRule,
    PaperConstantRule,
    FloatEqualityRule,
    ClockFacadeRule,
    LiteralMetricNameRule,
    GlobalRebindRule,
    StdlibRandomRule,
    NumpyGlobalRngRule,
    StreamCollisionRule,
    SilentBroadExceptRule,
    WallClockBackoffRule,
    AtomicWriteBypassRule,
    UnusedSuppressionRule,
)
