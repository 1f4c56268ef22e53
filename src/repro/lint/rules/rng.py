"""RNG-discipline rules.

The reproducibility contract of this repo (see ``repro/rng/streams.py``)
requires every stochastic component to draw from a named, seeded stream
obtained via :class:`repro.rng.StreamFactory`.  These rules catch the two
ways code escapes that contract: the stdlib :mod:`random` module (global,
process-wide state) and direct ``numpy.random`` entry points (fresh or
global generators whose seeding is invisible to the experiment harness).
"""

from __future__ import annotations

from repro.lint.registry import BannedNameRule

__all__ = ["StdlibRandomRule", "NumpyGlobalRngRule"]


class StdlibRandomRule(BannedNameRule):
    """RNG001: the stdlib ``random`` module is banned.

    ``random`` keeps hidden global state; results silently depend on import
    order and on every other consumer of the module.  Draw from a named
    stream instead: ``StreamFactory(seed).stream("component")``.
    """

    id = "RNG001"
    name = "random-module"
    description = "stdlib `random` is banned; use repro.rng.StreamFactory streams"
    allow = ("repro/rng/*",)
    banned_modules = ("random",)
    reason = (
        "uses stdlib `random`; use repro.rng.StreamFactory named streams instead"
    )


class NumpyGlobalRngRule(BannedNameRule):
    """RNG002: no direct ``numpy.random`` entry points outside ``repro/rng``.

    ``np.random.default_rng(seed)`` creates a generator whose seed is
    untracked by the experiment's :class:`~repro.rng.StreamFactory`, and the
    legacy ``np.random.*`` functions mutate process-global state.  Both make
    Fig. 4/6 replays diverge once call order changes.  Stochastic functions
    should accept an ``np.random.Generator`` (or a stream name) from their
    caller.
    """

    id = "RNG002"
    name = "numpy-global-rng"
    description = (
        "direct numpy.random calls/imports are banned outside repro/rng; "
        "accept an injected Generator"
    )
    allow = ("repro/rng/*",)
    banned_modules = ("numpy.random",)
    reason = (
        "bypasses repro.rng.StreamFactory; accept an np.random.Generator "
        "from the caller"
    )
