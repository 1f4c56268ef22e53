"""Reproducible random-number streams.

Every stochastic component of the simulator (PU placement, SU placement,
PU activity, backoff timers, ...) draws from its own named child stream so
that changing one component's consumption pattern does not perturb the
others.  See :class:`repro.rng.streams.StreamFactory`.
"""

from repro.rng.streams import RowStream, StreamFactory, derive_seed

__all__ = ["RowStream", "StreamFactory", "derive_seed"]
