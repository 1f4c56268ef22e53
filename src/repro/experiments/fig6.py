"""Figure 6: data-collection delay of ADDC and Coolest under six sweeps.

The paper's evaluation (Section V) varies, one at a time, around the
default scenario: (a) the number of PUs ``N``, (b) the number of SUs ``n``,
(c) the PU activity ``p_t``, (d) the path-loss exponent ``alpha``, (e) the
PU power ``P_p``, and (f) the SU power ``P_s``.  Expected shapes:

========  =============================  =====================================
sub-fig   sweep                          paper's observation
========  =============================  =====================================
(a)       N up                           delay up (fewer opportunities); fast growth
(b)       n up                           delay up (more traffic); slower growth than (a)
(c)       p_t up                         delay up, very fast
(d)       alpha up                       delay down (less interference, more reuse)
(e)       P_p up                         delay up (larger PCR)
(f)       P_s up                         delay up (larger PCR)
all       ADDC vs Coolest                ADDC wins, roughly 1.7x-4.7x
========  =============================  =====================================

Topology sweeps (a)-(b) are expressed as *multipliers* of the base config so
the same sweep definition works at paper scale and at the density-preserving
bench scales.  Radio sweeps (c)-(f) use absolute values.  The alpha sweep
stays within the paper formula's valid domain (alpha < ~4.25) and, at the
low end, within what a pure-Python run can finish (alpha = 3 drives the
expected spectrum wait above 10^5 slots even at the paper's own scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonPoint, _run_plain_sweep
from repro.obs.progress import Heartbeat

__all__ = ["Fig6Sweep", "FIG6_SWEEPS", "sweep_point_configs", "run_fig6_sweep"]


@dataclass(frozen=True)
class Fig6Sweep:
    """One sub-figure: which parameter varies and over which values."""

    name: str
    parameter: str
    kind: str  # "scaled" (multiplier of the base value) or "absolute"
    values: Tuple[float, ...]
    description: str

    def __post_init__(self) -> None:
        if self.kind not in ("scaled", "absolute"):
            raise ConfigurationError(f"kind must be scaled/absolute, got {self.kind}")
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")


FIG6_SWEEPS: Dict[str, Fig6Sweep] = {
    "fig6a": Fig6Sweep(
        name="fig6a",
        parameter="num_pus",
        kind="scaled",
        values=(0.5, 0.75, 1.0, 1.25),
        description="delay vs number of PUs (N)",
    ),
    "fig6b": Fig6Sweep(
        name="fig6b",
        parameter="num_sus",
        kind="scaled",
        values=(0.5, 0.75, 1.0, 1.25, 1.5),
        description="delay vs number of SUs (n)",
    ),
    "fig6c": Fig6Sweep(
        name="fig6c",
        parameter="p_t",
        kind="absolute",
        values=(0.1, 0.2, 0.3, 0.4),
        description="delay vs PU activity probability (p_t)",
    ),
    "fig6d": Fig6Sweep(
        name="fig6d",
        parameter="alpha",
        kind="absolute",
        values=(3.8, 4.0, 4.1, 4.2),
        description="delay vs path loss exponent (alpha)",
    ),
    "fig6e": Fig6Sweep(
        name="fig6e",
        parameter="pu_power",
        kind="absolute",
        values=(10.0, 15.0, 20.0, 25.0),
        description="delay vs PU transmission power (P_p)",
    ),
    "fig6f": Fig6Sweep(
        name="fig6f",
        parameter="su_power",
        kind="absolute",
        values=(10.0, 15.0, 20.0, 25.0),
        description="delay vs SU transmission power (P_s)",
    ),
}


def sweep_point_configs(
    sweep: Fig6Sweep, base: ExperimentConfig
) -> List[Tuple[float, ExperimentConfig]]:
    """The (x-value, config) pairs of one sub-figure for a base scenario."""
    points: List[Tuple[float, ExperimentConfig]] = []
    for value in sweep.values:
        if sweep.kind == "scaled":
            base_value = getattr(base, sweep.parameter)
            concrete: float = max(int(round(base_value * value)), 1)
        else:
            concrete = value
        points.append(
            (float(concrete), base.with_overrides(**{sweep.parameter: concrete}))
        )
    return points


def run_fig6_sweep(
    sweep: Fig6Sweep,
    base: ExperimentConfig,
    repetitions: Optional[int] = None,
    values: Optional[Sequence[float]] = None,
    on_incomplete: str = "skip",
    progress: Optional[Heartbeat] = None,
    workers: int = 1,
) -> List[Tuple[float, ComparisonPoint]]:
    """Run one sub-figure end to end; returns (x-value, comparison) pairs.

    Incomplete repetitions are skipped by default (recorded in each
    point's ``skipped_repetitions``) so one pathological deployment does
    not abort a multi-hour sweep; pass ``on_incomplete="raise"`` to get
    the strict single-point behaviour.  A :class:`~repro.obs.Heartbeat`
    passed as ``progress`` ticks once per repetition across the whole
    sweep (size it ``len(sweep.values) * repetitions``).

    ``workers`` > 1 runs every (point × repetition) pair through one
    shared warm ``spawn`` pool; results are bit-identical to the serial
    default for any worker count.

    The repetitions run through the harness
    (:func:`repro.harness.run_checkpointed_sweep`) with
    :data:`~repro.harness.FAIL_FAST`: a failing repetition is not
    retried, and raises :class:`~repro.errors.PartialSweepError`.
    Callers needing a journal, retries, resume or the partial result
    with its resilience record (status, failures, stats) use
    :func:`repro.service.jobs.run_job`, as the CLI does.
    """
    if values is not None:
        sweep = Fig6Sweep(
            name=sweep.name,
            parameter=sweep.parameter,
            kind=sweep.kind,
            values=tuple(values),
            description=sweep.description,
        )
    return _run_plain_sweep(
        sweep.name,
        sweep_point_configs(sweep, base),
        repetitions=repetitions,
        on_incomplete=on_incomplete,
        progress=progress,
        workers=workers,
    )
