"""Named scenario presets.

Ready-made, documented parameterizations spanning the regimes the CRN
literature cares about.  Every preset keeps the paper's radio constants
(powers, radii, thresholds) unless the scenario is *about* changing them,
so results stay comparable with the Figure 6 baselines.

Use :func:`get_scenario` / :func:`list_scenarios`, or ``--scenario`` on the
CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.network.primary import ActivityModel, MarkovActivity

__all__ = ["Scenario", "get_scenario", "list_scenarios", "SCENARIOS"]


@dataclass(frozen=True)
class Scenario:
    """A named experiment setting.

    Attributes
    ----------
    name / summary:
        Identifier and one-line description.
    config:
        The scenario's :class:`ExperimentConfig`.
    activity_factory:
        Builds the PU activity model (None = the config's Bernoulli p_t).
    num_channels:
        Licensed channels (1 = the paper's model).
    """

    name: str
    summary: str
    config: ExperimentConfig
    activity_factory: Optional[Callable[[], ActivityModel]] = None
    num_channels: int = 1

    def make_activity(self) -> Optional[ActivityModel]:
        """Instantiate the activity model (None = config default)."""
        return self.activity_factory() if self.activity_factory else None


def _paper_bench() -> ExperimentConfig:
    return ExperimentConfig.bench_scale()


SCENARIOS: Dict[str, Scenario] = {
    "paper-default": Scenario(
        name="paper-default",
        summary="the paper's Fig. 6 setting at density-preserving bench scale",
        config=_paper_bench(),
    ),
    "quiet-rural": Scenario(
        name="quiet-rural",
        summary="sparse licensed users, light activity: spectrum is plentiful",
        config=_paper_bench().with_overrides(
            num_pus=8, p_t=0.1, repetitions=3
        ),
    ),
    "crowded-urban": Scenario(
        name="crowded-urban",
        summary="dense PUs at high activity: opportunities are scarce",
        config=_paper_bench().with_overrides(
            num_pus=29, p_t=0.4, max_slots=1_500_000
        ),
    ),
    "tv-band-bursty": Scenario(
        name="tv-band-bursty",
        summary="broadcast-like PUs: long on/off bursts at the paper's mean activity",
        config=_paper_bench(),
        activity_factory=lambda: MarkovActivity(p_t=0.3, burstiness=16.0),
    ),
    "whitespace-4ch": Scenario(
        name="whitespace-4ch",
        summary="the same PU population spread over four licensed channels",
        config=_paper_bench(),
        num_channels=4,
    ),
    "dense-iot-field": Scenario(
        name="dense-iot-field",
        summary="twice the paper's SU density: heavy secondary contention",
        config=_paper_bench().with_overrides(num_sus=230),
    ),
    "noisy-sensors": Scenario(
        name="noisy-sensors",
        summary="paper setting under geometric blocking (exact PU positions)",
        config=_paper_bench().with_overrides(blocking="geometric"),
    ),
}


def list_scenarios() -> List[str]:
    """The registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises
    ------
    ConfigurationError
        With the list of valid names when the lookup fails.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}"
        ) from None
