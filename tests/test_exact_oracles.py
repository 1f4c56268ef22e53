"""Exact oracles on small topologies: collection delays with known laws.

A single-hop star (the base station at the centre of a radius-3 circle of
``k`` SUs, SU radius 10) puts every SU in every other SU's carrier-sense
range, so at most one SU transmits per slot and every lone transmission
decodes.  On it the delay of one snapshot has a closed form under either
blocking model, independent of the engine's code:

* **mean field** (Lemma 7, one far PU): each eligible SU is blocked i.i.d.
  per slot with probability ``1 - p_o``.  With ``m`` packets left a slot
  delivers one iff some SU is free, so
  ``D = sum_{m=1..k} Geometric(1 - (1 - p_o)^m)`` and
  ``E[D] = sum_m 1 / (1 - (1 - p_o)^m)``;
* **shared-PU geometric** (one Bernoulli(p_t) PU inside every PCR): a slot
  is free for all SUs at once with probability ``p_o = 1 - p_t`` and then
  delivers one packet, so ``D`` is negative binomial, ``E[D] = k / p_o``.

ADDC and Coolest (hop-by-hop, no route discovery) both run here: each
test checks the mean of 1,000 seeded runs against a z bound and the whole
empirical distribution against the exact PMF (a Kolmogorov-Smirnov bound).
The runs are seeded, so each test is deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.addc import AddcPolicy
from repro.core.pcr import db_to_linear
from repro.geometry.region import SquareRegion
from repro.graphs.tree import build_collection_tree
from repro.network.primary import BernoulliActivity, PrimaryNetwork
from repro.network.secondary import SecondaryNetwork
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.routing.coolest import CoolestPolicy
from repro.sim.engine import SlottedEngine
from repro.spectrum.sensing import sensing_at_pcr

#: Seeded runs per case.
RUNS = 1000
#: Mean check: |sample mean - E[D]| <= Z_BOUND standard errors.
Z_BOUND = 4.0
#: Distribution check: the Kolmogorov-Smirnov distance stays below
#: KS_SCALE / sqrt(RUNS); 1.63 is the 1% critical value for a continuous
#: law, and a discrete one only makes the statistic smaller.
KS_SCALE = 1.63
ETA_DB = 8.0


def star(k: int, pu: tuple, p_t: float) -> CrnTopology:
    """The base station at (100, 100), ``k`` SUs on the radius-3 circle
    around it, and one PU at ``pu``."""
    angles = 2.0 * math.pi * np.arange(k) / k
    sus = np.column_stack([100.0 + 3.0 * np.cos(angles), 100.0 + 3.0 * np.sin(angles)])
    return CrnTopology(
        SquareRegion(side=200.0),
        PrimaryNetwork(
            np.array([pu], dtype=float), 10.0, 10.0, BernoulliActivity(p_t)
        ),
        SecondaryNetwork(np.vstack([[100.0, 100.0], sus]), 10.0, 10.0),
    )


def geometric_pmf(success: float, support: int) -> np.ndarray:
    """P(G = d) for d = 0..support-1 of a geometric on {1, 2, ...}."""
    d = np.arange(support)
    pmf = success * (1.0 - success) ** np.maximum(d - 1, 0)
    pmf[0] = 0.0
    return pmf


def exact_pmf(successes, support: int) -> np.ndarray:
    """PMF of a sum of independent geometrics, truncated to ``support``."""
    pmf = np.zeros(support)
    pmf[0] = 1.0
    for success in successes:
        pmf = np.convolve(pmf, geometric_pmf(success, support))[:support]
    return pmf


def run_delays(topology, policy_name, blocking, p_o, seeds):
    """The collection delay of one snapshot per seed."""
    # ADDC senses SUs at the PCR, Coolest at its transmission radius;
    # on this star both ranges cover every other SU.
    _, sense_map, _ = sensing_at_pcr(
        topology,
        alpha=4.0,
        eta_p_db=ETA_DB,
        eta_s_db=ETA_DB,
        su_csma_range=None if policy_name == "addc" else topology.secondary.radius,
    )
    base = topology.secondary.base_station
    delays = []
    for seed in seeds:
        if policy_name == "addc":
            policy = AddcPolicy(build_collection_tree(topology.secondary.graph, base))
        else:
            policy = CoolestPolicy(
                topology,
                topology.primary.activity.stationary_probability,
                route_discovery=False,
            )
        engine = SlottedEngine(
            topology,
            sense_map,
            policy,
            StreamFactory(seed),
            eta_s=db_to_linear(ETA_DB),
            blocking=blocking,
            homogeneous_p_o=p_o if blocking == "homogeneous" else None,
        )
        engine.load_snapshot()
        result = engine.run()
        assert result.completed
        delays.append(result.delay_slots)
    return np.array(delays)


def check_against(delays: np.ndarray, successes) -> None:
    mean = sum(1.0 / q for q in successes)
    variance = sum((1.0 - q) / q**2 for q in successes)
    z = (delays.mean() - mean) / math.sqrt(variance / delays.size)
    assert abs(z) <= Z_BOUND, f"mean {delays.mean():.3f} vs exact {mean:.3f}"
    support = int(delays.max()) + 1
    pmf = exact_pmf(successes, support)
    empirical = np.bincount(delays, minlength=support) / delays.size
    distance = np.abs(np.cumsum(empirical) - np.cumsum(pmf)).max()
    assert distance <= KS_SCALE / math.sqrt(delays.size), f"KS distance {distance:.4f}"


@pytest.mark.parametrize("policy_name", ["addc", "coolest"])
@pytest.mark.parametrize("k, p_o", [(1, 0.5), (5, 0.3), (8, 0.15)])
def test_mean_field_star(policy_name, k, p_o):
    topology = star(k, (5.0, 5.0), 0.3)
    delays = run_delays(topology, policy_name, "homogeneous", p_o, range(RUNS))
    check_against(delays, [1.0 - (1.0 - p_o) ** m for m in range(1, k + 1)])


@pytest.mark.parametrize("policy_name", ["addc", "coolest"])
@pytest.mark.parametrize("k, p_t", [(1, 0.5), (5, 0.7), (8, 0.4)])
def test_shared_pu_star(policy_name, k, p_t):
    topology = star(k, (110.0, 100.0), p_t)
    delays = run_delays(topology, policy_name, "geometric", None, range(RUNS))
    check_against(delays, [1.0 - p_t] * k)
