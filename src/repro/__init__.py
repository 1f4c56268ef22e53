"""Reproduction of *Optimal Distributed Data Collection for Asynchronous
Cognitive Radio Networks* (Cai, Ji, He, Bourgeois — ICDCS 2012).

The package provides:

* the **ADDC** algorithm (Algorithm 1) with its CDS-based collection tree
  and Proper Carrier-sensing Range (PCR),
* the full cognitive-radio substrate it runs on — deployment models,
  slotted PU activity, physical-interference SIR validation, and a slotted
  discrete-event simulator with continuous intra-slot backoff,
* the **Coolest** routing baseline the paper compares against, and
* the experiment harness reproducing Figure 4 and Figure 6 (a)-(f).

Quickstart
----------
>>> from repro import ExperimentConfig, run_comparison_point
>>> config = ExperimentConfig.quick_scale().with_overrides(repetitions=1)
>>> point = run_comparison_point(config)          # doctest: +SKIP
>>> point.speedup > 1.0                           # doctest: +SKIP
True
"""

from repro._version import __version__
from repro.core.addc import AddcPolicy
from repro.core.analysis import TheoreticalBounds
from repro.core.aggregation import run_aggregation
from repro.core.collector import CollectionOutcome, run_addc_collection
from repro.core.pcr import PcrParameters, PcrResult, compute_pcr
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonPoint, run_comparison_point
from repro.network.channels import ChannelPlan
from repro.network.deployment import DeploymentSpec, deploy_crn
from repro.network.primary import BernoulliActivity, MarkovActivity
from repro.network.topology import CrnTopology
from repro.rng import StreamFactory
from repro.routing.coolest import CoolestPolicy, run_coolest_collection
from repro.routing.unicast import run_unicast
from repro.scheduling.centralized import run_centralized_collection
from repro.sim.engine import SlottedEngine
from repro.sim.results import SimulationResult

__all__ = [
    "__version__",
    "AddcPolicy",
    "TheoreticalBounds",
    "CollectionOutcome",
    "run_addc_collection",
    "run_aggregation",
    "run_unicast",
    "PcrParameters",
    "PcrResult",
    "compute_pcr",
    "ReproError",
    "ExperimentConfig",
    "ComparisonPoint",
    "run_comparison_point",
    "DeploymentSpec",
    "deploy_crn",
    "CrnTopology",
    "StreamFactory",
    "CoolestPolicy",
    "run_coolest_collection",
    "run_centralized_collection",
    "ChannelPlan",
    "BernoulliActivity",
    "MarkovActivity",
    "SlottedEngine",
    "SimulationResult",
]
