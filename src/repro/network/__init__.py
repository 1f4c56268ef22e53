"""Network models: the primary (PU) and secondary (SU) networks.

The primary network is a set of licensed users with a slotted stochastic
activity process; the secondary network is the unit-disk graph ``G_s`` over
the SUs and the base station.  :func:`repro.network.deployment.deploy_crn`
builds both over a shared region with connectivity enforcement.
"""

from repro.network.primary import (
    BernoulliActivity,
    MarkovActivity,
    PrimaryNetwork,
)
from repro.network.channels import ChannelPlan
from repro.network.secondary import SecondaryNetwork
from repro.network.deployment import DeploymentSpec, deploy_crn
from repro.network.topology import CrnTopology

__all__ = [
    "BernoulliActivity",
    "MarkovActivity",
    "PrimaryNetwork",
    "ChannelPlan",
    "SecondaryNetwork",
    "DeploymentSpec",
    "deploy_crn",
    "CrnTopology",
]
