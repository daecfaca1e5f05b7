"""Mobile ad-hoc networks of multimedia hosts (§4.2, E9): radio energy,
battery-aware nodes, connectivity, three routing protocols and the
network-lifetime harness."""

from repro.manet.energy import RadioModel
from repro.manet.lifetime import (
    LifetimeResult,
    compare_protocols,
    simulate_lifetime,
)
from repro.manet.network import ManetNetwork, random_network
from repro.manet.node import ManetNode
from repro.manet.routing import (
    BatteryCostRouting,
    LifetimePredictionRouting,
    MinimumPowerRouting,
    PROTOCOLS,
    RoutingProtocol,
)

__all__ = [
    "RadioModel",
    "ManetNode",
    "ManetNetwork",
    "random_network",
    "RoutingProtocol",
    "MinimumPowerRouting",
    "BatteryCostRouting",
    "LifetimePredictionRouting",
    "PROTOCOLS",
    "LifetimeResult",
    "simulate_lifetime",
    "compare_protocols",
]
