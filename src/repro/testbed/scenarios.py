"""Deployment scenarios: the paper's single-hop and multi-hop configurations.

A :class:`Scenario` bundles everything the harness needs to assemble a
deployment: topology, radio profile, MAC parameters, transport tuning, curve
selection and Byzantine assignment.  The two canonical scenarios mirror the
evaluation setup of Section VI-C:

* ``Scenario.single_hop()``  -- four nodes sharing one LoRa-class channel;
* ``Scenario.multi_hop()``   -- sixteen nodes in four clusters, each cluster
  on its own channel, with a routed backbone channel for the cluster leaders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crypto.curves import DEFAULT_EC_CURVE, DEFAULT_THRESHOLD_CURVE
from repro.net.adversary import LinkFaultSpec, PartitionSpec
from repro.net.csma import CsmaConfig
from repro.net.dma import DmaConfig
from repro.net.node import CpuConfig
from repro.net.radio import LORA_SF7_125KHZ, WIFI_LIKE, RadioConfig
from repro.net.topology import MultiHopTopology, SingleHopTopology, Topology
from repro.core.batcher import TransportConfig
from repro.testbed.byzantine import ByzantineSpec
from repro.testbed.workload import ChurnSpec

#: CSMA timings matched to the Wi-Fi-like PHY (microsecond slots instead of
#: the LoRa-scale milliseconds; with 1 Mbit/s airtimes a 5 ms slot would
#: dominate every channel access)
WIFI_CSMA = CsmaConfig(slot_s=0.0005, difs_s=0.001, cw_min=8, cw_max=64,
                       queue_limit=1024)

#: gateway-class node CPU for large-n deployments (the paper's STM32-class
#: per-frame cost saturates a node that must ingest O(n^2) frames per epoch)
GATEWAY_CPU = CpuConfig(frame_processing_s=0.0002, task_processing_s=0.0001)

#: crypto cost multiplier of a gateway-class core relative to the paper's
#: 216 MHz STM32F767 (~50x faster; same relative costs between curves/ops)
GATEWAY_CRYPTO_SCALE = 0.02

#: transport tuning for large-n deployments: gentler NACK timers stop the
#: stall detector from amplifying CPU backlog into resend storms
SCALE_TRANSPORT = TransportConfig(resend_interval_s=12.0,
                                  stall_threshold_s=8.0)


@dataclass(frozen=True)
class Scenario:
    """A complete deployment description."""

    topology: Topology
    radio: RadioConfig = LORA_SF7_125KHZ
    csma: CsmaConfig = field(default_factory=CsmaConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    #: multiplier on the modelled per-op crypto latencies (1.0 = the paper's
    #: STM32 boards; scale scenarios use :data:`GATEWAY_CRYPTO_SCALE`)
    crypto_cost_scale: float = 1.0
    ec_curve: str = DEFAULT_EC_CURVE
    threshold_curve: str = DEFAULT_THRESHOLD_CURVE
    byzantine: ByzantineSpec = field(default_factory=ByzantineSpec.none)
    #: message-level link faults (drop / duplicate / reorder) the adversary applies
    link_faults: tuple[LinkFaultSpec, ...] = ()
    #: (transient) network partitions the adversary applies
    partitions: tuple[PartitionSpec, ...] = ()
    #: extra forwarding delay per backbone hop in multi-hop deployments
    per_hop_forward_s: float = 0.35
    #: multi-hop only: rotate a cluster's epoch-0 leader out (with exclusions
    #: persisting across epochs) when it is a known fail-stop node, modelling
    #: the paper's detect-and-replace property.  Off by default: fault models
    #: like quorum-loss deliberately crash the epoch-0 leaders to prove the
    #: global domain stalls.
    rotate_crashed_leaders: bool = False
    #: streaming only: declarative node churn, expanded per run seed into a
    #: :class:`repro.testbed.membership.MembershipSchedule` driving
    #: epoch-boundary reconfiguration (None = fixed committee; one-epoch
    #: entry points reject churn scenarios)
    membership: Optional[ChurnSpec] = None
    #: virtual-time limit for a run
    timeout_s: float = 3000.0

    # ------------------------------------------------------------ constructors
    @classmethod
    def single_hop(cls, num_nodes: int = 4, **overrides) -> "Scenario":
        """The paper's single-hop setup (four nodes, one shared channel)."""
        scenario = cls(topology=SingleHopTopology(num_nodes))
        return replace(scenario, **overrides) if overrides else scenario

    @classmethod
    def multi_hop(cls, num_clusters: int = 4, cluster_size: int = 4,
                  **overrides) -> "Scenario":
        """The paper's multi-hop setup (four clusters of four nodes)."""
        topology = MultiHopTopology([cluster_size] * num_clusters)
        scenario = cls(topology=topology)
        return replace(scenario, **overrides) if overrides else scenario

    @classmethod
    def scale_single_hop(cls, num_nodes: int, **overrides) -> "Scenario":
        """A large-n single-hop deployment on gateway-class hardware.

        The paper's LoRa + STM32 point physically saturates above n ~ 16
        (5.5 kbit/s shared by n nodes, 3 ms per received frame); the scale
        profile swaps in the Wi-Fi-like PHY, matching microsecond CSMA slots,
        a gateway-class CPU and gentler NACK timers so that protocol
        behaviour -- not substrate saturation -- dominates at n up to 100.
        """
        scenario = cls(topology=SingleHopTopology(num_nodes), radio=WIFI_LIKE,
                       csma=WIFI_CSMA, transport=SCALE_TRANSPORT,
                       cpu=GATEWAY_CPU,
                       crypto_cost_scale=GATEWAY_CRYPTO_SCALE)
        return replace(scenario, **overrides) if overrides else scenario

    @classmethod
    def scale_multi_hop(cls, num_clusters: int, cluster_size: int,
                        **overrides) -> "Scenario":
        """A large-n clustered deployment on gateway-class hardware."""
        topology = MultiHopTopology([cluster_size] * num_clusters)
        scenario = cls(topology=topology, radio=WIFI_LIKE, csma=WIFI_CSMA,
                       transport=SCALE_TRANSPORT, cpu=GATEWAY_CPU,
                       crypto_cost_scale=GATEWAY_CRYPTO_SCALE,
                       per_hop_forward_s=0.05)
        return replace(scenario, **overrides) if overrides else scenario

    # ---------------------------------------------------------------- helpers
    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return self.topology.num_nodes

    @property
    def is_multi_hop(self) -> bool:
        """True for clustered deployments."""
        return self.topology.is_multi_hop

    def with_byzantine(self, byzantine: ByzantineSpec) -> "Scenario":
        """A copy of the scenario with a Byzantine assignment."""
        return replace(self, byzantine=byzantine)

    def with_link_faults(self, *faults: LinkFaultSpec) -> "Scenario":
        """A copy of the scenario with extra message-level link faults."""
        return replace(self, link_faults=self.link_faults + tuple(faults))

    def with_partition(self, *partitions: PartitionSpec) -> "Scenario":
        """A copy of the scenario with extra (transient) partitions."""
        return replace(self, partitions=self.partitions + tuple(partitions))

    def with_membership(self, churn: ChurnSpec) -> "Scenario":
        """A copy of the scenario with a churn process (streaming only)."""
        return replace(self, membership=churn)

    def with_curves(self, ec_curve: str, threshold_curve: str) -> "Scenario":
        """A copy of the scenario using different signature curves."""
        return replace(self, ec_curve=ec_curve, threshold_curve=threshold_curve)

    def with_radio(self, radio: RadioConfig) -> "Scenario":
        """A copy of the scenario using a different radio profile."""
        return replace(self, radio=radio)

    def replace(self, **overrides) -> "Scenario":
        """A copy with arbitrary fields overridden."""
        return replace(self, **overrides)
