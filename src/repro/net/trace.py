"""Run statistics: channel accesses, airtime, collisions, messages, bytes.

ConsensusBatcher's claim is a reduction of *channel access contention*; the
trace makes that quantity (and its friends) first-class so benchmarks can
report it next to latency and throughput, and so Table I's wireless columns
can be cross-checked against the simulator.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class ChannelStats:
    """Aggregate statistics of one wireless channel."""

    transmissions: int = 0
    collisions: int = 0
    delivered_frames: int = 0
    missed_half_duplex: int = 0
    adversary_drops: int = 0
    busy_time: float = 0.0
    bytes_on_air: int = 0


@dataclass
class NodeStats:
    """Per-node statistics."""

    channel_accesses: int = 0
    frames_sent: int = 0
    fragments_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    logical_messages_sent: int = 0
    logical_messages_received: int = 0
    cpu_busy_seconds: float = 0.0
    backoff_seconds: float = 0.0


@dataclass
class NetworkTrace:
    """Collects statistics across channels and nodes for one simulation run."""

    channels: dict[str, ChannelStats] = field(default_factory=lambda: defaultdict(ChannelStats))
    nodes: dict[int, NodeStats] = field(default_factory=lambda: defaultdict(NodeStats))

    # ------------------------------------------------------------ channel side
    def record_transmission(self, channel: str, size_bytes: int,
                            airtime: float) -> None:
        """A frame was put on the air."""
        stats = self.channels[channel]
        stats.transmissions += 1
        stats.busy_time += airtime
        stats.bytes_on_air += size_bytes

    def record_collision(self, channel: str) -> None:
        """A frame was lost to a collision."""
        self.channels[channel].collisions += 1

    def record_delivery(self, channel: str, count: int = 1) -> None:
        """A frame was delivered to ``count`` receivers."""
        self.channels[channel].delivered_frames += count

    def record_half_duplex_miss(self, channel: str) -> None:
        """A frame was missed because the receiver was itself transmitting."""
        self.channels[channel].missed_half_duplex += 1

    def record_adversary_drop(self, channel: str) -> None:
        """A frame copy was suppressed by the adversary (drop or partition)."""
        self.channels[channel].adversary_drops += 1

    # --------------------------------------------------------------- node side
    def record_channel_access(self, node_id: int, fragments: int,
                              size_bytes: int) -> None:
        """Node ``node_id`` competed for the channel and sent a frame."""
        stats = self.nodes[node_id]
        stats.channel_accesses += fragments
        stats.frames_sent += 1
        stats.fragments_sent += fragments
        stats.bytes_sent += size_bytes

    def record_frame_received(self, node_id: int) -> None:
        """Node ``node_id`` received a frame."""
        self.nodes[node_id].frames_received += 1

    def record_logical_send(self, node_id: int, count: int = 1) -> None:
        """Node ``node_id`` emitted ``count`` logical protocol messages."""
        self.nodes[node_id].logical_messages_sent += count

    def record_cpu(self, node_id: int, seconds: float) -> None:
        """Node ``node_id`` spent CPU time (cryptography, packet handling)."""
        self.nodes[node_id].cpu_busy_seconds += seconds

    def record_backoff(self, node_id: int, seconds: float) -> None:
        """Node ``node_id`` waited for the channel."""
        self.nodes[node_id].backoff_seconds += seconds

    # ------------------------------------------------------------- aggregates
    @property
    def total_channel_accesses(self) -> int:
        """Total channel accesses across all nodes."""
        return sum(stats.channel_accesses for stats in self.nodes.values())

    @property
    def total_bytes_sent(self) -> int:
        """Total bytes put on the air across all nodes."""
        return sum(stats.bytes_sent for stats in self.nodes.values())

    @property
    def total_collisions(self) -> int:
        """Total collisions across all channels."""
        return sum(stats.collisions for stats in self.channels.values())

    @property
    def total_frames_sent(self) -> int:
        """Total frames sent across all nodes."""
        return sum(stats.frames_sent for stats in self.nodes.values())

    @property
    def total_adversary_drops(self) -> int:
        """Total frame copies suppressed by the adversary across channels."""
        return sum(stats.adversary_drops for stats in self.channels.values())

    def channel_accesses_per_node(self) -> dict[int, int]:
        """Channel accesses keyed by node id."""
        return {node_id: stats.channel_accesses
                for node_id, stats in self.nodes.items()}
