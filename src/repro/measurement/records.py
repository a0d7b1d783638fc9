"""Measurement records.

Fields prefixed ``gt_`` are ground truth carried along for validation
experiments; analysis code that mimics what a real analyst could do must
not read them (the analyses in :mod:`repro.core` take care to only use the
public fields, and the validation experiments diff their output against
the ``gt_`` fields).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util.units import MBPS


class NDTRecord(NamedTuple):
    """One NDT download test as logged by the server side.

    Records are named tuples because a campaign builds one per test: a
    tuple is filled in one step, where a frozen dataclass pays one
    ``object.__setattr__`` per field. Campaign digests hash
    ``repr(record)``, so the ``NDTRecord(test_id=..., ...)`` format is
    part of the output contract.
    """

    test_id: int
    #: Absolute campaign time in seconds (campaign starts at local midnight).
    timestamp_s: float
    #: Local hour-of-day at the client, in [0, 24).
    local_hour: float
    client_ip: int
    server_id: int
    server_ip: int
    server_asn: int
    server_city: str
    download_bps: float
    rtt_ms: float
    retx_rate: float
    congestion_signals: int
    # --- ground truth (validation only) ---
    gt_client_asn: int
    gt_client_org: str
    gt_crossed_links: tuple[int, ...]
    gt_bottleneck_link: int | None
    gt_bottleneck_kind: str
    #: Flow RTT extremes over the transfer — NDT logs the per-ack RTT
    #: series, so these are part of the public record (used by the TCP
    #: congestion-signature analysis).
    rtt_min_ms: float = 0.0
    rtt_max_ms: float = 0.0
    #: Upstream (client→server) throughput; 0 when not measured.
    upload_bps: float = 0.0

    @property
    def download_mbps(self) -> float:
        return self.download_bps / MBPS

    @property
    def upload_mbps(self) -> float:
        return self.upload_bps / MBPS


class TraceHop(NamedTuple):
    """A view of one TTL step of a traceroute (see :attr:`TracerouteRecord.hops`).

    ``ip`` is None for a non-response (*).
    """

    ttl: int
    ip: int | None
    rtt_ms: float | None


class TracerouteRecord(NamedTuple):
    """A Paris traceroute from a measurement server toward a client.

    The hops are stored as two columns, position ``i`` holding TTL
    ``i + 1``: exact tuples of ints, floats and None, which the cyclic
    collector stops tracking at their first young collection. A sweep
    keeps hundreds of thousands of hops alive, and one object per hop
    would stay on every full collection's scan list for its whole life.
    """

    trace_id: int
    timestamp_s: float
    src_ip: int
    src_asn: int
    dst_ip: int
    #: Reply address per TTL; None for a non-response (*).
    hop_ips: tuple[int | None, ...]
    #: Round-trip time per TTL in ms; None exactly where ``hop_ips`` is.
    hop_rtts: tuple[float | None, ...]
    reached_destination: bool
    # --- ground truth (validation only) ---
    gt_crossed_links: tuple[int, ...]
    gt_as_path: tuple[int, ...]

    @property
    def hops(self) -> tuple[TraceHop, ...]:
        """The hops as :class:`TraceHop` views, built on each access."""
        return tuple(
            map(TraceHop, range(1, len(self.hop_ips) + 1), self.hop_ips, self.hop_rtts)
        )

    def responding_ips(self) -> list[int]:
        return [ip for ip in self.hop_ips if ip is not None]

    def router_hop_ips(self) -> tuple[int | None, ...]:
        """TTL-ordered hop addresses (None for ``*``), destination excluded.

        Border-inference algorithms reason about router interfaces; the
        destination host's response is not a router hop and would poison
        adjacency evidence (a last-router→host pair looks like an AS
        boundary whenever the two sit in different prefixes). Returns the
        stored column itself, or a slice of it when the destination
        replied; this runs per trace in every border-inference sweep.
        """
        ips = self.hop_ips
        if self.reached_destination and ips and ips[-1] == self.dst_ip:
            return ips[:-1]
        return ips
