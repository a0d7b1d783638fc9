"""Time-Series Latency Probing (TSLP).

§7 recommends that lightweight platforms (Ark, BISmark, RIPE Atlas, and
M-Lab itself) run TSLP — the technique of Luckie et al. [25] — to detect
interdomain congestion without bulk transfers: probe the *near* and *far*
interfaces of a border link periodically and watch the far-side RTT's
daily minimum rise when the link's queue stays occupied at peak. The
near-side series acts as a control for everything up to the link.

This module implements both halves:

* :class:`TSLPProber` — collects per-interface RTT samples over a
  simulated day from a vantage point, probing a border's near and far
  addresses through the link-state queue model;
* :func:`detect_level_shift` — the analysis: compare the far−near RTT
  difference between off-peak and peak windows; a sustained shift above a
  threshold marks the link as congested.

Unlike NDT, TSLP never saturates anything — exactly why the paper calls
it deployable on low-bandwidth platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import LinkNetwork
from repro.routing.forwarding import Forwarder
from repro.topology.geo import city_by_code, propagation_delay_ms
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect
from repro.util.rng import derive_random


@dataclass(frozen=True)
class TSLPSample:
    """One probe round: RTTs to both sides of a border at a local hour."""

    hour: float
    near_rtt_ms: float
    far_rtt_ms: float

    @property
    def differential_ms(self) -> float:
        """Far minus near RTT — the queueing contributed by the border."""
        return self.far_rtt_ms - self.near_rtt_ms


@dataclass(frozen=True)
class TSLPSeries:
    """A day of probe rounds toward one interconnect."""

    link_id: int
    samples: tuple[TSLPSample, ...]

    def window_min_differential(self, hours: tuple[int, ...]) -> float:
        """Minimum far−near differential over the given local hours.

        TSLP reasons about per-window *minima*: transient queues average
        out, a standing queue lifts the floor.
        """
        values = [
            s.differential_ms for s in self.samples if int(s.hour) in hours
        ]
        if not values:
            raise ValueError(f"no samples in hours {hours}")
        return min(values)


@dataclass(frozen=True)
class TSLPVerdict:
    """Outcome of the level-shift analysis on one series."""

    link_id: int
    offpeak_floor_ms: float
    peak_floor_ms: float
    shift_ms: float
    congested: bool


class TSLPProber:
    """Probes an interconnect's two sides through the queue model."""

    def __init__(
        self,
        internet: Internet,
        links: LinkNetwork,
        forwarder: Forwarder,
        seed: int = 7,
    ) -> None:
        self._internet = internet
        self._links = links
        self._forwarder = forwarder
        self._rng = derive_random(seed, "tslp")

    def probe_day(
        self,
        vp_asn: int,
        vp_city: str,
        link: Interconnect,
        rounds_per_hour: int = 4,
        jitter_ms: float = 0.4,
    ) -> TSLPSeries:
        """Collect a day of near/far RTT samples toward one border.

        The near probe's RTT includes the path to the near router; the far
        probe additionally crosses the border link, so only it picks up
        the link's queue. Upstream queueing cancels in the differential
        exactly as in the real technique.
        """
        near_router = self._internet.fabric.router(link.a_router_id)
        base_path_ms = self._vantage_to_border_ms(vp_asn, vp_city, near_router.city_code)
        link_prop_ms = 0.2  # metro-local border hop
        params = self._links.params(link.link_id)
        samples = []
        for hour_index in range(24):
            for round_index in range(rounds_per_hour):
                hour = hour_index + round_index / rounds_per_hour
                upstream_noise = abs(self._rng.gauss(0.0, jitter_ms))
                near_rtt = base_path_ms + upstream_noise + self._rng.uniform(0, jitter_ms)
                queue_ms = params.queue_delay_ms(hour)
                if params.utilization(hour) >= 1.0:
                    # Saturated: a standing queue — every probe pays it.
                    queue_sample = queue_ms
                else:
                    # Busy but draining: queues are transient, so a probe
                    # sees anywhere between empty and momentarily full —
                    # the per-window *minimum* stays near zero.
                    queue_sample = self._rng.uniform(0.0, queue_ms)
                far_rtt = (
                    near_rtt
                    + 2 * link_prop_ms
                    + queue_sample
                    + self._rng.uniform(0, jitter_ms)
                )
                samples.append(TSLPSample(hour=hour, near_rtt_ms=near_rtt, far_rtt_ms=far_rtt))
        return TSLPSeries(link_id=link.link_id, samples=tuple(samples))

    def _vantage_to_border_ms(self, vp_asn: int, vp_city: str, border_city: str) -> float:
        one_way = propagation_delay_ms(city_by_code(vp_city), city_by_code(border_city))
        return 2.0 * one_way + 1.0


def detect_level_shift(
    series: TSLPSeries,
    shift_threshold_ms: float = 5.0,
    peak_hours: tuple[int, ...] = (19, 20, 21, 22),
    offpeak_hours: tuple[int, ...] = (3, 4, 5, 6),
) -> TSLPVerdict:
    """TSLP's congestion test: does the differential's floor rise at peak?

    A link whose queue drains at some point during the peak window shows
    a peak *minimum* near the off-peak minimum (utilization alone does not
    lift the floor); a persistently congested link keeps a standing queue,
    so even the minimum shifts up.
    """
    offpeak_floor = series.window_min_differential(offpeak_hours)
    peak_floor = series.window_min_differential(peak_hours)
    shift = peak_floor - offpeak_floor
    return TSLPVerdict(
        link_id=series.link_id,
        offpeak_floor_ms=offpeak_floor,
        peak_floor_ms=peak_floor,
        shift_ms=shift,
        congested=shift >= shift_threshold_ms,
    )
