"""Per-link capacity, diurnal utilization, loss, and queueing.

Every interconnect in the fabric gets :class:`LinkParams`: a capacity
class, a diurnal offered-load profile, and derived loss/queue behaviour.
Parallel links in one group share parameters (load balancing spreads flows
evenly across them, which is why the paper deems aggregating across
parallel links acceptable while aggregating across metros is not).

The congestion ground truth is explicit: :class:`CongestionDirective`
entries name org pairs (optionally restricted to a metro) whose
interconnects are provisioned to saturate at peak — reproducing the
GTT→AT&T Atlanta case of Figure 5(a) — while everything else stays in the
busy-but-fine regime of Figure 5(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.net.diurnal import DiurnalProfile
from repro.topology.asgraph import ASRole
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect
from repro.util.rng import derive_random
from repro.util.units import GBPS

#: Loss floor on an idle path (transmission errors etc.).
BASE_LOSS = 2.0e-5
#: Maximum bufferbloat-style queueing delay at a saturated link.
MAX_QUEUE_MS = 60.0


# --- pure per-utilization link state -----------------------------------
#
# The scalar :class:`LinkParams` methods and the batched
# :class:`repro.net.batch.LinkTableSet` both evaluate these functions, so
# one diurnal-profile evaluation per (link group, hour) yields loss,
# queueing, and available bandwidth without the two code paths ever being
# able to drift apart — the batch engine's byte-identity contract leans
# on this sharing.


def loss_rate_at(u: float) -> float:
    """Packet loss probability at offered-load/capacity ``u``.

    Loss stays near the floor until ~90% utilization, then rises steeply;
    above saturation it grows with the overload.
    """
    loss = BASE_LOSS
    if u > 0.90:
        loss += 2.0e-3 * ((u - 0.90) / 0.10) ** 2
    if u > 1.0:
        loss += 0.03 * (u - 1.0)
    return min(0.25, loss)


def queue_delay_ms_at(u: float) -> float:
    """Queueing delay contributed by one link at utilization ``u``."""
    return MAX_QUEUE_MS * min(1.0, u) ** 4


def available_bps_at(u: float, capacity_bps: float) -> float:
    """Bandwidth a well-behaved new flow can claim at utilization ``u``."""
    if u <= 1.0:
        return capacity_bps * max(0.05, 1.0 - u)
    return capacity_bps * 0.05 / u


@dataclass(frozen=True)
class CongestionDirective:
    """Declares interconnects between two orgs congested at peak.

    ``city_code`` of None applies to all metros (regional congestion is the
    common case though — Claffy et al.'s observation the paper leans on —
    so most scenarios pin a metro).
    """

    org_a: str
    org_b: str
    city_code: str | None = None
    #: Peak offered load as a multiple of capacity (>1 saturates).
    peak_load: float = 1.25


@dataclass(frozen=True)
class LinkParams:
    """Provisioned state of one interconnect."""

    link_id: int
    capacity_bps: float
    profile: DiurnalProfile
    congested: bool  # ground truth: peak offered load >= capacity

    def utilization(self, hour: float) -> float:
        """Offered load / capacity at a local hour; may exceed 1.0."""
        return self.profile.value(hour)

    def loss_rate(self, hour: float) -> float:
        """Packet loss probability for a new flow at a local hour.

        The steep post-90% rise (:func:`loss_rate_at`) is what collapses
        TCP throughput at peak on congested links.
        """
        return loss_rate_at(self.utilization(hour))

    def queue_delay_ms(self, hour: float) -> float:
        """Queueing delay contributed by this link at a local hour."""
        return queue_delay_ms_at(self.utilization(hour))

    def available_bps(self, hour: float) -> float:
        """Bandwidth a well-behaved new flow can expect to claim.

        On an uncongested link this is the spare capacity (with a floor:
        a new TCP flow always grabs a sliver by pushing others back). On a
        saturated link the fair share collapses toward
        capacity / offered-load flows.
        """
        return available_bps_at(self.utilization(hour), self.capacity_bps)


@dataclass(frozen=True)
class ProvisioningConfig:
    """How to provision the fabric's links."""

    seed: int = 7
    #: Org-pair interconnects forced into the congested regime.
    directives: tuple[CongestionDirective, ...] = ()
    #: Fraction of remaining interconnects made congested at random
    #: (background congestion the tomography experiments hunt for).
    random_congested_fraction: float = 0.0


def _capacity_class(internet: Internet, link: Interconnect, rng) -> float:
    """Capacity by endpoint roles: core links are fat, stub links thin."""
    role_a = internet.graph.get(link.a_asn).role
    role_b = internet.graph.get(link.b_asn).role
    roles = {role_a, role_b}
    if roles == {ASRole.TIER1}:
        return rng.choice((100.0, 100.0, 400.0)) * GBPS
    if ASRole.STUB in roles:
        return rng.choice((1.0, 10.0)) * GBPS
    if ASRole.TIER1 in roles or ASRole.TRANSIT in roles:
        return rng.choice((10.0, 40.0, 100.0)) * GBPS
    return rng.choice((10.0, 40.0)) * GBPS


class LinkNetwork:
    """Provisioned link state for one Internet instance."""

    def __init__(self, internet: Internet, params: dict[int, LinkParams]) -> None:
        self._internet = internet
        self._params = params

    def __len__(self) -> int:
        return len(self._params)

    def params(self, link_id: int) -> LinkParams:
        try:
            return self._params[link_id]
        except KeyError:
            raise KeyError(f"link {link_id} was never provisioned") from None

    def param_map(self) -> dict[int, LinkParams]:
        """Read-only view of every provisioned link (batch-engine hook)."""
        return self._params

    def congested_link_ids(self) -> set[int]:
        """Ground truth congested set (for validation only)."""
        return {link_id for link_id, p in self._params.items() if p.congested}

    def path_loss(self, link_ids: tuple[int, ...], hour: float) -> float:
        """End-to-end loss over a sequence of links (independent losses)."""
        survive = 1.0
        for link_id in link_ids:
            survive *= 1.0 - self._params[link_id].loss_rate(hour)
        return 1.0 - survive

    def path_queue_ms(self, link_ids: tuple[int, ...], hour: float) -> float:
        return sum(self._params[link_id].queue_delay_ms(hour) for link_id in link_ids)

    def path_queue_split_ms(
        self, link_ids: tuple[int, ...], hour: float
    ) -> tuple[float, float]:
        """(standing, transient) queueing over a path at a local hour.

        A saturated link (offered load ≥ capacity) holds a *standing*
        queue: every packet pays it, so it lifts a flow's RTT floor. A
        busy-but-draining link queues only transiently: the time-averaged
        delay is real but the floor stays near the unloaded RTT. The split
        is what TCP congestion signatures key on.
        """
        standing = 0.0
        transient = 0.0
        for link_id in link_ids:
            params = self._params[link_id]
            delay = params.queue_delay_ms(hour)
            if params.utilization(hour) >= 1.0:
                standing += delay
            else:
                transient += delay
        return standing, transient

    def path_available_bps(self, link_ids: tuple[int, ...], hour: float) -> tuple[float, int | None]:
        """(min available bandwidth, arg-min link id) over the path."""
        best = math.inf
        bottleneck: int | None = None
        for link_id in link_ids:
            available = self._params[link_id].available_bps(hour)
            if available < best:
                best = available
                bottleneck = link_id
        return best, bottleneck


def provision_links(internet: Internet, config: ProvisioningConfig) -> LinkNetwork:
    """Assign capacity and diurnal load to every interconnect.

    Parallel links within a group share the same parameters; directives
    match by org pair (any sibling ASN combination) and optional metro.

    The links come from the compiled link table as lazy
    :class:`Interconnect` views in link-id order, so the fabric's object
    index never has to materialize.
    """
    rng = derive_random(config.seed, "provisioning")
    directive_index: dict[tuple[str, str], CongestionDirective] = {}
    for directive in config.directives:
        key = tuple(sorted((directive.org_a, directive.org_b)))
        directive_index[key] = directive  # type: ignore[index]

    from repro.net.compiled import compile_world

    links = compile_world(internet).interconnect_views()

    params: dict[int, LinkParams] = {}
    group_cache: dict[int, LinkParams] = {}
    for link in links:
        template = group_cache.get(link.group_id)
        if template is not None:
            params[link.link_id] = LinkParams(
                link_id=link.link_id,
                capacity_bps=template.capacity_bps,
                profile=template.profile,
                congested=template.congested,
            )
            continue

        directive = _matching_directive(internet, link, directive_index)
        capacity = _capacity_class(internet, link, rng)
        if directive is not None:
            profile = DiurnalProfile(
                base=rng.uniform(0.28, 0.40),
                evening_amplitude=directive.peak_load - 0.34,
                day_amplitude=rng.uniform(0.10, 0.22),
            )
        elif rng.random() < config.random_congested_fraction:
            profile = DiurnalProfile(
                base=rng.uniform(0.30, 0.42),
                evening_amplitude=rng.uniform(0.75, 0.95),
                day_amplitude=rng.uniform(0.10, 0.22),
            )
        else:
            profile = DiurnalProfile(
                base=rng.uniform(0.15, 0.35),
                evening_amplitude=rng.uniform(0.18, 0.42),
                day_amplitude=rng.uniform(0.05, 0.18),
            )
        congested = profile.exceeds(0.995)
        link_params = LinkParams(
            link_id=link.link_id,
            capacity_bps=capacity,
            profile=profile,
            congested=congested,
        )
        params[link.link_id] = link_params
        group_cache[link.group_id] = link_params
    return LinkNetwork(internet, params)


def _matching_directive(
    internet: Internet,
    link: Interconnect,
    index: dict[tuple[str, str], CongestionDirective],
) -> CongestionDirective | None:
    org_a = internet.orgs.org_of(link.a_asn)
    org_b = internet.orgs.org_of(link.b_asn)
    if org_a is None or org_b is None:
        return None
    key = tuple(sorted((org_a.name, org_b.name)))
    directive = index.get(key)  # type: ignore[arg-type]
    if directive is None:
        return None
    if directive.city_code is not None and directive.city_code != link.city_code:
        return None
    return directive
