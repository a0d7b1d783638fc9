"""Per-link capacity, diurnal utilization, loss, and queueing.

Every interconnect in the fabric gets a capacity class, a diurnal
offered-load profile, and derived loss/queue behaviour. Parallel links in
one group share them (load balancing spreads flows evenly across them,
which is why the paper deems aggregating across parallel links acceptable
while aggregating across metros is not). :class:`LinkNetwork` keeps that
state as columns indexed by link id, and evaluates it for whole arrays of
(link, hour) pairs; :class:`LinkParams` is one link's view of it.

The congestion ground truth is explicit: :class:`CongestionDirective`
entries name org pairs (optionally restricted to a metro) whose
interconnects are provisioned to saturate at peak — reproducing the
GTT→AT&T Atlanta case of Figure 5(a) — while everything else stays in the
busy-but-fine regime of Figure 5(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.net.diurnal import DiurnalProfile
from repro.topology.asgraph import ASRole
from repro.topology.internet import Internet
from repro.topology.orgs import Organization
from repro.util.rng import derive_random
from repro.util.units import GBPS

#: Loss floor on an idle path (transmission errors etc.).
BASE_LOSS = 2.0e-5
#: Maximum bufferbloat-style queueing delay at a saturated link.
MAX_QUEUE_MS = 60.0


# --- pure per-utilization link state -----------------------------------
#
# The scalar :class:`LinkParams` methods evaluate these functions, and
# :meth:`LinkNetwork.state` is their array transcription, held equal to
# them bit for bit by the equivalence tests.


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


def _capacity_class(roles: set[ASRole], rng) -> float:
    """Capacity by endpoint roles: core links are fat, stub links thin."""
    if roles == {ASRole.TIER1}:
        return rng.choice((100.0, 100.0, 400.0)) * GBPS
    if ASRole.STUB in roles:
        return rng.choice((1.0, 10.0)) * GBPS
    if ASRole.TIER1 in roles or ASRole.TRANSIT in roles:
        return rng.choice((10.0, 40.0, 100.0)) * GBPS
    return rng.choice((10.0, 40.0)) * GBPS


class LinkNetwork:
    """Provisioned link state, as columns indexed by link id.

    ``values[:, link_id]`` holds one link's capacity followed by its
    diurnal profile's seven constants, in :class:`DiurnalProfile` field
    order; ``congested[link_id]`` is its ground-truth flag and
    ``provisioned[link_id]`` whether the id names a link at all.
    :func:`provision_links` fills them once. :meth:`state` evaluates
    whole arrays of (link, hour) pairs, and :meth:`params` reads one link
    as a :class:`LinkParams` for scalar code.
    """

    def __init__(
        self, values: np.ndarray, congested: np.ndarray, provisioned: np.ndarray
    ) -> None:
        self.values = values
        self.congested = congested
        self.provisioned = provisioned

    def __len__(self) -> int:
        return int(np.count_nonzero(self.provisioned))

    def params(self, link_id: int) -> LinkParams:
        """One link's state, built from its columns on each call."""
        if not (0 <= link_id < len(self.provisioned) and self.provisioned[link_id]):
            raise KeyError(f"link {link_id} was never provisioned")
        capacity, *profile = self.values[:, link_id].tolist()
        return LinkParams(
            link_id, capacity, DiurnalProfile(*profile), bool(self.congested[link_id])
        )

    def congested_link_ids(self) -> set[int]:
        """Ground truth congested set (for validation only)."""
        return set(np.flatnonzero(self.congested).tolist())

    def state(
        self, link_ids: np.ndarray, hours: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(loss, queue_ms, standing, available_bps)`` arrays: entry
        ``i`` is link ``link_ids[i]`` at local hour ``hours[i]``.

        Each entry equals, to the last bit, what the link's
        :class:`LinkParams` returns from ``loss_rate``, ``queue_delay_ms``,
        ``utilization(hour) >= 1.0`` (the saturated link's standing queue)
        and ``available_bps``. The expressions are those of
        :meth:`DiurnalProfile.value` and the ``*_at`` functions, in their
        order of operations; numpy evaluates the correctly rounded ones
        and every ``exp`` and ``**`` runs as a CPython float operation
        (see :meth:`DiurnalProfile.exceeds` for how often numpy's differ).
        Like :meth:`params`, it raises KeyError for an id with no link.
        """
        inside = (link_ids >= 0) & (link_ids < len(self.provisioned))
        if not (inside.all() and self.provisioned[link_ids].all()):
            raise KeyError("state() asked for a link that was never provisioned")
        capacity, base, ev_amp, ev_peak, ev_w, day_amp, day_peak, day_w = (
            self.values[:, link_ids]
        )
        h = hours % 24.0
        total = base + ev_amp * _bump(h, ev_peak, ev_w, ev_amp)
        total = total + day_amp * _bump(h, day_peak, day_w, day_amp)
        u = np.where(total > 0.0, total, 0.0)

        loss = np.full(len(u), BASE_LOSS)
        busy = np.flatnonzero(u > 0.90)
        if len(busy):
            u_busy = u[busy]
            squares = [x ** 2 for x in ((u_busy - 0.90) / 0.10).tolist()]
            loss_busy = BASE_LOSS + 2.0e-3 * np.array(squares)
            loss[busy] = np.where(
                u_busy > 1.0, loss_busy + 0.03 * (u_busy - 1.0), loss_busy
            )
        loss = np.minimum(0.25, loss)
        queue_ms = MAX_QUEUE_MS * np.array(
            [x ** 4 for x in np.minimum(1.0, u).tolist()]
        )
        available = np.where(
            u <= 1.0,
            capacity * np.maximum(0.05, 1.0 - u),
            capacity * 0.05 / np.maximum(u, 1.0),
        )
        return loss, queue_ms, u >= 1.0, available

    # --- scalar path aggregates: the reference TCPModel.observe reads ---

    def path_loss(self, link_ids: tuple[int, ...], hour: float) -> float:
        """End-to-end loss over a sequence of links (independent losses)."""
        survive = 1.0
        for link_id in link_ids:
            survive *= 1.0 - self.params(link_id).loss_rate(hour)
        return 1.0 - survive

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
            params = self.params(link_id)
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
            available = self.params(link_id).available_bps(hour)
            if available < best:
                best = available
                bottleneck = link_id
        return best, bottleneck


def _bump(
    hours: np.ndarray, center: np.ndarray, width: np.ndarray, amplitude: np.ndarray
) -> np.ndarray:
    """The wrapped Gaussian bump of :meth:`DiurnalProfile.value` at each
    hour, and 0.0 where ``amplitude`` is 0.0: the term it scales is then
    0.0 either way, so its ``exp`` is skipped."""
    delta = np.abs(hours - center) % 24.0
    ratio = np.minimum(delta, 24.0 - delta) / width
    live = np.flatnonzero(amplitude != 0.0)
    bump = np.zeros(len(hours))
    bump[live] = [math.exp(-0.5 * x ** 2) for x in ratio[live].tolist()]
    return bump


def provision_links(internet: Internet, config: ProvisioningConfig) -> LinkNetwork:
    """Assign capacity and diurnal load to every interconnect.

    Parallel links within a group share the same parameters; directives
    match by org pair (any sibling ASN combination) and optional metro.

    The links come from the compiled link table. Each group draws its
    parameters when its first link comes up in link-id order, from that
    link's row, and its links then receive the group's columns at once.
    """
    rng = derive_random(config.seed, "provisioning")
    directive_index: dict[tuple[str, str], CongestionDirective] = {}
    for directive in config.directives:
        key = tuple(sorted((directive.org_a, directive.org_b)))
        directive_index[key] = directive  # type: ignore[index]

    from repro.net.compiled import compile_world

    world = compile_world(internet)
    _, first_rows, group_of_link = np.unique(
        world.link_cols[:, 7], return_index=True, return_inverse=True
    )
    draw_order = np.argsort(first_rows)
    rows = first_rows[draw_order]
    graph = internet.graph
    org_of = internet.orgs.org_of
    group_values = np.empty((8, len(first_rows)))
    group_congested = np.empty(len(first_rows), dtype=bool)
    for group, a_asn, b_asn, city in zip(
        draw_order.tolist(),
        world.link_cols[rows, 0].tolist(),
        world.link_cols[rows, 1].tolist(),
        world.link_city[rows].tolist(),
    ):
        directive = _matching_directive(org_of(a_asn), org_of(b_asn), city, directive_index)
        capacity = _capacity_class({graph.get(a_asn).role, graph.get(b_asn).role}, rng)
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
        group_values[:, group] = (
            capacity,
            profile.base,
            profile.evening_amplitude,
            profile.evening_peak_hour,
            profile.evening_width_hours,
            profile.day_amplitude,
            profile.day_peak_hour,
            profile.day_width_hours,
        )
        group_congested[group] = profile.exceeds(0.995)

    size = int(world.link_ids[-1]) + 1 if len(world.link_ids) else 0
    values = np.zeros((8, size))
    congested = np.zeros(size, dtype=bool)
    provisioned = np.zeros(size, dtype=bool)
    values[:, world.link_ids] = group_values[:, group_of_link]
    congested[world.link_ids] = group_congested[group_of_link]
    provisioned[world.link_ids] = True
    return LinkNetwork(values, congested, provisioned)


def _matching_directive(
    org_a: Organization | None,
    org_b: Organization | None,
    city_code: str,
    index: dict[tuple[str, str], CongestionDirective],
) -> CongestionDirective | None:
    if org_a is None or org_b is None:
        return None
    key = tuple(sorted((org_a.name, org_b.name)))
    directive = index.get(key)  # type: ignore[arg-type]
    if directive is None:
        return None
    if directive.city_code is not None and directive.city_code != city_code:
        return None
    return directive
