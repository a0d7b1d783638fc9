"""Scalar reference implementations that the equivalence tests compare against.

``repro.inference`` runs MAP-IT, bdrmap's first-departure border walk
and alias grouping as array passes over deduplicated hop columns. The
first half of this module holds the same algorithms written one
interface, one trace and one address at a time, as they were first
implemented.

``repro.platforms.campaign`` runs the §4 campaign a block of events at a
time as parallel lists, ``TCPModel.observe_batch`` evaluates transfers
as columns, and ``TracerouteEngine`` renders every trace through one
table-backed renderer. The second half holds the test-at-a-time
campaign loop they replaced: per-test ``plan``/``complete`` over one
:class:`ObserveRequest` per transfer, scalar ``TCPModel.observe`` per
request, and the hop-by-hop traceroute walk.

``repro.routing.forwarding`` routes each flow through a route plan
resolved once per endpoint pair from the compiled world's tables. The
third part holds the forwarder it replaced: the per-flow boundary walk
over the object fabric, and the batch resolver that grouped requests by
endpoint pair and memoized whole requests.

The equivalence tests and the property tests hold the fast paths equal
to these. Nothing in ``src`` imports this module.
"""

from __future__ import annotations

import zlib
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.core.coverage import BorderSet, CoverageReport
from repro.inference.bdrmap import BdrmapResult, BorderLink, org_relationship
from repro.inference.borders import OriginOracle
from repro.inference.mapit import InferredLink, MapItConfig, MapItResult
from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.net.tcp import ObservedBatch, PathObservation
from repro.platforms.campaign import (
    _SECONDS_PER_DAY,
    CampaignConfig,
    CampaignResult,
    _sample_local_hour,
)
from repro.routing.bgp import BGPRouting
from repro.routing.forwarding import ForwardingPath, flow_hash
from repro.topology.asgraph import ASGraph
from repro.topology.geo import city_by_code, geo_distance_km, propagation_delay_by_code_ms
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect
from repro.util.rng import derive_random

#: Sentinel distinguishing "not memoized" from a memoized None origin.
_MISSING = object()

#: Shared read-only default for interfaces with no adjacency evidence.
_EMPTY_MAP: dict[int, int] = {}


def same_ptp_subnet(a: int, b: int) -> bool:
    """True when two addresses form a point-to-point pair.

    Either the two addresses of an aligned /31, or the two usable middle
    addresses of a /30 (base+1, base+2).
    """
    if a >> 1 == b >> 1:
        return True
    if a >> 2 == b >> 2:
        low = min(a, b) & 0x3
        high = max(a, b) & 0x3
        return (low, high) == (1, 2)
    return False


class ScalarMapIt:
    """MAP-IT with one ``_propose`` call per interface per pass.

    After the first pass only interfaces next to a flip are re-examined
    (a proposal depends only on the interface's own owner and origin and
    its neighbors' owners, so the others would propose what they did).
    """

    def __init__(
        self,
        oracle: OriginOracle,
        graph: ASGraph | None = None,
        config: MapItConfig | None = None,
    ) -> None:
        self._oracle = oracle
        self._graph = graph
        self._config = config if config is not None else MapItConfig()
        self._origin_memo: dict[int, int | None] = {}
        self._ixp_memo: dict[int, bool] = {}
        self._plausible_memo: dict[tuple[int, int | None], bool] = {}

    def _origin(self, ip: int) -> int | None:
        val = self._origin_memo.get(ip, _MISSING)
        if val is _MISSING:
            val = self._oracle.origin(ip)
            self._origin_memo[ip] = val
        return val

    def _is_ixp(self, ip: int) -> bool:
        val = self._ixp_memo.get(ip)
        if val is None:
            val = self._oracle.is_ixp(ip)
            self._ixp_memo[ip] = val
        return val

    def infer(self, traces: Sequence[Sequence[int | None]]) -> MapItResult:
        succs: dict[int, dict[int, int]] = {}
        preds: dict[int, dict[int, int]] = {}
        pair_counts: Counter[tuple[int, int]] = Counter()
        for trace in traces:
            a = None
            for b in trace:
                if a is not None and b is not None and a != b:
                    row = succs.setdefault(a, {})
                    row[b] = row.get(b, 0) + 1
                    row = preds.setdefault(b, {})
                    row[a] = row.get(a, 0) + 1
                    pair_counts[(a, b)] += 1
                a = b

        interfaces = sorted(set(succs) | set(preds))
        ownership: dict[int, int | None] = {ip: self._origin(ip) for ip in interfaces}

        passes = 0
        total_flips = 0
        flip_counts: Counter[int] = Counter()
        dirty: set[int] | None = None  # None = examine everything
        max_flips = self._config.max_flips_per_interface
        for passes in range(1, self._config.max_passes + 1):
            proposals = {}
            for ip in interfaces if dirty is None else dirty:
                if self._is_ixp(ip):
                    continue  # IXP addresses stay unowned
                if flip_counts[ip] >= max_flips:
                    continue  # frozen: repeated flipping signals ambiguity
                proposal = self._propose(ip, ownership, preds, succs)
                if proposal is not None and proposal != ownership[ip]:
                    proposals[ip] = proposal
            if not proposals:
                break
            ownership.update(proposals)
            flip_counts.update(proposals.keys())
            total_flips += len(proposals)
            dirty = set()
            for flipped in proposals:
                dirty.add(flipped)
                dirty.update(succs.get(flipped, ()))
                dirty.update(preds.get(flipped, ()))

        links = self._extract_links(traces, pair_counts, ownership)
        return MapItResult(
            ownership=ownership, links=links, passes_used=passes, flips=total_flips
        )

    def _majority(
        self, neighbors: dict[int, int], ownership: dict[int, int | None]
    ) -> tuple[int | None, float]:
        """(majority owner, fraction) over a neighbor multiset, weighted by
        observation count; ties go to the smallest owner ASN."""
        counts: dict[int, int] = {}
        total = 0
        for ip, weight in neighbors.items():
            owner = ownership.get(ip)
            if owner is None:
                continue
            counts[owner] = counts.get(owner, 0) + weight
            total += weight
        if total == 0:
            return None, 0.0
        owner, count = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        return owner, count / total

    def _has_ptp_partner(self, ip: int, neighbors: dict[int, int], origin: int) -> bool:
        for other in neighbors:
            if other != ip and same_ptp_subnet(ip, other) and self._origin(other) == origin:
                return True
        return False

    def _propose(
        self,
        ip: int,
        ownership: dict[int, int | None],
        preds: dict[int, dict[int, int]],
        succs: dict[int, dict[int, int]],
    ) -> int | None:
        threshold = self._config.majority_threshold
        pred_set = preds.get(ip, _EMPTY_MAP)
        pred_major, pred_frac = self._majority(pred_set, ownership)
        if pred_major is None or pred_frac <= threshold:
            return None
        succ_set = succs.get(ip, _EMPTY_MAP)
        succ_major, succ_frac = self._majority(succ_set, ownership)
        if succ_major is None or succ_frac <= threshold:
            return None
        origin = self._origin(ip)
        current = ownership[ip]

        # Agreement rule — both directions point at the same owner.
        if pred_major == succ_major:
            if pred_major != current and self._plausible(pred_major, origin):
                return pred_major
            return None

        # Boundary rule — the interface sits on an interdomain link.
        if origin is None:
            return None
        if origin == pred_major:
            if self._has_ptp_partner(ip, pred_set, origin):
                candidate = succ_major
                if candidate != current and self._plausible(candidate, origin):
                    return candidate
        elif origin == succ_major:
            if self._has_ptp_partner(ip, succ_set, origin):
                candidate = pred_major
                if candidate != current and self._plausible(candidate, origin):
                    return candidate
        return None

    def _plausible(self, candidate: int, origin: int | None) -> bool:
        if self._graph is None or origin is None or candidate == origin:
            return True
        key = (candidate, origin)
        cached = self._plausible_memo.get(key)
        if cached is not None:
            return cached
        verdict = self._oracle.same_org(candidate, origin) or any(
            self._graph.relationship(a, b) is not None
            for a in self._oracle.org_members(candidate)
            for b in self._oracle.org_members(origin)
        )
        self._plausible_memo[key] = verdict
        return verdict

    def _extract_links(
        self,
        traces: Sequence[Sequence[int | None]],
        pair_counts: Counter[tuple[int, int]],
        ownership: dict[int, int | None],
    ) -> list[InferredLink]:
        links: dict[tuple[int, int], list] = {}

        def record(a: int, b: int, owner_a: int, owner_b: int, count: int, via_ixp: bool) -> None:
            key = (a, b) if a < b else (b, a)
            entry = links.get(key)
            if entry is None:
                links[key] = [a, b, owner_a, owner_b, count, via_ixp]
            else:
                entry[4] += count

        for (a, b), count in pair_counts.items():
            owner_a = ownership.get(a)
            owner_b = ownership.get(b)
            if owner_a is None or owner_b is None or owner_a == owner_b:
                continue
            if self._oracle.same_org(owner_a, owner_b):
                continue
            record(a, b, owner_a, owner_b, count, via_ixp=False)

        # Collapse IXP-addressed runs: known(A) → ixp... → known(B). A
        # non-response resets the run.
        ixp_triples: Counter[tuple[int, int, int, int]] = Counter()
        for trace in traces:
            run_start: int | None = None
            first_ixp: int | None = None
            last_ixp: int | None = None
            for ip in trace:
                if ip is None:
                    run_start = first_ixp = last_ixp = None
                    continue
                if self._is_ixp(ip):
                    if first_ixp is None:
                        first_ixp = ip
                    last_ixp = ip
                    continue
                owner = ownership.get(ip)
                if first_ixp is not None and run_start is not None and owner is not None:
                    prev_owner = ownership.get(run_start)
                    if prev_owner is not None and prev_owner != owner:
                        ixp_triples[(first_ixp, last_ixp, prev_owner, owner)] += 1
                first_ixp = last_ixp = None
                if owner is not None:
                    run_start = ip
        for (first_ixp, last_ixp, owner_a, owner_b), count in ixp_triples.items():
            if self._oracle.same_org(owner_a, owner_b):
                continue
            record(first_ixp, last_ixp, owner_a, owner_b, count, via_ixp=True)

        results = [
            InferredLink(near_ip=a, far_ip=b, near_asn=oa, far_asn=ob, observations=n, via_ixp=ixp)
            for a, b, oa, ob, n, ixp in links.values()
            if n >= self._config.min_link_observations
        ]
        return sorted(consolidate(results), key=lambda l: (l.as_pair(), l.ip_pair()))


def consolidate(links: list[InferredLink]) -> list[InferredLink]:
    """Drop non-aligned pairs whose endpoint is in an aligned link."""
    aligned_endpoints: set[int] = set()
    for link in links:
        if link.via_ixp or same_ptp_subnet(link.near_ip, link.far_ip):
            aligned_endpoints.add(link.near_ip)
            aligned_endpoints.add(link.far_ip)
    return [
        link
        for link in links
        if link.via_ixp
        or same_ptp_subnet(link.near_ip, link.far_ip)
        or not (link.near_ip in aligned_endpoints or link.far_ip in aligned_endpoints)
    ]


def first_departure(
    path: Sequence[int | None],
    ownership: dict[int, int | None],
    vp_org_asn: int,
    oracle: OriginOracle,
) -> tuple[int, int, int] | None:
    """(near ip, far ip, neighbor org) where one trace leaves the VP network.

    Walks to the last responding hop owned by the VP org, then returns
    the next hop with a known different owner; IXP hops are stepped
    over, and a gap or an unowned hop at the boundary gives None.
    """
    last_inside: int | None = None
    for index, ip in enumerate(path):
        if ip is not None and ownership.get(ip) == vp_org_asn:
            last_inside = index
    if last_inside is None or last_inside == len(path) - 1:
        return None
    near_ip = path[last_inside]
    for far_index in range(last_inside + 1, len(path)):
        far_ip = path[far_index]
        if far_ip is None:
            break
        if oracle.is_ixp(far_ip):
            continue
        owner = ownership.get(far_ip)
        if owner is not None and owner != vp_org_asn:
            return near_ip, far_ip, owner
        break
    return None


def resolve_aliases(internet, ips, recall: float = 0.90, seed: int = 7) -> dict[int, int]:
    """Alias groups walking the fabric one address at a time."""
    rng = derive_random(seed, "alias")
    by_router: dict[int, list[int]] = defaultdict(list)
    unknown: list[int] = []
    for ip in sorted(set(ips)):
        iface = internet.fabric.interface(ip)
        if iface is None:
            unknown.append(ip)
        else:
            by_router[iface.router_id].append(ip)

    group_of: dict[int, int] = {}
    next_group = 1
    for router_id in sorted(by_router):
        members = by_router[router_id]
        if len(members) > 1 and rng.random() >= recall:
            split = rng.randint(1, len(members) - 1)
            parts = [members[:split], members[split:]]
        else:
            parts = [members]
        for part in parts:
            for ip in part:
                group_of[ip] = next_group
            next_group += 1
    for ip in unknown:
        group_of[ip] = next_group
        next_group += 1
    return group_of


def _group(group_of: dict[int, int], ip: int) -> int:
    return group_of.get(ip, -ip)


def run_bdrmap(internet, vp, traces, oracle, recall: float = 0.90, seed: int = 7) -> BdrmapResult:
    """bdrmap's analysis phase from the scalar pieces above."""
    vp_org_asn = oracle.canonical(vp.asn)
    ip_paths = [t.router_hop_ips() for t in traces]
    ownership = ScalarMapIt(oracle, internet.graph).infer(ip_paths).ownership
    observed = {ip for path in ip_paths for ip in path if ip is not None}
    group_of = resolve_aliases(internet, observed, recall=recall, seed=seed)

    crossings: Counter[tuple[int, int]] = Counter()
    for path in ip_paths:
        crossing = first_departure(path, ownership, vp_org_asn, oracle)
        if crossing is not None:
            near_ip, _far_ip, neighbor = crossing
            crossings[(_group(group_of, near_ip), neighbor)] += 1
    borders = [
        BorderLink(
            border_group=group,
            neighbor_asn=neighbor,
            relationship=org_relationship(internet, vp_org_asn, neighbor),
            observations=count,
        )
        for (group, neighbor), count in sorted(crossings.items())
    ]
    return BdrmapResult(vp=vp, borders=borders, traces_used=len(traces))


def coverage_analysis(internet, vp, bdrmap_traces, platform_traces, oracle) -> CoverageReport:
    """The §5 coverage analysis from the scalar pieces above."""
    vp_org = oracle.canonical(vp.asn)
    bdrmap_paths = [t.router_hop_ips() for t in bdrmap_traces]
    platform_paths = {
        name: [t.router_hop_ips() for t in traces] for name, traces in platform_traces.items()
    }
    all_paths = list(bdrmap_paths)
    for paths in platform_paths.values():
        all_paths.extend(paths)
    ownership = ScalarMapIt(oracle, internet.graph).infer(all_paths).ownership
    observed = {ip for path in all_paths for ip in path if ip is not None}
    group_of = resolve_aliases(internet, observed)

    def borders_of(paths, name: str) -> BorderSet:
        as_level: set[int] = set()
        router_level: set[tuple[int, int]] = set()
        for path in paths:
            crossing = first_departure(path, ownership, vp_org, oracle)
            if crossing is not None:
                near_ip, _far_ip, neighbor = crossing
                as_level.add(neighbor)
                router_level.add((_group(group_of, near_ip), neighbor))
        return BorderSet(name=name, as_level=frozenset(as_level), router_level=frozenset(router_level))

    discovered = borders_of(bdrmap_paths, "bdrmap")
    reachable = {name: borders_of(platform_paths[name], name) for name in platform_traces}
    relationships = {
        neighbor: org_relationship(internet, vp_org, neighbor)
        for neighbor in discovered.as_level
        | {n for border_set in reachable.values() for n in border_set.as_level}
    }
    return CoverageReport(
        vp=vp, discovered=discovered, reachable=reachable, relationships=relationships
    )


# --- §4: the test-at-a-time campaign ------------------------------------------


@dataclass(frozen=True)
class ObserveRequest:
    """Everything one transfer evaluation needs: the arguments of
    ``TCPModel.observe``."""

    path: ForwardingPath
    hour: float
    access_rate_bps: float
    home_factor: float = 1.0
    access_loss: float = 0.0
    with_noise: bool = True


def observe_request(model, request: ObserveRequest) -> PathObservation:
    """Scalar evaluation of one request."""
    return model.observe(
        request.path,
        request.hour,
        request.access_rate_bps,
        home_factor=request.home_factor,
        access_loss=request.access_loss,
        with_noise=request.with_noise,
    )


def request_columns(requests: Sequence[ObserveRequest]) -> tuple[list, ...]:
    """The positional arguments of ``observe_batch`` for these requests."""
    return (
        [r.path for r in requests],
        [r.hour for r in requests],
        [r.access_rate_bps for r in requests],
        [r.home_factor for r in requests],
        [r.access_loss for r in requests],
        [r.with_noise for r in requests],
    )


def observe_columns(model, columns: Sequence[Sequence | None]) -> list[PathObservation]:
    """Scalar ``observe`` over each entry of ``observe_batch``-shaped columns."""
    paths, hours, rates, home_factors, losses, with_noise = columns
    with_noise = with_noise if with_noise is not None else [True] * len(paths)
    return [
        model.observe(path, hour, rate, home_factor=home, access_loss=loss,
                      with_noise=noisy)
        for path, hour, rate, home, loss, noisy
        in zip(paths, hours, rates, home_factors, losses, with_noise)
    ]


def observation_rows(observed: ObservedBatch) -> list[PathObservation]:
    """``observe_batch``'s columns as one :class:`PathObservation` per request."""
    return [PathObservation(*row) for row in zip(*observed)]


@dataclass(frozen=True)
class PlannedTest:
    """A routed NDT test awaiting its TCP evaluation(s)."""

    test_id: int
    client: object
    server: object
    timestamp_s: float
    local_hour: float
    path: ForwardingPath
    requests: tuple[ObserveRequest, ...]
    has_upload: bool


class ScalarNDTRunner:
    """NDT execution one test at a time: plan, observe each request, complete."""

    def __init__(self, forwarder, tcp) -> None:
        self._forwarder = forwarder
        self._tcp = tcp
        self._next_test_id = 1

    def plan(self, client, server, conditions, timestamp_s, local_hour):
        """Route one test and claim its id; None when the client is unreachable."""
        test_id = self._next_test_id
        flow_key = ("ndt", test_id, server.server_id, client.ip)
        path = self._forwarder.route_flow(
            server.asn, server.city, client.asn, client.city, flow_key
        )
        if path is None:
            return None
        requests = [
            ObserveRequest(
                path=path,
                hour=local_hour,
                access_rate_bps=conditions.effective_plan_bps,
                home_factor=conditions.home_factor,
                access_loss=conditions.access_loss,
            )
        ]
        has_upload = False
        if conditions.effective_upload_bps > 0:
            upstream_path = self._forwarder.route_flow(
                client.asn, client.city, server.asn, server.city,
                ("ndt-up", *flow_key[1:]),
            )
            if upstream_path is not None:
                has_upload = True
                requests.append(
                    ObserveRequest(
                        path=upstream_path,
                        hour=local_hour,
                        access_rate_bps=conditions.effective_upload_bps,
                        home_factor=conditions.home_factor,
                        access_loss=conditions.access_loss,
                    )
                )
        self._next_test_id += 1
        return PlannedTest(
            test_id=test_id,
            client=client,
            server=server,
            timestamp_s=timestamp_s,
            local_hour=local_hour,
            path=path,
            requests=tuple(requests),
            has_upload=has_upload,
        )

    def complete(self, planned: PlannedTest, observations: list[PathObservation]) -> NDTRecord:
        observation = observations[0]
        client = planned.client
        server = planned.server
        return NDTRecord(
            test_id=planned.test_id,
            timestamp_s=planned.timestamp_s,
            local_hour=planned.local_hour,
            client_ip=client.ip,
            server_id=server.server_id,
            server_ip=server.ip,
            server_asn=server.asn,
            server_city=server.city,
            download_bps=observation.throughput_bps,
            rtt_ms=observation.rtt_ms,
            retx_rate=observation.retx_rate,
            congestion_signals=observation.congestion_signals,
            gt_client_asn=client.asn,
            gt_client_org=client.org_name,
            gt_crossed_links=planned.path.crossed_links,
            gt_bottleneck_link=observation.bottleneck_link_id,
            gt_bottleneck_kind=observation.bottleneck_kind,
            rtt_min_ms=observation.rtt_min_ms,
            rtt_max_ms=observation.rtt_max_ms,
            upload_bps=observations[1].throughput_bps if planned.has_upload else 0.0,
        )

    def run(self, client, server, conditions, timestamp_s, local_hour):
        """plan → scalar observe per request → complete; None when unroutable."""
        planned = self.plan(client, server, conditions, timestamp_s, local_hour)
        if planned is None:
            return None
        observations = [observe_request(self._tcp, r) for r in planned.requests]
        return self.complete(planned, observations)


def trace_along(engine, path: ForwardingPath, src_ip: int, dst_ip: int, dst_city: str,
                timestamp_s: float) -> TracerouteRecord:
    """Render a forwarding path as a traceroute, one hop at a time.

    The draw sequence is the determinism contract: a silent router
    short-circuits the transient draw, and third-party only draws for
    responsive hops.
    """
    config = engine._config
    rng = engine._rng
    ips: list[int | None] = []
    rtts: list[float | None] = []
    cumulative_ms = 1.0
    cities = path.hop_cities
    previous_city = cities[0] if cities else dst_city
    for router_id, city, default_ip in zip(path.hop_routers, cities, path.hop_ips):
        if city != previous_city:
            cumulative_ms += 2.0 * propagation_delay_by_code_ms(previous_city, city)
            previous_city = city
        reply_ip: int | None = default_ip
        silent = engine._silence.get(router_id)
        if silent is None:
            silent = engine._router_is_silent(router_id)
        if silent or rng.random() < config.transient_loss_prob:
            reply_ip = None
        elif rng.random() < config.third_party_prob:
            alternates = engine._alternates(router_id, default_ip)
            if alternates:
                reply_ip = rng.choice(alternates)
        rtt = None
        if reply_ip is not None:
            rtt = max(0.1, cumulative_ms + rng.uniform(-1, 1) * config.rtt_jitter_ms)
        ips.append(reply_ip)
        rtts.append(rtt)

    reached = rng.random() < config.destination_responds_prob
    if reached:
        if previous_city != dst_city:
            cumulative_ms += 2.0 * propagation_delay_by_code_ms(previous_city, dst_city)
        ips.append(dst_ip)
        rtts.append(cumulative_ms + rng.uniform(0, config.rtt_jitter_ms))

    record = TracerouteRecord(
        trace_id=engine._next_trace_id,
        timestamp_s=timestamp_s,
        src_ip=src_ip,
        src_asn=path.src_asn,
        dst_ip=dst_ip,
        hop_ips=tuple(ips),
        hop_rtts=tuple(rtts),
        reached_destination=reached,
        gt_crossed_links=path.crossed_links,
        gt_as_path=path.as_path,
    )
    engine._next_trace_id += 1
    return record


def trace(engine, src_ip, src_asn, src_city, dst_ip, dst_asn, dst_city, timestamp_s,
          flow_key) -> TracerouteRecord | None:
    """One Paris traceroute: route the flow, then walk it hop by hop."""
    path = engine._forwarder.route_flow(src_asn, src_city, dst_asn, dst_city, flow_key)
    if path is None:
        return None
    return trace_along(engine, path, src_ip, dst_ip, dst_city, timestamp_s)


def run_ndt_campaign(population, platform, forwarder, tcp, config: CampaignConfig, engine):
    """The campaign one test at a time.

    Returns ``(result, lost, rng)``: the campaign, the number of traces
    lost to busy daemons, and the campaign's own random stream in its end
    state.
    """
    rng = derive_random(config.seed, "campaign")
    runner = ScalarNDTRunner(forwarder, tcp)
    platform.reset_daemons()

    orgs = list(config.orgs) if config.orgs is not None else population.orgs()
    clients_by_org = {}
    weights = []
    for org in orgs:
        clients = population.clients_of(org)
        if not clients:
            raise ValueError(f"org {org!r} has no clients")
        clients_by_org[org] = clients
        weights.append(float(len(clients)))

    events = []
    scheduled_tests = 0
    while scheduled_tests < config.total_tests:
        org = rng.choices(orgs, weights=weights, k=1)[0]
        client = rng.choice(clients_by_org[org])
        n_tests = 1
        if rng.random() < config.burst_prob:
            n_tests = rng.randint(*config.burst_tests)
        n_tests = min(n_tests, config.total_tests - scheduled_tests)
        day = rng.randrange(config.days)
        hour = _sample_local_hour(rng)
        now = day * _SECONDS_PER_DAY + hour * 3600.0 + rng.uniform(0, 59)
        sites = platform.select_regional_sites(client.city, count=5)
        for test_index in range(n_tests):
            if config.selection_policy == "direct":
                server = platform.select_server_direct(client.city, client.asn, rng)
            elif config.selection_policy == "regional":
                server = rng.choice(platform.servers_at(rng.choice(sites)))
            elif n_tests > 1:
                site = sites[test_index % len(sites)]
                server = rng.choice(platform.servers_at(site))
            else:
                server = platform.select_server(client.city, rng, config.selection_policy)
            events.append((now, client, server))
            now += rng.uniform(*config.burst_gap_s)
        scheduled_tests += n_tests
    events.sort(key=lambda e: e[0])

    ndt_records = []
    traceroutes = []
    lost = 0
    for now, client, server in events:
        local_hour = (now % _SECONDS_PER_DAY) / 3600.0
        conditions = population.draw_conditions(client, local_hour, rng)
        record = runner.run(client, server, conditions, now, local_hour)
        if record is None:
            continue
        ndt_records.append(record)
        test_end = now + config.test_duration_s
        if platform.daemon_try_acquire(server.site, test_end) is None:
            lost += 1
            continue
        traced = trace(
            engine, server.ip, server.asn, server.city, client.ip, client.asn,
            client.city, test_end + 1.0, ("paris", server.site, client.ip, record.test_id),
        )
        if traced is not None:
            traceroutes.append(traced)
    result = CampaignResult(
        config=config,
        ndt_records=ndt_records,
        traceroute_records=traceroutes,
        servers_by_id={s.server_id: s for s in platform.servers()},
    )
    return result, lost, rng


class ScalarForwarder:
    """Router-level forwarding as it was before route plans.

    ``route_flow`` walks every boundary per flow (AS-path cache, egress
    coin, nearest-link group, ``flow_hash``, access pick), and
    ``resolve_paths_batch`` groups a batch by endpoint pair, hoists each
    group's constants and memoizes whole requests. It reads the object
    fabric (``self._fabric``, which a test may replace) where the
    production forwarder reads the compiled world's tables.
    """

    def __init__(
        self,
        internet: Internet,
        routing: BGPRouting | None = None,
        segment_cache_size: int = 65536,
    ) -> None:
        self._internet = internet
        self._fabric = internet.fabric
        self._routing = routing if routing is not None else BGPRouting(internet.graph)
        self._distance_cache: dict[tuple[str, str], float] = {}
        self._segment_cache_size = max(0, segment_cache_size)
        #: (current_as, next_as, anchor_city) → equally-nearest interconnects.
        #: Bounded caches here evict in insertion (FIFO) order rather than
        #: LRU: skipping the per-hit reordering is measurably cheaper on
        #: the route hot path, and eviction policy can never change which
        #: path a flow gets — only how often it is recomputed.
        #: ``OrderedDict.popitem(last=False)`` evicts in O(1), where
        #: deleting a plain dict's first key rescans the slots freed by
        #: earlier evictions.
        self._segment_cache: OrderedDict[tuple[int, int, str], tuple[Interconnect, ...]] = (
            OrderedDict()
        )
        #: (asn, city) → the core router's (router_id, reply_ip), or None
        #: when the AS has no core router with an interface there.
        self._core_hop_cache: dict[tuple[int, str], tuple[int, int] | None] = {}
        #: (asn, city) → (router_id, first-interface ip) access candidates.
        self._access_cache: dict[tuple[int, str], tuple[tuple[int, int], ...]] = {}
        #: (src_asn, dst_asn) → AS path tuple (None = unroutable).
        self._as_path_cache: OrderedDict[tuple[int, int], tuple[int, ...] | None] = (
            OrderedDict()
        )
        #: (current_as, next_as, dst_city) → honours-MED coin. The coin is
        #: a pure crc32 of its key, so memoizing it is free of semantics.
        self._egress_memo: dict[tuple[int, int, str], bool] = {}
        #: Fully-resolved flow choices → interned ForwardingPath. Distinct
        #: flows that hash onto the same links share one path object,
        #: which downstream identity-keyed memos (TCP base-RTT) exploit.
        self._path_cache: OrderedDict[tuple, ForwardingPath] = OrderedDict()
        #: Whole batch request → interned path. route_flow is a pure
        #: function of its arguments, so repeated sweeps over the same
        #: targets (the batch engine's steady state) skip the per-flow
        #: hash walk entirely. Only successful resolutions are stored.
        self._flow_memo: OrderedDict[tuple, ForwardingPath] = OrderedDict()

    @property
    def routing(self) -> BGPRouting:
        return self._routing

    def route_flow(
        self,
        src_asn: int,
        src_city: str,
        dst_asn: int,
        dst_city: str,
        flow_key: object,
    ) -> ForwardingPath | None:
        """Compute the router-level path for one flow, or None if unroutable.

        ``flow_key`` identifies the flow for ECMP purposes; the same key
        always takes the same path (which is what lets Paris traceroute
        see the path an NDT flow used).
        """
        as_path = self._cached_as_path(src_asn, dst_asn)
        if as_path is None:
            return None

        # Resolve every flow-dependent choice up front: the ECMP link pick
        # at each boundary and the access-router pick. The assembled path
        # is a pure function of these plus the endpoints, so flows whose
        # hashes land on the same choices can share one interned object.
        selected: list[Interconnect] = []
        current_city = src_city
        # flow_hash() renders every part with str(); rendering the (often
        # nested-tuple) flow key once here feeds every per-boundary hash
        # the identical text.
        flow_text = str(flow_key)
        for position in range(len(as_path) - 1):
            link = self._select_link(
                as_path[position], as_path[position + 1],
                current_city, dst_city, flow_text, position,
            )
            if link is None:
                return None  # AS adjacency with no fabric realization
            selected.append(link)
            current_city = link.city_code
        access_choice = self._access_choice(dst_asn, dst_city, flow_text)

        if self._segment_cache_size:
            key = (
                src_asn, src_city, dst_asn, dst_city,
                tuple(link.link_id for link in selected), access_choice,
            )
            cached = self._path_cache.get(key)
            if cached is not None:
                return cached

        path = self._assemble(
            src_asn, src_city, dst_asn, dst_city, as_path, selected, access_choice
        )
        if self._segment_cache_size:
            self._path_cache[key] = path
            if len(self._path_cache) > self._segment_cache_size:
                self._path_cache.popitem(last=False)
        return path

    def resolve_paths_batch(
        self,
        requests: "list[tuple[int, str, int, str, object]]",
    ) -> "list[ForwardingPath | None]":
        """Resolve many flows' paths in one pass.

        Each request is ``(src_asn, src_city, dst_asn, dst_city,
        flow_key)``; the result list is order-aligned with the input and
        every entry is *identical* (same interned object where caching is
        on) to what :meth:`route_flow` returns for that request — batching
        only hoists work that is constant across a (src, dst) endpoint
        group: the AS-path lookup, the per-boundary egress-policy coins,
        the cold-potato candidate groups, the access-router candidates,
        and the rendered crc32 suffixes of the per-boundary ECMP hashes.
        The flow-dependent hashes themselves are computed per flow from
        exactly the bytes :func:`flow_hash` would hash, so every ECMP and
        access pick lands on the same member as the scalar walk.
        """
        results: list[ForwardingPath | None] = [None] * len(requests)
        groups: dict[tuple[int, str, int, str], list] = {}
        flow_memo = self._flow_memo
        for index, request in enumerate(requests):
            try:
                cached = flow_memo.get(request)
            except TypeError:  # unhashable flow key — resolve uncached
                cached = None
            if cached is not None:
                results[index] = cached
                continue
            src_asn, src_city, dst_asn, dst_city, flow_key = request
            groups.setdefault((src_asn, src_city, dst_asn, dst_city), []).append(
                (index, flow_key, request)
            )
        crc32 = zlib.crc32
        nearest_links = self._nearest_links
        cache_size = self._segment_cache_size
        path_cache = self._path_cache
        egress_memo = self._egress_memo
        route_flow = self.route_flow

        for (src_asn, src_city, dst_asn, dst_city), members in groups.items():
            if len(members) == 1:
                # Singleton group: the hoisted constants cannot amortize,
                # so the scalar walk is strictly cheaper.
                index, flow_key, request = members[0]
                path = route_flow(src_asn, src_city, dst_asn, dst_city, flow_key)
                results[index] = path
                if path is not None and cache_size:
                    try:
                        flow_memo[request] = path
                    except TypeError:
                        pass  # unhashable flow key
                    else:
                        if len(flow_memo) > cache_size:
                            flow_memo.popitem(last=False)
                continue
            as_path = self._cached_as_path(src_asn, dst_asn)
            if as_path is None:
                continue

            # Per-boundary constants: (honours-MED, crc suffix bytes, and —
            # for cold-potato boundaries, whose anchor is the fixed
            # destination metro — the resolved candidate group).
            boundary_consts: list[tuple[int, int, bool, bytes, tuple | None]] = []
            for position in range(len(as_path) - 1):
                current_as = as_path[position]
                next_as = as_path[position + 1]
                policy_key = (current_as, next_as, dst_city)
                honors_med = egress_memo.get(policy_key)
                if honors_med is None:
                    honors_med = (
                        flow_hash("egress-policy", current_as, next_as, dst_city) % 2 == 0
                    )
                    if len(egress_memo) >= 1_048_576:
                        egress_memo.clear()
                    egress_memo[policy_key] = honors_med
                suffix = ("|%d|%d|%d" % (current_as, next_as, position)).encode("utf-8")
                cold_nearest = (
                    nearest_links(current_as, next_as, dst_city) if honors_med else None
                )
                boundary_consts.append(
                    (current_as, next_as, honors_med, suffix, cold_nearest)
                )

            # Access candidates, exactly as _access_choice builds them.
            access_key = (dst_asn, dst_city)
            candidates = self._access_cache.get(access_key) if cache_size else None
            if candidates is None:
                candidates = tuple(
                    (router.router_id, interfaces[0].ip if interfaces else 0)
                    for router in self._fabric.access_routers_of(dst_asn, dst_city)
                    for interfaces in (self._fabric.interfaces_of(router.router_id),)
                )
                if cache_size:
                    self._access_cache[access_key] = candidates
            access_suffix = ("|access|%d|%s" % (dst_asn, dst_city)).encode("utf-8")

            for index, flow_key, request in members:
                flow_bytes = str(flow_key).encode("utf-8")
                selected: list[Interconnect] = []
                current_city = src_city
                routable = True
                for current_as, next_as, honors_med, suffix, cold_nearest in boundary_consts:
                    nearest = (
                        cold_nearest
                        if honors_med
                        else nearest_links(current_as, next_as, current_city)
                    )
                    if not nearest:
                        routable = False
                        break
                    if len(nearest) == 1:
                        link = nearest[0]
                    else:
                        link = nearest[crc32(flow_bytes + suffix) % len(nearest)]
                    selected.append(link)
                    current_city = link.city_code
                if not routable:
                    continue  # AS adjacency with no fabric realization
                if not candidates:
                    access_choice = None
                elif len(candidates) == 1:
                    access_choice = candidates[0]
                else:
                    access_choice = candidates[
                        crc32(flow_bytes + access_suffix) % len(candidates)
                    ]
                path = None
                if cache_size:
                    key = (
                        src_asn, src_city, dst_asn, dst_city,
                        tuple(link.link_id for link in selected), access_choice,
                    )
                    path = path_cache.get(key)
                if path is None:
                    path = self._assemble(
                        src_asn, src_city, dst_asn, dst_city,
                        as_path, selected, access_choice,
                    )
                    if cache_size:
                        path_cache[key] = path
                        if len(path_cache) > cache_size:
                            path_cache.popitem(last=False)
                results[index] = path
                if cache_size:
                    try:
                        flow_memo[request] = path
                    except TypeError:
                        pass  # unhashable flow key
                    else:
                        if len(flow_memo) > cache_size:
                            flow_memo.popitem(last=False)
        return results

    def _assemble(
        self,
        src_asn: int,
        src_city: str,
        dst_asn: int,
        dst_city: str,
        as_path: tuple[int, ...],
        selected: list[Interconnect],
        access_choice: tuple[int, int] | None,
    ) -> ForwardingPath:
        """Expand resolved choices into the path's hop columns."""
        routers: list[int] = []
        asns: list[int] = []
        cities: list[str] = []
        ips: list[int] = []
        core_hop = self._core_hop

        def add_core(asn: int, city: str) -> None:
            """Append the AS's core router in ``city`` unless it is absent
            or is already the last hop."""
            core = core_hop(asn, city)
            if core is not None and not (routers and routers[-1] == core[0]):
                routers.append(core[0])
                asns.append(asn)
                cities.append(city)
                ips.append(core[1])

        add_core(src_asn, src_city)
        current_city = src_city
        for position, link in enumerate(selected):
            current_as = as_path[position]
            city = link.city_code
            if city != current_city:
                add_core(current_as, city)  # backhaul to the exit metro
            near_router, near_ip, far_router, far_ip = self._orient(link, current_as)
            routers += (near_router, far_router)
            asns += (current_as, as_path[position + 1])
            cities += (city, city)
            ips += (near_ip, far_ip)
            current_city = city
        add_core(dst_asn, dst_city)
        if access_choice is not None and access_choice[1] != 0:
            routers.append(access_choice[0])
            asns.append(dst_asn)
            cities.append(dst_city)
            ips.append(access_choice[1])

        return ForwardingPath(
            src_asn=src_asn,
            dst_asn=dst_asn,
            as_path=tuple(as_path),
            hop_routers=tuple(routers),
            hop_asns=tuple(asns),
            hop_cities=tuple(cities),
            hop_ips=tuple(ips),
            crossed_links=tuple(link.link_id for link in selected),
        )

    # ------------------------------------------------------------------

    def _cached_as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS path as a memoized tuple (the BGP walk is per-hop dict
        chasing; thousands of identical client→server pairs repeat it)."""
        if not self._segment_cache_size:
            path = self._routing.as_path(src_asn, dst_asn)
            return tuple(path) if path is not None else None
        key = (src_asn, dst_asn)
        cached = self._as_path_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        path = self._routing.as_path(src_asn, dst_asn)
        cached = tuple(path) if path is not None else None
        self._as_path_cache[key] = cached
        if len(self._as_path_cache) > self._segment_cache_size:
            self._as_path_cache.popitem(last=False)
        return cached

    def _core_hop(self, asn: int, city: str) -> tuple[int, int] | None:
        """(router_id, reply_ip) of the AS's core router in ``city``, or
        None when it has no core router with an interface there."""
        key = (asn, city)
        cache = self._core_hop_cache
        if self._segment_cache_size and key in cache:
            return cache[key]
        hop = None
        core = self._fabric.core_router_of(asn, city)
        if core is not None:
            interfaces = self._fabric.interfaces_of(core.router_id)
            if interfaces:
                hop = (core.router_id, interfaces[0].ip)
        if self._segment_cache_size:
            cache[key] = hop
        return hop

    def _access_choice(
        self, asn: int, city: str, flow_key: object
    ) -> tuple[int, int] | None:
        """Pick the last-mile aggregation hop, as (router_id, reply_ip).

        Returns None when the destination AS has no access routers in the
        metro; a reply_ip of 0 marks an interface-less pick (the hop is
        then omitted). Interface-less routers stay in the candidate list
        so the flow-hash modulo matches the uncached walk exactly.
        """
        key = (asn, city)
        candidates = self._access_cache.get(key) if self._segment_cache_size else None
        if candidates is None:
            candidates = tuple(
                (router.router_id, interfaces[0].ip if interfaces else 0)
                for router in self._fabric.access_routers_of(asn, city)
                for interfaces in (self._fabric.interfaces_of(router.router_id),)
            )
            if self._segment_cache_size:
                self._access_cache[key] = candidates
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]  # modulo of anything is 0; skip the hash
        return candidates[flow_hash(flow_key, "access", asn, city) % len(candidates)]

    def _city_distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        cached = self._distance_cache.get(key)
        if cached is None:
            cached = geo_distance_km(city_by_code(a), city_by_code(b))
            self._distance_cache[key] = cached
        return cached

    def _select_link(
        self,
        current_as: int,
        next_as: int,
        current_city: str,
        dst_city: str,
        flow_key: object,
        position: int,
    ) -> Interconnect | None:
        """Pick the interconnect for one AS boundary.

        Egress policy is a deterministic mix: for half of the
        (AS pair, destination region) combinations the boundary honours the
        next AS's MEDs and exits near the *destination* (cold potato); for
        the rest it exits near the flow's current position (hot potato).
        This mix is what lets a single server's tests cross interconnects
        in several metros — the Table 2 observation (one Atlanta server's
        AT&T tests crossing links in Atlanta, Washington DC, and New York).
        """
        policy_key = (current_as, next_as, dst_city)
        honors_med = self._egress_memo.get(policy_key)
        if honors_med is None:
            honors_med = (
                flow_hash("egress-policy", current_as, next_as, dst_city) % 2 == 0
            )
            if len(self._egress_memo) >= 1_048_576:
                self._egress_memo.clear()
            self._egress_memo[policy_key] = honors_med
        anchor_city = dst_city if honors_med else current_city
        nearest = self._nearest_links(current_as, next_as, anchor_city)
        if not nearest:
            return None
        if len(nearest) == 1:
            return nearest[0]  # modulo of anything is 0; skip the hash
        index = flow_hash(flow_key, current_as, next_as, position) % len(nearest)
        return nearest[index]

    def _nearest_links(
        self, current_as: int, next_as: int, anchor_city: str
    ) -> tuple[Interconnect, ...]:
        """Equally-nearest interconnects for one boundary, memoized.

        This is the path segment repeated client→server flows share: the
        candidate group depends only on the AS pair and the anchor metro,
        never on the flow key, so memoizing it cannot change which member
        a given flow hashes onto.
        """
        key = (current_as, next_as, anchor_city)
        if self._segment_cache_size:
            cached = self._segment_cache.get(key)
            if cached is not None:
                return cached
        candidates = self._fabric.links_between(current_as, next_as)
        if candidates:
            best_distance = min(
                self._city_distance(anchor_city, c.city_code) for c in candidates
            )
            nearest = tuple(
                sorted(
                    (c for c in candidates
                     if self._city_distance(anchor_city, c.city_code) <= best_distance + 1e-9),
                    key=lambda c: c.link_id,
                )
            )
        else:
            nearest = ()
        if self._segment_cache_size:
            self._segment_cache[key] = nearest
            if len(self._segment_cache) > self._segment_cache_size:
                self._segment_cache.popitem(last=False)
        return nearest

    @staticmethod
    def _orient(link: Interconnect, near_asn: int) -> tuple[int, int, int, int]:
        """Return (near_router, near_ip, far_router, far_ip) for ``near_asn``."""
        if link.a_asn == near_asn:
            return link.a_router_id, link.a_ip, link.b_router_id, link.b_ip
        if link.b_asn == near_asn:
            return link.b_router_id, link.b_ip, link.a_router_id, link.a_ip
        raise ValueError(f"AS{near_asn} not an endpoint of link {link.link_id}")
