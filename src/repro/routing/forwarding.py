"""Router-level path expansion: hot-potato exits and per-flow ECMP.

Given an AS path, the forwarder picks the concrete interconnect used at
each AS boundary the way real networks do:

* **hot-potato** — among all interconnects between the current AS and the
  next AS, prefer the one whose metro is geographically closest to where
  the flow currently is (earliest exit);
* **per-flow ECMP** — when several interconnects are equally close
  (parallel links between the same border routers, or multiple links in
  one metro), a deterministic hash of the flow key picks one, so distinct
  flows spread across links while one flow is stable (Paris-traceroute
  style).

The result is a :class:`ForwardingPath`: the ordered router-level hops,
each annotated with the interface that would answer a traceroute probe,
plus the interdomain links crossed. RTT is derived from hop metro
coordinates downstream in :mod:`repro.net`.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs import metrics
from repro.routing.bgp import BGPRouting
from repro.topology.geo import city_by_code, geo_distance_km
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect, Router, RouterRole

_ROUTES = metrics.counter("forwarder.routes_resolved")
_UNROUTABLE = metrics.counter("forwarder.unroutable_flows")
_SEG_HITS = metrics.counter("forwarder.segment_cache.hits")
_SEG_MISSES = metrics.counter("forwarder.segment_cache.misses")
_ASPATH_HITS = metrics.counter("forwarder.as_path_cache.hits")
_ASPATH_MISSES = metrics.counter("forwarder.as_path_cache.misses")
_PATH_HITS = metrics.counter("forwarder.path_cache.hits")
_PATH_MISSES = metrics.counter("forwarder.path_cache.misses")
_BATCH_FLOWS = metrics.counter("forwarder.batch.flows")
_BATCH_GROUPS = metrics.counter("forwarder.batch.groups")
_FLOW_MEMO_HITS = metrics.counter("forwarder.batch.flow_memo.hits")

#: Cache-miss sentinel for tables whose values may legitimately be None.
_ABSENT = object()


class RouterHop(NamedTuple):
    """A view of one router on a forwarding path (see :attr:`ForwardingPath.hops`).

    ``reply_ip`` is the interface that answers traceroute probes: the
    ingress interface of the interdomain link for border crossings, or the
    router's core interface otherwise.
    """

    router_id: int
    asn: int
    city_code: str
    reply_ip: int


@dataclass(frozen=True)
class ForwardingPath:
    """Router-level realization of one flow's path.

    The hops are stored as four columns, position ``i`` holding hop ``i``
    in path order. Each column is an exact tuple of ints or strs, which
    the cyclic collector stops tracking at its first young collection, so
    the forwarder's path caches cost it nothing however many hops they
    hold; one object per hop would stay on every full collection's scan
    list for its whole life.
    """

    src_asn: int
    dst_asn: int
    as_path: tuple[int, ...]
    hop_routers: tuple[int, ...]
    hop_asns: tuple[int, ...]
    hop_cities: tuple[str, ...]
    hop_ips: tuple[int, ...]  # the interface that answers probes
    crossed_links: tuple[int, ...]  # interconnect ids in path order

    @property
    def hops(self) -> tuple[RouterHop, ...]:
        """The hops as :class:`RouterHop` views, built on each access."""
        return tuple(
            map(RouterHop, self.hop_routers, self.hop_asns, self.hop_cities, self.hop_ips)
        )


def flow_hash(*parts: object) -> int:
    """Stable 32-bit hash of a flow key (no PYTHONHASHSEED dependence)."""
    text = "|".join(map(str, parts))
    return zlib.crc32(text.encode("utf-8"))


class Forwarder:
    """Expands AS paths to router-level paths over one Internet instance.

    Path *segments* — the per-boundary equally-near interconnect groups,
    the per-(AS, city) core hop, and the per-(AS, city) access-router
    fan-out — are memoized in bounded FIFO caches, so repeated client→server
    flows skip re-walking the fabric. The caches hold only inputs to the
    flow-key hash, never its outcome, so cached and uncached routing are
    bit-identical (``segment_cache_size=0`` disables them, which the
    determinism suite uses to prove it).
    """

    def __init__(
        self,
        internet: Internet,
        routing: BGPRouting | None = None,
        segment_cache_size: int = 65536,
    ) -> None:
        self._internet = internet
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

    def clear_segment_caches(self) -> None:
        """Drop memoized path segments (topology mutation hook)."""
        self._segment_cache.clear()
        self._core_hop_cache.clear()
        self._access_cache.clear()
        self._as_path_cache.clear()
        self._egress_memo.clear()
        self._path_cache.clear()
        self._flow_memo.clear()

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
            _UNROUTABLE.inc()
            return None
        _ROUTES.inc()

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
                _PATH_HITS.inc()
                return cached
            _PATH_MISSES.inc()

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
        memo_hits = 0
        for index, request in enumerate(requests):
            try:
                cached = flow_memo.get(request)
            except TypeError:  # unhashable flow key — resolve uncached
                cached = None
            if cached is not None:
                results[index] = cached
                memo_hits += 1
                continue
            src_asn, src_city, dst_asn, dst_city, flow_key = request
            groups.setdefault((src_asn, src_city, dst_asn, dst_city), []).append(
                (index, flow_key, request)
            )
        _BATCH_FLOWS.inc(len(requests))
        _BATCH_GROUPS.inc(len(groups))
        if memo_hits:
            _ROUTES.inc(memo_hits)
            _FLOW_MEMO_HITS.inc(memo_hits)
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
                _UNROUTABLE.inc(len(members))
                continue
            _ROUTES.inc(len(members))

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
                    for router in self._internet.fabric.access_routers_of(dst_asn, dst_city)
                    for interfaces in (self._internet.fabric.interfaces_of(router.router_id),)
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
                    if path is not None:
                        _PATH_HITS.inc()
                    else:
                        _PATH_MISSES.inc()
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
        cached = self._as_path_cache.get(key, _ABSENT)
        if cached is not _ABSENT:
            _ASPATH_HITS.inc()
            return cached
        _ASPATH_MISSES.inc()
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
        core = self._internet.fabric.core_router_of(asn, city)
        if core is not None:
            interfaces = self._internet.fabric.interfaces_of(core.router_id)
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
                for router in self._internet.fabric.access_routers_of(asn, city)
                for interfaces in (self._internet.fabric.interfaces_of(router.router_id),)
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
                _SEG_HITS.inc()
                return cached
            _SEG_MISSES.inc()
        candidates = self._internet.fabric.links_between(current_as, next_as)
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
