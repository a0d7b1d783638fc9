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

Two flows between the same endpoints differ only in the ECMP picks, so
everything else is resolved once per endpoint pair into a *route plan*:
the AS path, each boundary's egress policy (a cold-potato candidate
group, or a hot-potato lookup that depends on where the flow is), the
access-router candidates, and the bytes each pick hashes after the flow
key. Routing a flow is then one plan lookup plus a crc32 continuation
per boundary that has more than one candidate. Plans and paths are read
from the compiled world's tables (:mod:`repro.net.compiled`: link rows
per AS pair, core and access routers per metro, first interface per
router), never from the object fabric.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.routing.bgp import BGPRouting
from repro.topology.geo import city_by_code, geo_distance_km
from repro.topology.internet import Internet

#: Cache-miss sentinel for tables whose values may legitimately be None.
_ABSENT = object()

#: The plan of an endpoint pair no flow can route between.
_NO_ROUTE = (None, None, None, None, None)


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

    Each endpoint pair ``(src_asn, src_city, dst_asn, dst_city)`` gets one
    route plan (see the module docstring); :meth:`route_flow` and
    :meth:`resolve_paths_batch` both run a flow through its plan, so a
    batch needs no grouping of its own and there is no per-flow memo.
    Plans, AS paths, per-boundary candidate groups and resolved paths
    live in bounded FIFO caches of ``segment_cache_size`` entries. They
    hold only inputs to the flow-key hash, never its outcome, so cached
    and uncached routing are bit-identical (``segment_cache_size=0``
    disables plan caching and path interning, which the determinism
    suite uses to prove it). With caching on, flows whose hashes land on
    the same choices share one interned :class:`ForwardingPath`.
    """

    def __init__(
        self,
        internet: Internet,
        routing: BGPRouting | None = None,
        segment_cache_size: int = 65536,
    ) -> None:
        self._internet = internet
        self._routing = routing if routing is not None else BGPRouting(internet.graph)
        #: The compiled world whose tables forwarding reads, resolved on
        #: the first route (building a study compiles it already).
        self._world = None
        self._distance_cache: dict[tuple[str, str], float] = {}
        self._segment_cache_size = max(0, segment_cache_size)
        #: The bounded caches below evict in insertion (FIFO) order rather
        #: than LRU: skipping the per-hit reordering is measurably cheaper
        #: on the route hot path, and eviction policy can never change
        #: which path a flow gets — only how often it is recomputed.
        #: ``OrderedDict.popitem(last=False)`` evicts in O(1), where
        #: deleting a plain dict's first key rescans the slots freed by
        #: earlier evictions.
        #:
        #: (src_asn, src_city, dst_asn, dst_city) → route plan
        #: ``(fixed_path, as_path, boundaries, access, access_suffix)``:
        #: ``boundaries`` holds ``(group, current_as, next_as, suffix)``
        #: per AS boundary, with ``group`` None where the exit is hot
        #: potato. When no choice depends on the flow key, ``fixed_path``
        #: is the one interned path and nothing else is kept.
        self._plans: OrderedDict[tuple[int, str, int, str], tuple] = OrderedDict()
        #: (current_as, next_as, anchor_city) → equally-nearest links, as
        #: rows ``(link_id, city, near_router, near_ip, far_router,
        #: far_ip)`` oriented from ``current_as``, in link-id order.
        self._segment_cache: OrderedDict[tuple[int, int, str], tuple[tuple, ...]] = (
            OrderedDict()
        )
        #: (src_asn, dst_asn) → AS path tuple (None = unroutable).
        self._as_path_cache: OrderedDict[tuple[int, int], tuple[int, ...] | None] = (
            OrderedDict()
        )
        #: Fully-resolved flow choices → interned ForwardingPath. Distinct
        #: flows that hash onto the same links share one path object,
        #: which downstream identity-keyed memos (TCP base-RTT, trace
        #: render tables) exploit.
        self._path_cache: OrderedDict[tuple, ForwardingPath] = OrderedDict()
        #: (asn, city) → the core router's (router_id, reply_ip), or None
        #: when the AS has no core router with an interface there.
        self._core_hop_cache: dict[tuple[int, str], tuple[int, int] | None] = {}
        #: (asn, city) → (router_id, first-interface ip) access candidates.
        self._access_cache: dict[tuple[int, str], tuple[tuple[int, int], ...]] = {}

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
        see the path an NDT flow used). Every pick hashes the bytes
        :func:`flow_hash` would: ``str(flow_key)`` followed by the
        plan's suffix, as one crc32 continued from the key's.
        """
        endpoints = (src_asn, src_city, dst_asn, dst_city)
        plan = self._plans.get(endpoints)
        if plan is None:
            plan = self._plan(endpoints)
        path, as_path, boundaries, access, access_suffix = plan
        if path is not None:
            return path
        if as_path is None:
            return None
        crc32 = zlib.crc32
        key_crc = None
        city = src_city
        links = []
        for group, current_as, next_as, suffix in boundaries:
            if group is None:  # hot potato: the exit depends on where the flow is
                group = self._nearest_links(current_as, next_as, city)
            if len(group) == 1:
                link = group[0]  # modulo of anything is 0; skip the hash
            else:
                if key_crc is None:
                    key_crc = crc32(str(flow_key).encode("utf-8"))
                link = group[crc32(suffix, key_crc) % len(group)]
            links.append(link)
            city = link[1]
        if len(access) > 1:
            if key_crc is None:
                key_crc = crc32(str(flow_key).encode("utf-8"))
            access_choice = access[crc32(access_suffix, key_crc) % len(access)]
        else:
            access_choice = access[0] if access else None
        return self._interned(endpoints, as_path, links, access_choice)

    #: The batch resolver calls the routine under this name, so wrappers
    #: installed on :meth:`route_flow` see scalar calls only.
    _route = route_flow

    def resolve_paths_batch(
        self,
        requests: "list[tuple[int, str, int, str, object]]",
    ) -> "list[ForwardingPath | None]":
        """Resolve many flows' paths in one pass.

        Each request is ``(src_asn, src_city, dst_asn, dst_city,
        flow_key)``; the result list is order-aligned with the input and
        every entry is *identical* (same interned object where caching is
        on) to what :meth:`route_flow` returns for that request: both run
        the flow through its endpoint pair's plan.
        """
        route = self._route
        return [route(*request) for request in requests]

    # ------------------------------------------------------------------
    # route plans

    def _tables(self):
        """The compiled world forwarding reads, resolved on first use."""
        world = self._world
        if world is None:
            # Imported here: repro.net's package imports its TCP model,
            # which imports this module.
            from repro.net.compiled import compile_world

            world = self._world = compile_world(self._internet)
        return world

    def _plan(self, endpoints: tuple[int, str, int, str]) -> tuple:
        """Build (and, with caching on, keep) one endpoint pair's plan."""
        src_asn, src_city, dst_asn, dst_city = endpoints
        as_path = self._cached_as_path(src_asn, dst_asn)
        plan = _NO_ROUTE if as_path is None else self._make_plan(endpoints, as_path)
        if self._segment_cache_size:
            self._plans[endpoints] = plan
            if len(self._plans) > self._segment_cache_size:
                self._plans.popitem(last=False)
        return plan

    def _make_plan(self, endpoints: tuple[int, str, int, str], as_path: tuple[int, ...]) -> tuple:
        """Resolve everything about a route that no flow key changes.

        Egress policy is a deterministic mix: for half of the
        (AS pair, destination region) combinations the boundary honours the
        next AS's MEDs and exits near the *destination* (cold potato), a
        candidate group fixed for the whole plan; for the rest it exits
        near the flow's current position (hot potato), which depends on
        the links picked before it. This mix is what lets a single
        server's tests cross interconnects in several metros — the Table 2
        observation (one Atlanta server's AT&T tests crossing links in
        Atlanta, Washington DC, and New York).
        """
        src_asn, src_city, dst_asn, dst_city = endpoints
        world = self._tables()
        boundaries = []
        # The links every flow takes, while no pick has depended on the key.
        fixed: list[tuple] | None = []
        city = src_city
        for position in range(len(as_path) - 1):
            current_as = as_path[position]
            next_as = as_path[position + 1]
            if not world.links_between(current_as, next_as):
                return _NO_ROUTE  # AS adjacency with no fabric realization
            group = None
            if flow_hash("egress-policy", current_as, next_as, dst_city) % 2 == 0:
                group = self._nearest_links(current_as, next_as, dst_city)
            if fixed is not None:
                choices = group or self._nearest_links(current_as, next_as, city)
                if len(choices) == 1:
                    fixed.append(choices[0])
                    city = choices[0][1]
                else:
                    fixed = None
            boundaries.append(
                (group, current_as, next_as, f"|{current_as}|{next_as}|{position}".encode("utf-8"))
            )
        access = self._access_candidates(dst_asn, dst_city)
        if fixed is not None and len(access) <= 1:
            # No pick depends on the flow key: every flow gets one path.
            path = self._interned(endpoints, as_path, fixed, access[0] if access else None)
            return (path, as_path, None, None, None)
        access_suffix = f"|access|{dst_asn}|{dst_city}".encode("utf-8")
        return (None, as_path, tuple(boundaries), access, access_suffix)

    def _interned(
        self,
        endpoints: tuple[int, str, int, str],
        as_path: tuple[int, ...],
        links: list[tuple],
        access_choice: tuple[int, int] | None,
    ) -> ForwardingPath:
        """The shared path object for these choices (a fresh one when
        caching is off)."""
        link_ids = tuple([link[0] for link in links])
        if not self._segment_cache_size:
            return self._assemble(endpoints, as_path, links, link_ids, access_choice)
        key = (*endpoints, link_ids, access_choice)
        path = self._path_cache.get(key)
        if path is None:
            path = self._assemble(endpoints, as_path, links, link_ids, access_choice)
            self._path_cache[key] = path
            if len(self._path_cache) > self._segment_cache_size:
                self._path_cache.popitem(last=False)
        return path

    def _assemble(
        self,
        endpoints: tuple[int, str, int, str],
        as_path: tuple[int, ...],
        links: list[tuple],
        link_ids: tuple[int, ...],
        access_choice: tuple[int, int] | None,
    ) -> ForwardingPath:
        """Expand resolved choices into the path's hop columns."""
        src_asn, src_city, dst_asn, dst_city = endpoints
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
        for position, (_link_id, city, near_router, near_ip, far_router, far_ip) in enumerate(
            links
        ):
            current_as = as_path[position]
            if city != current_city:
                add_core(current_as, city)  # backhaul to the exit metro
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
            as_path=as_path,
            hop_routers=tuple(routers),
            hop_asns=tuple(asns),
            hop_cities=tuple(cities),
            hop_ips=tuple(ips),
            crossed_links=link_ids,
        )

    # ------------------------------------------------------------------

    def _cached_as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS path as a memoized tuple (the BGP walk is per-hop dict
        chasing; every endpoint pair between two ASes repeats it)."""
        if not self._segment_cache_size:
            path = self._routing.as_path(src_asn, dst_asn)
            return tuple(path) if path is not None else None
        key = (src_asn, dst_asn)
        cached = self._as_path_cache.get(key, _ABSENT)
        if cached is not _ABSENT:
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
        world = self._tables()
        hop = None
        core = world.core_router_of(asn, city)
        if core is not None:
            ip = world.first_interface_ip(core)
            if ip is not None:
                hop = (core, ip)
        if self._segment_cache_size:
            cache[key] = hop
        return hop

    def _access_candidates(self, asn: int, city: str) -> tuple[tuple[int, int], ...]:
        """The last-mile aggregation hops a flow may end on, as
        (router_id, reply_ip) in router-id order.

        A reply_ip of 0 marks an interface-less router (its hop is then
        omitted). Such routers stay in the list so the flow-hash modulo
        matches the uncached walk exactly.
        """
        key = (asn, city)
        candidates = self._access_cache.get(key) if self._segment_cache_size else None
        if candidates is None:
            world = self._tables()
            candidates = tuple(
                (router_id, world.first_interface_ip(router_id) or 0)
                for router_id in world.access_routers_of(asn, city)
            )
            if self._segment_cache_size:
                self._access_cache[key] = candidates
        return candidates

    def _city_distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        cached = self._distance_cache.get(key)
        if cached is None:
            cached = geo_distance_km(city_by_code(a), city_by_code(b))
            self._distance_cache[key] = cached
        return cached

    def _nearest_links(
        self, current_as: int, next_as: int, anchor_city: str
    ) -> tuple[tuple, ...]:
        """Equally-nearest interconnects for one boundary, memoized.

        This is the path segment repeated client→server flows share: the
        candidate group depends only on the AS pair and the anchor metro,
        never on the flow key, so memoizing it cannot change which member
        a given flow hashes onto. The world lists each pair's links in
        link-id order, which the filter keeps.
        """
        key = (current_as, next_as, anchor_city)
        if self._segment_cache_size:
            cached = self._segment_cache.get(key)
            if cached is not None:
                return cached
        candidates = []
        for link_id, a_asn, b_asn, a_router, b_router, a_ip, b_ip, city in (
            self._tables().links_between(current_as, next_as)
        ):
            if a_asn == current_as:
                candidates.append((link_id, city, a_router, a_ip, b_router, b_ip))
            elif b_asn == current_as:
                candidates.append((link_id, city, b_router, b_ip, a_router, a_ip))
            else:
                raise ValueError(f"AS{current_as} not an endpoint of link {link_id}")
        nearest: tuple[tuple, ...] = ()
        if candidates:
            distances = [self._city_distance(anchor_city, c[1]) for c in candidates]
            best_distance = min(distances)
            nearest = tuple(
                c for c, d in zip(candidates, distances) if d <= best_distance + 1e-9
            )
        if self._segment_cache_size:
            self._segment_cache[key] = nearest
            if len(self._segment_cache) > self._segment_cache_size:
                self._segment_cache.popitem(last=False)
        return nearest
