"""Valley-free AS-level route computation (Gao-Rexford model).

For each destination AS we build a routing tree giving, for *every* source
AS, the next hop toward the destination under the canonical policy model:

1. routes learned from customers are preferred over routes learned from
   peers, which are preferred over routes learned from providers;
2. ties break on shortest AS-path length;
3. remaining ties break on lowest next-hop ASN (deterministic).

Export rules are enforced by construction: customer routes (and the origin)
are exported to everyone; peer- and provider-learned routes are exported
only to customers. The resulting paths have the classic valley-free shape
(uphill through providers, at most one peer edge, downhill through
customers).

Tables are cached per destination, so asking for paths from many sources to
one destination (the bdrmap probing pattern) costs one traversal total.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs.log import get_logger
from repro.topology.asgraph import ASGraph, Relationship

_log = get_logger(__name__)


class RouteType(enum.Enum):
    """How the best route at an AS was learned."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass
class RouteTable:
    """Routing tree for one destination AS.

    ``next_hop[src]`` is the neighbour ``src`` forwards to; following next
    hops always terminates at ``dst``.
    """

    dst: int
    next_hop: dict[int, int | None]
    route_type: dict[int, RouteType]
    path_length: dict[int, int]

    def has_route(self, src: int) -> bool:
        return src in self.next_hop

    def as_path(self, src: int) -> list[int] | None:
        """AS path from ``src`` to ``dst`` inclusive, or None if unreachable."""
        if src not in self.next_hop:
            return None
        path = [src]
        current = src
        while current != self.dst:
            nxt = self.next_hop[current]
            assert nxt is not None, "non-destination node with null next hop"
            path.append(nxt)
            current = nxt
            if len(path) > len(self.next_hop) + 1:
                raise RuntimeError(f"routing loop toward AS{self.dst} via AS{src}")
        return path


@dataclass
class _LazyDst:
    """Partially resolved routing state for one destination.

    ``next_hop``/``length`` start as the phase-1 customer-route set and
    grow as sources are resolved on demand; ``no_route`` memoizes nodes
    proven unreachable.
    """

    next_hop: dict[int, int | None]
    length: dict[int, int]
    customer_routed: frozenset[int]
    no_route: set[int]


def valley_free_violations(graph: ASGraph, as_path: list[int]) -> list[str]:
    """Gao-Rexford violations in an AS path (empty list = valley-free).

    A valid path climbs customer→provider edges, crosses at most one peer
    edge, then descends provider→customer edges; every consecutive pair
    must be adjacent in the graph and no AS may repeat (forwarding loop).
    Used by the ``routing.valley_free`` world contract, which must name
    the offending edge rather than just flag the path.
    """
    violations: list[str] = []
    if len(set(as_path)) != len(as_path):
        violations.append(f"AS path repeats an AS: {as_path}")
    # 0 = climbing, 1 = crossed the peer edge, 2 = descending.
    state = 0
    for near, far in zip(as_path, as_path[1:]):
        rel = graph.relationship(near, far)
        if rel is None:
            violations.append(f"AS{near}->AS{far} is not an adjacency in the graph")
            state = 2  # keep scanning for more missing edges
        elif rel is Relationship.PROVIDER:
            if state != 0:
                violations.append(
                    f"uphill edge AS{near}->AS{far} after the path turned over "
                    f"(valley) in {as_path}"
                )
        elif rel is Relationship.PEER:
            if state != 0:
                violations.append(
                    f"peer edge AS{near}->AS{far} after the path turned over "
                    f"(valley) in {as_path}"
                )
            state = 1
        else:  # CUSTOMER: descending
            state = 2
    return violations


class BGPRouting:
    """Cached per-destination valley-free routing over an AS graph."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._tables: dict[int, RouteTable] = {}
        self._lazy: dict[int, _LazyDst] = {}
        # Sorted adjacency snapshot, built on first use. Per-destination
        # builds visit every AS, so re-deriving and re-sorting neighbour
        # lists inside each build dominated routing cost; snapshotting
        # them once preserves the deterministic tie-break order exactly.
        self._providers: dict[int, list[int]] | None = None
        self._peers: dict[int, list[int]] = {}
        self._customers: dict[int, list[int]] = {}
        self._peered_asns: list[int] = []

    def _ensure_adjacency(self) -> None:
        if self._providers is not None:
            return
        graph = self._graph
        self._providers = {}
        for asn in graph.asns():
            self._providers[asn] = sorted(graph.providers(asn))
            self._peers[asn] = sorted(graph.peers(asn))
            self._customers[asn] = sorted(graph.customers(asn))
        self._peered_asns = [asn for asn in graph.asns() if self._peers[asn]]

    def table_for(self, dst: int) -> RouteTable:
        """Return (building and caching if needed) the tree for ``dst``."""
        table = self._tables.get(dst)
        if table is None:
            table = self._build(dst)
            self._tables[dst] = table
            _log.debug(
                "built routing tree for AS%d (%d routed sources)",
                dst, len(table.next_hop),
            )
        return table

    def as_path(self, src: int, dst: int) -> list[int] | None:
        """Best AS path from ``src`` to ``dst`` (inclusive), or None.

        Served from the full per-destination tree when one is already
        cached; otherwise resolved lazily — the tree gives next hops for
        *every* source, but forwarding only ever follows one chain of
        them, so the lazy resolver computes just the nodes on that chain
        (plus the destination's small provider ancestry). Both give the
        same answer; the lazy route is orders of magnitude less work for
        trace workloads with few sources and many destinations.
        """
        if src == dst:
            return [src]
        table = self._tables.get(dst)
        if table is not None:
            return table.as_path(src)
        return self._lazy_path(src, dst)

    def cached_destinations(self) -> int:
        """Distinct destinations with cached state (full trees or lazy)."""
        return len(self._tables.keys() | self._lazy.keys())

    # ------------------------------------------------------------------
    # lazy per-destination resolution

    def _lazy_state(self, dst: int) -> "_LazyDst":
        state = self._lazy.get(dst)
        if state is None:
            self._graph.get(dst)  # raise early on unknown ASN
            self._ensure_adjacency()
            assert self._providers is not None
            # Phase 1 eagerly: customer routes climb provider edges from
            # the origin — the destination's provider ancestry, which is
            # tiny compared to the whole graph. Identical BFS to _build.
            next_hop: dict[int, int | None] = {dst: None}
            length: dict[int, int] = {dst: 0}
            frontier = [dst]
            dist = 0
            while frontier:
                dist += 1
                candidates: dict[int, int] = {}
                for node in frontier:
                    for provider in self._providers[node]:
                        if provider not in next_hop:
                            best = candidates.get(provider)
                            if best is None or node < best:
                                candidates[provider] = node
                for provider, parent in candidates.items():
                    next_hop[provider] = parent
                    length[provider] = dist
                frontier = list(candidates)
            state = _LazyDst(
                next_hop=next_hop,
                length=length,
                customer_routed=frozenset(next_hop),
                no_route=set(),
            )
            self._lazy[dst] = state
        return state

    def _resolve(self, state: "_LazyDst", node: int) -> int | None:
        """Route length at ``node`` toward the state's destination.

        Memoized into the state; matches the eager build exactly: a node
        without a customer route prefers a peer route (any length) over
        provider routes, and within a class takes the shortest route with
        the lowest next-hop ASN.
        """
        if node in state.next_hop:
            return state.length[node]
        if node in state.no_route:
            return None
        best: tuple[int, int] | None = None
        assert self._providers is not None
        for peer in self._peers[node]:
            if peer in state.customer_routed:
                cand = (state.length[peer] + 1, peer)
                if best is None or cand < best:
                    best = cand
        if best is None:
            # Provider routes recurse up the (acyclic) provider hierarchy.
            for provider in self._providers[node]:
                plen = self._resolve(state, provider)
                if plen is not None:
                    cand = (plen + 1, provider)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            state.no_route.add(node)
            return None
        state.length[node], state.next_hop[node] = best
        return best[0]

    def _lazy_path(self, src: int, dst: int) -> list[int] | None:
        if src not in self._graph:
            return None
        state = self._lazy_state(dst)
        if self._resolve(state, src) is None:
            return None
        path = [src]
        current = src
        while current != dst:
            nxt = state.next_hop[current]
            assert nxt is not None, "non-destination node with null next hop"
            self._resolve(state, nxt)
            path.append(nxt)
            current = nxt
            if len(path) > len(self._graph) + 1:
                raise RuntimeError(f"routing loop toward AS{dst} via AS{src}")
        return path

    # ------------------------------------------------------------------

    def _build(self, dst: int) -> RouteTable:
        self._graph.get(dst)  # raise early on unknown ASN
        self._ensure_adjacency()
        assert self._providers is not None
        providers_of = self._providers
        peers_of = self._peers
        customers_of = self._customers
        next_hop: dict[int, int | None] = {dst: None}
        route_type: dict[int, RouteType] = {dst: RouteType.ORIGIN}
        length: dict[int, int] = {dst: 0}

        # Phase 1 — customer routes climb provider edges from the origin.
        # All edges cost 1, so Dijkstra with key (path length, next-hop
        # ASN) reduces to breadth-first levels: a node first reached at
        # level d takes the minimum-ASN parent among its level-(d-1)
        # offerers — identical selection, no heap.
        frontier = [dst]
        dist = 0
        while frontier:
            dist += 1
            candidates: dict[int, int] = {}
            for node in frontier:
                for provider in providers_of[node]:
                    if provider not in next_hop:
                        best = candidates.get(provider)
                        if best is None or node < best:
                            candidates[provider] = node
            for provider, parent in candidates.items():
                next_hop[provider] = parent
                route_type[provider] = RouteType.CUSTOMER
                length[provider] = dist
            frontier = list(candidates)

        customer_routed = set(next_hop)

        # Phase 2 — peer routes: an AS hears the origin's (or a customer
        # route holder's) announcement across one peer edge. Peer-learned
        # routes do not propagate to other peers or providers. Decisions
        # read only phase-1 state, so order is immaterial and peerless
        # ASes can be skipped outright.
        for node in self._peered_asns:
            if node in customer_routed:
                continue
            best: tuple[int, int] | None = None
            for peer in peers_of[node]:
                if peer in customer_routed:
                    cand = (length[peer] + 1, peer)
                    if best is None or cand < best:
                        best = cand
            if best is not None:
                length[node] = best[0]
                next_hop[node] = best[1]
                route_type[node] = RouteType.PEER

        # Phase 3 — provider routes cascade down customer edges; any route
        # (customer, peer, or provider-learned) is exported to customers.
        # Again unit edge costs: multi-source BFS with distance buckets
        # (sources start at their phase-1/2 lengths) replaces the heap.
        # A customer first reached in bucket d takes the minimum-ASN
        # parent among that bucket's offerers; earlier phases always win.
        buckets: dict[int, list[int]] = {}
        for node in next_hop:
            buckets.setdefault(length[node], []).append(node)
        dist = 0
        pending = len(next_hop)
        while pending:
            nodes = buckets.pop(dist, None)
            dist += 1
            if nodes is None:
                continue
            pending -= len(nodes)
            candidates = {}
            for node in nodes:
                for customer in customers_of[node]:
                    if customer not in next_hop:
                        best = candidates.get(customer)
                        if best is None or node < best:
                            candidates[customer] = node
            if candidates:
                for customer, parent in candidates.items():
                    next_hop[customer] = parent
                    route_type[customer] = RouteType.PROVIDER
                    length[customer] = dist
                buckets.setdefault(dist, []).extend(candidates)
                pending += len(candidates)

        return RouteTable(dst=dst, next_hop=next_hop, route_type=route_type, path_length=length)
