"""Scalar reference implementations of the §5 inference passes.

``repro.inference`` runs MAP-IT, bdrmap's first-departure border walk
and alias grouping as array passes over deduplicated hop columns. These
are the same algorithms written one interface, one trace and one
address at a time, as they were first implemented; the equivalence
tests and the property test hold the array passes equal to them.
Nothing in ``src`` imports this module.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.core.coverage import BorderSet, CoverageReport
from repro.inference.bdrmap import BdrmapResult, BorderLink, org_relationship
from repro.inference.borders import OriginOracle
from repro.inference.mapit import InferredLink, MapItConfig, MapItResult
from repro.topology.asgraph import ASGraph
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
