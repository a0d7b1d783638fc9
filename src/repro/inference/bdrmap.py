"""bdrmap: enumerate the interdomain borders of a vantage point's network.

Reimplementation of the role bdrmap (Luckie et al., IMC 2016) plays in the
paper's §5: from a VP inside an access ISP, (1) traceroute toward every
routed BGP prefix, (2) alias-resolve the observed addresses, (3) identify,
on every outgoing path, the border where the trace leaves the VP network
and which neighbor network it enters, and (4) annotate each neighbor with
the AS relationship. The output is the Table 3 inventory: interdomain
interconnections at the AS level (distinct neighbor organizations) and at
the router level (distinct border-router/neighbor pairs).

Ownership correction reuses the MAP-IT refinement over the VP's own trace
corpus — bdrmap's heuristics for borders numbered from the neighbor's
space serve the same purpose.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from repro.inference.alias import AliasResolution, AliasResolver
from repro.inference.borders import OriginOracle
from repro.inference.mapit import MapIt, MapItConfig
from repro.measurement.records import TracerouteRecord
from repro.obs.log import get_logger
from repro.measurement.traceroute import TraceRequest, TracerouteConfig, TracerouteEngine
from repro.platforms.ark import ArkVP
from repro.topology.asgraph import Relationship
from repro.topology.internet import Internet
from repro.util.parallel import parallel_map

_log = get_logger(__name__)

#: Priority when sibling-pair relationships conflict: an org that sells
#: transit to any sibling of the neighbor is recorded as its provider.
_REL_PRIORITY = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)


@dataclass(frozen=True)
class BorderLink:
    """One router-level interdomain interconnection of the VP network."""

    border_group: int  # alias-resolved router id of the VP-side border
    neighbor_asn: int  # org-canonical neighbor
    relationship: Relationship | None  # from the VP network's perspective
    observations: int
    #: A representative (near ip, far ip) crossing for this border.
    sample_ip_pair: tuple[int, int]


@dataclass
class BdrmapResult:
    """The border inventory of one VP."""

    vp: ArkVP
    borders: list[BorderLink]
    traces_used: int

    def neighbor_asns(self, relationship: Relationship | None = None) -> set[int]:
        return {
            b.neighbor_asn
            for b in self.borders
            if relationship is None or b.relationship is relationship
        }

    def as_level_count(self, relationship: Relationship | None = None) -> int:
        return len(self.neighbor_asns(relationship))

    def router_level_count(self, relationship: Relationship | None = None) -> int:
        return len(
            {
                (b.border_group, b.neighbor_asn)
                for b in self.borders
                if relationship is None or b.relationship is relationship
            }
        )

    def border_ip_pairs(self) -> set[tuple[int, int]]:
        return {b.sample_ip_pair for b in self.borders}


def collect_bdrmap_traces(
    internet: Internet,
    vp: ArkVP,
    engine: TracerouteEngine,
    max_prefixes: int | None = None,
) -> list[TracerouteRecord]:
    """Collection phase: traceroute from the VP toward every routed prefix.

    The whole sweep goes through :meth:`TracerouteEngine.trace_batch` —
    byte-identical to tracing each prefix in turn, but path resolution and
    rendering are amortized across the batch.
    """
    _log.debug("bdrmap collection from %s toward routed prefixes", vp.label)
    prefixes = internet.routed_prefixes()
    if max_prefixes is not None:
        prefixes = prefixes[:max_prefixes]
    graph = internet.graph
    requests: list[TraceRequest] = []
    for prefix in prefixes:
        if prefix.asn == 0 or prefix.asn not in graph:
            continue  # IXP space and unrouted pools are not probe targets
        dst_as = graph.get(prefix.asn)
        if not dst_as.home_cities:
            continue
        requests.append(
            TraceRequest(
                src_ip=vp.ip,
                src_asn=vp.asn,
                src_city=vp.city,
                dst_ip=prefix.base + 1,
                dst_asn=prefix.asn,
                dst_city=dst_as.home_cities[0],
                timestamp_s=0.0,
                flow_key=("bdrmap", vp.code, prefix.base),
            )
        )
    return [record for record in engine.trace_batch(requests) if record is not None]


def run_bdrmap(
    internet: Internet,
    vp: ArkVP,
    traces: list[TracerouteRecord],
    oracle: OriginOracle,
    alias_resolver: AliasResolver | None = None,
    mapit_config: MapItConfig | None = None,
) -> BdrmapResult:
    """Analysis phase: infer the VP network's borders from collected traces."""
    vp_org_asn = oracle.canonical(vp.asn)
    ip_paths = [t.router_hop_ips() for t in traces]

    mapit = MapIt(oracle, internet.graph, mapit_config)
    ownership = mapit.infer(ip_paths).ownership

    observed_ips = {ip for path in ip_paths for ip in path if ip is not None}
    resolver = alias_resolver if alias_resolver is not None else AliasResolver(internet)
    aliases = resolver.resolve(observed_ips)

    crossings: Counter[tuple[int, int]] = Counter()
    samples: dict[tuple[int, int], tuple[int, int]] = {}
    for path in ip_paths:
        crossing = _first_departure(path, ownership, vp_org_asn, oracle)
        if crossing is None:
            continue
        near_ip, far_ip, neighbor = crossing
        key = (aliases.group(near_ip), neighbor)
        crossings[key] += 1
        samples.setdefault(key, (near_ip, far_ip))

    borders = [
        BorderLink(
            border_group=group,
            neighbor_asn=neighbor,
            relationship=org_relationship(internet, vp_org_asn, neighbor),
            observations=count,
            sample_ip_pair=samples[(group, neighbor)],
        )
        for (group, neighbor), count in sorted(crossings.items())
    ]
    return BdrmapResult(vp=vp, borders=borders, traces_used=len(traces))


def run_bdrmap_for_vp(
    study,
    vp: ArkVP,
    max_prefixes: int | None = None,
) -> BdrmapResult:
    """Collection + analysis for one VP as a self-contained unit of work.

    The VP's traces come from a dedicated engine on a derived stream
    (``bdrmap:<ark code>``) and its alias resolution from a fresh
    seed-keyed resolver, so the result is a pure function of
    (study config, VP) — the invariant the parallel fan-out needs.
    """
    engine = TracerouteEngine(
        study.internet,
        study.forwarder,
        TracerouteConfig(seed=study.config.seed),
        stream=f"bdrmap:{vp.code}",
    )
    traces = collect_bdrmap_traces(study.internet, vp, engine, max_prefixes=max_prefixes)
    resolver = AliasResolver(study.internet, seed=study.config.seed)
    return run_bdrmap(study.internet, vp, traces, study.oracle, alias_resolver=resolver)


def _bdrmap_unit(args: tuple) -> BdrmapResult:
    """Pool worker: one VP inventory against the worker's memoized study.

    The study config rides in the pool context (one ship per worker, and
    the pool's ``build_study`` setup already built or inherited the
    study); tasks carry only ``(vp_index, max_prefixes)`` and this lookup
    is a memo hit.
    """
    from repro.core.pipeline import build_study
    from repro.util.parallel import worker_context

    vp_index, max_prefixes = args
    study = build_study(worker_context())
    vp = study.ark_vps()[vp_index]
    return run_bdrmap_for_vp(study, vp, max_prefixes=max_prefixes)


def bdrmap_all_vps(
    study,
    max_prefixes: int | None = None,
    jobs: int | None = None,
) -> list[BdrmapResult]:
    """Border inventories for every Ark VP, optionally fanned out across
    processes. Results come back in Table 3 row order whatever ``jobs``
    is, identical to the serial walk record-for-record. Workers inherit
    the built world by fork (or rebuild it once from the config under
    spawn) rather than rebuilding it per task."""
    from repro.core.pipeline import build_study

    vps = study.ark_vps()
    units = [(index, max_prefixes) for index in range(len(vps))]
    return parallel_map(
        _bdrmap_unit,
        units,
        jobs=jobs,
        context=study.config,
        setup=build_study,
    )


def org_relationship(
    internet: Internet, org_asn: int, neighbor_org_asn: int
) -> Relationship | None:
    """Relationship between two organizations, collapsing sibling ASNs.

    When different sibling pairs hold different relationships, the priority
    is customer > peer > provider (an org with any customer edge to the
    neighbor org is recorded as serving it).
    """
    found: set[Relationship] = set()
    for a in sorted(internet.orgs.siblings(org_asn)):
        for b in sorted(internet.orgs.siblings(neighbor_org_asn)):
            rel = internet.graph.relationship(a, b)
            if rel is not None:
                found.add(rel)
    for rel in _REL_PRIORITY:
        if rel in found:
            return rel
    return None


def _first_departure(
    path: Sequence[int | None],
    ownership: dict[int, int | None],
    vp_org_asn: int,
    oracle: OriginOracle,
) -> tuple[int, int, int] | None:
    """(near ip, far ip, neighbor org) where the trace leaves the VP network.

    Walks to the last responding hop owned by the VP org, then returns the
    next hop with a known different owner. IXP hops between the border pair
    are stepped over (the neighbor is whoever owns the far side); a
    non-response at the boundary aborts — attributing across a gap risks
    naming a network that is not actually adjacent.
    """
    last_inside: int | None = None
    for index, ip in enumerate(path):
        if ip is None:
            continue
        if ownership.get(ip) == vp_org_asn:
            last_inside = index
    if last_inside is None or last_inside == len(path) - 1:
        return None
    near_ip = path[last_inside]
    assert near_ip is not None
    for far_index in range(last_inside + 1, len(path)):
        far_ip = path[far_index]
        if far_ip is None:
            break  # gap at the boundary: unsafe to attribute
        if oracle.is_ixp(far_ip):
            continue
        owner = ownership.get(far_ip)
        if owner is not None and owner != vp_org_asn:
            return near_ip, far_ip, owner
        break  # unknown ownership immediately past the border: give up
    return None
