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
space serve the same purpose. The border walk, :func:`first_departures`,
runs over the corpus's deduplicated hop columns and is shared with the
§5 coverage analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.inference.alias import AliasResolver
from repro.inference.borders import OriginOracle
from repro.inference.corpus import TraceCorpus
from repro.inference.mapit import MapIt
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
) -> BdrmapResult:
    """Analysis phase: infer the VP network's borders from collected traces.

    MAP-IT corrects ownership over the VP's corpus (links are not
    extracted), the observed addresses are alias-resolved, and every
    trace's first departure from the VP org is counted per (border
    router, neighbor org).
    """
    vp_org_asn = oracle.canonical(vp.asn)
    corpus = TraceCorpus.of(t.router_hop_ips() for t in traces)
    ownership = MapIt(oracle, internet.graph).infer(corpus, links=False).ownership
    resolver = alias_resolver if alias_resolver is not None else AliasResolver(internet)
    aliases = resolver.resolve(corpus.addresses)

    near, neighbor = first_departures(corpus, ownership, vp_org_asn, oracle)
    crossed = np.flatnonzero(neighbor != -1)
    crossings: Counter[tuple[int, int]] = Counter()
    for near_ip, neighbor_asn, count in zip(
        near[crossed].tolist(), neighbor[crossed].tolist(), corpus.counts[crossed].tolist()
    ):
        crossings[(aliases.group(near_ip), neighbor_asn)] += count

    borders = [
        BorderLink(
            border_group=group,
            neighbor_asn=neighbor_asn,
            relationship=org_relationship(internet, vp_org_asn, neighbor_asn),
            observations=count,
        )
        for (group, neighbor_asn), count in sorted(crossings.items())
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


def first_departures(
    corpus: TraceCorpus,
    ownership: dict[int, int | None],
    vp_org_asn: int,
    oracle: OriginOracle,
) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct sequence of ``corpus`` leaves the VP network.

    Returns ``(near ip, neighbor org)`` int64 arrays over the corpus's
    distinct sequences, both −1 where a sequence has no departure. The
    near side is the last responding hop owned by the VP org; the
    neighbor owns the next hop. IXP hops between the border pair are
    stepped over; a non-response or an unowned hop at the boundary gives
    no departure — attributing across a gap risks naming a network that
    is not actually adjacent.
    """
    sequences = len(corpus.counts)
    near = np.full(sequences, -1, dtype=np.int64)
    neighbor = np.full(sequences, -1, dtype=np.int64)
    addresses = corpus.addresses
    if not len(addresses):
        return near, neighbor
    get = ownership.get
    owner = np.fromiter(
        (-1 if (asn := get(ip)) is None else asn for ip in addresses.tolist()),
        dtype=np.int64,
        count=len(addresses),
    )
    hop = corpus.hop_index
    replied = hop != -1
    hop_owner = np.where(replied, owner[hop], -1)
    inside = np.flatnonzero(hop_owner == vp_org_asn)
    if not len(inside):
        return near, neighbor
    # Last hop inside the VP org per sequence, unless it is the final hop.
    ends = corpus.offsets[1:]
    slot = np.searchsorted(inside, ends) - 1
    last = inside[np.maximum(slot, 0)]
    leaves = np.flatnonzero((slot >= 0) & (last >= corpus.offsets[:-1]) & (last + 1 < ends))
    last = last[leaves]
    # The first later hop that is not a responding IXP hop decides: it
    # must lie in the same sequence, respond and have an owner (past the
    # last inside hop, any owner is another network).
    stops = np.flatnonzero(~(replied & corpus.ixp_mask(oracle)[hop]))
    stop = np.append(stops, len(hop))[np.searchsorted(stops, last + 1)]
    crosses = stop < ends[leaves]
    crosses[crosses] = hop_owner[stop[crosses]] != -1
    leaves, last, stop = leaves[crosses], last[crosses], stop[crosses]
    near[leaves] = addresses[hop[last]]
    neighbor[leaves] = hop_owner[stop]
    return near, neighbor
