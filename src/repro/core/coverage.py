"""Interconnection coverage analysis (§5, Figures 2–4).

From one Ark VP: bdrmap enumerates the VP network's interdomain borders
(the denominator); traceroutes toward each platform's servers and toward
popular-content targets mark which of those borders a test *could*
exercise (the numerators). Coverage is reported at the AS level (neighbor
organizations) and router level (border-router/neighbor pairs), for all
relationships and peers-only, plus the Figure 4 set differences against
the popular-content borders.

Ownership correction runs once over the union of all trace corpora so the
denominator and every numerator live in the same inferred topology; the
union is held once as deduplicated hop columns, which MAP-IT, alias
resolution and bdrmap's border walk all read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inference.alias import AliasResolver
from repro.inference.bdrmap import collect_bdrmap_traces, first_departures, org_relationship
from repro.inference.borders import OriginOracle
from repro.inference.corpus import TraceCorpus
from repro.inference.mapit import MapIt
from repro.measurement.records import TracerouteRecord
from repro.measurement.traceroute import TraceRequest, TracerouteConfig, TracerouteEngine
from repro.net.compiled import compile_world
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.platforms.ark import ArkVP
from repro.topology.asgraph import Relationship
from repro.topology.internet import Internet
from repro.util.parallel import parallel_map

_log = get_logger(__name__)

#: Border identity at the router level: (VP-side alias group, neighbor org).
RouterBorder = tuple[int, int]


@dataclass(frozen=True)
class BorderSet:
    """Borders reachable via one target set (or enumerated by bdrmap)."""

    name: str
    as_level: frozenset[int]
    router_level: frozenset[RouterBorder]

    def as_count(self) -> int:
        return len(self.as_level)

    def router_count(self) -> int:
        return len(self.router_level)

    def restrict(self, neighbors: frozenset[int], name: str | None = None) -> "BorderSet":
        """Subset whose neighbor org is in ``neighbors`` (e.g. peers only)."""
        return BorderSet(
            name=name if name is not None else self.name,
            as_level=self.as_level & neighbors,
            router_level=frozenset(
                (g, n) for (g, n) in self.router_level if n in neighbors
            ),
        )


@dataclass
class CoverageReport:
    """Everything Figures 2–4 need for one VP."""

    vp: ArkVP
    #: The bdrmap-discovered denominator.
    discovered: BorderSet
    #: Borders crossed toward each platform / target set, by name.
    reachable: dict[str, BorderSet]
    #: Neighbor org → relationship (from the VP network's perspective).
    relationships: dict[int, Relationship | None]

    def peers(self) -> frozenset[int]:
        return frozenset(
            n for n, rel in self.relationships.items() if rel is Relationship.PEER
        )

    def coverage_fraction(self, name: str, level: str = "as", peers_only: bool = False) -> float:
        """Covered / discovered at the AS or router level."""
        denominator = self.discovered
        numerator = self.reachable[name]
        if peers_only:
            peer_set = self.peers()
            denominator = denominator.restrict(peer_set)
            numerator = numerator.restrict(peer_set)
        if level == "as":
            total = denominator.as_count()
            covered = len(numerator.as_level & denominator.as_level)
        elif level == "router":
            total = denominator.router_count()
            covered = len(numerator.router_level & denominator.router_level)
        else:
            raise ValueError(f"unknown level {level!r}")
        return covered / total if total else 0.0

    def set_difference(self, a: str, b: str, level: str = "as") -> int:
        """|borders reachable via a but not via b| — the Figure 4 bars."""
        set_a = self.reachable[a]
        set_b = self.reachable[b]
        if level == "as":
            return len(set_a.as_level - set_b.as_level)
        if level == "router":
            return len(set_a.router_level - set_b.router_level)
        raise ValueError(f"unknown level {level!r}")


def coverage_analysis(
    internet: Internet,
    vp: ArkVP,
    bdrmap_traces: list[TracerouteRecord],
    platform_traces: dict[str, list[TracerouteRecord]],
    oracle: OriginOracle,
    alias_resolver: AliasResolver | None = None,
) -> CoverageReport:
    """Run the full §5 coverage analysis for one VP.

    Every trace set (bdrmap's, then each platform's) goes into one
    corpus. MAP-IT corrects ownership over it without extracting links,
    alias resolution groups its addresses, and one border walk over its
    distinct sequences serves the denominator and every numerator.
    """
    vp_org = oracle.canonical(vp.asn)
    paths = [t.router_hop_ips() for t in bdrmap_traces]
    spans: dict[str, tuple[int, int]] = {}
    for name, traces in platform_traces.items():
        start = len(paths)
        paths.extend(t.router_hop_ips() for t in traces)
        spans[name] = (start, len(paths))
    corpus = TraceCorpus.of(paths)

    # Prefill the oracle's per-address caches for the whole corpus in one
    # vectorized LPM pass — identical values to the trie walk, so this is
    # invisible in results.
    compile_world(internet).prime_oracle(oracle, corpus.addresses.tolist())
    ownership = MapIt(oracle, internet.graph).infer(corpus, links=False).ownership
    resolver = alias_resolver if alias_resolver is not None else AliasResolver(internet)
    aliases = resolver.resolve(corpus.addresses)
    near_ips, neighbors = first_departures(corpus, ownership, vp_org, oracle)

    def borders_of(name: str, start: int, end: int) -> BorderSet:
        sequences = corpus.inverse[start:end]
        sequences = sequences[neighbors[sequences] != -1]
        crossings = np.stack([near_ips[sequences], neighbors[sequences]], axis=1)
        # Distinct crossings in first-seen order, so the sets fill in the
        # order a trace-by-trace walk fills them.
        _distinct, first = np.unique(crossings, axis=0, return_index=True)
        crossings = crossings[np.sort(first)].tolist()
        as_level = {neighbor_asn for _near_ip, neighbor_asn in crossings}
        router_level = {
            (aliases.group(near_ip), neighbor_asn) for near_ip, neighbor_asn in crossings
        }
        return BorderSet(
            name=name, as_level=frozenset(as_level), router_level=frozenset(router_level)
        )

    discovered = borders_of("bdrmap", 0, len(bdrmap_traces))
    reachable = {name: borders_of(name, *spans[name]) for name in platform_traces}
    relationships = {
        neighbor: org_relationship(internet, vp_org, neighbor)
        for neighbor in discovered.as_level
        | {n for border_set in reachable.values() for n in border_set.as_level}
    }
    return CoverageReport(
        vp=vp,
        discovered=discovered,
        reachable=reachable,
        relationships=relationships,
    )


def vp_coverage_report(
    study,
    vp: ArkVP,
    alexa_count: int = 500,
    max_prefixes: int | None = None,
) -> CoverageReport:
    """The complete §5 pipeline for one VP as a self-contained unit of work.

    The VP gets its own traceroute engine on a derived stream
    (``coverage:<ark code>``), so its trace artifacts are a function of
    the VP alone — not of how many traces other VPs ran first. That is
    the invariant that lets :func:`collect_coverage_reports` fan VPs out
    across processes and still merge byte-identical results.
    """
    internet = study.internet
    with span("vp_sweep", vp=vp.label):
        engine = TracerouteEngine(
            internet,
            study.forwarder,
            TracerouteConfig(seed=study.config.seed),
            stream=f"coverage:{vp.code}",
        )
        with span("bdrmap_traces"):
            bdrmap_traces = collect_bdrmap_traces(
                internet, vp, engine, max_prefixes=max_prefixes
            )
        mlab_targets = [(s.ip, s.asn, s.city) for s in study.mlab.servers()]
        speedtest_targets = [(s.ip, s.asn, s.city) for s in study.speedtest.servers()]
        alexa_targets = [
            (t.ip, t.asn, t.city) for t in study.alexa_targets(count=alexa_count)
        ]
        with span("platform_traces"):
            platform_traces = {
                "mlab": collect_target_traces(internet, vp, engine, mlab_targets, "mlab"),
                "speedtest": collect_target_traces(
                    internet, vp, engine, speedtest_targets, "speedtest"
                ),
                "alexa": collect_target_traces(internet, vp, engine, alexa_targets, "alexa"),
            }
        with span("coverage_analysis"):
            report = coverage_analysis(
                internet, vp, bdrmap_traces, platform_traces, study.oracle
            )
    _log.debug(
        "coverage sweep for %s: %d bdrmap traces, %d borders discovered",
        vp.label, len(bdrmap_traces), report.discovered.as_count(),
    )
    return report


#: VP blocks dispatched per effective worker. >1 lets map()'s ordered
#: round-robin smooth over uneven VPs without shrinking blocks so far
#: that per-task dispatch overhead returns.
_VP_BLOCKS_PER_WORKER = 2


def _coverage_block_unit(args: tuple) -> list[CoverageReport]:
    """Pool worker: one contiguous VP block against the memoized study.

    The study config travels once per worker as the pool *context*, and
    the pool's ``build_study`` setup has already built (spawn) or
    inherited (fork) the study, so each task ships only ``(vp_indices,
    alexa_count, max_prefixes)`` and the lookup here is a memo hit. Each
    VP still runs on its own derived stream, so the block partitioning
    is invisible in the reports.
    """
    from repro.core.pipeline import build_study
    from repro.util.parallel import worker_context

    vp_indices, alexa_count, max_prefixes = args
    study = build_study(worker_context())
    vps = study.ark_vps()
    return [
        vp_coverage_report(
            study, vps[index], alexa_count=alexa_count, max_prefixes=max_prefixes
        )
        for index in vp_indices
    ]


def collect_coverage_reports(
    study,
    alexa_count: int = 500,
    max_prefixes: int | None = None,
    jobs: int | None = None,
) -> dict[str, CoverageReport]:
    """Per-VP coverage reports for every Ark VP, optionally fanned out.

    The sweep is sharded by contiguous VP block: each worker gets its
    study once (fork inherits it, spawn rebuilds it from the config) and
    runs a whole block of VPs against it, so dispatch cost scales with
    the worker count rather than the VP count. Results are keyed by VP
    label in Table 3 row order whatever ``jobs`` is — blocks are
    contiguous slices and the merge concatenates them in input order, so
    parallel, serial, and any block size return equal reports
    record-for-record.
    """
    from repro.core.pipeline import build_study
    from repro.util.parallel import effective_jobs, partition

    vps = study.ark_vps()
    workers = effective_jobs(jobs)
    block_count = min(len(vps), workers * _VP_BLOCKS_PER_WORKER) if workers > 1 else 1
    blocks = partition(list(range(len(vps))), block_count)
    units = [
        (tuple(block), alexa_count, max_prefixes) for block in blocks if block
    ]
    _log.info(
        "collecting coverage reports for %d VPs in %d blocks", len(vps), len(units)
    )
    with span("coverage_sweep", vps=len(vps), blocks=len(units)):
        block_reports = parallel_map(
            _coverage_block_unit,
            units,
            jobs=jobs,
            context=study.config,
            setup=build_study,
        )
    reports = [report for block in block_reports for report in block]
    return {vp.label: report for vp, report in zip(vps, reports)}


def collect_target_traces(
    internet: Internet,
    vp: ArkVP,
    engine,
    targets: list[tuple[int, int, str]],
    label: str,
) -> list[TracerouteRecord]:
    """Traceroute from a VP toward (ip, asn, city) targets.

    Dispatched as one :meth:`TracerouteEngine.trace_batch` call —
    byte-identical to tracing the targets one at a time."""
    graph = internet.graph
    requests = [
        TraceRequest(
            src_ip=vp.ip,
            src_asn=vp.asn,
            src_city=vp.city,
            dst_ip=ip,
            dst_asn=asn,
            dst_city=city,
            timestamp_s=0.0,
            flow_key=("coverage", label, vp.code, ip),
        )
        for ip, asn, city in targets
        if asn in graph
    ]
    return [record for record in engine.trace_batch(requests) if record is not None]
