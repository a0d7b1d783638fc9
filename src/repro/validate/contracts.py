"""World contracts: invariants every generated world must satisfy.

Each contract is a named predicate over a :class:`WorldContext` — a
generated :class:`~repro.topology.internet.Internet` plus (optionally)
the fully wired :class:`~repro.core.pipeline.Study` around it. Contracts
return a list of violation strings; the registry runs each under a
``contract:<name>`` trace span and never lets one crash the sweep — an
exception is reported as that contract's failure.

The registered invariants:

* ``routing.valley_free`` — sampled forwarding AS paths are Gao-Rexford
  valley-free, loop-free, and use only real adjacencies;
* ``topology.prefix_table_consistency`` — every announced prefix belongs
  to a known AS, is not shadowed in the trie, and client space
  longest-prefix-matches back to its owner;
* ``topology.interconnect_fabric_agreement`` — interconnect ground truth
  (endpoint ASNs, routers, cities, interface addressing, parallel-link
  groups) agrees with the router fabric and the AS graph;
* ``compiled.world_agreement`` — the structure-of-arrays snapshot
  (:mod:`repro.net.compiled`) answers LPM origin, IXP screening,
  AS-adjacency, router-fabric, interconnect and forwarding (core and
  access routers per metro, first interfaces, links per AS pair) queries
  identically to the object graph, and the table-first builder's arrays
  (generator recorder or persisted snapshot) are bit-identical to a
  fresh object-graph derivation;
* ``coverage.numerator_subset`` — §5 coverage reports keep every
  numerator inside its denominator's universe and every fraction in
  [0, 1];
* ``rng.stream_fork_discipline`` — labelled RNG streams replay exactly
  and fork independently;
* ``study.seed_wiring`` — a wired study derives every stochastic layer
  from its configured root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.routing.bgp import BGPRouting, valley_free_violations
from repro.topology.internet import Internet
from repro.topology.routers import InterconnectKind
from repro.util.rng import derive_random, derive_rng, derive_seed
from repro.validate.base import CheckResult, ValidationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coverage import CoverageReport
    from repro.core.pipeline import Study

_log = get_logger(__name__)


@dataclass
class WorldContext:
    """Everything a contract may inspect, plus sampling knobs."""

    internet: Internet
    routing: BGPRouting
    study: "Study | None" = None
    #: Random (src, dst) AS pairs sampled by the valley-free contract.
    sample_pairs: int = 80
    #: bdrmap probing budget for the coverage contract (slow).
    coverage_prefixes: int = 40
    coverage_alexa: int = 40

    def rng(self, label: str):
        """Contract-local stream: a function of the world seed alone."""
        return derive_random(self.internet.seed, "validate", label)


@dataclass(frozen=True)
class Contract:
    name: str
    description: str
    fn: Callable[[WorldContext], list[str]]
    #: "internet" contracts run on a bare topology; "study" contracts
    #: need the wired pipeline around it.
    needs: str = "internet"
    #: "slow" contracts (traceroute sweeps) are skipped by inline
    #: validation inside build_study.
    cost: str = "fast"


#: Registry, in registration (= report) order.
CONTRACTS: dict[str, Contract] = {}


def contract(name: str, *, needs: str = "internet", cost: str = "fast",
             description: str = ""):
    """Register a world contract under a stable dotted name."""

    def register(fn: Callable[[WorldContext], list[str]]):
        if name in CONTRACTS:
            raise ValueError(f"duplicate contract {name!r}")
        CONTRACTS[name] = Contract(
            name=name,
            description=description or (fn.__doc__ or "").strip().splitlines()[0],
            fn=fn,
            needs=needs,
            cost=cost,
        )
        return fn

    return register


def unregister(name: str) -> None:
    """Remove a contract (tests register throwaway contracts)."""
    CONTRACTS.pop(name, None)


# ---------------------------------------------------------------------------
# contracts


@contract("routing.valley_free")
def _valley_free(ctx: WorldContext) -> list[str]:
    """Sampled AS paths are valley-free, loop-free, real adjacencies."""
    graph = ctx.internet.graph
    asns = graph.asns()
    rng = ctx.rng("valley")
    pairs = {
        (asns[rng.randrange(len(asns))], asns[rng.randrange(len(asns))])
        for _ in range(ctx.sample_pairs)
    }
    # Always include the paper-relevant pairs: every access primary to
    # every tier-1-ish AS with peers (the paths campaigns actually use).
    from repro.topology.asgraph import ASRole

    access = [a.asn for a in graph.ases_by_role(ASRole.ACCESS)][:8]
    tier1 = [a.asn for a in graph.ases_by_role(ASRole.TIER1)][:6]
    pairs.update((a, t) for a in access for t in tier1)
    violations: list[str] = []
    for src, dst in sorted(pairs):
        if src == dst:
            continue
        path = ctx.routing.as_path(src, dst)
        if path is None:
            continue  # unreachable is legal (island stubs)
        if path[0] != src or path[-1] != dst:
            violations.append(
                f"path {path} does not run AS{src}->AS{dst} endpoint to endpoint"
            )
        violations.extend(valley_free_violations(graph, path))
    return violations


@contract("topology.prefix_table_consistency")
def _prefix_table(ctx: WorldContext) -> list[str]:
    """Announced prefixes map to known ASes and LPM back to their owner."""
    internet = ctx.internet
    table = internet.prefix_table
    violations: list[str] = []
    for prefix in table.prefixes():
        if prefix.asn not in internet.graph:
            violations.append(f"prefix {prefix} announced by unknown AS{prefix.asn}")
        if table.lookup(prefix.base) != prefix:
            violations.append(f"prefix {prefix} is shadowed by a longer announcement")
    for asn, prefixes in internet.client_prefixes.items():
        for prefix in prefixes:
            origin = table.origin_asn(prefix.base)
            if origin != asn:
                violations.append(
                    f"client prefix {prefix} of AS{asn} resolves to AS{origin}"
                )
    return violations


@contract("topology.interconnect_fabric_agreement")
def _interconnect_fabric(ctx: WorldContext) -> list[str]:
    """Interconnect ground truth agrees with the router fabric and graph."""
    internet = ctx.internet
    fabric = internet.fabric
    graph = internet.graph
    violations: list[str] = []
    group_identity: dict[int, tuple[int, int, str]] = {}
    for link in fabric.interconnects():
        tag = f"link {link.link_id} (AS{link.a_asn}<->AS{link.b_asn}/{link.city_code})"
        if graph.relationship(link.a_asn, link.b_asn) is None:
            violations.append(f"{tag}: endpoints have no AS-graph adjacency")
        for side, asn, router_id, ip in (
            ("a", link.a_asn, link.a_router_id, link.a_ip),
            ("b", link.b_asn, link.b_router_id, link.b_ip),
        ):
            try:
                router = fabric.router(router_id)
            except KeyError:
                violations.append(f"{tag}: side {side} names unknown router {router_id}")
                continue
            if router.asn != asn:
                violations.append(
                    f"{tag}: side {side} router r{router_id} belongs to AS{router.asn}, "
                    f"not AS{asn}"
                )
            if router.city_code != link.city_code:
                violations.append(
                    f"{tag}: side {side} router sits in {router.city_code}, "
                    f"link claims {link.city_code}"
                )
            iface = fabric.interface(ip)
            if iface is None or iface.router_id != router_id:
                violations.append(f"{tag}: side {side} interface is not on its router")
            if fabric.owner_asn_of_ip(ip) != asn:
                violations.append(f"{tag}: side {side} interface owner disagrees")
        if link.kind is InterconnectKind.PRIVATE:
            if link.numbered_from_asn not in (link.a_asn, link.b_asn):
                violations.append(
                    f"{tag}: PNI numbered from non-endpoint AS{link.numbered_from_asn}"
                )
        elif link.numbered_from_asn != 0:
            violations.append(
                f"{tag}: IXP link numbered from AS{link.numbered_from_asn}, expected 0"
            )
        identity = (link.a_router_id, link.b_router_id, link.city_code)
        previous = group_identity.setdefault(link.group_id, identity)
        if previous != identity:
            violations.append(
                f"{tag}: parallel group {link.group_id} spans distinct router pairs"
            )
    return violations


@contract("compiled.world_agreement")
def _compiled_agreement(ctx: WorldContext) -> list[str]:
    """Compiled snapshot answers every query like the object graph."""
    from repro.net.compiled import NO_ORIGIN, compile_world

    internet = ctx.internet
    world = compile_world(internet)
    rng = ctx.rng("compiled")
    violations: list[str] = []

    # --- LPM origins: prefix edges, interior points, and random space ---
    table = internet.prefix_table
    prefixes = table.prefixes()
    sampled = prefixes if len(prefixes) <= 150 else rng.sample(prefixes, 150)
    probe_ips: set[int] = set()
    for prefix in sampled:
        size = 1 << (32 - prefix.length)
        probe_ips.update((prefix.base, prefix.base + size - 1,
                          prefix.base + rng.randrange(size)))
    probe_ips.update(rng.randrange(1 << 32) for _ in range(200))
    for ip in sorted(probe_ips):
        expected = table.origin_asn(ip)
        got = world.origin(ip)
        if got != expected:
            violations.append(f"LPM origin({ip}) = {got}, trie says {expected}")
    batch = world.origin_batch(sorted(probe_ips))
    for ip, raw in zip(sorted(probe_ips), batch.tolist()):
        scalar = world.origin(ip)
        if (None if raw == NO_ORIGIN else raw) != scalar:
            violations.append(f"origin_batch({ip}) = {raw} disagrees with scalar {scalar}")

    # --- IXP screening ---
    ixp_spans = [
        (p.base, p.base + (1 << (32 - p.length))) for p in internet.ixps.prefixes()
    ]
    ixp_probes = {rng.randrange(1 << 32) for _ in range(100)}
    for lo, hi in ixp_spans:
        ixp_probes.update((lo, hi - 1, lo + rng.randrange(hi - lo)))
    for ip in sorted(ixp_probes):
        expected = any(lo <= ip < hi for lo, hi in ixp_spans)
        if world.is_ixp(ip) != expected:
            violations.append(f"is_ixp({ip}) = {world.is_ixp(ip)}, spans say {expected}")

    # --- AS adjacency and relationships ---
    graph = internet.graph
    asns = graph.asns()
    as_sample = asns if len(asns) <= 60 else rng.sample(asns, 60)
    for asn in as_sample:
        if world.neighbors_of(asn) != graph.neighbors(asn):
            violations.append(f"neighbors_of(AS{asn}) disagrees with the AS graph")
    for _ in range(120):
        a = asns[rng.randrange(len(asns))]
        b = asns[rng.randrange(len(asns))]
        if world.relationship(a, b) != graph.relationship(a, b):
            violations.append(
                f"relationship(AS{a}, AS{b}) = {world.relationship(a, b)}, "
                f"graph says {graph.relationship(a, b)}"
            )

    # --- router fabric ---
    fabric = internet.fabric
    interfaces = fabric.interfaces()
    iface_sample = interfaces if len(interfaces) <= 150 else rng.sample(interfaces, 150)
    for iface in iface_sample:
        expected_owner = fabric.router(iface.router_id).asn
        if world.owner_asn_of_ip(iface.ip) != expected_owner:
            violations.append(f"owner_asn_of_ip({iface.ip}) != AS{expected_owner}")
        expected_ips = tuple(i.ip for i in fabric.interfaces_of(iface.router_id))
        if world.interface_ips_of(iface.router_id) != expected_ips:
            violations.append(
                f"interface_ips_of(r{iface.router_id}) lost fabric port order"
            )
    if world.owner_asn_of_ip(0) is not None:
        violations.append("owner_asn_of_ip(0) invented an owner for a non-interface")

    # --- interconnect rows and lazy object views ---
    links = fabric.interconnects()
    link_sample = links if len(links) <= 150 else rng.sample(links, 150)
    for link in link_sample:
        expected_row = (
            link.a_asn, link.b_asn, link.a_router_id, link.b_router_id,
            link.a_ip, link.b_ip, link.numbered_from_asn, link.group_id,
        )
        if world.link_row(link.link_id) != expected_row:
            violations.append(f"link_row({link.link_id}) disagrees with fabric")
        if world.interconnect_view(link.link_id) != link:
            violations.append(
                f"interconnect_view({link.link_id}) disagrees with the fabric object"
            )

    # --- forwarding lookups, exhaustively: every (AS, metro) and every
    # AS pair that is adjacent or linked, in both orders ---
    from repro.topology.geo import CITIES

    for asn in asns:
        for city in CITIES:
            core = fabric.core_router_of(asn, city.code)
            expected_core = None if core is None else core.router_id
            if world.core_router_of(asn, city.code) != expected_core:
                violations.append(f"core_router_of(AS{asn}, {city.code}) disagrees with fabric")
            expected_access = tuple(
                r.router_id for r in fabric.access_routers_of(asn, city.code)
            )
            if world.access_routers_of(asn, city.code) != expected_access:
                violations.append(
                    f"access_routers_of(AS{asn}, {city.code}) disagrees with fabric"
                )
        for router in fabric.routers_of_as(asn):
            ports = fabric.interfaces_of(router.router_id)
            if world.first_interface_ip(router.router_id) != (ports[0].ip if ports else None):
                violations.append(f"first_interface_ip(r{router.router_id}) disagrees")
    pairs = {link.as_pair() for link in links}
    pairs.update((a, b) for a in asns for b in graph.neighbors(a) if a < b)
    for a, b in sorted(pairs):
        expected_rows = tuple(
            (l.link_id, l.a_asn, l.b_asn, l.a_router_id, l.b_router_id,
             l.a_ip, l.b_ip, l.city_code)
            for l in fabric.links_between(a, b)
        )
        if world.links_between(a, b) != expected_rows or world.links_between(b, a) != expected_rows:
            violations.append(f"links_between(AS{a}, AS{b}) disagrees with fabric")

    # --- table-first builder vs object-graph derivation ---
    # Whatever path built `world` (generator-emitted tables, a persisted
    # snapshot, or the object walk itself), every array must be
    # bit-identical to a fresh derivation from the object graph.
    import numpy as np

    from repro.net.compiled import compile_from_object_graph

    reference = compile_from_object_graph(internet)
    for name in type(world)._ARRAY_FIELDS + type(world)._ROUTER_FIELDS:
        ours = getattr(world, name)
        theirs = getattr(reference, name)
        if ours.dtype != theirs.dtype or ours.shape != theirs.shape:
            violations.append(
                f"table-first array {name!r}: dtype/shape "
                f"{ours.dtype}{ours.shape} != derived {theirs.dtype}{theirs.shape}"
            )
        elif not np.array_equal(ours, theirs):
            violations.append(
                f"table-first array {name!r} differs from the object-graph derivation"
            )
    return violations


def check_coverage_report(report: "CoverageReport") -> list[str]:
    """Internal-consistency violations of one §5 coverage report.

    Exposed separately so tests can feed deliberately inconsistent
    reports without running a traceroute sweep.
    """
    violations: list[str] = []
    universe = set(report.relationships)

    def check_set(border_set, label: str) -> None:
        numerator_orgs = {org for (_group, org) in border_set.router_level}
        stray = numerator_orgs - border_set.as_level
        if stray:
            violations.append(
                f"{label}: router-level numerator names orgs outside its own "
                f"AS-level set: {sorted(stray)}"
            )
        outside = border_set.as_level - universe
        if outside:
            violations.append(
                f"{label}: numerator orgs outside the relationship universe "
                f"(denominator domain): {sorted(outside)}"
            )

    check_set(report.discovered, "discovered (denominator)")
    for name, border_set in report.reachable.items():
        check_set(border_set, f"reachable[{name}]")
    for name in report.reachable:
        for level in ("as", "router"):
            for peers_only in (False, True):
                fraction = report.coverage_fraction(name, level=level, peers_only=peers_only)
                if not 0.0 <= fraction <= 1.0:
                    violations.append(
                        f"coverage_fraction({name!r}, {level}, peers_only={peers_only}) "
                        f"= {fraction} outside [0, 1]"
                    )
    return violations


@contract("coverage.numerator_subset", needs="study", cost="slow")
def _coverage_consistency(ctx: WorldContext) -> list[str]:
    """One VP's coverage numerators stay inside their denominators."""
    from repro.core.coverage import vp_coverage_report

    study = ctx.study
    assert study is not None
    vps = study.ark_vps()
    if not vps:
        return ["study has no Ark VPs to cover"]
    report = vp_coverage_report(
        study,
        vps[0],
        alexa_count=ctx.coverage_alexa,
        max_prefixes=ctx.coverage_prefixes,
    )
    return check_coverage_report(report)


@contract("rng.stream_fork_discipline")
def _rng_discipline(ctx: WorldContext) -> list[str]:
    """Labelled streams replay exactly and fork independently."""
    seed = ctx.internet.seed
    violations: list[str] = []
    if derive_seed(seed, "a") == derive_seed(seed, "b"):
        violations.append("distinct labels 'a'/'b' derived the same seed")
    if derive_seed(seed, "a") != derive_seed(seed, "a"):
        violations.append("derive_seed is not deterministic")
    # Replay: the same (seed, label) must yield the same draw sequence.
    first_stream = derive_random(seed, "replay")
    second_stream = derive_random(seed, "replay")
    first = [first_stream.random() for _ in range(4)]
    second = [second_stream.random() for _ in range(4)]
    if first != second:
        violations.append("derive_random stream does not replay identically")
    # Fork independence: consuming stream 'x' must not shift stream 'y'.
    y_alone = derive_random(seed, "y").random()
    x = derive_random(seed, "x")
    for _ in range(16):
        x.random()
    y_after = derive_random(seed, "y").random()
    if y_alone != y_after:
        violations.append("consuming one stream perturbed a sibling stream")
    numpy_first = derive_rng(seed, "np").random(3).tolist()
    numpy_second = derive_rng(seed, "np").random(3).tolist()
    if numpy_first != numpy_second:
        violations.append("derive_rng (numpy) stream does not replay identically")
    return violations


@contract("study.seed_wiring", needs="study")
def _study_seed_wiring(ctx: WorldContext) -> list[str]:
    """Every stochastic layer of a study derives from the config seed."""
    study = ctx.study
    assert study is not None
    violations: list[str] = []
    if study.internet.seed != study.config.seed:
        violations.append(
            f"internet generated with seed {study.internet.seed}, "
            f"config says {study.config.seed}"
        )
    if study.tcp.seed != study.config.seed:
        violations.append(
            f"TCP noise stream seeded with {study.tcp.seed}, "
            f"config says {study.config.seed}"
        )
    if study.forwarder.routing is not study.routing:
        violations.append("forwarder routes over a different BGPRouting instance")
    return violations


# ---------------------------------------------------------------------------
# runners


def _run_contract(entry: Contract, ctx: WorldContext) -> CheckResult:
    with span(f"contract:{entry.name}"):
        try:
            violations = entry.fn(ctx)
        except Exception as exc:  # a crashing contract is a failed contract
            _log.warning("contract %s raised: %r", entry.name, exc)
            violations = [f"contract raised {exc!r}"]
    return CheckResult(
        name=entry.name,
        kind="contract",
        passed=not violations,
        violations=tuple(violations),
        detail=entry.description,
    )


def validate_world(
    study: "Study",
    include_slow: bool = True,
    sample_pairs: int = 80,
    coverage_prefixes: int = 40,
    coverage_alexa: int = 40,
) -> ValidationReport:
    """Run every applicable contract against a wired study world."""
    ctx = WorldContext(
        internet=study.internet,
        routing=study.routing,
        study=study,
        sample_pairs=sample_pairs,
        coverage_prefixes=coverage_prefixes,
        coverage_alexa=coverage_alexa,
    )
    return _validate(ctx, include_slow=include_slow)


def validate_internet(
    internet: Internet,
    routing: BGPRouting | None = None,
    sample_pairs: int = 80,
) -> ValidationReport:
    """Run topology/routing contracts against a bare generated Internet.

    Study-level contracts are reported as skipped, not silently dropped,
    so a report always covers the full registry.
    """
    ctx = WorldContext(
        internet=internet,
        routing=routing if routing is not None else BGPRouting(internet.graph),
        study=None,
        sample_pairs=sample_pairs,
    )
    return _validate(ctx, include_slow=True)


def _validate(ctx: WorldContext, include_slow: bool) -> ValidationReport:
    report = ValidationReport()
    with span("validate_world", seed=ctx.internet.seed):
        for entry in CONTRACTS.values():
            if entry.needs == "study" and ctx.study is None:
                report.results.append(CheckResult(
                    name=entry.name, kind="contract", passed=True, skipped=True,
                    detail="needs a wired study",
                ))
                continue
            if entry.cost == "slow" and not include_slow:
                report.results.append(CheckResult(
                    name=entry.name, kind="contract", passed=True, skipped=True,
                    detail="slow contract skipped",
                ))
                continue
            report.results.append(_run_contract(entry, ctx))
    return report
