"""Seeded synthetic Internet generator.

Builds the complete ground-truth world the paper's analyses run against:

* ten tier-1 transit networks (the M-Lab host networks of the era — Level3,
  Cogent, GTT, TATA, XO, ...) in a full peering mesh;
* regional transit networks buying from tier-1s;
* the Table 1 access ISPs, each an organization with one or more sibling
  ASNs (Comcast alone has eight regional ASNs, reproducing the 18 AS-level
  Level3–Comcast adjacency of Table 2), plus Sonic and RCN for Table 3;
* content networks hosting the Alexa-style popular-content targets;
* a long tail of stub customer ASes, attached to providers with weights
  matching the relative customer-cone sizes of Table 3;
* a router-level fabric where each AS adjacency decomposes into
  interconnects in one or more metros, with parallel-link groups between
  the same border-router pairs (including the heavy Level3–Cox hotspot the
  paper dissects via DNS names), numbered from /31s out of either
  endpoint's space or from IXP prefixes.

Everything is derived from ``InternetConfig.seed`` through labelled RNG
streams, so a given config always produces byte-identical topology.

Since PR 8 generation is *array-native*: the builder keeps only flat
scaffold state (relationship dicts keyed by ASN ints, per-(AS, city)
router counters, allocator cursors) and streams every accepted decision
into a :class:`~repro.topology.tables.WorldTableRecorder`, whose
capacity-doubling numpy builders are the world's primary storage. No
``AS``/``Router``/``Interconnect`` object is constructed during the
build — peak RSS scales with the final tables. The classic object graph
materializes lazily from the recorder (see
:class:`~repro.topology.internet.Internet`), byte-identical to what the
pre-PR-8 eager build produced, because the scaffold replicates every
decision input (relationship lookups, per-city router indices, link
counts) the objects used to provide and the RNG draw sequence is
untouched.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

from repro.obs import metrics
from repro.topology.addressing import PrefixAllocator
from repro.topology.asgraph import ASRole, Relationship
from repro.topology.dns import ReverseDNS, border_interface_name
from repro.topology.geo import CITIES
from repro.topology.internet import Internet
from repro.topology.isp_data import BROADBAND_PROVIDERS_Q3_2015
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.orgs import Organization, OrgMap
from repro.topology.routers import InterconnectKind, RouterRole
from repro.topology.tables import (
    PREFIX_CLIENT,
    PREFIX_INFRA,
    PREFIX_IXP,
    WorldTableRecorder,
)
from repro.util.ip import parse_ip
from repro.util.rng import derive_random

# ---------------------------------------------------------------------------
# Fixed rosters. Real ASNs are used purely as recognisable labels; all
# structure is synthetic.

_TIER1S: tuple[tuple[int, str], ...] = (
    (3356, "Level3"),
    (174, "Cogent"),
    (3257, "GTT"),
    (6453, "TATA"),
    (2828, "XO"),
    (6461, "Zayo"),
    (2914, "NTT"),
    (1299, "Telia"),
    (6939, "HurricaneElectric"),
    (7911, "AboveNet"),
)

_CONTENT: tuple[tuple[int, str], ...] = (
    (15169, "Google"),
    (2906, "Netflix"),
    (20940, "Akamai"),
    (32934, "Facebook"),
    (16509, "Amazon"),
    (714, "Apple"),
    (13335, "Cloudflare"),
    (8075, "Microsoft"),
    (13414, "Twitter"),
    (54113, "Fastly"),
    (15133, "Edgecast"),
    (22822, "Limelight"),
    (10310, "Yahoo"),
    (40428, "Pandora"),
    (46489, "Twitch"),
    (2635, "Automattic"),
    (14618, "AmazonVideo"),
    (32590, "Valve"),
    (11251, "Hulu"),
    (23286, "Hubspot"),
    (19679, "Dropbox"),
    (36459, "GitHub"),
    (14413, "LinkedIn"),
    (6185, "AppleCDN"),
    (16625, "AkamaiEdge"),
    (20446, "Highwinds"),
)

#: Sibling ASNs per access organization; the first is the primary ASN.
_ACCESS_SIBLINGS: dict[str, tuple[int, ...]] = {
    "Comcast": (7922, 7725, 22909, 33491, 33287, 7015, 13367, 20214),
    "ATT": (7018, 6389),
    "TimeWarnerCable": (11426, 20001),
    "Verizon": (701, 6167),
    "CenturyLink": (209,),
    "Charter": (20115,),
    "Cox": (22773,),
    "Cablevision": (6128,),
    "Frontier": (5650,),
    "Suddenlink": (19108,),
    "Windstream": (7029,),
    "Mediacom": (30036,),
    # Table 3 VP hosts not in Table 1:
    "Sonic": (46375,),
    "RCN": (6079,),
}

#: Level3's sibling ASNs (Global Crossing etc.), driving the "18 AS-level
#: links between Level3 and Comcast" structure of Table 2.
_TIER1_SIBLINGS: dict[str, tuple[int, ...]] = {
    "Level3": (3356, 3549, 11213),
    "Cogent": (174,),
    "GTT": (3257, 4436),
    "TATA": (6453,),
    "XO": (2828,),
    "Zayo": (6461,),
    "NTT": (2914,),
    "Telia": (1299,),
    "HurricaneElectric": (6939,),
    "AboveNet": (7911,),
}

#: Relative weight of each access org as a transit provider for stub ASes,
#: shaped to reproduce the customer-count ordering of Table 3
#: (ATT > CenturyLink > Verizon > Comcast > TWC > Cox > RCN > Frontier > Sonic).
_ACCESS_TRANSIT_WEIGHT: dict[str, float] = {
    "ATT": 21.0,
    "CenturyLink": 15.7,
    "Verizon": 13.0,
    "Comcast": 11.1,
    "TimeWarnerCable": 5.5,
    "Cox": 3.6,
    "RCN": 0.35,
    "Frontier": 0.29,
    "Sonic": 0.06,
}

#: How aggressively an access org peers with content/transit networks at
#: IXPs; small open peers (Sonic, RCN) peer widely relative to their size.
_PEERING_OPENNESS: dict[str, float] = {
    "Sonic": 0.9,
    "RCN": 0.9,
    "Cox": 0.55,
    "Comcast": 0.6,
    "CenturyLink": 0.6,
    "TimeWarnerCable": 0.5,
    "Verizon": 0.4,
    "ATT": 0.5,
    "Frontier": 0.35,
    "Charter": 0.4,
}

#: One-hop fractions for Figure 1 ISPs, falling back to 0.5.
_DEFAULT_ONE_HOP = 0.5

#: Overrides for ISPs the paper does not list in Figure 1. Small open
#: peers (Sonic, RCN) barely interconnect with the big carriers directly —
#: their peers live at IXPs with content networks — which is what makes
#: their M-Lab peer coverage tiny (§5.2: 2.8% for RCN).
_ONE_HOP_OVERRIDES: dict[str, float] = {
    "Sonic": 0.15,
    "RCN": 0.10,
    "Cablevision": 0.45,
    "Suddenlink": 0.35,
    "Mediacom": 0.30,
}

#: Sibling-richness hotspots: (org_a, org_b) -> number of distinct
#: AS-level adjacencies to guarantee between the two orgs' sibling ASNs.
#: The Level3–Comcast entry reproduces Table 2's "18 unique AS-level links
#: ... 30 unique IP-level interdomain links".
_SIBLING_HOTSPOTS: dict[tuple[str, str], int] = {
    ("Level3", "Comcast"): 18,
}

#: Parallel-link hotspots: (org_a, org_b) -> sizes of parallel groups.
#: The Level3–Cox entry reproduces the paper's 39-link case (12 in Dallas,
#: 9 in Los Angeles, 7 in Washington DC, 5 in San Jose, plus singletons).
_DEFAULT_HOTSPOTS: dict[tuple[str, str], tuple[tuple[str, int], ...]] = {
    ("Level3", "Cox"): (
        ("dfw", 12),
        ("lax", 9),
        ("was", 7),
        ("sjc", 5),
        ("atl", 2),
        ("nyc", 1),
        ("chi", 1),
        ("mia", 1),
        ("sea", 1),
    ),
    # Table 2 finds 14 Level3→AT&T IP links, with the heavy ones in
    # Atlanta, Washington DC, and New York.
    ("Level3", "ATT"): (
        ("atl", 4),
        ("was", 3),
        ("nyc", 3),
        ("chi", 2),
        ("dfw", 1),
        ("lax", 1),
    ),
}

#: Generation stats of the most recent ``generate_internet`` call in this
#: process, for ``repro world-stats`` and the run manifest.
_LAST_STATS: dict | None = None


def last_generation_stats() -> dict | None:
    """Per-phase timings and peak RSS of the most recent generation."""
    return _LAST_STATS


@dataclass(frozen=True)
class InternetConfig:
    """Knobs for the synthetic Internet.

    ``scale`` multiplies the stub population; all other structure is
    fixed-size (the paper's world has a fixed roster of big networks).
    ``epoch`` selects the 2015 or 2017 snapshot: 2017 grows the
    interconnection fabric slightly, which — with an unchanged M-Lab server
    deployment — reproduces the §5.4 finding that coverage *decreased*.
    """

    seed: int = 7
    scale: float = 1.0
    n_transit: int = 12
    n_stub: int = 2000
    stub_multihome_prob: float = 0.35
    ixp_count: int = 8
    ixp_peering_prob: float = 0.30
    epoch: str = "2015"
    #: Extra peer links added per big AS in the 2017 epoch.
    epoch_growth_links: int = 4
    #: New stub ASes appearing between the snapshots (fraction of n_stub).
    epoch_stub_growth: float = 0.15

    def stub_count(self) -> int:
        return max(0, int(round(self.n_stub * self.scale)))


def generate_internet(config: InternetConfig | None = None) -> Internet:
    """Generate a complete synthetic Internet from a config."""
    if config is None:
        config = InternetConfig()
    if config.epoch not in ("2015", "2017"):
        raise ValueError(f"unknown epoch {config.epoch!r}")
    builder = _Builder(config)
    return builder.build()


def _peak_rss_mb() -> float:
    """Process high-water RSS in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Builder:
    """Single-use construction context for one Internet instance.

    All generation-time state is flat scaffold data — dicts keyed by ASN
    or (ASN, city) and integer counters — plus the recorder that every
    accepted decision streams into. Recording never touches the RNG, so
    worlds are byte-identical to the retired object-graph builder.
    """

    def __init__(self, config: InternetConfig) -> None:
        self.config = config
        self.rng = derive_random(config.seed, "topology")
        # The recorder is the world: compiled tables come straight out of
        # it, and the object graph replays out of it on demand.
        self.recorder = WorldTableRecorder()
        self.orgs = OrgMap()
        self.ixps = IXPRegistry()
        self.rdns = ReverseDNS()
        # Separate pools keep client, infra, and IXP space disjoint.
        self._client_pool = PrefixAllocator(parse_ip("1.0.0.0"), 3)
        self._infra_pool = PrefixAllocator(parse_ip("96.0.0.0"), 3)
        self._ixp_pool = PrefixAllocator(parse_ip("184.0.0.0"), 6)
        # AS scaffold: what used to live on AS objects in the graph.
        self._as_name: dict[int, str] = {}
        self._as_role: dict[int, ASRole] = {}
        self._as_cities: dict[int, tuple[str, ...]] = {}
        self._as_weight: dict[int, float] = {}
        self._rel: dict[int, dict[int, Relationship]] = {}
        self._stub_asns: list[int] = []  # creation order (= old graph order)
        # Fabric scaffold: per-(AS, city) router bookkeeping + id counters.
        self._core_cities: set[tuple[int, str]] = set()
        self._border_count: dict[tuple[int, str], int] = {}
        self._pair_links: dict[tuple[int, int], int] = {}
        self._next_router_id = 1
        self._next_link_id = 1
        self._next_group_id = 1
        # Addressing scaffold: infra allocation window + cursor per AS.
        self._infra_span: dict[int, tuple[int, int]] = {}
        self._infra_cursor: dict[int, int] = {}
        self._city_weights = [c.population_weight for c in CITIES]
        self._tier1_asns: list[int] = []
        self._transit_asns: list[int] = []
        self._content_asns: list[int] = []
        self._access_primary: dict[str, int] = {}

    # ------------------------------------------------------------------
    # top level

    def build(self) -> Internet:
        global _LAST_STATS
        phases: list[tuple[str, object]] = [
            ("ixps", self._make_ixps),
            ("tier1s", self._make_tier1s),
            ("transits", self._make_transits),
            ("content", self._make_content),
            ("access", self._make_access_isps),
            ("stubs", self._make_stubs),
        ]
        if self.config.epoch == "2017":
            phases.append(("epoch2017", self._grow_for_2017))

        phase_stats: dict[str, dict[str, float]] = {}
        total_wall0 = time.perf_counter()
        total_cpu0 = time.process_time()
        for name, fn in phases:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            fn()
            phase_stats[name] = {
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
            }

        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        tables = self.recorder.finalize()
        phase_stats["finalize"] = {
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
        }

        stats = {
            "phases": phase_stats,
            "total_wall_s": time.perf_counter() - total_wall0,
            "total_cpu_s": time.process_time() - total_cpu0,
            "peak_rss_mb": _peak_rss_mb(),
            "counts": self.recorder.counts(),
        }
        _LAST_STATS = stats
        metrics.counter("worldgen.builds").inc()
        metrics.gauge("worldgen.peak_rss_mb").set(stats["peak_rss_mb"])
        metrics.gauge("worldgen.total_wall_s").set(stats["total_wall_s"])
        for name, timing in phase_stats.items():
            metrics.gauge(f"worldgen.phase.{name}.wall_s").set(timing["wall_s"])

        return Internet(
            seed=self.config.seed,
            orgs=self.orgs,
            ixps=self.ixps,
            rdns=self.rdns,
            meta=self.recorder,
            tables=tables,
            generation_stats=stats,
        )

    # ------------------------------------------------------------------
    # scaffold primitives (what the object graph used to answer)

    def _relationship(self, a: int, b: int) -> Relationship | None:
        """Relationship of ``b`` from ``a``'s view, or None."""
        return self._rel.get(a, {}).get(b)

    def _add_edge(self, a: int, b: int, rel_of_a: Relationship) -> None:
        self._rel[a][b] = rel_of_a
        self._rel[b][a] = rel_of_a.inverse()
        self.recorder.record_edge(a, b, rel_of_a)

    def _new_router(self, asn: int, city: str, role: RouterRole) -> tuple[int, int]:
        """Create a router row; returns (router_id, index_in_city)."""
        key = (asn, city)
        if role is RouterRole.CORE:
            index = 0
            self._core_cities.add(key)
        elif role is RouterRole.BORDER:
            index = self._border_count.get(key, 0)
            self._border_count[key] = index + 1
        else:
            index = 0  # access index is never a generation input
        router_id = self._next_router_id
        self._next_router_id += 1
        self.recorder.record_router(router_id, asn, city, role)
        return router_id, index

    def _pair_link_count(self, a: int, b: int) -> int:
        pair = (a, b) if a < b else (b, a)
        return self._pair_links.get(pair, 0)

    # ------------------------------------------------------------------
    # AS creation helpers

    def _sample_cities(self, count: int) -> tuple[str, ...]:
        count = min(count, len(CITIES))
        codes = [c.code for c in CITIES]
        chosen: list[str] = []
        weights = list(self._city_weights)
        pool = list(codes)
        for _ in range(count):
            pick = self.rng.choices(range(len(pool)), weights=weights, k=1)[0]
            chosen.append(pool.pop(pick))
            weights.pop(pick)
        return tuple(sorted(chosen))

    def _add_as(
        self,
        asn: int,
        name: str,
        role: ASRole,
        cities: tuple[str, ...],
        subscriber_weight: float = 0.0,
        client_prefix_lengths: tuple[int, ...] = (16,),
        infra_prefix_length: int = 18,
    ) -> None:
        if asn in self._as_name:
            raise ValueError(f"duplicate ASN {asn}")
        self._as_name[asn] = name
        self._as_role[asn] = role
        self._as_cities[asn] = cities
        self._as_weight[asn] = subscriber_weight
        self._rel[asn] = {}
        if role is ASRole.STUB:
            self._stub_asns.append(asn)
        self.recorder.record_as(asn, name, role, cities, subscriber_weight)
        for length in client_prefix_lengths:
            prefix = self._client_pool.allocate(length, asn)
            self.recorder.record_prefix(
                prefix.base, prefix.length, asn, PREFIX_CLIENT
            )
        infra = self._infra_pool.allocate(infra_prefix_length, asn)
        self.recorder.record_prefix(infra.base, infra.length, asn, PREFIX_INFRA)
        self._infra_span[asn] = (
            infra.base,
            infra.base + (1 << (32 - infra.length)),
        )
        self._infra_cursor[asn] = infra.base
        for city in cities:
            router_id, _ = self._new_router(asn, city, RouterRole.CORE)
            self.recorder.record_interface(self._alloc_infra_ip(asn), router_id, asn)
        if role is ASRole.ACCESS:
            # Last-mile aggregation (BRAS/CMTS) — the hop a traceroute shows
            # between the ISP's core and the subscriber.
            for city in cities:
                for _ in range(1 + (self.rng.random() < 0.4)):
                    access_id, _ = self._new_router(asn, city, RouterRole.ACCESS)
                    self.recorder.record_interface(
                        self._alloc_infra_ip(asn), access_id, asn
                    )

    def _alloc_infra_ip(self, asn: int) -> int:
        """Allocate a loopback-style /32.

        Advances by two so loopbacks never share a /31 with anything —
        mirroring real numbering discipline, where only point-to-point
        links sit in aligned /31 pairs.
        """
        cursor = self._infra_cursor[asn]
        if cursor % 2 == 1:
            cursor += 1
        if cursor >= self._infra_span[asn][1]:
            raise RuntimeError(f"infra space exhausted for AS{asn}")
        self._infra_cursor[asn] = cursor + 2
        return cursor

    def _alloc_ptp_pair(self, asn: int) -> tuple[int, int]:
        """Allocate a /31 (two consecutive addresses) from an AS's infra space."""
        cursor = self._infra_cursor[asn]
        if cursor % 2 == 1:
            cursor += 1
        if cursor + 2 > self._infra_span[asn][1]:
            raise RuntimeError(f"infra space exhausted for AS{asn}")
        self._infra_cursor[asn] = cursor + 2
        return cursor, cursor + 1

    # ------------------------------------------------------------------
    # network tiers

    def _make_ixps(self) -> None:
        big_cities = [c.code for c in CITIES][: self.config.ixp_count]
        for index, city in enumerate(big_cities):
            prefix = self._ixp_pool.allocate(22, 0)
            self.ixps.add(IXP(ixp_id=index + 1, name=f"IX-{city.upper()}", city_code=city, prefix=prefix))
            self.recorder.record_prefix(prefix.base, prefix.length, 0, PREFIX_IXP)
        self._ixp_cursor = {ixp.ixp_id: ixp.prefix.base for ixp in self.ixps}

    def _alloc_ixp_ip(self, ixp_id: int) -> int:
        ixp = self.ixps.get(ixp_id)
        cursor = self._ixp_cursor[ixp_id]
        end = ixp.prefix.base + (1 << (32 - ixp.prefix.length))
        if cursor >= end:
            raise RuntimeError(f"IXP prefix exhausted for {ixp.name}")
        self._ixp_cursor[ixp_id] = cursor + 1
        return cursor

    def _make_tier1s(self) -> None:
        all_cities = tuple(c.code for c in CITIES)
        for name, siblings in _TIER1_SIBLINGS.items():
            primary = siblings[0]
            self.orgs.add(Organization(org_id=f"org-{name.lower()}", name=name, asns=siblings))
            self._add_as(
                primary, name, ASRole.TIER1, all_cities,
                client_prefix_lengths=(14,), infra_prefix_length=16,
            )
            self._tier1_asns.append(primary)
            for sibling in siblings[1:]:
                cities = self._sample_cities(self.rng.randint(6, 10))
                self._add_as(
                    sibling, f"{name}-{sibling}", ASRole.TIER1, cities,
                    client_prefix_lengths=(16,), infra_prefix_length=17,
                )
                self._connect(primary, sibling, Relationship.CUSTOMER, min_links=2, max_links=4)
        # Full mesh peering among tier-1 primaries, multi-city.
        for i, a in enumerate(self._tier1_asns):
            for b in self._tier1_asns[i + 1 :]:
                self._connect(a, b, Relationship.PEER, min_links=2, max_links=5)

    def _make_transits(self) -> None:
        for index in range(self.config.n_transit):
            asn = 30000 + index
            name = f"TransitNet{index + 1:02d}"
            cities = self._sample_cities(self.rng.randint(5, 9))
            self._add_as(asn, name, ASRole.TRANSIT, cities, client_prefix_lengths=(16,))
            self.orgs.add(Organization(org_id=f"org-{name.lower()}", name=name, asns=(asn,)))
            self._transit_asns.append(asn)
            for provider in self.rng.sample(self._tier1_asns, self.rng.randint(2, 3)):
                self._connect(provider, asn, Relationship.CUSTOMER)
        for i, a in enumerate(self._transit_asns):
            for b in self._transit_asns[i + 1 :]:
                if self.rng.random() < 0.30:
                    self._connect(a, b, Relationship.PEER)

    def _make_content(self) -> None:
        for asn, name in _CONTENT:
            cities = self._sample_cities(self.rng.randint(6, 10))
            self._add_as(asn, name, ASRole.CONTENT, cities, client_prefix_lengths=(15,))
            self.orgs.add(Organization(org_id=f"org-{name.lower()}", name=name, asns=(asn,)))
            self._content_asns.append(asn)
            for provider in self.rng.sample(self._tier1_asns, 2):
                self._connect(provider, asn, Relationship.CUSTOMER)
            for transit in self._transit_asns:
                if self.rng.random() < 0.25:
                    self._connect(transit, asn, Relationship.PEER)

    def _make_access_isps(self) -> None:
        subscriber_by_name = {p.name: p for p in BROADBAND_PROVIDERS_Q3_2015}
        for name, siblings in _ACCESS_SIBLINGS.items():
            provider_row = subscriber_by_name.get(name)
            subscribers = provider_row.subscribers_q3_2015 if provider_row else 400_000
            one_hop = (
                provider_row.one_hop_fraction
                if provider_row and provider_row.one_hop_fraction is not None
                else _ONE_HOP_OVERRIDES.get(name, _DEFAULT_ONE_HOP)
            )
            weight = subscribers / 1_000_000.0
            primary = siblings[0]
            self.orgs.add(Organization(org_id=f"org-{name.lower()}", name=name, asns=siblings))
            city_count = max(4, min(16, int(round(weight))))
            self._add_as(
                primary, name, ASRole.ACCESS, self._sample_cities(city_count),
                subscriber_weight=weight,
                client_prefix_lengths=(13, 14),
                infra_prefix_length=16,
            )
            self._access_primary[name] = primary
            for sibling in siblings[1:]:
                cities = self._sample_cities(self.rng.randint(2, 5))
                self._add_as(
                    sibling, f"{name}-{sibling}", ASRole.ACCESS, cities,
                    subscriber_weight=weight / (2.0 * (len(siblings) - 1)),
                    client_prefix_lengths=(16,),
                )
                self._connect(primary, sibling, Relationship.CUSTOMER, min_links=1, max_links=3)

            # Hotspot partners (the Table 2 Level3–Cox case) connect first so
            # their prescribed parallel-link layout is the one that is built.
            hotspot_partners = self._hotspot_partners(name)
            for partner in hotspot_partners:
                self._connect(partner, primary, Relationship.PEER)

            # Exactly ⌈one_hop × hosts⌉ of the server-hosting networks are
            # directly connected (providers count: a provider-hosted server
            # is one AS hop away too). Exact sampling, not Bernoulli — the
            # per-ISP Figure 1 fractions are calibration targets.
            host_asns = self._tier1_asns + self._transit_asns
            provider_pool = [t for t in self._tier1_asns if t not in hotspot_partners]
            providers = self.rng.sample(provider_pool, 2)
            direct_target = int(round(one_hop * len(host_asns)))
            already_direct = len(providers) + sum(
                1 for h in hotspot_partners if h in host_asns
            )
            peer_pool = [
                h
                for h in host_asns
                if h not in providers and self._relationship(h, primary) is None
            ]
            peer_count = max(0, min(len(peer_pool), direct_target - already_direct))
            chosen_hosts = self.rng.sample(peer_pool, peer_count)
            # Level3 was the dominant US backbone of the era and directly
            # interconnected every major access ISP — Table 2 is built on
            # exactly those adjacencies — so guarantee it for big orgs.
            level3 = self._tier1_asns[0]
            if (
                weight > 2
                and peer_count > 0
                and level3 in peer_pool
                and level3 not in chosen_hosts
            ):
                chosen_hosts[0] = level3
            for host in chosen_hosts:
                self._connect(host, primary, Relationship.PEER, min_links=1, max_links=4)
            for provider in providers:
                self._connect(provider, primary, Relationship.CUSTOMER, min_links=1, max_links=3)
            # Sibling ASNs also land some direct tier-1 peerings, which is
            # what multiplies the AS-level link count between two orgs
            # (Table 2's 18 Level3–Comcast AS links).
            for sibling in siblings[1:]:
                for host in self.rng.sample(self._tier1_asns, self.rng.randint(1, 4)):
                    if self._relationship(host, sibling) is not None:
                        continue
                    if self.rng.random() < 0.5 * one_hop + 0.2:
                        self._connect(host, sibling, Relationship.PEER, min_links=1, max_links=2)
            # Content peering: how widely depends on peering openness.
            openness = _PEERING_OPENNESS.get(name, 0.4)
            for content in self._content_asns:
                if self.rng.random() < openness:
                    self._connect(primary, content, Relationship.PEER, min_links=1, max_links=3)
            for transit in self._transit_asns:
                if self._relationship(primary, transit) is not None:
                    continue
                if self.rng.random() < 0.35 * openness:
                    self._connect(primary, transit, Relationship.PEER)
        self._ensure_sibling_richness()
        # Large access orgs peer among themselves.
        names = list(self._access_primary)
        for i, a_name in enumerate(names):
            for b_name in names[i + 1 :]:
                a, b = self._access_primary[a_name], self._access_primary[b_name]
                big = self._as_weight[a] > 4 and self._as_weight[b] > 4
                if big and self.rng.random() < 0.5:
                    self._connect(a, b, Relationship.PEER)

    def _make_stubs(self) -> None:
        weights: list[float] = []
        candidates: list[int] = []
        for name, weight in _ACCESS_TRANSIT_WEIGHT.items():
            candidates.append(self._access_primary[name])
            weights.append(weight)
        for asn in self._tier1_asns:
            candidates.append(asn)
            weights.append(11.0)
        for asn in self._transit_asns:
            candidates.append(asn)
            weights.append(4.0)
        # Stub ASNs count up from 50000, skipping any label already taken
        # by the fixed rosters (Fastly's 54113 sits in the range). The
        # skip only fires at scale > ~2 — below that the numbering, and
        # therefore the world digest, is identical to a plain 50000+index.
        next_asn = 50000
        for index in range(self.config.stub_count()):
            while next_asn in self._as_name:
                next_asn += 1
            asn = next_asn
            next_asn += 1
            name = f"Stub{index:04d}"
            cities = self._sample_cities(1)
            self._add_as(
                asn, name, ASRole.STUB, cities,
                client_prefix_lengths=(20,), infra_prefix_length=22,
            )
            self.orgs.add(Organization(org_id=f"org-{name.lower()}", name=name, asns=(asn,)))
            provider_count = 2 if self.rng.random() < self.config.stub_multihome_prob else 1
            chosen: set[int] = set()
            for _ in range(provider_count):
                provider = self.rng.choices(candidates, weights=weights, k=1)[0]
                if provider not in chosen:
                    chosen.add(provider)
                    self._connect(provider, asn, Relationship.CUSTOMER, min_links=1, max_links=1)
        self._make_stub_peering()

    def _make_stub_peering(self) -> None:
        """Access orgs peer with small networks at IXPs.

        These peers rarely host measurement servers, so they are the
        borders no platform can test — without them, Speedtest's peer
        coverage would read 100%, which the paper shows it is not
        (14–86%). Open peers (RCN, Sonic) hold many such adjacencies,
        matching their outsized Table 3 peer counts.
        """
        stubs = list(self._stub_asns)
        if not stubs:
            return
        for name, primary in self._access_primary.items():
            openness = _PEERING_OPENNESS.get(name, 0.4)
            peer_count = int(round(8 + 28 * openness))
            for stub in self.rng.sample(stubs, min(peer_count, len(stubs))):
                if self._relationship(primary, stub) is not None:
                    continue
                self._connect(primary, stub, Relationship.PEER, min_links=1, max_links=1)

    def _grow_for_2017(self) -> None:
        """Epoch growth 2015→2017: the fabric outgrows the platforms.

        Big networks add peer interconnects, and a wave of new stub ASes
        attaches to the existing providers — together this grows the §5
        denominators faster than either measurement deployment, which is
        how coverage *decreases* despite Speedtest's 45% server growth.
        """
        grow_rng = derive_random(self.config.seed, "topology", "epoch-2017")
        big = self._tier1_asns + self._transit_asns + list(self._access_primary.values())
        for asn in big:
            for _ in range(self.config.epoch_growth_links):
                other = grow_rng.choice(self._content_asns + self._transit_asns)
                if other == asn or self._relationship(asn, other) is not None:
                    # Existing adjacency: add another router-level link to it.
                    if other != asn and self._relationship(asn, other) is Relationship.PEER:
                        self._add_links(asn, other, 1)
                    continue
                self._connect(asn, other, Relationship.PEER)
            # Each big access org also picks up a few new small peers.
            stubs = list(self._stub_asns)
            for stub in grow_rng.sample(stubs, min(3, len(stubs))):
                if self._relationship(asn, stub) is None:
                    self._connect(asn, stub, Relationship.PEER, min_links=1, max_links=1)

        provider_weights: list[float] = []
        provider_pool: list[int] = []
        for name, weight in _ACCESS_TRANSIT_WEIGHT.items():
            provider_pool.append(self._access_primary[name])
            provider_weights.append(weight)
        for asn in self._tier1_asns:
            provider_pool.append(asn)
            provider_weights.append(11.0)
        new_stubs = int(round(self.config.stub_count() * self.config.epoch_stub_growth))
        next_asn = 58000  # same skip rule as _make_stubs (collides at scale > 4)
        for index in range(new_stubs):
            while next_asn in self._as_name:
                next_asn += 1
            asn = next_asn
            next_asn += 1
            self._add_as(
                asn, f"Stub2017-{index:04d}", ASRole.STUB, self._sample_cities(1),
                client_prefix_lengths=(20,), infra_prefix_length=22,
            )
            self.orgs.add(
                Organization(org_id=f"org-stub2017-{index:04d}", name=f"Stub2017-{index:04d}", asns=(asn,))
            )
            provider = grow_rng.choices(provider_pool, weights=provider_weights, k=1)[0]
            self._connect(provider, asn, Relationship.CUSTOMER, min_links=1, max_links=1)

    # ------------------------------------------------------------------
    # interconnection fabric

    def _connect(
        self,
        a: int,
        b: int,
        rel_of_a: Relationship,
        min_links: int | None = None,
        max_links: int | None = None,
    ) -> None:
        """Create the AS edge and its router-level realization."""
        self._add_edge(a, b, rel_of_a)
        hotspot = self._hotspot_for(a, b)
        if hotspot is not None:
            for city, group_size in hotspot:
                self._make_interconnect_group(a, b, city, group_size)
            return
        if min_links is None or max_links is None:
            size_a = self._size_class(a)
            size_b = self._size_class(b)
            richness = min(size_a, size_b)
            min_links, max_links = {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (2, 6)}[richness]
        n_cities = self.rng.randint(min_links, max_links)
        cities = self._link_cities(a, b, n_cities)
        for city in cities:
            group_size = 1
            roll = self.rng.random()
            if roll > 0.92:
                group_size = self.rng.randint(3, 4)
            elif roll > 0.75:
                group_size = 2
            self._make_interconnect_group(a, b, city, group_size)

    def _ensure_sibling_richness(self) -> None:
        """Guarantee the prescribed number of sibling-pair adjacencies.

        Walks every (sibling of org A, sibling of org B) pair in a shuffled
        order and adds peer adjacencies (1–2 IP links each) until the target
        AS-level link count between the two organizations is reached.
        """
        orgs_by_name = {o.name: o for o in self.orgs.organizations()}
        for (name_a, name_b), target in _SIBLING_HOTSPOTS.items():
            org_a = orgs_by_name.get(name_a)
            org_b = orgs_by_name.get(name_b)
            if org_a is None or org_b is None:
                continue
            pairs = [(a, b) for a in org_a.asns for b in org_b.asns]
            existing = sum(
                1 for a, b in pairs if self._pair_link_count(a, b)
            )
            self.rng.shuffle(pairs)
            for a, b in pairs:
                if existing >= target:
                    break
                if self._pair_link_count(a, b):
                    continue
                if self._relationship(a, b) is None:
                    self._connect(a, b, Relationship.PEER, min_links=1, max_links=2)
                else:
                    self._add_links(a, b, 1)
                existing += 1

    def _hotspot_partners(self, org_name: str) -> list[int]:
        """Primary ASNs of orgs this org has a prescribed hotspot layout with."""
        partners: list[int] = []
        for name_a, name_b in _DEFAULT_HOTSPOTS:
            other = name_b if name_a == org_name else name_a if name_b == org_name else None
            if other is None:
                continue
            try:
                other_org = next(
                    o for o in self.orgs.organizations() if o.name == other
                )
            except StopIteration:
                continue
            partners.append(other_org.primary)
        return partners

    def _add_links(self, a: int, b: int, count: int) -> None:
        """Add router-level links to an already existing AS adjacency."""
        for city in self._link_cities(a, b, count):
            self._make_interconnect_group(a, b, city, 1)

    def _hotspot_for(self, a: int, b: int) -> tuple[tuple[str, int], ...] | None:
        org_a = self.orgs.org_of(a)
        org_b = self.orgs.org_of(b)
        if org_a is None or org_b is None:
            return None
        for (name_a, name_b), layout in _DEFAULT_HOTSPOTS.items():
            if {org_a.name, org_b.name} == {name_a, name_b} and a == org_a.primary and b == org_b.primary:
                return layout
        return None

    def _size_class(self, asn: int) -> int:
        role = self._as_role[asn]
        if role is ASRole.TIER1:
            return 3
        if role in (ASRole.TRANSIT, ASRole.CONTENT):
            return 2
        if role is ASRole.ACCESS:
            return 2 if self._as_weight[asn] > 4 else 1
        return 0

    def _link_cities(self, a: int, b: int, count: int) -> list[str]:
        cities_a = set(self._as_cities[a])
        cities_b = set(self._as_cities[b])
        shared = sorted(cities_a & cities_b)
        if shared:
            self.rng.shuffle(shared)
            chosen = shared[:count]
            if len(chosen) < count:
                extras = sorted((cities_a | cities_b) - set(chosen))
                self.rng.shuffle(extras)
                chosen.extend(extras[: count - len(chosen)])
            return chosen
        union = sorted(cities_a | cities_b)
        self.rng.shuffle(union)
        return union[:count] if union else ["nyc"]

    def _border_router(self, asn: int, city: str) -> tuple[int, int]:
        """Create a border router; ensures the AS has a core presence there.

        Returns (router_id, index_in_city) — the index feeds DNS naming.
        """
        if (asn, city) not in self._core_cities:
            core_id, _ = self._new_router(asn, city, RouterRole.CORE)
            self.recorder.record_interface(self._alloc_infra_ip(asn), core_id, asn)
        router_id, index = self._new_router(asn, city, RouterRole.BORDER)
        self.recorder.record_interface(self._alloc_infra_ip(asn), router_id, asn)
        return router_id, index

    def _make_interconnect_group(self, a: int, b: int, city: str, group_size: int) -> None:
        """One border-router pair in ``city`` joined by ``group_size`` parallel links."""
        router_a = self._border_router(a, city)
        router_b = self._border_router(b, city)
        use_ixp = (
            self._relationship(a, b) is Relationship.PEER
            and any(ixp.city_code == city for ixp in self.ixps)
            and self.rng.random() < self.config.ixp_peering_prob
        )
        group_id = self._next_group_id
        self._next_group_id += 1
        pair = (a, b) if a < b else (b, a)
        for _ in range(group_size):
            if use_ixp:
                ixp = next(x for x in self.ixps if x.city_code == city)
                a_ip = self._alloc_ixp_ip(ixp.ixp_id)
                b_ip = self._alloc_ixp_ip(ixp.ixp_id)
                numbered_from = 0
                kind = InterconnectKind.IXP
            else:
                owner = a if self.rng.random() < 0.5 else b
                low, high = self._alloc_ptp_pair(owner)
                a_ip, b_ip = (low, high) if owner == a else (high, low)
                numbered_from = owner
                kind = InterconnectKind.PRIVATE
            self.recorder.record_interface(a_ip, router_a[0], numbered_from)
            self.recorder.record_interface(b_ip, router_b[0], numbered_from)
            link_id = self._next_link_id
            self._next_link_id += 1
            self.recorder.record_link(
                link_id,
                a_asn=a,
                b_asn=b,
                a_router_id=router_a[0],
                b_router_id=router_b[0],
                a_ip=a_ip,
                b_ip=b_ip,
                city_code=city,
                kind=kind,
                numbered_from_asn=numbered_from,
                group_id=group_id,
            )
            self._pair_links[pair] = self._pair_links.get(pair, 0) + 1
            self._name_border_interfaces(a, b, a_ip, b_ip, city, router_a, router_b)

    def _name_border_interfaces(
        self,
        a: int,
        b: int,
        a_ip: int,
        b_ip: int,
        city_code: str,
        router_a: tuple[int, int],
        router_b: tuple[int, int],
    ) -> None:
        """Attach PTR records in the Level3 style to border interfaces.

        Only networks that plausibly run a reverse zone (tier-1/transit, and
        big access orgs) name their side; a fraction of records is simply
        missing, as in the wild.
        """
        city = next(c for c in CITIES if c.code == city_code)
        for asn, (router_id, index_in_city), ip, other in (
            (a, router_a, a_ip, b),
            (b, router_b, b_ip, a),
        ):
            role = self._as_role[asn]
            if role not in (ASRole.TIER1, ASRole.TRANSIT) and self._as_weight[asn] < 4:
                continue
            if self.rng.random() < 0.15:  # missing PTR record
                continue
            # Role is a property of the router, so keep it deterministic per
            # router: DNS-based parallel-link grouping depends on one router
            # presenting one consistent name stem.
            dns_role = "edge" if router_id % 3 else "ear"
            name = border_interface_name(
                owner_as_name=self._as_name[asn],
                neighbor_as_name=self._as_name[other],
                role=dns_role,
                router_index=index_in_city + 1,
                city_name=city.name,
                city_index=(index_in_city % 4) + 1,
            )
            self.rdns.set_name(ip, name)
