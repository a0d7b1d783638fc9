"""Route plans against the per-flow walk they replaced.

``Forwarder`` resolves each endpoint pair ``(src_asn, src_city, dst_asn,
dst_city)`` once into a route plan read from the compiled world's
tables, and routes every flow through it. ``ScalarForwarder`` in
``tests/scalar_reference.py`` is the forwarder as it was before: a walk
over the object fabric per flow, and a batch resolver that grouped its
requests by endpoint pair. These tests hold the two equal field by
field, on a hand-built world that has every awkward case and on the
shared study world, at every caching setting, and check that paths are
interned: the same choices give the same object.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.coverage import collect_coverage_reports
from repro.core.pipeline import StudyConfig, build_study
from repro.experiments.common import analyze_campaign
from repro.platforms.campaign import CampaignConfig
from repro.routing.bgp import BGPRouting
from repro.routing.forwarding import Forwarder, ForwardingPath
from repro.topology.asgraph import ASRole, Relationship
from repro.topology.dns import ReverseDNS
from repro.topology.internet import Internet
from repro.topology.ixp import IXPRegistry
from repro.topology.orgs import Organization, OrgMap
from repro.topology.routers import InterconnectKind, RouterRole
from repro.topology.tables import WorldTableRecorder
from tests.scalar_reference import ScalarForwarder

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

#: Caching off, a bound every sweep outgrows, and the default.
CACHE_SIZES = (0, 4, 65536)

#: Flow keys of every shape callers use or could: NDT and Paris tuples,
#: plain and non-ASCII text, an int, and an unhashable list.
FLOW_KEYS = (
    ("ndt", 17, 3, 167772161),
    ("paris", "nyc01", 167772161, 17),
    "plain",
    "Zürich→東京",
    42,
    ["list", 1, ("nested", 2.5)],
)

_FIELDS = [field.name for field in dataclasses.fields(ForwardingPath)]


def _hand_world() -> Internet:
    """Six ASes with the cases a generated world lacks or hides.

    * AS 40 has no neighbor at all: every pair with it is unroutable.
    * AS 2 and AS 30 are adjacent (30 is 2's customer), but no
      interconnect realizes the adjacency.
    * Broadband (AS 10) has three access routers in nyc, the middle one
      without an interface, and two interface-less ones in chi.
    * Content (AS 20) has a core router without an interface in lax.
    * Parallel links and multi-metro adjacencies give ECMP groups of one
      to three members, at hot- and cold-potato boundaries.
    """
    recorder = WorldTableRecorder()
    orgs = OrgMap()
    for asn, name, role, cities in (
        (1, "TierOne", ASRole.TIER1, ("nyc", "chi", "dfw", "lax")),
        (2, "TierTwo", ASRole.TIER1, ("nyc", "chi", "dfw", "atl")),
        (10, "Broadband", ASRole.ACCESS, ("nyc", "chi", "dfw")),
        (20, "Content", ASRole.CONTENT, ("nyc", "lax")),
        (30, "Unlinked", ASRole.STUB, ("atl",)),
        (40, "Island", ASRole.STUB, ("chi",)),
    ):
        recorder.record_as(asn, name, role, cities, 1.0)
        orgs.add(Organization(f"org-{asn}", name, (asn,)))
    recorder.record_edge(1, 2, Relationship.PEER)
    recorder.record_edge(1, 10, Relationship.CUSTOMER)
    recorder.record_edge(2, 10, Relationship.CUSTOMER)
    recorder.record_edge(1, 20, Relationship.CUSTOMER)
    recorder.record_edge(2, 30, Relationship.CUSTOMER)

    counters = {"router": 0, "ip": 0x0A000000, "link": 0, "group": 0}

    def next_ip() -> int:
        counters["ip"] += 2
        return counters["ip"]

    def router(asn: int, city: str, role: RouterRole, addressed: bool = True) -> int:
        counters["router"] += 1
        router_id = counters["router"]
        recorder.record_router(router_id, asn, city, role)
        if addressed:
            recorder.record_interface(next_ip(), router_id, asn)
        return router_id

    for asn, cities in ((1, ("nyc", "chi", "dfw", "lax")), (2, ("nyc", "chi", "dfw", "atl")),
                        (10, ("nyc", "chi", "dfw")), (20, ("nyc",)), (30, ("atl",)),
                        (40, ("chi",))):
        for city in cities:
            router(asn, city, RouterRole.CORE)
    router(20, "lax", RouterRole.CORE, addressed=False)
    for addressed in (True, False, True):
        router(10, "nyc", RouterRole.ACCESS, addressed)
    router(10, "chi", RouterRole.ACCESS, addressed=False)
    router(10, "chi", RouterRole.ACCESS, addressed=False)
    router(10, "dfw", RouterRole.ACCESS)

    def links(a: int, b: int, city: str, count: int) -> None:
        """``count`` parallel links between one new border-router pair."""
        a_router = router(a, city, RouterRole.BORDER)
        b_router = router(b, city, RouterRole.BORDER)
        counters["group"] += 1
        for _ in range(count):
            a_ip, b_ip = next_ip(), next_ip()
            recorder.record_interface(a_ip, a_router, a)
            recorder.record_interface(b_ip, b_router, a)
            counters["link"] += 1
            recorder.record_link(
                counters["link"], a, b, a_router, b_router, a_ip, b_ip, city,
                InterconnectKind.PRIVATE, a, counters["group"],
            )

    links(1, 2, "nyc", 3)
    links(1, 2, "chi", 1)
    links(1, 2, "dfw", 2)
    links(1, 10, "nyc", 2)
    links(1, 10, "chi", 1)
    links(1, 10, "dfw", 1)
    links(2, 10, "dfw", 2)
    links(2, 10, "nyc", 1)
    links(1, 20, "nyc", 1)
    links(1, 20, "lax", 2)
    return Internet(
        90_210, orgs=orgs, ixps=IXPRegistry(), rdns=ReverseDNS(),
        meta=recorder, tables=recorder.finalize(),
    )


#: Every AS at each of its metros, plus metros where it has no router.
_HAND_ENDPOINTS = (
    (1, "nyc"), (1, "lax"), (1, "sea"),
    (2, "atl"), (2, "chi"),
    (10, "nyc"), (10, "chi"), (10, "dfw"), (10, "mia"),
    (20, "nyc"), (20, "lax"),
    (30, "atl"),
    (40, "chi"),
)


@pytest.fixture(scope="module")
def hand_world() -> Internet:
    return _hand_world()


@pytest.fixture(scope="module")
def hand_requests() -> list[tuple]:
    return [
        (src_asn, src_city, dst_asn, dst_city, key)
        for src_asn, src_city in _HAND_ENDPOINTS
        for dst_asn, dst_city in _HAND_ENDPOINTS
        for key in FLOW_KEYS
    ]


def _pair(internet: Internet, cache_size: int) -> tuple[Forwarder, ScalarForwarder]:
    """A plan forwarder and the reference walk over one world."""
    routing = BGPRouting(internet.graph)
    return (
        Forwarder(internet, routing, segment_cache_size=cache_size),
        ScalarForwarder(internet, routing, segment_cache_size=cache_size),
    )


def assert_same_path(got: ForwardingPath | None, want: ForwardingPath | None, request) -> None:
    if want is None:
        assert got is None, request
        return
    assert got is not None, request
    for name in _FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, request)


class TestHandWorld:
    def test_world_has_the_awkward_cases(self, hand_world, hand_requests):
        forwarder, reference = _pair(hand_world, 65536)
        for request in hand_requests:
            forwarder.route_flow(*request)
        plans = forwarder._plans
        routing = forwarder.routing
        # Unroutable at the AS level, and routable there but not in the fabric.
        assert routing.as_path(1, 40) is None
        assert routing.as_path(1, 30) == [1, 2, 30]
        assert forwarder.route_flow(1, "nyc", 30, "atl", "k") is None
        assert plans[(1, "nyc", 40, "chi")][1] is None
        # Interface-less access routers stay candidates with reply ip 0.
        nyc = forwarder._access_candidates(10, "nyc")
        assert len(nyc) == 3 and nyc[1][1] == 0 and 0 not in (nyc[0][1], nyc[2][1])
        assert [ip for _router, ip in forwarder._access_candidates(10, "chi")] == [0, 0]
        assert forwarder._core_hop(20, "lax") is None
        # Both egress policies, with groups that make the key matter.
        boundaries = [
            boundary for plan in plans.values() if plan[2] is not None
            for boundary in plan[2]
        ]
        assert any(group is None for group, *_ in boundaries)
        assert any(group is not None and len(group) > 1 for group, *_ in boundaries)
        assert any(plan[0] is not None for plan in plans.values())
        # The reference reads the same world through the object fabric.
        assert reference._fabric is hand_world.fabric

    @pytest.mark.parametrize("cache_size", CACHE_SIZES)
    def test_route_flow_equals_the_walk(self, hand_world, hand_requests, cache_size):
        forwarder, reference = _pair(hand_world, cache_size)
        for _ in range(2):  # the second round runs on warm plans and caches
            for request in hand_requests:
                assert_same_path(
                    forwarder.route_flow(*request), reference.route_flow(*request), request
                )

    @pytest.mark.parametrize("cache_size", CACHE_SIZES)
    def test_batch_equals_route_flow_and_the_grouped_batch(
        self, hand_world, hand_requests, cache_size
    ):
        forwarder, reference = _pair(hand_world, cache_size)
        batch = forwarder.resolve_paths_batch(hand_requests)
        grouped = reference.resolve_paths_batch(hand_requests)
        assert len(batch) == len(grouped) == len(hand_requests)
        for request, got, want in zip(hand_requests, batch, grouped):
            assert_same_path(got, want, request)
            single = forwarder.route_flow(*request)
            assert_same_path(single, got, request)
            if cache_size > len(hand_requests) and got is not None:
                assert single is got, request  # nothing was evicted in between
            if cache_size and single is not None:
                assert forwarder.resolve_paths_batch([request])[0] is single, request

    def test_same_choices_share_one_path(self, hand_world, hand_requests):
        forwarder, reference = _pair(hand_world, 65536)
        by_choices: dict[tuple, ForwardingPath] = {}
        for request in hand_requests + hand_requests[::-1]:
            path = forwarder.route_flow(*request)
            if path is None:
                continue
            # The access pick, which an interface-less router leaves off the hops.
            access = reference._access_choice(request[2], request[3], str(request[4]))
            choices = (request[:4], path.crossed_links, access)
            assert by_choices.setdefault(choices, path) is path, request
        # Distinct flow keys landed on the same choices somewhere.
        assert len(by_choices) < sum(
            1 for request in hand_requests if forwarder.route_flow(*request) is not None
        )

    def test_uncached_paths_are_equal_but_fresh(self, hand_world, hand_requests):
        forwarder = Forwarder(hand_world, BGPRouting(hand_world.graph), segment_cache_size=0)
        for request in hand_requests[::7]:
            one, two = forwarder.route_flow(*request), forwarder.route_flow(*request)
            if one is not None:
                assert one == two and one is not two
        assert not forwarder._plans and not forwarder._path_cache


def _endpoints(study) -> list[tuple[int, str]]:
    servers = {(server.asn, server.city) for server in study.mlab.servers()}
    clients = {
        (client.asn, client.city)
        for org in study.population.orgs()
        for client in study.population.clients_of(org)[:6]
    }
    return sorted(servers | clients)


_KEYS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.tuples(st.sampled_from(("ndt", "ndt-up", "paris")), st.integers(0, 10**6)),
    st.lists(st.integers(0, 9), max_size=3),
    st.integers(),
)


@st.composite
def _requests(draw, endpoints):
    pairs = st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints))
    out = []
    for (src, dst), key in draw(st.lists(st.tuples(pairs, _KEYS), min_size=1, max_size=40)):
        out.append((src[0], src[1], dst[0], dst[1], key))
    return out


@pytest.fixture(scope="module")
def study_endpoints(small_study):
    return _endpoints(small_study)


class TestStudyWorld:
    @given(data=st.data(), cache_size=st.sampled_from(CACHE_SIZES))
    def test_plans_equal_the_walk(self, small_study, study_endpoints, data, cache_size):
        requests = data.draw(_requests(study_endpoints))
        routing = small_study.forwarder.routing
        forwarder = Forwarder(small_study.internet, routing, segment_cache_size=cache_size)
        reference = ScalarForwarder(small_study.internet, routing, segment_cache_size=cache_size)
        batch = forwarder.resolve_paths_batch(requests)
        for request, got in zip(requests, batch):
            want = reference.route_flow(*request)
            assert_same_path(got, want, request)
            assert_same_path(forwarder.route_flow(*request), want, request)
        for request, got, want in zip(requests, batch, reference.resolve_paths_batch(requests)):
            assert_same_path(got, want, request)


class TestTablesOnly:
    def test_campaign_and_coverage_never_build_the_fabric(self, monkeypatch):
        """Routing, traceroute alternates and everything else on the §4
        campaign and §5 sweep paths read the compiled world's tables."""
        monkeypatch.setenv("REPRO_CACHE", "0")  # run the campaign, do not load it
        study = build_study(StudyConfig(
            seed=29, scale=0.05, mlab_server_count=24, speedtest_server_count=30,
            clients_per_million=10.0,
        ))
        assert study.internet._fabric is None
        analyzed = analyze_campaign(study, CampaignConfig(seed=29, days=3, total_tests=600))
        assert analyzed.campaign.traceroute_records and analyzed.matched_pairs
        assert collect_coverage_reports(study, alexa_count=40, jobs=1)
        assert study.internet._fabric is None
