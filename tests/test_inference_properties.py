"""Property test: MAP-IT's array passes equal the scalar reference.

Hypothesis builds small corpora from ``tiny_internet``: real traceroutes
(so border /31s, third-party replies and ownership flips occur), random
walks over the observed addresses, gaps, IXP hops, repeated hops and
duplicated traces. On every corpus the array path must infer exactly
what ``tests/scalar_reference.py`` infers: ownership (items and key
order), links, passes and flips.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.inference.bdrmap import collect_bdrmap_traces  # noqa: E402
from repro.inference.borders import OriginOracle  # noqa: E402
from repro.inference.mapit import MapIt, MapItConfig  # noqa: E402
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine  # noqa: E402
from repro.platforms.ark import make_ark_vps  # noqa: E402
from repro.routing.bgp import BGPRouting  # noqa: E402
from repro.routing.forwarding import Forwarder  # noqa: E402
from tests.scalar_reference import ScalarMapIt  # noqa: E402


@pytest.fixture(scope="module")
def world(tiny_internet):
    """(oracle, graph, real traces, observed addresses, IXP addresses)."""
    forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
    engine = TracerouteEngine(
        tiny_internet, forwarder, TracerouteConfig(seed=3, third_party_prob=0.2)
    )
    traces = []
    for vp in make_ark_vps(tiny_internet)[:3]:
        traces += [
            t.router_hop_ips() for t in collect_bdrmap_traces(tiny_internet, vp, engine)
        ]
    oracle = OriginOracle(
        tiny_internet.prefix_table, tiny_internet.orgs, tiny_internet.ixps.prefixes()
    )
    observed = sorted({ip for trace in traces for ip in trace if ip is not None})
    ixp_ips = [
        prefix.base + offset for prefix in tiny_internet.ixps.prefixes() for offset in (1, 2, 5)
    ]
    return oracle, tiny_internet.graph, traces, observed, ixp_ips


@st.composite
def corpora(draw, world):
    _oracle, _graph, traces, observed, ixp_ips = world
    corpus = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            trace = list(draw(st.sampled_from(traces)))
        else:
            trace = draw(st.lists(st.sampled_from(observed), max_size=8))
        for position, edit in draw(
            st.lists(
                st.tuples(st.integers(0, 12), st.sampled_from(("gap", "ixp", "repeat", "cut"))),
                max_size=3,
            )
        ):
            position = min(position, len(trace))
            if edit == "gap":
                trace.insert(position, None)
            elif edit == "ixp":
                trace.insert(position, draw(st.sampled_from(ixp_ips)))
            elif edit == "repeat" and trace:
                trace.insert(position, trace[min(position, len(trace) - 1)])
            else:
                trace = trace[position:]
        corpus += [trace] * draw(st.integers(1, 3))
    return corpus


configs = st.builds(
    MapItConfig,
    majority_threshold=st.sampled_from((0.5, 0.4)),
    max_passes=st.integers(1, 10),
    max_flips_per_interface=st.integers(1, 3),
)


@given(data=st.data())
def test_array_path_equals_reference(world, data):
    oracle, graph, *_rest = world
    corpus = data.draw(corpora(world))
    config = data.draw(configs)
    graph = data.draw(st.sampled_from((graph, None)))

    fast = MapIt(oracle, graph, config).infer(corpus)
    slow = ScalarMapIt(oracle, graph, config).infer(corpus)

    assert list(fast.ownership.items()) == list(slow.ownership.items())
    assert fast.links == slow.links
    assert fast.passes_used == slow.passes_used
    assert fast.flips == slow.flips
