"""The traceroute batch engine's byte-identity contract.

``TracerouteEngine.trace_batch`` and scalar ``trace`` share one
table-backed renderer. Both promise to return exactly what the
hop-by-hop reference walk (``tests/scalar_reference.py``) returns: same
hops to the last bit of RTT jitter, same silent-router / transient-loss
/ third-party artifacts, same trace ids, same RNG stream consumption.
These tests drive the engine and the reference over identical request
sets — across seeds, across artifact-heavy configurations, across
repeated batches (which exercise the render-table fast path) — and pin
the whole thing to a golden digest captured from the scalar engine. MAP-IT's array passes ride on the same contract:
over a batch corpus they must infer exactly what the scalar reference
walk (``tests/scalar_reference.py``) infers.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.inference.mapit import MapIt
from repro.measurement.traceroute import (
    TraceRequest,
    TracerouteConfig,
    TracerouteEngine,
)
from tests.scalar_reference import ScalarMapIt
from tests.scalar_reference import trace as reference_trace
from tests.scalar_reference import trace_along as reference_along

#: sha256 over two rounds of the request set below (records + one RNG
#: draw at the end), as produced by the scalar `trace` path. trace_batch
#: drifting from this means batching changed observable output.
GOLDEN_TRACE_SHA = "322f697edfe2091815115ede8b049e94e89e4a5efa127334da2d2e286e64e24b"

#: Elevated artifact rates: silent routers, third-party addresses, and
#: transient loss all fire constantly, hammering every batch branch that
#: consumes RNG draws conditionally.
ARTIFACT_HEAVY = TracerouteConfig(
    seed=5,
    silent_router_fraction=0.30,
    transient_loss_prob=0.10,
    third_party_prob=0.30,
    destination_responds_prob=0.50,
)


def _golden_requests(study, tag="golden"):
    vp = study.ark_vps()[0]
    targets = [(s.ip, s.asn, s.city) for s in study.mlab.servers()]
    targets += [(s.ip, s.asn, s.city) for s in study.speedtest.servers()[:60]]
    graph = study.internet.graph
    return [
        TraceRequest(
            vp.ip, vp.asn, vp.city, ip, asn, city, float(i), (tag, vp.code, ip, i)
        )
        for i, (ip, asn, city) in enumerate(targets)
        if asn in graph
    ]


def _engine(study, config, stream):
    return TracerouteEngine(study.internet, study.forwarder, config, stream=stream)


def _digest(records, rng_probe):
    h = hashlib.sha256()
    for rec in records:
        if rec is None:
            h.update(b"none")
            continue
        h.update(repr((
            rec.trace_id, rec.timestamp_s, rec.src_ip, rec.src_asn, rec.dst_ip,
            tuple((hop.ttl, hop.ip, hop.rtt_ms) for hop in rec.hops),
            rec.reached_destination, rec.gt_crossed_links, rec.gt_as_path,
        )).encode())
    h.update(repr(rng_probe).encode())
    return h.hexdigest()


class TestTraceBatchEquivalence:
    @pytest.mark.parametrize(
        "config,stream",
        [
            (TracerouteConfig(seed=7), "eq:default"),
            (TracerouteConfig(seed=1234), "eq:seed1234"),
            (ARTIFACT_HEAVY, "eq:artifacts"),
        ],
        ids=["default-seed", "other-seed", "artifact-heavy"],
    )
    def test_batch_matches_sequential_trace(self, small_study, config, stream):
        requests = _golden_requests(small_study, tag=stream)
        scalar_engine = _engine(small_study, config, stream)
        batch_engine = _engine(small_study, config, stream)

        scalar = [reference_trace(scalar_engine, *r) for r in requests]
        batched = batch_engine.trace_batch(requests)

        assert len(batched) == len(scalar)
        for got, want in zip(batched, scalar):
            assert got == want
            assert repr(got) == repr(want)
        # The RNG sits exactly where scalar left it, and ids continue.
        assert batch_engine._rng.getstate() == scalar_engine._rng.getstate()
        assert batch_engine._next_trace_id == scalar_engine._next_trace_id

    def test_artifact_heavy_actually_exercises_artifacts(self, small_study):
        requests = _golden_requests(small_study, tag="art:probe")
        records = _engine(small_study, ARTIFACT_HEAVY, "art:probe").trace_batch(requests)
        hops = [h for r in records if r is not None for h in r.hops]
        assert any(h.ip is None for h in hops), "no silent/lost hops produced"
        assert any(r is not None and not r.reached_destination for r in records)

    def test_repeated_batches_hit_render_tables_identically(self, small_study):
        """Round two revisits every path — the table-render fast path —
        and must still match round two of the scalar walk."""
        requests = _golden_requests(small_study, tag="eq:repeat")
        config = TracerouteConfig(seed=7)
        scalar_engine = _engine(small_study, config, "eq:repeat")
        batch_engine = _engine(small_study, config, "eq:repeat")
        for _ in range(3):
            scalar = [reference_trace(scalar_engine, *r) for r in requests]
            batched = batch_engine.trace_batch(requests)
            assert batched == scalar
        assert batch_engine._rng.getstate() == scalar_engine._rng.getstate()

    def test_batch_then_scalar_continues_identically(self, small_study):
        """Switching modes mid-stream is seamless: a batch followed by
        scalar calls equals the all-scalar sequence."""
        requests = _golden_requests(small_study, tag="eq:mix")
        half = len(requests) // 2
        config = TracerouteConfig(seed=7)
        mixed_engine = _engine(small_study, config, "eq:mix")
        scalar_engine = _engine(small_study, config, "eq:mix")

        mixed = list(mixed_engine.trace_batch(requests[:half]))
        mixed += [mixed_engine.trace(*r) for r in requests[half:]]
        scalar = [reference_trace(scalar_engine, *r) for r in requests]
        assert mixed == scalar

    @pytest.mark.parametrize(
        "config", [TracerouteConfig(seed=7), ARTIFACT_HEAVY], ids=["default", "artifact-heavy"]
    )
    def test_scalar_trace_matches_reference_walk(self, small_study, config):
        """Scalar ``trace`` and ``trace_along`` render through the shared
        table-backed renderer; over three rounds (fresh paths, then table
        builds, then table hits) both equal the hop-by-hop walk."""
        requests = _golden_requests(small_study, tag="eq:scalar")
        engine = _engine(small_study, config, "eq:scalar")
        reference = _engine(small_study, config, "eq:scalar")
        for _ in range(3):
            for r in requests:
                assert engine.trace(*r) == reference_trace(reference, *r)
        path = small_study.forwarder.route_flow(*requests[0][1:3], *requests[0][4:6], "along")
        assert path is not None
        along = engine.trace_along(path, 1, 2, requests[0].dst_city, 5.0)
        assert along == reference_along(reference, path, 1, 2, requests[0].dst_city, 5.0)
        assert engine._rng.getstate() == reference._rng.getstate()
        assert engine._next_trace_id == reference._next_trace_id

    def test_empty_batch(self, small_study):
        assert _engine(small_study, TracerouteConfig(seed=7), "eq:empty").trace_batch([]) == []


class TestTraceBatchGolden:
    def test_two_rounds_match_scalar_golden(self, small_study):
        """Pinned digest captured from the scalar engine: round one walks
        fresh paths, round two renders from tables; both must reproduce
        the scalar output bit for bit, RNG stream included."""
        requests = _golden_requests(small_study)
        engine = _engine(small_study, TracerouteConfig(seed=7), "golden")
        records = list(engine.trace_batch(requests))
        records += engine.trace_batch(requests)
        assert _digest(records, engine._rng.random()) == GOLDEN_TRACE_SHA


class TestMapItVectorEquivalence:
    def test_vectorized_pass_matches_scalar(self, small_study):
        requests = _golden_requests(small_study, tag="mapit:eq")
        records = _engine(small_study, TracerouteConfig(seed=7), "mapit:eq").trace_batch(
            requests
        )
        paths = [r.router_hop_ips() for r in records if r is not None]
        paths += paths[: len(paths) // 3]  # duplicated traces weigh in
        graph = small_study.internet.graph

        fast = MapIt(small_study.oracle, graph).infer(paths)
        slow = ScalarMapIt(small_study.oracle, graph).infer(paths)

        assert fast.flips > 0, "corpus too tame to exercise the refinement rules"
        assert list(fast.ownership.items()) == list(slow.ownership.items())
        assert fast.links == slow.links
        assert fast.passes_used == slow.passes_used
        assert fast.flips == slow.flips
