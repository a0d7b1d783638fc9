"""Hops as columns: forwarding paths and traceroutes keep no per-hop objects.

A ``ForwardingPath`` stores its hops as the columns ``hop_routers``,
``hop_asns``, ``hop_cities`` and ``hop_ips``; a ``TracerouteRecord`` as
``hop_ips`` and ``hop_rtts`` (TTL = position + 1). Exact tuples of atoms
leave the cyclic collector's scan list at their first collection, which
is the point of the layout: these tests fail when per-hop objects come
back. The ``hops`` properties are views built from the columns.
"""

from __future__ import annotations

import gc

from repro.measurement.records import TraceHop
from repro.measurement.traceroute import TraceRequest, TracerouteConfig, TracerouteEngine
from repro.routing.forwarding import RouterHop

PATH_COLUMNS = ("as_path", "hop_routers", "hop_asns", "hop_cities", "hop_ips", "crossed_links")
TRACE_COLUMNS = ("hop_ips", "hop_rtts", "gt_crossed_links", "gt_as_path")


def _requests(study, tag, rounds=2):
    vp = study.ark_vps()[0]
    graph = study.internet.graph
    targets = [(s.ip, s.asn, s.city) for s in study.mlab.servers() if s.asn in graph]
    return [
        TraceRequest(vp.ip, vp.asn, vp.city, ip, asn, city, float(i), (tag, ip, i))
        for _round in range(rounds)
        for i, (ip, asn, city) in enumerate(targets)
    ]


def _trace(study, tag):
    engine = TracerouteEngine(
        study.internet, study.forwarder, TracerouteConfig(seed=7), stream=tag
    )
    records = [r for r in engine.trace_batch(_requests(study, tag)) if r is not None]
    assert records
    return engine, records


class TestUntracked:
    def test_hop_columns_leave_the_gc_scan_list(self, small_study):
        engine, records = _trace(small_study, "columns:gc")
        gc.collect()
        for record in records:
            for name in TRACE_COLUMNS:
                assert not gc.is_tracked(getattr(record, name)), name

        forwarder = small_study.forwarder
        paths = list(forwarder._path_cache.values()) + [
            plan[0] for plan in forwarder._plans.values() if plan[0] is not None
        ]
        assert paths
        for path in paths:
            for name in PATH_COLUMNS:
                assert not gc.is_tracked(getattr(path, name)), name

        # Render tables (built on each path's second visit) hold atoms only.
        assert engine._render_tables
        for entries, _last_city, _last_ms in engine._render_tables.values():
            for entry in entries:
                assert not gc.is_tracked(entry)


class TestViews:
    def test_trace_hops_view_the_columns(self, small_study):
        _engine, records = _trace(small_study, "columns:view")
        for record in records:
            hops = record.hops
            assert len(hops) == len(record.hop_ips) == len(record.hop_rtts)
            for index, hop in enumerate(hops):
                assert type(hop) is TraceHop
                assert hop.ttl == index + 1
                assert hop.ip == record.hop_ips[index]
                assert hop.rtt_ms == record.hop_rtts[index]
                assert (hop.ip is None) == (hop.rtt_ms is None)

    def test_path_hops_view_the_columns(self, small_study):
        _trace(small_study, "columns:path")
        for path in small_study.forwarder._path_cache.values():
            hops = path.hops
            assert len({len(path.hop_routers), len(path.hop_asns),
                        len(path.hop_cities), len(path.hop_ips), len(hops)}) == 1
            for index, hop in enumerate(hops):
                assert type(hop) is RouterHop
                assert hop.router_id == path.hop_routers[index]
                assert hop.asn == path.hop_asns[index]
                assert hop.city_code == path.hop_cities[index]
                assert hop.reply_ip == path.hop_ips[index]

    def test_router_hop_ips_reads_the_stored_column(self, small_study):
        _engine, records = _trace(small_study, "columns:ips")
        stripped = 0
        for record in records:
            ips = record.router_hop_ips()
            if ips is record.hop_ips:
                continue
            stripped += 1
            assert record.reached_destination
            assert ips == record.hop_ips[:-1]
            assert record.hop_ips[-1] == record.dst_ip
        assert 0 < stripped < len(records)
