"""Tests for units helpers and measurement records."""

import pickle

import pytest

from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.util.units import GBPS, KBPS, MBPS, mbps, seconds_to_hours


class TestUnits:
    def test_constants_ordering(self):
        assert KBPS < MBPS < GBPS

    def test_mbps(self):
        assert mbps(25_000_000.0) == 25.0

    def test_seconds_to_hours(self):
        assert seconds_to_hours(3600.0) == 1.0
        assert seconds_to_hours(86400.0 + 1800.0) == 0.5  # wraps the day

    def test_seconds_to_hours_range(self):
        for s in (0, 1, 86399, 86400, 100000):
            assert 0 <= seconds_to_hours(s) < 24


def _record(**overrides):
    base = dict(
        test_id=1, timestamp_s=0.0, local_hour=12.0, client_ip=9,
        server_id=1, server_ip=2, server_asn=3, server_city="atl",
        download_bps=25_000_000.0, rtt_ms=20.0, retx_rate=0.0,
        congestion_signals=0, gt_client_asn=4, gt_client_org="X",
        gt_crossed_links=(), gt_bottleneck_link=None, gt_bottleneck_kind="access",
    )
    base.update(overrides)
    return NDTRecord(**base)


class TestNDTRecord:
    def test_download_mbps(self):
        assert _record().download_mbps == 25.0

    def test_rtt_extremes_default(self):
        record = _record()
        assert record.rtt_min_ms == 0.0
        assert record.rtt_max_ms == 0.0


class TestTracerouteRecord:
    def _trace(self, ips, rtts, reached, dst_ip=99):
        return TracerouteRecord(
            trace_id=1, timestamp_s=0.0, src_ip=1, src_asn=1, dst_ip=dst_ip,
            hop_ips=tuple(ips), hop_rtts=tuple(rtts), reached_destination=reached,
            gt_crossed_links=(), gt_as_path=(1,),
        )

    def test_responding_ips_drops_stars(self):
        trace = self._trace([10, None, 11], [1.0, None, 2.0], reached=False)
        assert trace.responding_ips() == [10, 11]

    def test_router_hops_strip_destination_only_when_reached(self):
        ips, rtts = [10, 99], [1.0, 2.0]
        reached = self._trace(ips, rtts, reached=True)
        assert reached.router_hop_ips() == (10,)
        unreached = self._trace(ips, rtts, reached=False)
        assert unreached.router_hop_ips() == (10, 99)

    def test_router_hops_keep_nonmatching_tail(self):
        # reached flag set but last hop is not the destination address
        # (should not happen, but must not silently drop a router hop).
        trace = self._trace([10, 55], [1.0, 2.0], reached=True)
        assert trace.router_hop_ips() == (10, 55)


class TestRecordsAsTuples:
    """Records are named tuples; what the digests and the artifact cache
    read of them is what the frozen dataclasses gave: the ``repr`` byte
    for byte, the hash of the field tuple, and pickles that load back."""

    NDT = NDTRecord(
        test_id=7, timestamp_s=3600.5, local_hour=1.0001388888888889, client_ip=167772161,
        server_id=3, server_ip=3232235777, server_asn=3356, server_city="atl",
        download_bps=24123456.789, rtt_ms=21.25, retx_rate=0.0125, congestion_signals=2,
        gt_client_asn=7922, gt_client_org="Comcast", gt_crossed_links=(41, 7),
        gt_bottleneck_link=41, gt_bottleneck_kind="interconnect", rtt_min_ms=19.5,
        rtt_max_ms=88.0, upload_bps=4.5e6,
    )
    TRACE = TracerouteRecord(
        trace_id=5, timestamp_s=3611.5, src_ip=3232235777, src_asn=3356,
        dst_ip=167772161, hop_ips=(3232235778, None, 167772161),
        hop_rtts=(1.5, None, 22.75), reached_destination=True,
        gt_crossed_links=(41,), gt_as_path=(3356, 7922),
    )

    def test_repr_is_the_dataclass_repr(self):
        assert repr(self.NDT) == (
            "NDTRecord(test_id=7, timestamp_s=3600.5, local_hour=1.000138888888889, "
            "client_ip=167772161, server_id=3, server_ip=3232235777, server_asn=3356, "
            "server_city='atl', download_bps=24123456.789, rtt_ms=21.25, "
            "retx_rate=0.0125, congestion_signals=2, gt_client_asn=7922, "
            "gt_client_org='Comcast', gt_crossed_links=(41, 7), gt_bottleneck_link=41, "
            "gt_bottleneck_kind='interconnect', rtt_min_ms=19.5, rtt_max_ms=88.0, "
            "upload_bps=4500000.0)"
        )
        assert repr(self.TRACE) == (
            "TracerouteRecord(trace_id=5, timestamp_s=3611.5, src_ip=3232235777, "
            "src_asn=3356, dst_ip=167772161, hop_ips=(3232235778, None, 167772161), "
            "hop_rtts=(1.5, None, 22.75), reached_destination=True, "
            "gt_crossed_links=(41,), gt_as_path=(3356, 7922))"
        )

    @pytest.mark.parametrize("record", (NDT, TRACE), ids=("ndt", "trace"))
    def test_hash_is_the_field_tuple_hash(self, record):
        fields = tuple(getattr(record, name) for name in type(record)._fields)
        assert hash(record) == hash(fields)
        assert record == type(record)(*fields)

    @pytest.mark.parametrize("record", (NDT, TRACE), ids=("ndt", "trace"))
    def test_pickle_round_trip(self, record):
        loaded = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(loaded) is type(record)
        assert loaded == record and repr(loaded) == repr(record)

    def test_defaults_and_properties_kept(self):
        assert _record().upload_bps == 0.0
        assert self.NDT.upload_mbps == 4.5
        assert self.TRACE.router_hop_ips() == (3232235778, None)
