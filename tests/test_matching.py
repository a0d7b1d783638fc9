"""Tests for NDT↔traceroute matching (§4.1 semantics)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import match_ndt_to_traceroutes
from repro.measurement.records import NDTRecord, TracerouteRecord


def _ndt(test_id, t, client_ip=100):
    return NDTRecord(
        test_id=test_id, timestamp_s=t, local_hour=(t % 86400) / 3600,
        client_ip=client_ip, server_id=1, server_ip=1, server_asn=1,
        server_city="atl", download_bps=1e6, rtt_ms=10.0, retx_rate=0.0,
        congestion_signals=0, gt_client_asn=2, gt_client_org="X",
        gt_crossed_links=(), gt_bottleneck_link=None, gt_bottleneck_kind="access",
    )


def _trace(trace_id, t, dst_ip=100):
    return TracerouteRecord(
        trace_id=trace_id, timestamp_s=t, src_ip=1, src_asn=1, dst_ip=dst_ip,
        hop_ips=(5,), hop_rtts=(1.0,), reached_destination=False,
        gt_crossed_links=(), gt_as_path=(1, 2),
    )


class TestAfterWindow:
    def test_matches_first_in_window(self):
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0)], [_trace(10, 150.0), _trace(11, 200.0)]
        )
        assert report.matched == {1: 10}

    def test_before_test_not_matched(self):
        report = match_ndt_to_traceroutes([_ndt(1, 100.0)], [_trace(10, 50.0)])
        assert report.matched == {}

    def test_outside_window_not_matched(self):
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0)], [_trace(10, 800.0)], window_s=600.0
        )
        assert report.matched == {}

    def test_different_client_not_matched(self):
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0, client_ip=1)], [_trace(10, 150.0, dst_ip=2)]
        )
        assert report.matched == {}

    def test_one_trace_can_serve_two_tests(self):
        # The paper's rule has no exclusivity: both tests find the trace.
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0), _ndt(2, 120.0)], [_trace(10, 150.0)]
        )
        assert report.matched == {1: 10, 2: 10}


class TestEitherWindow:
    def test_nearest_wins(self):
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0)],
            [_trace(10, 60.0), _trace(11, 400.0)],
            mode="either",
        )
        assert report.matched == {1: 10}

    def test_either_is_superset_of_after(self):
        tests = [_ndt(1, 100.0), _ndt(2, 1000.0)]
        traces = [_trace(10, 50.0), _trace(11, 1100.0)]
        after = match_ndt_to_traceroutes(tests, traces, mode="after")
        either = match_ndt_to_traceroutes(tests, traces, mode="either")
        assert set(after.matched) <= set(either.matched)

    def test_bad_mode(self):
        import pytest

        with pytest.raises(ValueError):
            match_ndt_to_traceroutes([], [], mode="sideways")


class TestFractionAndProperties:
    def test_fraction(self):
        report = match_ndt_to_traceroutes(
            [_ndt(1, 100.0), _ndt(2, 5000.0)], [_trace(10, 150.0)]
        )
        assert report.matched_fraction == 0.5

    def test_empty(self):
        report = match_ndt_to_traceroutes([], [])
        assert report.matched_fraction == 0.0

    @given(
        st.lists(st.floats(min_value=0, max_value=10_000), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0, max_value=10_000), min_size=0, max_size=20),
        st.sampled_from([60.0, 300.0, 600.0]),
    )
    @settings(max_examples=60)
    def test_wider_window_never_matches_fewer(self, test_times, trace_times, window):
        tests = [_ndt(i + 1, t) for i, t in enumerate(sorted(test_times))]
        traces = [_trace(100 + i, t) for i, t in enumerate(sorted(trace_times))]
        narrow = match_ndt_to_traceroutes(tests, traces, window_s=window)
        wide = match_ndt_to_traceroutes(tests, traces, window_s=window * 2)
        assert set(narrow.matched) <= set(wide.matched)

    @given(
        st.lists(st.floats(min_value=0, max_value=10_000), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0, max_value=10_000), min_size=0, max_size=20),
    )
    @settings(max_examples=60)
    def test_either_mode_superset_property(self, test_times, trace_times):
        tests = [_ndt(i + 1, t) for i, t in enumerate(sorted(test_times))]
        traces = [_trace(100 + i, t) for i, t in enumerate(sorted(trace_times))]
        after = match_ndt_to_traceroutes(tests, traces)
        either = match_ndt_to_traceroutes(tests, traces, mode="either")
        assert set(after.matched) <= set(either.matched)
