"""Tests for NDT↔traceroute matching (§4.1 semantics)."""

from hypothesis import example, given, settings
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


def _brute_force(tests, traces, window_s, mode):
    """Every test against every trace of its client: the earliest trace in
    the window ("after"), or the nearest one ("either"); ties go to the
    earlier trace, then to the smaller trace id."""
    matched = {}
    for test in tests:
        low = test.timestamp_s - (window_s if mode == "either" else 0.0)
        high = test.timestamp_s + window_s
        candidates = [
            (abs(trace.timestamp_s - test.timestamp_s) if mode == "either" else 0.0,
             trace.timestamp_s, trace.trace_id)
            for trace in traces
            if trace.dst_ip == test.client_ip and low <= trace.timestamp_s <= high
        ]
        if candidates:
            matched[test.test_id] = min(candidates)[2]
    return matched


#: Multiples of 15 s put traces exactly on the edges of every window below
#: and give many equal timestamps; arbitrary floats cover the rest.
_times = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 15.0),
    st.floats(min_value=0, max_value=600, allow_nan=False),
)


class TestAgainstBruteForce:
    def test_window_edges_and_equal_timestamps(self):
        tests = [_ndt(1, 100.0), _ndt(2, 700.0)]
        # 160 sits on test 1's far edge, two traces share test 2's own
        # timestamp, and 50 and 650 only fall in the "either" windows.
        traces = [_trace(9, 160.0), _trace(8, 700.0), _trace(7, 700.0),
                  _trace(6, 50.0), _trace(5, 650.0)]
        for mode in ("after", "either"):
            report = match_ndt_to_traceroutes(tests, traces, window_s=60.0, mode=mode)
            assert report.matched == _brute_force(tests, traces, 60.0, mode)
        after = match_ndt_to_traceroutes(tests, traces, window_s=60.0)
        assert after.matched == {1: 9, 2: 7}
        edge = match_ndt_to_traceroutes([_ndt(1, 100.0)], [_trace(4, 40.0)],
                                        window_s=60.0, mode="either")
        assert edge.matched == {1: 4}

    @given(
        tests=st.lists(st.tuples(_times, st.integers(min_value=1, max_value=3)), max_size=15),
        traces=st.lists(st.tuples(_times, st.integers(min_value=1, max_value=3)), max_size=15),
        trace_ids=st.permutations(range(100, 115)),
        window=st.sampled_from([15.0, 60.0, 300.0]),
        mode=st.sampled_from(["after", "either"]),
    )
    @example(tests=[(30.0, 1)], traces=[(45.0, 1), (15.0, 1), (45.0, 1)],
             trace_ids=list(range(114, 99, -1)), window=15.0, mode="either")
    @settings(max_examples=200)
    def test_matches_brute_force(self, tests, traces, trace_ids, window, mode):
        ndt = [_ndt(i + 1, t, client_ip=c) for i, (t, c) in enumerate(tests)]
        trs = [_trace(trace_ids[i], t, dst_ip=c) for i, (t, c) in enumerate(traces)]
        report = match_ndt_to_traceroutes(ndt, trs, window_s=window, mode=mode)
        assert report.matched == _brute_force(ndt, trs, window, mode)
        assert report.total_tests == len(ndt)
