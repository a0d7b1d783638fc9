"""Matching NDT tests to their Paris traceroutes (§4.1).

M-Lab never recorded which traceroute belonged to which NDT test; the only
recourse is searching, per client, for a traceroute executed close in time
to the test. The paper matched with a 10-minute window *after* the test
(71% of May-2015 tests matched) and, relaxed to either side, 87%.

This module implements exactly that search, parameterized by window and
direction so the §4.1 sensitivity numbers can be reproduced.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass

from repro.measurement.records import NDTRecord, TracerouteRecord


@dataclass(frozen=True)
class MatchReport:
    """Outcome of one matching run."""

    window_s: float
    mode: str  # "after" or "either"
    matched: dict[int, int]  # test_id -> trace_id
    total_tests: int

    @property
    def matched_fraction(self) -> float:
        return len(self.matched) / self.total_tests if self.total_tests else 0.0


def match_ndt_to_traceroutes(
    ndt_records: list[NDTRecord],
    traceroutes: list[TracerouteRecord],
    window_s: float = 600.0,
    mode: str = "after",
) -> MatchReport:
    """Pair each NDT test with the nearest qualifying traceroute.

    ``mode="after"`` accepts only traceroutes started within ``window_s``
    after the test (the paper's primary rule) and takes the first of them;
    ``mode="either"`` accepts a window on both sides and takes the nearest
    in time. Both window edges are inclusive, and ties go to the earlier
    traceroute, then to the smaller trace id. A traceroute may serve
    several tests.
    """
    if mode not in ("after", "either"):
        raise ValueError(f"unknown matching mode {mode!r}")

    grouped: dict[int, list[tuple[float, int]]] = defaultdict(list)
    for trace in traceroutes:
        grouped[trace.dst_ip].append((trace.timestamp_s, trace.trace_id))
    # Per client: its traces in time order, and their start times alone
    # for the bisection.
    by_client: dict[int, tuple[list[tuple[float, int]], list[float]]] = {}
    for client_ip, entries in grouped.items():
        entries.sort()
        by_client[client_ip] = (entries, [t for t, _ in entries])

    # The paper's procedure: per client, the *first* traceroute in the
    # window after the test (or the nearest on either side). A traceroute
    # may serve several tests — M-Lab never enforced one trace per test.
    matched: dict[int, int] = {}
    for record in ndt_records:
        client = by_client.get(record.client_ip)
        if client is None:
            continue
        entries, times = client
        low_time = record.timestamp_s - (window_s if mode == "either" else 0.0)
        high_time = record.timestamp_s + window_s
        start = bisect.bisect_left(times, low_time)
        best: tuple[float, int] | None = None
        for position in range(start, len(entries)):
            trace_time, trace_id = entries[position]
            if trace_time > high_time:
                break
            distance = abs(trace_time - record.timestamp_s)
            if mode == "after":
                best = (distance, trace_id)  # first in-window trace wins
                break
            if best is None or distance < best[0]:
                best = (distance, trace_id)
        if best is not None:
            matched[record.test_id] = best[1]

    return MatchReport(
        window_s=window_s, mode=mode, matched=matched, total_tests=len(ndt_records)
    )
