"""Measurement primitives: NDT tests, Paris traceroutes, and their records.

The record types mirror what M-Lab publishes (plus clearly-marked ground
truth fields that the generator knows but real analysts do not — these are
used only to validate inference, never as inference inputs).
"""

from repro.measurement.ndt import NDTRunner
from repro.measurement.records import NDTRecord, TraceHop, TracerouteRecord
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine

__all__ = [
    "NDTRecord",
    "NDTRunner",
    "TraceHop",
    "TracerouteConfig",
    "TracerouteEngine",
    "TracerouteRecord",
]
