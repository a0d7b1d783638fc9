"""Tests for diurnal load profiles."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.diurnal import (
    DiurnalProfile,
    cable_contention,
    crowdsourced_test_intensity,
)


class TestDiurnalProfile:
    def test_peak_at_evening(self):
        profile = DiurnalProfile(base=0.2, evening_amplitude=0.8)
        assert profile.value(21.0) > profile.value(4.0)

    def test_peak_trough_scan(self):
        profile = DiurnalProfile(base=0.2, evening_amplitude=0.8)
        assert profile.peak_value() > profile.trough_value()
        assert profile.peak_value() <= 0.2 + 0.8 + 1e-9

    def test_wraparound_continuity(self):
        profile = DiurnalProfile(base=0.1, evening_amplitude=0.9, evening_peak_hour=23.5)
        # Just past midnight must still feel the 23:30 peak.
        assert profile.value(0.25) > profile.value(12.0)

    def test_never_negative(self):
        profile = DiurnalProfile(base=-0.5, evening_amplitude=0.1)
        assert profile.value(3.0) == 0.0

    def test_can_exceed_one(self):
        profile = DiurnalProfile(base=0.4, evening_amplitude=1.0)
        assert profile.peak_value() > 1.0  # a congested link

    @given(st.floats(min_value=-100, max_value=100))
    def test_value_defined_for_any_hour(self, hour):
        profile = DiurnalProfile(base=0.3, evening_amplitude=0.5)
        value = profile.value(hour)
        assert 0.0 <= value <= 0.3 + 0.5 + 1e-9

    @given(st.floats(min_value=0, max_value=24))
    def test_24h_periodic(self, hour):
        profile = DiurnalProfile(base=0.3, evening_amplitude=0.5, day_amplitude=0.2)
        assert abs(profile.value(hour) - profile.value(hour + 24)) < 1e-12


#: Amplitudes of either sign, and exactly zero, which skips a bump.
_AMPLITUDES = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.5))
_WIDTHS = st.floats(min_value=0.3, max_value=6.0)
#: Peak hours anywhere, off the minute grid, and at either end of the day.
_PEAK_HOURS = st.one_of(
    st.floats(min_value=-30.0, max_value=54.0),
    st.floats(min_value=-0.02, max_value=0.02),
    st.floats(min_value=23.98, max_value=24.02),
    st.integers(min_value=0, max_value=24 * 60).map(lambda m: m / 60.0),
)
_PROFILES = st.builds(
    DiurnalProfile,
    base=st.floats(min_value=-0.5, max_value=1.5),
    evening_amplitude=_AMPLITUDES,
    evening_peak_hour=_PEAK_HOURS,
    evening_width_hours=_WIDTHS,
    day_amplitude=_AMPLITUDES,
    day_peak_hour=_PEAK_HOURS,
    day_width_hours=_WIDTHS,
)


class TestExceeds:
    @settings(max_examples=150)
    @given(profile=_PROFILES)
    # A bump smaller than half an ulp of the base at the coarse scan's
    # points, which lifts the base one ulp at its minute-grid peak: the
    # slope bound alone misses that rounding.
    @example(DiurnalProfile(0.7, 5.6e-17, 21.25, 0.3))
    @example(DiurnalProfile(0.7, 0.0, day_amplitude=5.6e-17, day_peak_hour=14.25,
                            day_width_hours=0.3))
    def test_exceeds_is_the_minute_scan(self, profile):
        """Both certificates and the scans answer exactly as the 1-minute
        scan does, at its peak and one float step either side of it."""
        peak = profile.peak_value()
        for threshold in (math.nextafter(peak, -math.inf), peak, math.nextafter(peak, math.inf)):
            assert profile.exceeds(threshold) == (peak >= threshold)

    @settings(max_examples=150)
    @given(profile=_PROFILES, threshold=st.floats(min_value=-0.5, max_value=3.5))
    def test_exceeds_at_any_threshold(self, profile, threshold):
        assert profile.exceeds(threshold) == (profile.peak_value() >= threshold)


class TestDemandCurves:
    def test_test_intensity_peaks_in_evening(self):
        assert crowdsourced_test_intensity(20.5) > crowdsourced_test_intensity(4.0)

    def test_test_intensity_positive(self):
        assert all(crowdsourced_test_intensity(h) > 0 for h in range(24))

    def test_cable_contention_evening_heavy(self):
        assert cable_contention(21.0) > cable_contention(13.0) > cable_contention(4.5)
