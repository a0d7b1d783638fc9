"""Figure 5: diurnal throughput and sample counts, GTT→AT&T vs GTT→Comcast.

The paper's two contrasting cases: AT&T customers tested against GTT-hosted
servers collapse to under 1 Mbps at peak (a saturated interconnect) while
Comcast customers dip 20–30% (a healthy interconnect plus cable-medium
contention and sample bias). Both ISPs also show the §6.1 sample-count
imbalance: evening-heavy test launches leave off-peak hours thin.

Tests are aggregated over *all* GTT-hosted servers (sites differ between
our synthetic deployment and the real Atlanta site; the phenomenon is the
org-pair aggregate the M-Lab report analysed).
"""

from __future__ import annotations

import math

from repro.core.congestion import classify_series, diurnal_series
from repro.core.pipeline import Study, build_study
from repro.experiments.base import ExperimentResult
from repro.experiments.common import analyzed_campaign
from repro.platforms.campaign import CampaignConfig

#: Campaign focused on the two Figure 5 ISPs for dense hourly bins.
FIG5_CAMPAIGN = CampaignConfig(
    seed=7,
    days=28,
    total_tests=24_000,
    orgs=("ATT", "Comcast"),
    burst_prob=0.3,
)

SOURCE_ORG = "GTT"


def run(study: Study | None = None) -> ExperimentResult:
    if study is None:
        study = build_study()
    analyzed = analyzed_campaign(study, FIG5_CAMPAIGN)
    gtt = study.oracle.canonical(study.internet.as_named(SOURCE_ORG).asn)

    rows = []
    notes: dict[str, object] = {
        "paper_att_peak_mbps": "<1",
        "paper_comcast_drop": "0.2-0.3",
    }
    for org in ("ATT", "Comcast"):
        records = [
            r
            for r in analyzed.campaign.ndt_records
            if r.gt_client_org == org
            and study.oracle.canonical(r.server_asn) == gtt
        ]
        series = diurnal_series(records)
        verdict = classify_series(series, threshold=0.5)
        for hourly in series.bins:
            rows.append(
                [
                    org,
                    hourly.hour,
                    hourly.count,
                    round(hourly.mean, 2) if not math.isnan(hourly.mean) else "-",
                    round(hourly.median, 2) if not math.isnan(hourly.median) else "-",
                    round(hourly.std, 2) if not math.isnan(hourly.std) else "-",
                ]
            )
        notes[f"{org}_tests"] = len(records)
        notes[f"{org}_peak_median_mbps"] = round(verdict.peak_median, 2)
        notes[f"{org}_offpeak_median_mbps"] = round(verdict.offpeak_median, 2)
        notes[f"{org}_relative_drop"] = round(verdict.relative_drop, 3)
        notes[f"{org}_congested_at_0.5"] = verdict.congested
        counts = series.counts()
        busy = [c for c in counts if c > 0]
        notes[f"{org}_min_hour_samples"] = min(busy) if busy else 0
        notes[f"{org}_max_hour_samples"] = max(counts)

    return ExperimentResult(
        experiment_id="fig5",
        title=f"Diurnal throughput via {SOURCE_ORG} servers: AT&T (congested) vs Comcast",
        headers=["ISP", "hour", "samples", "mean Mbps", "median Mbps", "std"],
        rows=rows,
        notes=notes,
    )
