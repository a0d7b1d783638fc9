"""§6.2: how large a throughput drop constitutes congestion?

The paper's closing statistical challenge: the AT&T→GTT collapse clears
any sane threshold, but Comcast→GTT — called *uncongested* by the M-Lab
report — still dips 20–30%. This experiment sweeps the detection threshold
over all (source network, access ISP) aggregates of the May-2015-style
campaign and reports how the set of "congested" pairs grows as the
threshold shrinks, with the ground-truth congested pairs alongside.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.congestion import diurnal_series, threshold_sweep
from repro.core.pipeline import DEFAULT_DIRECTIVES, Study, build_study
from repro.experiments.base import ExperimentResult
from repro.experiments.common import analyzed_campaign

THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9)
MIN_SAMPLES = 200


def run(study: Study | None = None) -> ExperimentResult:
    if study is None:
        study = build_study()
    analyzed = analyzed_campaign(study)

    groups: dict[str, list] = defaultdict(list)
    for record in analyzed.campaign.ndt_records:
        source = study.org_label(record.server_asn)
        groups[f"{source}->{record.gt_client_org}"].append(record)

    series_by_group = {
        name: diurnal_series(records)
        for name, records in groups.items()
        if len(records) >= MIN_SAMPLES
    }
    rows = []
    sweep = threshold_sweep(series_by_group, THRESHOLDS)
    for entry in sweep:
        shown = ", ".join(entry.congested_groups[:6])
        if entry.congested_count > 6:
            shown += f", ... ({entry.congested_count} total)"
        rows.append([entry.threshold, entry.congested_count, shown])

    truly_congested = sorted(
        f"{d.org_a}->{d.org_b}" for d in DEFAULT_DIRECTIVES
    )
    return ExperimentResult(
        experiment_id="sec62",
        title="Congestion verdicts vs detection threshold (all source->ISP aggregates)",
        headers=["threshold", "# congested", "congested aggregates"],
        rows=rows,
        notes={
            "groups_analyzed": len(series_by_group),
            "ground_truth_congested_org_pairs": ", ".join(truly_congested),
            "paper_observation": "no principled threshold separates the Comcast dip from congestion",
        },
    )
