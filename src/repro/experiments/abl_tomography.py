"""Ablation: simplified AS-level tomography vs its assumptions (§3).

The paper argues qualitatively that the M-Lab inference method breaks when
its assumptions fail; this experiment quantifies that on ground truth:

1. **baseline** — the default world: run simplified AS tomography over
   (source org, client org) aggregates and score localization against the
   provisioned congestion (which pairs carry a congested interconnect,
   which are congested elsewhere, which are clean).
2. **regional congestion (A3 violated)** — congest only the Dallas links
   of the Level3↔Cox hotspot: the AS-level aggregate mixes congested and
   clean interconnects. We report the aggregate verdict next to per-link
   verdicts and the *masking*: the share of tests labelled by an aggregate
   verdict that contradicts the link they actually crossed (the Claffy et
   al. regional effect the paper leans on).
3. **binary tomography with full paths** — the counterfactual the paper
   wishes platforms supported: with per-test router-level link sets from
   the same peak-hour observations, boolean tomography localizes the
   congested links themselves.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.congestion import classify_series, diurnal_series
from repro.core.pipeline import Study, StudyConfig, build_study
from repro.core.tomography import (
    aggregate_path_observations,
    binary_tomography,
    score_as_localization,
    simplified_as_tomography,
)
from repro.experiments.base import ExperimentResult
from repro.net.link import CongestionDirective
from repro.platforms.campaign import CampaignConfig

ABL_CAMPAIGN = CampaignConfig(
    seed=7, days=28, total_tests=30_000,
    orgs=("ATT", "Comcast", "Verizon", "TimeWarnerCable", "Cox"),
)

#: Scenario 2: regional congestion — only Dallas links of Level3–Cox.
REGIONAL_DIRECTIVES = (
    CongestionDirective("Level3", "Cox", city_code="dfw", peak_load=1.30),
)


def run(study: Study | None = None) -> ExperimentResult:
    if study is None:
        study = build_study()
    rows: list[list] = []
    notes: dict[str, object] = {}

    # Scenarios 1 and 3 read one campaign on the default world; both run
    # before scenario 2 builds its world, so the campaign is not held
    # alongside the regional one.
    campaign = study.run_campaign(ABL_CAMPAIGN)
    base = _simplified_run(study, campaign)
    binary = _binary_run(study, campaign)
    del campaign

    # --- scenario 1: default world --------------------------------------
    rows.append(["baseline", "simplified-AS", base["precision"], base["recall"], base["detail"]])
    notes["baseline_inferred_pairs"] = base["inferred_names"]
    notes["baseline_fp_pairs"] = base["fp_names"]

    # --- scenario 2: regional (A3-violating) congestion ------------------
    regional_study = build_study(StudyConfig(directives=REGIONAL_DIRECTIVES))
    masking = _regional_masking(regional_study)
    rows.append(
        [
            "regional-congestion",
            "AS-aggregate verdict",
            masking["aggregate_drop"],
            "-",
            f"congested={masking['aggregate_verdict']}",
        ]
    )
    rows.append(
        [
            "regional-congestion",
            "per-link verdicts",
            "-",
            "-",
            (
                f"links={masking['links']} congested={masking['congested_links']} "
                f"healthy={masking['healthy_links']}"
            ),
        ]
    )
    rows.append(
        [
            "regional-congestion",
            "masking",
            "-",
            "-",
            f"{masking['mislabeled_tests']}/{masking['total_tests']} tests mislabeled by aggregate",
        ]
    )
    notes["regional_mislabeled_fraction"] = masking["mislabeled_fraction"]

    # --- scenario 3: binary tomography with full path info ---------------
    rows.append(["baseline", "binary-full-path", binary["precision"], binary["recall"], binary["detail"]])
    notes["binary_precision"] = binary["precision"]
    notes["binary_recall"] = binary["recall"]

    return ExperimentResult(
        experiment_id="abl-tomo",
        title="Tomography ablation: simplified AS-level vs binary with full paths",
        headers=["scenario", "method", "precision", "recall", "detail"],
        rows=rows,
        notes=notes,
    )


def _group_tests(study: Study, result):
    tests_by_pair = defaultdict(list)
    for record in result.ndt_records:
        pair = (study.org_label(record.server_asn), record.gt_client_org)
        tests_by_pair[pair].append(record)
    return tests_by_pair


def _simplified_run(study: Study, result):
    tests_by_pair = _group_tests(study, result)
    tomography = simplified_as_tomography(dict(tests_by_pair), threshold=0.5)

    congested_pairs = set()
    elsewhere_pairs = set()
    congested_ids = study.links.congested_link_ids()
    for pair, records in tests_by_pair.items():
        hit_interdomain = False
        hit_any = False
        for record in records:
            for link_id in record.gt_crossed_links:
                if link_id in congested_ids:
                    hit_any = True
                    link = study.internet.fabric.interconnect(link_id)
                    orgs = {study.org_label(link.a_asn), study.org_label(link.b_asn)}
                    if orgs == {pair[0], pair[1]}:
                        hit_interdomain = True
        if hit_interdomain:
            congested_pairs.add(pair)
        elif hit_any:
            elsewhere_pairs.add(pair)

    score = score_as_localization(tomography, congested_pairs, elsewhere_pairs)
    detail = (
        f"tp={len(score.true_positive_pairs)} mis={len(score.mislocalized_pairs)} "
        f"fp={len(score.false_positive_pairs)} miss={len(score.missed_pairs)}"
    )
    return {
        "precision": round(score.precision, 3),
        "recall": round(score.recall, 3),
        "detail": detail,
        "inferred_names": ";".join(
            f"{s}->{c}" for s, c in tomography.inferred_congested_pairs()
        ),
        "fp_names": ";".join(f"{s}->{c}" for s, c in score.false_positive_pairs),
    }


def _regional_masking(study: Study):
    """Quantify what AS-level aggregation hides under regional congestion."""
    result = study.run_campaign(ABL_CAMPAIGN)
    level3 = study.org_label(study.internet.as_named("Level3").asn)
    congested_ids = study.links.congested_link_ids()

    records = []
    for record in result.ndt_records:
        if record.gt_client_org != "Cox":
            continue
        if study.org_label(record.server_asn) != level3:
            continue
        records.append(record)

    aggregate = classify_series(diurnal_series(records), threshold=0.5)

    # Per crossed Level3–Cox link: its own diurnal verdict.
    by_link = defaultdict(list)
    for record in records:
        for link_id in record.gt_crossed_links:
            link = study.internet.fabric.interconnect(link_id)
            orgs = {study.org_label(link.a_asn), study.org_label(link.b_asn)}
            if orgs == {level3, "Cox"}:
                by_link[link_id].append(record)

    congested_links = 0
    healthy_links = 0
    mislabeled = 0
    total = 0
    for link_id, link_records in by_link.items():
        truly_congested = link_id in congested_ids
        if truly_congested:
            congested_links += 1
        else:
            healthy_links += 1
        total += len(link_records)
        # The aggregate labels every test with its single verdict; tests on
        # links whose true state disagrees with that label are mislabeled.
        if aggregate.congested != truly_congested:
            mislabeled += len(link_records)

    return {
        "aggregate_drop": round(aggregate.relative_drop, 3),
        "aggregate_verdict": aggregate.congested,
        "links": len(by_link),
        "congested_links": congested_links,
        "healthy_links": healthy_links,
        "mislabeled_tests": mislabeled,
        "total_tests": total,
        "mislabeled_fraction": round(mislabeled / total, 3) if total else 0.0,
    }


def _binary_run(study: Study, result):
    """Boolean tomography over peak-hour observations with full link sets."""
    observations = []
    for record in result.ndt_records:
        if not 20 <= record.local_hour <= 22:
            continue  # compare within one load regime
        bad = record.retx_rate > 0.015
        observations.append((record.gt_crossed_links, bad))

    inferred = binary_tomography(aggregate_path_observations(observations, min_observations=3))
    truth = {
        link_id
        for link_id in study.links.congested_link_ids()
        if any(link_id in links for links, _bad in observations)
    }
    tp = len(inferred & truth)
    precision = tp / len(inferred) if inferred else 1.0
    recall = tp / len(truth) if truth else 1.0
    return {
        "precision": round(precision, 3),
        "recall": round(recall, 3),
        "detail": f"inferred={len(inferred)} truth-on-paths={len(truth)} tp={tp}",
    }
