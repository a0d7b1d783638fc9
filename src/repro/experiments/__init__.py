"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes ``run(study=None, **params) -> ExperimentResult``
and prints the same rows/series the paper reports; ``EXPERIMENTS`` maps
experiment ids to their entry points so the benchmark suite and the
``python -m repro.experiments`` runner can enumerate them.
"""

from repro.experiments.base import ExperimentResult

from repro.experiments import (  # noqa: F401  (registry imports)
    abl_server_policy,
    abl_tomography,
    ext_asymmetry,
    ext_iplink,
    ext_signatures,
    ext_stratification,
    ext_tslp,
    fig1_as_hops,
    fig2_coverage,
    fig3_peer_coverage,
    fig4_alexa_overlap,
    fig5_diurnal,
    sec41_matching,
    sec54_temporal,
    sec62_thresholds,
    tab1_providers,
    tab2_link_diversity,
    tab3_bdrmap,
    val_asrank,
    val_bdrmap,
    val_mapit,
)

#: Experiment id → callable returning an ExperimentResult.
EXPERIMENTS = {
    "tab1": tab1_providers.run,
    "fig1": fig1_as_hops.run,
    "tab2": tab2_link_diversity.run,
    "tab3": tab3_bdrmap.run,
    "fig2": fig2_coverage.run,
    "fig3": fig3_peer_coverage.run,
    "fig4": fig4_alexa_overlap.run,
    "fig5": fig5_diurnal.run,
    "sec41": sec41_matching.run,
    "sec54": sec54_temporal.run,
    "sec62": sec62_thresholds.run,
    "val-mapit": val_mapit.run,
    "val-bdrmap": val_bdrmap.run,
    "val-asrank": val_asrank.run,
    "abl-tomo": abl_tomography.run,
    "abl-policy": abl_server_policy.run,
    "ext-tslp": ext_tslp.run,
    "ext-strat": ext_stratification.run,
    "ext-asym": ext_asymmetry.run,
    "ext-iplink": ext_iplink.run,
    "ext-sigs": ext_signatures.run,
}

#: The readers of each memoized product of :mod:`repro.experiments.common`.
#: ``all --jobs N`` runs a group as one pool unit, so its first member
#: builds the product and the rest read that worker's in-process memo.
SHARED_PRODUCT_GROUPS: tuple[tuple[str, ...], ...] = (
    ("fig1", "tab2", "sec62", "val-mapit", "ext-iplink"),  # analyzed_campaign(study)
    ("fig2", "fig3", "fig4", "sec54"),  # coverage_reports(study)
    ("fig5", "ext-strat"),  # analyzed_campaign(study, FIG5_CAMPAIGN)
)


def experiment_units(ids: list[str]) -> list[tuple[str, ...]]:
    """Split experiment ids into pool units for ``all --jobs N``.

    Ids of one :data:`SHARED_PRODUCT_GROUPS` entry form one unit; every
    other id is a unit of its own. Members keep registry order and units
    are ordered by their first member.
    """
    group_of = {member: group for group in SHARED_PRODUCT_GROUPS for member in group}
    order = {experiment_id: index for index, experiment_id in enumerate(EXPERIMENTS)}
    units: dict[tuple[str, ...], list[str]] = {}
    for experiment_id in sorted(ids, key=order.__getitem__):
        units.setdefault(group_of.get(experiment_id, (experiment_id,)), []).append(experiment_id)
    return [tuple(members) for members in units.values()]


#: The EXPERIMENTS.md summary-table artifacts, in table order. Every one
#: of these has a named shape gate in :mod:`repro.validate.gates`; the
#: default ``python -m repro validate`` sweep runs exactly this set.
SUMMARY_EXPERIMENTS: tuple[str, ...] = (
    "tab1", "fig1", "tab2", "tab3", "fig2", "fig3",
    "fig4", "fig5", "sec41", "sec54", "sec62",
)

__all__ = [
    "EXPERIMENTS",
    "SHARED_PRODUCT_GROUPS",
    "SUMMARY_EXPERIMENTS",
    "ExperimentResult",
    "experiment_units",
]
