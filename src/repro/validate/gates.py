"""Shape gates: EXPERIMENTS.md summary verdicts as machine-checked assertions.

Every row of the EXPERIMENTS.md summary table carries a prose verdict
("✔ top-5 high / 5-10 low", "✔ Speedtest wins everywhere"). Each gate
here encodes one of those verdicts as a predicate over the corresponding
:class:`~repro.experiments.base.ExperimentResult`, so a perf or refactor
PR that drifts the reproduction away from the paper's shapes fails a
*named* check instead of silently rotting the prose.

Gates read the result's ``notes`` (headline scalars) and ``rows`` (the
printed table), tolerate seed-to-seed jitter via calibrated bands, and —
like contracts — never crash the sweep: an exception inside a gate is
that gate's failure. Gates run standalone via ``python -m repro validate``
and as the ``slow`` pytest tier (``tests/test_shape_gates.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.experiments.base import ExperimentResult
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.validate.base import CheckResult, ValidationReport

_log = get_logger(__name__)

#: A gate sees its own experiment's result plus every other result that
#: ran in the same sweep (fig3's "peers ≫ all" compares against fig2).
GateFn = Callable[[ExperimentResult, Mapping[str, ExperimentResult]], list[str]]


@dataclass(frozen=True)
class Gate:
    name: str
    experiment_id: str
    description: str
    fn: GateFn


GATES: dict[str, Gate] = {}


def gate(name: str, experiment_id: str, description: str = ""):
    """Register a shape gate for one experiment id."""

    def register(fn: GateFn):
        if name in GATES:
            raise ValueError(f"duplicate gate {name!r}")
        GATES[name] = Gate(
            name=name,
            experiment_id=experiment_id,
            description=description or (fn.__doc__ or "").strip().splitlines()[0],
            fn=fn,
        )
        return fn

    return register


def unregister(name: str) -> None:
    GATES.pop(name, None)


def gates_for(experiment_id: str) -> list[Gate]:
    return [g for g in GATES.values() if g.experiment_id == experiment_id]


def gated_experiment_ids() -> list[str]:
    """Every experiment id with at least one registered gate, in order."""
    seen: list[str] = []
    for entry in GATES.values():
        if entry.experiment_id not in seen:
            seen.append(entry.experiment_id)
    return seen


# ---------------------------------------------------------------------------
# parsing helpers (experiment rows hold preformatted strings)


def _num(value) -> float:
    """Parse a cell: 23,329,000 / '0.832' / 42 -> float."""
    if isinstance(value, (int, float)):
        return float(value)
    return float(str(value).replace(",", "").strip())


def _frange(value: str) -> tuple[float, float]:
    """Parse a 'lo-hi' note like '0.034-0.114'."""
    low, _, high = str(value).partition("-")
    return float(low), float(high)


def _note(result: ExperimentResult, key: str):
    if key not in result.notes:
        raise KeyError(f"{result.experiment_id} notes missing {key!r}")
    return result.notes[key]


# ---------------------------------------------------------------------------
# gates, one per EXPERIMENTS.md summary row


@gate("tab1.static_dataset", "tab1")
def _tab1(result, results) -> list[str]:
    """Table 1: the 12 >1M-subscriber providers, Comcast largest."""
    violations: list[str] = []
    providers = int(_note(result, "providers"))
    if providers != int(_note(result, "paper_providers")):
        violations.append(f"{providers} providers vs paper's "
                          f"{result.notes['paper_providers']}")
    if _note(result, "largest") != "Comcast":
        violations.append(f"largest provider is {result.notes['largest']}, not Comcast")
    for row in result.rows:
        if _num(row[1]) <= 1_000_000:
            violations.append(f"{row[0]} listed with <=1M subscribers: {row[1]}")
    return violations


@gate("fig1.hop_ordering", "fig1")
def _fig1(result, results) -> list[str]:
    """Figure 1: top-5 ISPs high one-hop, bottom-4 low, Windstream lowest."""
    violations: list[str] = []
    fractions = {str(row[0]): _num(row[2]) for row in result.rows}
    top5 = ("Comcast", "ATT", "TimeWarnerCable", "Verizon", "CenturyLink")
    low4 = ("Charter", "Cox", "Frontier", "Windstream")
    missing = [isp for isp in top5 + low4 if isp not in fractions]
    if missing:
        return [f"rows missing ISPs {missing}"]
    floor_of_top = min(fractions[isp] for isp in top5)
    ceil_of_low = max(fractions[isp] for isp in low4)
    if floor_of_top <= ceil_of_low:
        violations.append(
            f"top-5 one-hop floor {floor_of_top:.3f} does not clear the "
            f"5-10 ceiling {ceil_of_low:.3f}"
        )
    if fractions["Windstream"] != min(fractions.values()):
        violations.append("Windstream is not the lowest one-hop ISP")
    overall = float(_note(result, "overall_one_hop_fraction"))
    if not 0.60 <= overall <= 0.95:
        violations.append(f"overall one-hop fraction {overall} outside [0.60, 0.95] "
                          "(paper: 0.82)")
    return violations


@gate("tab2.link_diversity", "tab2")
def _tab2(result, results) -> list[str]:
    """Table 2: multi-link, multi-metro, sibling diversity, parallel groups."""
    violations: list[str] = []
    if int(_note(result, "Cox_total_links")) < 5:
        violations.append(f"Level3->Cox only {result.notes['Cox_total_links']} links "
                          "(paper: 39, heavy multi-link)")
    cox_groups = [int(g) for g in str(_note(result, "Cox_parallel_groups")).split(",")]
    if max(cox_groups) < 3:
        violations.append(f"largest Cox parallel group {max(cox_groups)} < 3 "
                          "(paper: 12 parallel links via DNS)")
    if int(_note(result, "comcast_sibling_asns_observed")) < 3:
        violations.append("fewer than 3 Comcast sibling ASNs observed "
                          "(paper: 3+ sibling ASNs)")
    if int(_note(result, "Comcast_total_links")) < 15:
        violations.append(f"Comcast IP links {result.notes['Comcast_total_links']} < 15 "
                          "(paper: 30)")
    # Multi-metro: some client ASN's links must span >= 3 DNS metros.
    max_metros = 0
    for row in result.rows:
        metros = [m for m in str(row[5]).split(",") if m]
        max_metros = max(max_metros, len(metros))
    if max_metros < 3:
        violations.append(f"no ASN's links span >=3 DNS metros (max {max_metros}; "
                          "paper: AT&T in 3 metros)")
    # Non-uniform tests per link: some multi-link row's counts must differ.
    nonuniform = False
    for row in result.rows:
        counts = str(row[4]).split(" (")[0]
        values = {v for v in counts.split(",") if v and not v.startswith("...")}
        if len(values) > 1:
            nonuniform = True
            break
    if not nonuniform:
        violations.append("tests per link are uniform on every row "
                          "(paper: highly non-uniform)")
    return violations


@gate("tab3.org_ordering", "tab3")
def _tab3(result, results) -> list[str]:
    """Table 3: top-5 org ordering exact; router-level >= AS-level."""
    violations: list[str] = []
    agreement = int(_note(result, "top5_org_agreement"))
    if agreement != 5:
        violations.append(f"top-5 org agreement {agreement}/5 "
                          f"(ours {result.notes.get('top5_order_ours')}, "
                          f"paper {result.notes.get('top5_order_paper')})")
    ours = str(_note(result, "top5_order_ours")).split(",")
    if ours and ours[0] != "ATT":
        violations.append(f"largest border count is {ours[0]}, paper has ATT first")
    for row in result.rows:
        as_all, rtr_all = _num(row[2]), _num(row[3])
        if rtr_all < as_all:
            violations.append(f"{row[0]}: router-level borders {rtr_all:.0f} < "
                              f"AS-level {as_all:.0f}")
    return violations


@gate("fig2.platform_coverage", "fig2")
def _fig2(result, results) -> list[str]:
    """Figure 2: Speedtest >= M-Lab for every VP; coverage stays small."""
    violations: list[str] = []
    vps = int(_note(result, "vps"))
    beats = int(_note(result, "speedtest_beats_mlab_vps"))
    if beats != vps:
        violations.append(f"Speedtest >= M-Lab for only {beats}/{vps} VPs "
                          "(paper: everywhere)")
    for row in result.rows:
        vp, bdr_as, mlab_as, st_as = row[0], _num(row[1]), _num(row[2]), _num(row[3])
        mlab_frac, st_frac = _num(row[4]), _num(row[5])
        mlab_rtr, st_rtr = _num(row[7]), _num(row[8])
        if mlab_as > bdr_as or st_as > bdr_as:
            violations.append(f"{vp}: platform numerator exceeds the bdrmap "
                              f"denominator ({mlab_as:.0f}/{st_as:.0f} vs {bdr_as:.0f})")
        for label, frac in (("mlab AS", mlab_frac), ("st AS", st_frac),
                            ("mlab rtr", mlab_rtr), ("st rtr", st_rtr)):
            if not 0.0 <= frac <= 1.0:
                violations.append(f"{vp}: {label} fraction {frac} outside [0, 1]")
        if st_frac < mlab_frac or st_rtr < mlab_rtr:
            violations.append(f"{vp}: M-Lab out-covers Speedtest")
    _, mlab_high = _frange(_note(result, "mlab_as_frac_range"))
    if mlab_high > 0.20:
        violations.append(f"M-Lab AS coverage reaches {mlab_high} "
                          "(paper: order-of-magnitude small, <=0.09)")
    st_low, st_high = _frange(_note(result, "speedtest_as_frac_range"))
    if st_high > 0.60 or st_low < 0.05:
        violations.append(f"Speedtest AS coverage range {st_low}-{st_high} outside "
                          "the calibrated [0.05, 0.60] band (paper: 0.023-0.28)")
    return violations


@gate("fig3.peer_coverage", "fig3")
def _fig3(result, results) -> list[str]:
    """Figure 3: peer coverage in paper bands; peers covered ≫ all."""
    violations: list[str] = []
    for row in result.rows:
        vp, mlab_frac, st_frac = row[0], _num(row[4]), _num(row[5])
        if st_frac < mlab_frac:
            violations.append(f"{vp}: M-Lab out-covers Speedtest on peers")
    _, mlab_high = _frange(_note(result, "mlab_peer_frac_range"))
    if mlab_high > 0.35:
        violations.append(f"M-Lab peer coverage reaches {mlab_high} "
                          "(paper band tops at 0.30)")
    st_low, st_high = _frange(_note(result, "speedtest_peer_frac_range"))
    if not (0.10 <= st_low and st_high <= 0.90):
        violations.append(f"Speedtest peer coverage range {st_low}-{st_high} "
                          "outside the paper band [0.14, 0.86] (+tolerance)")
    fig2 = results.get("fig2")
    if fig2 is not None:
        st_peer_mean = sum(_num(r[5]) for r in result.rows) / max(1, len(result.rows))
        st_all_mean = sum(_num(r[5]) for r in fig2.rows) / max(1, len(fig2.rows))
        if st_peer_mean <= st_all_mean:
            violations.append(
                f"peer coverage ({st_peer_mean:.3f}) does not exceed "
                f"all-relationship coverage ({st_all_mean:.3f})"
            )
    return violations


@gate("fig4.content_gap", "fig4")
def _fig4(result, results) -> list[str]:
    """Figure 4: popular-content borders M-Lab cannot test, at every VP."""
    violations: list[str] = []
    if not bool(_note(result, "every_vp_has_uncovered_content_borders")):
        violations.append("some VP had no uncovered popular-content borders "
                          "(paper: every VP affected)")
    low, high = _frange(_note(result, "alexa_uncovered_by_mlab_frac_range"))
    if low < 0.50 or high > 1.0:
        violations.append(f"uncovered-content fraction range {low}-{high} left "
                          "the calibrated [0.50, 1.0] band (paper: 0.79-0.90)")
    for row in result.rows:
        if _num(row[3]) <= 0:
            violations.append(f"{row[0]}: Alexa-minus-M-Lab set difference is empty")
    return violations


@gate("fig5.diurnal_regimes", "fig5")
def _fig5(result, results) -> list[str]:
    """Figure 5: AT&T collapse vs Comcast dip, plus sample imbalance."""
    violations: list[str] = []
    if not bool(_note(result, "ATT_congested_at_0.5")):
        violations.append("AT&T->GTT no longer trips the 0.5 congestion threshold")
    if bool(_note(result, "Comcast_congested_at_0.5")):
        violations.append("Comcast->GTT trips the 0.5 threshold "
                          "(its dip must stay sub-threshold)")
    att_peak = float(_note(result, "ATT_peak_median_mbps"))
    if att_peak >= 2.0:
        violations.append(f"AT&T peak median {att_peak} Mbps, paper collapses to <1")
    att_drop = float(_note(result, "ATT_relative_drop"))
    if att_drop < 0.80:
        violations.append(f"AT&T relative drop {att_drop} < 0.80 (collapse regime)")
    comcast_drop = float(_note(result, "Comcast_relative_drop"))
    if not 0.10 <= comcast_drop <= 0.45:
        violations.append(f"Comcast relative drop {comcast_drop} outside the "
                          "healthy-dip band [0.10, 0.45] (paper: 0.2-0.3)")
    comcast_peak = float(_note(result, "Comcast_peak_median_mbps"))
    if comcast_peak < 5.0:
        violations.append(f"Comcast peak median {comcast_peak} Mbps looks collapsed")
    for org in ("ATT", "Comcast"):
        low = float(_note(result, f"{org}_min_hour_samples"))
        high = float(_note(result, f"{org}_max_hour_samples"))
        if low * 3 > high:
            violations.append(f"{org}: hourly sample counts {low:.0f}..{high:.0f} "
                              "lack the paper's off-peak/evening imbalance")
    return violations


@gate("sec41.matching_window", "sec41")
def _sec41(result, results) -> list[str]:
    """§4.1: matched fractions near the paper's; window sweep monotone."""
    violations: list[str] = []
    after_2015 = float(_note(result, "matched_after_2015"))
    if not 0.60 <= after_2015 <= 0.90:
        violations.append(f"2015 after-window matching {after_2015} outside "
                          "[0.60, 0.90] (paper: 0.71)")
    either = float(_note(result, "matched_either_2015"))
    if either < after_2015:
        violations.append(f"either-side matching {either} below after-window "
                          f"{after_2015}")
    after_2017 = float(_note(result, "matched_after_2017"))
    if not 0.60 <= after_2017 <= 0.90:
        violations.append(f"2017 matching {after_2017} outside [0.60, 0.90] "
                          "(paper: 0.76)")
    sweep: list[tuple[float, float]] = []
    for row in result.rows:
        scenario = str(row[0])
        if "window=" in scenario:
            seconds = float(scenario.split("window=")[1].rstrip("s"))
            sweep.append((seconds, _num(row[2])))
    sweep.sort()
    if len(sweep) < 2:
        violations.append("no window sweep rows to check monotonicity")
    for (w_a, f_a), (w_b, f_b) in zip(sweep, sweep[1:]):
        if f_b + 1e-9 < f_a:
            violations.append(f"matched fraction fell from {f_a} to {f_b} as the "
                              f"window grew {w_a:.0f}s -> {w_b:.0f}s")
    return violations


@gate("sec54.temporal_stagnation", "sec54")
def _sec54(result, results) -> list[str]:
    """§5.4: Speedtest grows 2015→2017 yet coverage does not."""
    violations: list[str] = []
    nonincreasing, _, total = str(
        _note(result, "rows_with_nonincreasing_all_coverage")
    ).partition("/")
    fraction = int(nonincreasing) / int(total)
    if fraction < 0.70:
        violations.append(
            f"only {nonincreasing}/{total} coverage rows non-increasing "
            "(paper: coverage fell everywhere despite server growth)"
        )
    for row in result.rows:
        for index in (2, 3):
            value = _num(row[index])
            if not 0.0 <= value <= 1.0:
                violations.append(f"{row[0]}/{row[1]}: coverage {value} outside [0, 1]")
    return violations


@gate("sec62.threshold_ambiguity", "sec62")
def _sec62(result, results) -> list[str]:
    """§6.2: the congested set shrinks with threshold; no clean separator."""
    violations: list[str] = []
    sweep = [(float(row[0]), int(_num(row[1])), str(row[2])) for row in result.rows]
    if len(sweep) < 3:
        return [f"threshold sweep has only {len(sweep)} rows"]
    for (t_a, c_a, _), (t_b, c_b, _) in zip(sweep, sweep[1:]):
        if t_b <= t_a:
            violations.append(f"thresholds not increasing: {t_a} -> {t_b}")
        if c_b > c_a:
            violations.append(f"congested set grew from {c_a} to {c_b} as the "
                              f"threshold rose {t_a} -> {t_b}")
    first, last = sweep[0][1], sweep[-1][1]
    if last < 1:
        violations.append("strictest threshold calls nothing congested "
                          "(ground-truth saturation must survive)")
    if first < 2 * last:
        violations.append(f"sweep only shrinks {first} -> {last}; the paper's "
                          "ambiguity needs a wide spread of verdicts")
    truth = [p.strip() for p in
             str(_note(result, "ground_truth_congested_org_pairs")).split(",")]
    if not any(pair in sweep[-1][2] for pair in truth):
        violations.append("no ground-truth pair survives the strictest threshold")
    return violations


# ---------------------------------------------------------------------------
# runners


def run_gate(
    name: str,
    result: ExperimentResult,
    results: Mapping[str, ExperimentResult] | None = None,
) -> CheckResult:
    """Run one gate against one experiment result."""
    entry = GATES[name]
    with span(f"gate:{name}"):
        try:
            violations = entry.fn(result, results or {})
        except Exception as exc:  # a crashing gate is a failed gate
            _log.warning("gate %s raised: %r", name, exc)
            violations = [f"gate raised {exc!r}"]
    return CheckResult(
        name=name,
        kind="gate",
        passed=not violations,
        violations=tuple(violations),
        detail=entry.description,
    )


def run_gates(results: Mapping[str, ExperimentResult]) -> ValidationReport:
    """Run every gate whose experiment appears in ``results``.

    Gates for absent experiments are reported as skipped so a partial
    sweep cannot masquerade as a full one.
    """
    report = ValidationReport()
    for entry in GATES.values():
        result = results.get(entry.experiment_id)
        if result is None:
            report.results.append(CheckResult(
                name=entry.name, kind="gate", passed=True, skipped=True,
                detail=f"experiment {entry.experiment_id} not in this sweep",
            ))
            continue
        report.results.append(run_gate(entry.name, result, results))
    return report
