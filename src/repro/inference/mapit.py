"""MAP-IT: multipass inference of interdomain links from traceroutes.

Reimplementation of the algorithm of Marder & Smith, "MAP-IT: Multipass
Accurate Passive Inferences from Traceroute" (IMC 2016), as used by the
paper in §4.2/§4.3. The core insight: a single traceroute cannot place an
AS boundary (border interfaces are numbered from *either* endpoint's /30
or /31 prefix), but collating the neighbor sets of every interface across
a corpus — together with prefix→AS data, sibling organizations, AS
relationships, and IXP prefixes — can.

Ownership refinement runs in passes until a fixed point:

* every non-IXP interface starts owned by its longest-prefix-match origin
  (sibling-collapsed); IXP addresses stay unowned throughout and are
  collapsed during link extraction;
* **boundary rule** — an interface whose predecessor majority A and
  successor majority B disagree sits on an interdomain link; if its own
  address origin equals one side, it is reassigned to the *other* side,
  but only when it has a point-to-point partner (a neighbor in the same
  /30–/31, numbered from the same prefix) — the signature of a border
  /31 lent by one endpoint. The partner precondition is what keeps the
  boundary from "creeping" into the neighbor AS's core on later passes;
* **agreement rule** — both sides agreeing on an owner different from the
  current assignment reverts earlier mistakes (MAP-IT's correction for
  low-visibility misinference);
* a flip creating a boundary between networks with no known relationship
  is rejected when an AS-relationship oracle is available.

Finally, adjacent trace pairs with different corrected owners become
inferred interdomain IP links, and runs of IXP addresses are collapsed
into IXP-mediated links between the surrounding networks.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.inference.borders import OriginOracle
from repro.obs.log import get_logger
from repro.topology.asgraph import ASGraph

_log = get_logger(__name__)

#: Below this corpus size the numpy pass-1 setup costs more than it saves.
_VECTOR_MIN_INTERFACES = 64

#: Sentinel distinguishing "not memoized" from a memoized None origin.
_MISSING = object()

#: Shared read-only default for interfaces with no adjacency evidence —
#: never mutated, so one instance can serve every lookup miss.
_EMPTY_MAP: dict[int, int] = {}


def _same_ptp_subnet(a: int, b: int) -> bool:
    """True when two addresses form a point-to-point pair.

    Either the two addresses of an aligned /31, or the two usable middle
    addresses of a /30 (base+1, base+2).
    """
    if a >> 1 == b >> 1:
        return True
    if a >> 2 == b >> 2:
        low = min(a, b) & 0x3
        high = max(a, b) & 0x3
        return (low, high) == (1, 2)
    return False


@dataclass(frozen=True)
class MapItConfig:
    #: Neighbour-majority fraction required to act on a signal.
    majority_threshold: float = 0.5
    #: Upper bound on refinement passes (fixed point is typical long before).
    max_passes: int = 10
    #: Minimum times an adjacent pair must be seen to report an IP link.
    min_link_observations: int = 1
    #: An interface flipped this many times is frozen — persistent
    #: flip-flopping means the evidence is contradictory.
    max_flips_per_interface: int = 3


@dataclass(frozen=True)
class InferredLink:
    """An inferred interdomain IP link.

    ``near_ip``/``far_ip`` are in trace direction; ``near_asn``/``far_asn``
    are the corrected owners (org-canonical). ``via_ixp`` marks links
    recovered by collapsing an IXP-addressed hop run.
    """

    near_ip: int
    far_ip: int
    near_asn: int
    far_asn: int
    observations: int
    via_ixp: bool = False

    def ip_pair(self) -> tuple[int, int]:
        return (self.near_ip, self.far_ip) if self.near_ip < self.far_ip else (self.far_ip, self.near_ip)

    def as_pair(self) -> tuple[int, int]:
        return (self.near_asn, self.far_asn) if self.near_asn < self.far_asn else (self.far_asn, self.near_asn)


@dataclass
class MapItResult:
    """Corrected ownership plus the inferred link set."""

    ownership: dict[int, int | None]
    links: list[InferredLink]
    passes_used: int
    flips: int

    @functools.cached_property
    def _link_index(self) -> dict[tuple[int, int], InferredLink]:
        """ip pair → link, built on first use; a later link on a pair wins."""
        return {link.ip_pair(): link for link in self.links}

    def annotate_trace(self, ips: list[int | None]) -> list[tuple[int, InferredLink]]:
        """Interdomain crossings in one trace: (hop index of far side, link).

        ``ips`` is a TTL-ordered hop list (None for non-responses); only
        adjacent responding pairs are matched against the inferred links,
        so one trace costs time in its hop count, not in the link count.
        """
        by_pair = self._link_index
        crossings: list[tuple[int, InferredLink]] = []
        for index in range(1, len(ips)):
            a, b = ips[index - 1], ips[index]
            if a is None or b is None:
                continue
            pair = (a, b) if a < b else (b, a)
            link = by_pair.get(pair)
            if link is not None:
                crossings.append((index, link))
        return crossings


class MapIt:
    """The inference engine. One instance is reusable across corpora."""

    def __init__(
        self,
        oracle: OriginOracle,
        graph: ASGraph | None = None,
        config: MapItConfig | None = None,
    ) -> None:
        self._oracle = oracle
        self._graph = graph
        self._config = config if config is not None else MapItConfig()
        # Per-instance memos over the (immutable) oracle and graph. The
        # origin lookup is a longest-prefix match and the plausibility
        # test scans sibling pairs; both repeat heavily across passes.
        self._origin_memo: dict[int, int | None] = {}
        self._ixp_memo: dict[int, bool] = {}
        self._plausible_memo: dict[tuple[int, int | None], bool] = {}

    def _origin(self, ip: int) -> int | None:
        memo = self._origin_memo
        val = memo.get(ip, _MISSING)
        if val is _MISSING:
            val = self._oracle.origin(ip)
            memo[ip] = val
        return val

    def _is_ixp(self, ip: int) -> bool:
        memo = self._ixp_memo
        val = memo.get(ip)
        if val is None:
            val = self._oracle.is_ixp(ip)
            memo[ip] = val
        return val

    # ------------------------------------------------------------------

    def infer(self, traces: list[list[int | None]]) -> MapItResult:
        """Run the multipass inference over a corpus of hop sequences.

        Each trace is the TTL-ordered hop list with ``None`` for
        non-responses. Only *adjacent* responding hops form evidence pairs:
        a pair spanning a silent router could bridge two networks that are
        not actually adjacent, which is exactly the traceroute artifact
        MAP-IT refuses to build on.
        """
        # Adjacency multisets as plain nested dicts: they are only ever
        # iterated (insertion order — identical to the Counter they
        # replace, Counter being a dict subclass) and incremented, and the
        # plain-dict build is measurably cheaper on large corpora.
        succs: dict[int, dict[int, int]] = {}
        preds: dict[int, dict[int, int]] = {}
        pair_counts: Counter[tuple[int, int]] = Counter()
        succs_get = succs.get
        preds_get = preds.get
        for trace in traces:
            a = None
            for b in trace:
                if a is not None and b is not None and a != b:
                    row = succs_get(a)
                    if row is None:
                        row = succs[a] = {}
                    row[b] = row.get(b, 0) + 1
                    row = preds_get(b)
                    if row is None:
                        row = preds[b] = {}
                    row[a] = row.get(a, 0) + 1
                    pair_counts[(a, b)] += 1
                a = b

        interfaces = sorted(set(succs) | set(preds))
        ownership: dict[int, int | None] = {
            ip: self._origin(ip) for ip in interfaces
        }

        # Dirty-set refinement: a proposal for ``ip`` depends only on
        # ``ownership[ip]``, its fixed neighbor multisets, and the
        # ownership of those neighbors. An interface none of whose inputs
        # changed in the previous pass would re-propose exactly what it
        # proposed before (nothing — otherwise it would have flipped), so
        # after the first full pass only interfaces adjacent to a flip
        # need re-examination. Proposals are collected against the
        # previous pass's ownership snapshot, so iteration order over the
        # (unordered) dirty set cannot affect the outcome.
        passes = 0
        total_flips = 0
        flip_counts: Counter[int] = Counter()
        dirty: set[int] | None = None  # None = examine everything
        is_ixp = self._is_ixp
        propose = self._propose
        max_flips = self._config.max_flips_per_interface
        for passes in range(1, self._config.max_passes + 1):
            if dirty is None and len(interfaces) >= _VECTOR_MIN_INTERFACES:
                # First pass examines every interface — the majority
                # tallies vectorize; the rule follow-ups (rare) stay in
                # Python. Identical proposals to the scalar walk.
                proposals = self._propose_pass1(interfaces, ownership, preds, succs)
            else:
                proposals = {}
                for ip in (interfaces if dirty is None else dirty):
                    if is_ixp(ip):
                        continue  # IXP addresses stay unowned
                    if flip_counts and flip_counts[ip] >= max_flips:
                        continue  # frozen: repeated flipping signals ambiguity
                    proposal = propose(ip, ownership, preds, succs)
                    if proposal is not None and proposal != ownership[ip]:
                        proposals[ip] = proposal
            if not proposals:
                break
            ownership.update(proposals)
            flip_counts.update(proposals.keys())
            total_flips += len(proposals)
            dirty = set()
            for flipped in proposals:
                dirty.add(flipped)
                dirty.update(succs.get(flipped, ()))
                dirty.update(preds.get(flipped, ()))

        links = self._extract_links(traces, pair_counts, ownership)
        _log.info(
            "MAP-IT: %d traces, %d interfaces, %d passes, %d flips, %d links",
            len(traces), len(interfaces), passes, total_flips, len(links),
        )
        return MapItResult(
            ownership=ownership, links=links, passes_used=passes, flips=total_flips
        )

    # ------------------------------------------------------------------

    def _majority(
        self, neighbors: dict[int, int], ownership: dict[int, int | None]
    ) -> tuple[int | None, float]:
        """(majority owner, fraction) over a neighbor multiset.

        Weighted by observation count: a third-party artifact seen once
        must not cancel the interface a link's probes normally reveal.
        """
        ownership_get = ownership.get
        if len(neighbors) == 1:
            # Chain interfaces (one distinct neighbor) dominate traceroute
            # corpora; the tally reduces to that neighbor's owner.
            for ip, weight in neighbors.items():
                owner = ownership_get(ip)
                if owner is None:
                    return None, 0.0
                return owner, 1.0
        counts: dict[int, int] = {}
        total = 0
        for ip, weight in neighbors.items():
            owner = ownership_get(ip)
            if owner is None:
                continue
            counts[owner] = counts.get(owner, 0) + weight
            total += weight
        if total == 0:
            return None, 0.0
        if len(counts) == 1:
            # Unanimous neighborhood — the overwhelmingly common case.
            owner, count = counts.popitem()
            return owner, count / total
        # Tie-break on the smallest owner ASN: a pure function of the
        # count map, so the winner never depends on insertion order.
        owner, count = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        return owner, count / total

    def _has_ptp_partner(
        self, ip: int, neighbors: dict[int, int], origin: int
    ) -> bool:
        """True when a neighbor shares this interface's /30-/31 and origin.

        That neighbor is the other end of the point-to-point border subnet,
        which is the physical signature licensing a boundary flip.
        """
        for other in neighbors:
            if other == ip:
                continue
            if _same_ptp_subnet(ip, other) and self._origin(other) == origin:
                return True
        return False

    def _propose(
        self,
        ip: int,
        ownership: dict[int, int | None],
        preds: dict[int, dict[int, int]],
        succs: dict[int, dict[int, int]],
    ) -> int | None:
        threshold = self._config.majority_threshold
        pred_set = preds.get(ip, _EMPTY_MAP)
        pred_major, pred_frac = self._majority(pred_set, ownership)
        if pred_major is None or pred_frac <= threshold:
            return None  # both directions must be strong; skip the succ tally
        succ_set = succs.get(ip, _EMPTY_MAP)
        succ_major, succ_frac = self._majority(succ_set, ownership)
        if succ_major is None or succ_frac <= threshold:
            return None
        origin = self._origin(ip)
        current = ownership[ip]

        # Agreement rule — both directions point at the same owner.
        if pred_major == succ_major:
            if pred_major != current and self._plausible(pred_major, origin):
                return pred_major
            return None

        # Boundary rule — the interface sits on an interdomain link.
        if origin is None:
            return None
        if origin == pred_major:
            # Far side of the crossing, numbered from the near AS: the /31
            # partner is the predecessor border interface.
            if self._has_ptp_partner(ip, pred_set, origin):
                candidate = succ_major
                if candidate != current and self._plausible(candidate, origin):
                    return candidate
        elif origin == succ_major:
            # Near side numbered from the far AS: partner is the successor.
            if self._has_ptp_partner(ip, succ_set, origin):
                candidate = pred_major
                if candidate != current and self._plausible(candidate, origin):
                    return candidate
        return None

    def _propose_pass1(
        self,
        interfaces: list[int],
        ownership: dict[int, int | None],
        preds: dict[int, dict[int, int]],
        succs: dict[int, dict[int, int]],
    ) -> dict[int, int]:
        """Vectorized first refinement pass — same proposals as the scalar
        walk over every interface.

        On pass 1 ``ownership[ip]`` *is* ``origin(ip)`` (that is how the
        map is initialized), so the per-interface rule inputs reduce to
        the two majority tallies plus that one array. Weighted counts are
        exact integer sums (< 2^53) and the majority fraction divides the
        same two exactly-represented values the scalar code divides, so
        thresholds and tie-breaks agree bit-for-bit. Interfaces passing
        the majority gates go through the original Python rule logic
        (point-to-point partner, relationship plausibility) one by one.
        """
        n = len(interfaces)
        current = np.fromiter(
            (
                -1 if owner is None else owner
                for owner in (ownership[ip] for ip in interfaces)
            ),
            dtype=np.int64,
            count=n,
        )
        is_ixp = self._is_ixp
        ixp = np.fromiter((is_ixp(ip) for ip in interfaces), dtype=bool, count=n)

        def majority_of(adjacency: dict[int, dict[int, int]]) -> tuple:
            rows: list[int] = []
            owners: list[int] = []
            weights: list[int] = []
            rows_append = rows.append
            owners_append = owners.append
            weights_append = weights.append
            ownership_get = ownership.get
            for index, ip in enumerate(interfaces):
                neighbors = adjacency.get(ip)
                if not neighbors:
                    continue
                for neighbor, weight in neighbors.items():
                    owner = ownership_get(neighbor)
                    if owner is None:
                        continue
                    rows_append(index)
                    owners_append(owner)
                    weights_append(weight)
            major = np.full(n, -1, dtype=np.int64)
            frac = np.zeros(n, dtype=np.float64)
            if not rows:
                return major, frac
            row = np.asarray(rows, dtype=np.int64)
            owner = np.asarray(owners, dtype=np.int64)
            weight = np.asarray(weights, dtype=np.int64)
            total = np.bincount(row, weights=weight, minlength=n)
            # Segment the (row, owner) pairs and sum each segment's weight.
            order = np.lexsort((owner, row))
            row_sorted = row[order]
            owner_sorted = owner[order]
            starts_mask = np.empty(len(order), dtype=bool)
            starts_mask[0] = True
            np.logical_or(
                row_sorted[1:] != row_sorted[:-1],
                owner_sorted[1:] != owner_sorted[:-1],
                out=starts_mask[1:],
            )
            starts = np.nonzero(starts_mask)[0]
            seg_row = row_sorted[starts]
            seg_owner = owner_sorted[starts]
            seg_count = np.add.reduceat(weight[order], starts)
            # Scalar tie-break is max by (count, -owner): sort segments by
            # (row, count desc, owner asc) and keep each row's first.
            pick = np.lexsort((seg_owner, -seg_count, seg_row))
            picked_row = seg_row[pick]
            first_mask = np.empty(len(pick), dtype=bool)
            first_mask[0] = True
            first_mask[1:] = picked_row[1:] != picked_row[:-1]
            chosen = pick[first_mask]
            winners = seg_row[chosen]
            major[winners] = seg_owner[chosen]
            frac[winners] = seg_count[chosen] / total[winners]
            return major, frac

        pred_major, pred_frac = majority_of(preds)
        succ_major, succ_frac = majority_of(succs)
        threshold = self._config.majority_threshold
        strong = (
            ~ixp
            & (pred_major != -1)
            & (pred_frac > threshold)
            & (succ_major != -1)
            & (succ_frac > threshold)
        )

        proposals: dict[int, int] = {}
        plausible = self._plausible
        has_ptp_partner = self._has_ptp_partner

        # Agreement rule: both directions name the same owner ≠ current.
        for index in np.nonzero(strong & (pred_major == succ_major) & (pred_major != current))[0]:
            ip = interfaces[index]
            candidate = int(pred_major[index])
            origin = ownership[ip]
            if plausible(candidate, origin):
                proposals[ip] = candidate

        # Boundary rule: majorities disagree and the address origin sides
        # with one of them — flip to the other when the /30-/31 partner
        # exists and the flip is relationship-plausible.
        disagree = strong & (pred_major != succ_major) & (current != -1)
        for index in np.nonzero(disagree & (current == pred_major))[0]:
            ip = interfaces[index]
            origin = int(current[index])
            if has_ptp_partner(ip, preds.get(ip, _EMPTY_MAP), origin):
                candidate = int(succ_major[index])
                if candidate != origin and plausible(candidate, origin):
                    proposals[ip] = candidate
        for index in np.nonzero(disagree & (current == succ_major))[0]:
            ip = interfaces[index]
            origin = int(current[index])
            if has_ptp_partner(ip, succs.get(ip, _EMPTY_MAP), origin):
                candidate = int(pred_major[index])
                if candidate != origin and plausible(candidate, origin):
                    proposals[ip] = candidate
        return proposals

    def _plausible(self, candidate: int, origin: int | None) -> bool:
        """Reject flips between networks with no known relationship.

        Canonical ASNs stand for whole organizations, so the relationship
        test scans every sibling pair — the actual BGP edge may be between
        non-canonical siblings (e.g. Level3's AS3356 peering with AT&T's
        AS7018 while the org canonical is AS6389).
        """
        if self._graph is None or origin is None or candidate == origin:
            return True
        key = (candidate, origin)
        cached = self._plausible_memo.get(key)
        if cached is not None:
            return cached
        verdict = False
        if self._oracle.same_org(candidate, origin):
            verdict = True
        else:
            for a in self._oracle.org_members(candidate):
                for b in self._oracle.org_members(origin):
                    if self._graph.relationship(a, b) is not None:
                        verdict = True
                        break
                if verdict:
                    break
        self._plausible_memo[key] = verdict
        return verdict

    # ------------------------------------------------------------------

    def _extract_links(
        self,
        traces: list[list[int]],
        pair_counts: Counter[tuple[int, int]],
        ownership: dict[int, int | None],
    ) -> list[InferredLink]:
        links: dict[tuple[int, int], list] = {}

        def record(a: int, b: int, owner_a: int, owner_b: int, count: int, via_ixp: bool) -> None:
            key = (a, b) if a < b else (b, a)
            entry = links.get(key)
            if entry is None:
                links[key] = [a, b, owner_a, owner_b, count, via_ixp]
            else:
                entry[4] += count

        for (a, b), count in pair_counts.items():
            owner_a = ownership.get(a)
            owner_b = ownership.get(b)
            if owner_a is None or owner_b is None or owner_a == owner_b:
                continue
            if self._oracle.same_org(owner_a, owner_b):
                continue
            record(a, b, owner_a, owner_b, count, via_ixp=False)

        # Collapse IXP-addressed runs: known(A) → ixp... → known(B). A
        # non-response resets the run — evidence must be gap-free here too.
        ixp_triples: Counter[tuple[int, int, int, int]] = Counter()
        is_ixp = self._is_ixp
        ixp_memo_get = self._ixp_memo.get
        ownership_get = ownership.get
        for trace in traces:
            run_start: int | None = None
            first_ixp: int | None = None
            last_ixp: int | None = None
            for ip in trace:
                if ip is None:
                    run_start = None
                    first_ixp = None
                    last_ixp = None
                    continue
                # Inlined memo read of _is_ixp — by this point nearly
                # every observed address has a cached verdict.
                verdict = ixp_memo_get(ip)
                if verdict is None:
                    verdict = is_ixp(ip)
                if verdict:
                    if first_ixp is None:
                        first_ixp = ip
                    last_ixp = ip
                    continue
                owner = ownership_get(ip)
                if first_ixp is not None and run_start is not None and owner is not None:
                    prev_owner = ownership_get(run_start)
                    if prev_owner is not None and prev_owner != owner:
                        ixp_triples[(first_ixp, last_ixp, prev_owner, owner)] += 1
                first_ixp = None
                last_ixp = None
                if owner is not None:
                    run_start = ip
        for (first_ixp, last_ixp, owner_a, owner_b), count in ixp_triples.items():
            if self._oracle.same_org(owner_a, owner_b):
                continue
            record(first_ixp, last_ixp, owner_a, owner_b, count, via_ixp=True)

        results = [
            InferredLink(
                near_ip=a, far_ip=b, near_asn=oa, far_asn=ob, observations=n, via_ixp=ixp
            )
            for a, b, oa, ob, n, ixp in links.values()
            if n >= self._config.min_link_observations
        ]
        results = self._consolidate(results)
        return sorted(results, key=lambda l: (l.as_pair(), l.ip_pair()))

    @staticmethod
    def _consolidate(links: list[InferredLink]) -> list[InferredLink]:
        """Drop non-aligned pairs explained by an aligned link.

        A genuine point-to-point crossing shows both addresses of one /31
        (or /30). Third-party replies inside a parallel-link group pair up
        interfaces of *different* /31s; when either endpoint of such a pair
        also participates in a properly aligned inferred link, the aligned
        link is the physical one and the stray pair is noise.
        """
        aligned_endpoints: set[int] = set()
        for link in links:
            if link.via_ixp or _same_ptp_subnet(link.near_ip, link.far_ip):
                aligned_endpoints.add(link.near_ip)
                aligned_endpoints.add(link.far_ip)
        kept: list[InferredLink] = []
        for link in links:
            aligned = link.via_ixp or _same_ptp_subnet(link.near_ip, link.far_ip)
            if not aligned and (
                link.near_ip in aligned_endpoints or link.far_ip in aligned_endpoints
            ):
                continue
            kept.append(link)
        return kept
