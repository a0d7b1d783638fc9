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

The passes run over deduplicated traces
(:class:`~repro.inference.corpus.TraceCorpus`): each is one grouped,
weighted majority vote per direction over the distinct adjacencies, then
the rules as masks over interface arrays. Every pass re-votes every
interface — a proposal reads only its own owner and origin, its
neighbors' owners and static partner flags.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.inference.borders import OriginOracle
from repro.inference.corpus import TraceCorpus
from repro.obs.log import get_logger
from repro.topology.asgraph import ASGraph

_log = get_logger(__name__)

#: Owner code of an unowned interface (owners are indices into the
#: sorted distinct origin ASNs of the corpus).
_UNOWNED = -1


def _same_ptp_subnet(a, b):
    """Whether two addresses form a point-to-point pair.

    Either the two addresses of an aligned /31, or the two usable middle
    addresses of a /30 (base+1, base+2). Elementwise on int64 arrays,
    plain on ints.
    """
    low = a & 3
    return ((a >> 1) == (b >> 1)) | (
        ((a >> 2) == (b >> 2)) & ((low ^ (b & 3)) == 3) & (low != 0) & (low != 3)
    )


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
    """Corrected ownership plus the inferred link set.

    ``links`` is None when the inference ran with ``links=False`` — the
    links were not extracted, which is not the same as none found.
    """

    ownership: dict[int, int | None]
    links: list[InferredLink] | None
    passes_used: int
    flips: int

    @functools.cached_property
    def _link_index(self) -> dict[tuple[int, int], InferredLink]:
        """ip pair → link, built on first use; a later link on a pair wins."""
        if self.links is None:
            raise ValueError("MAP-IT ran with links=False: this result has no links")
        return {link.ip_pair(): link for link in self.links}

    def annotate_trace(self, ips: Sequence[int | None]) -> list[tuple[int, InferredLink]]:
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


def _adjacencies(corpus: TraceCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct directed adjacencies of a corpus, in first-seen order:
    ``(near, far, weight)`` with addresses as indices into
    ``corpus.addresses`` and weight the number of times traces show the
    pair. A pair spanning a silent hop could bridge two networks that are
    not adjacent, which is exactly the artifact MAP-IT refuses to build on.
    """
    hop = corpus.hop_index
    near, far = hop[:-1], hop[1:]
    adjacent = (near != -1) & (far != -1) & (near != far)
    starts = corpus.offsets[1:-1]
    adjacent[starts[(starts > 0) & (starts < len(hop))] - 1] = False  # across two sequences
    at = np.flatnonzero(adjacent)
    width = len(corpus.addresses)
    keys, first, inverse = np.unique(
        near[at] * width + far[at], return_index=True, return_inverse=True
    )
    weight = np.bincount(inverse, weights=corpus.counts[corpus.sequence_of_hops()[at]])
    order = np.argsort(first)
    keys = keys[order]
    return keys // width, keys % width, weight[order].astype(np.int64)


class _Neighbors:
    """One direction's neighbor multisets: CSR rows over interfaces."""

    def __init__(self, rows: np.ndarray, neighbors: np.ndarray, weights: np.ndarray, n: int) -> None:
        order = np.argsort(rows, kind="stable")
        self.entry_rows = rows[order]
        self.neighbors = neighbors[order]
        self.weights = weights[order]
        self.starts = np.flatnonzero(np.diff(self.entry_rows, prepend=-1))
        self.rows = self.entry_rows[self.starts]
        self.sizes = np.diff(self.starts, append=len(self.entry_rows))
        self.n = n

    def vote(self, owner: np.ndarray, owner_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Majority owner per interface and its share of the owned
        neighbors' observations (a third-party artifact seen once must not
        cancel what a link's probes normally reveal); ``(_UNOWNED, 0.0)``
        with no owned neighbor. Ties go to the smallest owner ASN."""
        major = np.full(self.n, _UNOWNED, dtype=np.int64)
        share = np.zeros(self.n)
        if not len(self.rows):
            return major, share
        owners = owner[self.neighbors]
        owned = owners != _UNOWNED
        total = np.add.reduceat(np.where(owned, self.weights, 0), self.starts)
        high = np.maximum.reduceat(owners, self.starts)
        low = np.minimum.reduceat(np.where(owned, owners, owner_count), self.starts)
        # Most rows are unanimous: the tally is the one owner, share 1.
        unanimous = (high != _UNOWNED) & (low == high)
        major[self.rows[unanimous]] = high[unanimous]
        share[self.rows[unanimous]] = 1.0
        mixed = (high != _UNOWNED) & (low != high)
        if mixed.any():
            entries = np.repeat(mixed, self.sizes) & owned
            groups, inverse = np.unique(
                self.entry_rows[entries] * owner_count + owners[entries], return_inverse=True
            )
            tally = np.bincount(inverse, weights=self.weights[entries])
            group_rows = groups // owner_count
            # Groups run in (row, owner) order, and lexsort is stable: the
            # first of each row is its highest tally with the smallest owner.
            order = np.lexsort((-tally, group_rows))
            best = order[np.diff(group_rows[order], prepend=-1) != 0]
            winners = group_rows[best]  # the mixed rows, ascending
            major[winners] = groups[best] % owner_count
            share[winners] = tally[best] / total[mixed]
        return major, share


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
        # The plausibility test scans sibling pairs of the (immutable)
        # oracle and graph; the same pairs recur across passes.
        self._plausible_memo: dict[tuple[int, int | None], bool] = {}

    # ------------------------------------------------------------------

    def infer(
        self,
        traces: Sequence[Sequence[int | None]] | TraceCorpus,
        links: bool = True,
    ) -> MapItResult:
        """Run the multipass inference over a corpus of hop sequences.

        Each trace is the TTL-ordered hop list with ``None`` for
        non-responses, or a whole corpus already in hop columns. Only
        *adjacent* responding hops form evidence pairs. ``links=False``
        skips link extraction for callers that read only ownership; the
        result's ``links`` is then None.
        """
        corpus = traces if isinstance(traces, TraceCorpus) else TraceCorpus.of(traces)
        near, far, weight = _adjacencies(corpus)
        on_link = np.zeros(len(corpus.addresses), dtype=bool)
        on_link[near] = True
        on_link[far] = True
        interfaces = np.flatnonzero(on_link)
        position = np.cumsum(on_link) - 1
        near, far = position[near], position[far]
        ips = corpus.addresses[interfaces]

        # Origins and IXP verdicts, read once per interface.
        origins = list(map(self._oracle.origin, ips.tolist()))
        asns = sorted({asn for asn in origins if asn is not None})
        code = {asn: index for index, asn in enumerate(asns)}
        origin = np.fromiter(map(code.get, origins, repeat(_UNOWNED)), dtype=np.int64, count=len(ips))
        ixp = corpus.ixp_mask(self._oracle)[interfaces]

        owner, passes, flips = self._refine(ips, near, far, weight, origin, ixp, asns)
        values = asns + [None]  # owner code -1 reads None
        ownership = dict(zip(ips.tolist(), map(values.__getitem__, owner.tolist())))
        found = None
        if links:
            found = self._extract_links(corpus, ownership, ips, near, far, weight, owner, asns)
        _log.info(
            "MAP-IT: %d traces, %d interfaces, %d passes, %d flips, %s links",
            len(corpus), len(ips), passes, flips, "no" if found is None else len(found),
        )
        return MapItResult(ownership=ownership, links=found, passes_used=passes, flips=flips)

    # ------------------------------------------------------------------

    def _refine(
        self,
        ips: np.ndarray,
        near: np.ndarray,
        far: np.ndarray,
        weight: np.ndarray,
        origin: np.ndarray,
        ixp: np.ndarray,
        asns: list[int],
    ) -> tuple[np.ndarray, int, int]:
        """Ownership passes to a fixed point: (owner codes, passes, flips)."""
        n = len(ips)
        preds = _Neighbors(far, near, weight, n)
        succs = _Neighbors(near, far, weight, n)
        # The boundary rule's /30–/31 partner: a neighbor in the same
        # point-to-point subnet with the same origin. Static, since it
        # reads origins only.
        partner = _same_ptp_subnet(ips[near], ips[far]) & (origin[near] == origin[far])
        pred_partner = np.zeros(n, dtype=bool)
        pred_partner[far[partner]] = True
        succ_partner = np.zeros(n, dtype=bool)
        succ_partner[near[partner]] = True

        config = self._config
        threshold = config.majority_threshold
        owner = origin.copy()
        flip_counts = np.zeros(n, dtype=np.int64)
        passes = 0
        total_flips = 0
        for passes in range(1, config.max_passes + 1):
            pred_major, pred_share = preds.vote(owner, len(asns))
            succ_major, succ_share = succs.vote(owner, len(asns))
            # IXP addresses stay unowned; an interface flipped too often is
            # frozen (repeated flipping signals ambiguous evidence); both
            # directions must be strong.
            strong = (
                ~ixp
                & (flip_counts < config.max_flips_per_interface)
                & (pred_major != _UNOWNED)
                & (pred_share > threshold)
                & (succ_major != _UNOWNED)
                & (succ_share > threshold)
            )
            agree = strong & (pred_major == succ_major)
            candidate = np.full(n, _UNOWNED, dtype=np.int64)
            # Agreement rule — both directions point at the same owner.
            rule = agree & (pred_major != owner)
            candidate[rule] = pred_major[rule]
            # Boundary rule: the origin sides with one majority. The far
            # side of a crossing numbered from the near AS has its /31
            # partner among its predecessors, the near side numbered from
            # the far AS among its successors.
            boundary = strong & ~agree & (origin != _UNOWNED)
            rule = boundary & (origin == pred_major) & pred_partner & (succ_major != owner)
            candidate[rule] = succ_major[rule]
            rule = boundary & (origin == succ_major) & succ_partner & (pred_major != owner)
            candidate[rule] = pred_major[rule]

            flipped = np.flatnonzero(candidate != _UNOWNED)
            flipped = flipped[self._plausible_mask(candidate[flipped], origin[flipped], asns)]
            if not len(flipped):
                break
            owner[flipped] = candidate[flipped]
            flip_counts[flipped] += 1
            total_flips += len(flipped)
        return owner, passes, total_flips

    def _plausible_mask(
        self, candidates: np.ndarray, origins: np.ndarray, asns: list[int]
    ) -> np.ndarray:
        """:meth:`_plausible` per (candidate, origin) code pair, evaluated
        once per distinct pair."""
        width = len(asns) + 1
        keys, inverse = np.unique(candidates * width + origins + 1, return_inverse=True)
        verdicts = [
            self._plausible(asns[key // width], asns[key % width - 1] if key % width else None)
            for key in keys.tolist()
        ]
        return np.array(verdicts, dtype=bool)[inverse]

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
        verdict = self._oracle.same_org(candidate, origin) or any(
            self._graph.relationship(a, b) is not None
            for a in self._oracle.org_members(candidate)
            for b in self._oracle.org_members(origin)
        )
        self._plausible_memo[key] = verdict
        return verdict

    # ------------------------------------------------------------------

    def _extract_links(
        self,
        corpus: TraceCorpus,
        ownership: dict[int, int | None],
        ips: np.ndarray,
        near: np.ndarray,
        far: np.ndarray,
        weight: np.ndarray,
        owner: np.ndarray,
        asns: list[int],
    ) -> list[InferredLink]:
        """Adjacencies across an ownership change, plus collapsed IXP runs.

        Links are keyed by unordered ip pair: the first-seen direction
        names near and far (and, for an IXP run, the first-seen owners),
        and observations add up over both directions.
        """
        same_org = self._oracle.same_org
        entries: dict[tuple[int, int], list] = {}

        near_owner, far_owner = owner[near], owner[far]
        crossing = np.flatnonzero(
            (near_owner != _UNOWNED) & (far_owner != _UNOWNED) & (near_owner != far_owner)
        )
        width = len(asns)
        owner_pairs, inverse = np.unique(
            near_owner[crossing] * width + far_owner[crossing], return_inverse=True
        )
        siblings = np.array(
            [same_org(asns[key // width], asns[key % width]) for key in owner_pairs.tolist()],
            dtype=bool,
        )
        crossing = crossing[~siblings[inverse]]
        low = np.minimum(near[crossing], far[crossing])
        high = np.maximum(near[crossing], far[crossing])
        _keys, first, inverse = np.unique(
            low * len(ips) + high, return_index=True, return_inverse=True
        )
        counts = np.bincount(inverse, weights=weight[crossing]).astype(np.int64).tolist()
        ip_list = ips.tolist()
        for i, count in zip(crossing[first].tolist(), counts):
            a, b = ip_list[near[i]], ip_list[far[i]]
            entries[(a, b) if a < b else (b, a)] = [
                a, b, asns[near_owner[i]], asns[far_owner[i]], count, False,
            ]

        for (first_ixp, last_ixp, owner_a, owner_b), count in self._ixp_runs(
            corpus, ownership
        ).items():
            if same_org(owner_a, owner_b):
                continue
            key = (first_ixp, last_ixp) if first_ixp < last_ixp else (last_ixp, first_ixp)
            entry = entries.get(key)
            if entry is None:
                entries[key] = [first_ixp, last_ixp, owner_a, owner_b, count, True]
            else:
                entry[4] += count

        results = [
            InferredLink(
                near_ip=a, far_ip=b, near_asn=oa, far_asn=ob, observations=n, via_ixp=ixp
            )
            for a, b, oa, ob, n, ixp in entries.values()
            if n >= self._config.min_link_observations
        ]
        results = self._consolidate(results)
        return sorted(results, key=lambda l: (l.as_pair(), l.ip_pair()))

    def _ixp_runs(
        self, corpus: TraceCorpus, ownership: dict[int, int | None]
    ) -> dict[tuple[int, int, int, int], int]:
        """Collapsed IXP runs: (first ixp, last ixp, owner before, owner
        after) → traces, in first-seen order.

        known(A) → ixp... → known(B) with A ≠ B. A non-response resets
        the run; an unowned non-IXP hop ends the IXP run but keeps the
        last owned hop as the run's start. Only sequences with an IXP hop
        are scanned.
        """
        runs: dict[tuple[int, int, int, int], int] = {}
        if not len(corpus.addresses):
            return runs
        hop = corpus.hop_index
        at_ixp = (hop != -1) & corpus.ixp_mask(self._oracle)[hop]
        sequences = np.unique(corpus.sequence_of_hops()[at_ixp])
        if not len(sequences):
            return runs
        addresses = corpus.addresses.tolist()
        is_ixp = corpus.ixp_mask(self._oracle).tolist()
        offsets = corpus.offsets
        for k in sequences.tolist():
            count = int(corpus.counts[k])
            run_owner = first_ixp = last_ixp = None
            for index in hop[offsets[k]:offsets[k + 1]].tolist():
                if index == -1:
                    run_owner = first_ixp = last_ixp = None
                    continue
                if is_ixp[index]:
                    if first_ixp is None:
                        first_ixp = index
                    last_ixp = index
                    continue
                owner = ownership.get(addresses[index])
                if first_ixp is not None and run_owner is not None and owner is not None:
                    if run_owner != owner:
                        key = (addresses[first_ixp], addresses[last_ixp], run_owner, owner)
                        runs[key] = runs.get(key, 0) + count
                first_ixp = last_ixp = None
                if owner is not None:
                    run_owner = owner
        return runs

    @staticmethod
    def _consolidate(links: list[InferredLink]) -> list[InferredLink]:
        """Drop non-aligned pairs explained by an aligned link.

        A genuine point-to-point crossing shows both addresses of one /31
        (or /30). Third-party replies inside a parallel-link group pair up
        interfaces of *different* /31s; when either endpoint of such a pair
        also participates in a properly aligned inferred link, the aligned
        link is the physical one and the stray pair is noise.
        """
        aligned = [link.via_ixp or _same_ptp_subnet(link.near_ip, link.far_ip) for link in links]
        aligned_endpoints: set[int] = set()
        for link, is_aligned in zip(links, aligned):
            if is_aligned:
                aligned_endpoints.add(link.near_ip)
                aligned_endpoints.add(link.far_ip)
        return [
            link
            for link, is_aligned in zip(links, aligned)
            if is_aligned
            or not (link.near_ip in aligned_endpoints or link.far_ip in aligned_endpoints)
        ]
