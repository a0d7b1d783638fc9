"""Table-first world representation: SoA tables emitted by generation.

Since PR 5 the hot §5 queries run against structure-of-arrays numpy
tables (:mod:`repro.net.compiled`). Originally those tables were a cache
*derived from* the python object graph — every cold process paid a full
object walk on top of generation. PR 6 flipped the dependency: the
generator streams every construction event into a
:class:`WorldTableRecorder`, and :meth:`finalize` assembles the exact
arrays the object walk used to produce.

PR 8 retires the object graph from the hot path entirely. Generation is
*array-native*: the builder writes routers, interfaces, links, AS
adjacency, and prefix allocations straight into amortized
capacity-doubling numpy builders (:class:`TableBuilder`), and no
``AS``/``Router``/``Interconnect`` python object exists unless a
consumer asks for one. The recorder doubles as the *world meta*: it
keeps the little sideband state the snapshot schema doesn't carry (AS
names/roles/cities, router city/role, interface numbering) so the
``materialize_*`` methods can rebuild the full object graph on demand —
bit-identical to what the old eager build produced, because replay
happens in recorded construction order.

The recorder's output is bit-for-bit identical to the derived tables:
the ``compiled.world_agreement`` validate contract compares every array
against a fresh object-graph derivation, and the golden-digest tests
hash both paths. No RNG draw is touched either way.
"""

from __future__ import annotations

import numpy as np

from repro.topology.addressing import Prefix, PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.topology.routers import InterconnectKind, RouterFabric, RouterRole

#: Fixed-width dtype for metro codes in the link table ("nyc", "dfw", ...).
CITY_DTYPE = "<U4"

#: Relationship enum <-> int8 code. This order is part of the snapshot
#: format; :mod:`repro.net.compiled` decodes with the same table.
REL_CODES: tuple[Relationship, ...] = (
    Relationship.CUSTOMER,
    Relationship.PROVIDER,
    Relationship.PEER,
)
CODE_OF_REL = {rel: code for code, rel in enumerate(REL_CODES)}

#: InterconnectKind enum <-> int8 code (same snapshot-format caveat).
KIND_CODES: tuple[InterconnectKind, ...] = (
    InterconnectKind.PRIVATE,
    InterconnectKind.IXP,
)
CODE_OF_KIND = {kind: code for code, kind in enumerate(KIND_CODES)}

#: ASRole / RouterRole <-> int8 codes for the recorder's meta arrays.
#: These never leave the process (meta is not part of the snapshot), but
#: a fixed order keeps materialization deterministic.
AS_ROLE_CODES: tuple[ASRole, ...] = tuple(ASRole)
CODE_OF_AS_ROLE = {role: code for code, role in enumerate(AS_ROLE_CODES)}
ROUTER_ROLE_CODES: tuple[RouterRole, ...] = tuple(RouterRole)
CODE_OF_ROUTER_ROLE = {role: code for code, role in enumerate(ROUTER_ROLE_CODES)}

#: Prefix-kind codes in the recorder's prefix log.
PREFIX_CLIENT, PREFIX_INFRA, PREFIX_IXP = 0, 1, 2


class TableBuilder:
    """Amortized capacity-doubling numpy append buffer.

    The recorder's growth primitive: appends are O(1) amortized into a
    preallocated array that doubles when full, so peak memory tracks the
    final table size (plus at most one doubling) instead of a python
    list of boxed tuples that :func:`numpy.asarray` re-copies at the
    end. ``cols=0`` builds a 1-D column; ``cols=k`` builds ``(n, k)``
    rows.
    """

    __slots__ = ("_data", "_len", "_cap")

    def __init__(self, dtype, cols: int = 0, capacity: int = 256) -> None:
        shape = (capacity, cols) if cols else (capacity,)
        self._data = np.empty(shape, dtype=dtype)
        self._len = 0
        self._cap = capacity

    def __len__(self) -> int:
        return self._len

    def _grow_to(self, need: int) -> None:
        capacity = self._cap
        while capacity < need:
            capacity *= 2
        grown = np.empty((capacity,) + self._data.shape[1:], dtype=self._data.dtype)
        grown[: self._len] = self._data[: self._len]
        self._data = grown
        self._cap = capacity

    def append(self, value) -> None:
        """Append one scalar (1-D) or one row tuple/sequence (2-D).

        The capacity check is inlined (no helper call, capacity cached in
        a slot): generation makes one ``append`` per recorded scalar, so
        this is the hottest python statement in worldgen.
        """
        length = self._len
        if length == self._cap:
            self._grow_to(length + 1)
        self._data[length] = value
        self._len = length + 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        need = self._len + len(values)
        if need > self._cap:
            self._grow_to(need)
        self._data[self._len : need] = values
        self._len = need

    def get(self, index: int):
        if not -self._len <= index < self._len:
            raise IndexError(index)
        return self._data[index % self._len if self._len else 0]

    def view(self) -> np.ndarray:
        """Zero-copy view of the filled region (valid until the next grow)."""
        return self._data[: self._len]

    def array(self) -> np.ndarray:
        """Tight contiguous copy — what :meth:`WorldTableRecorder.finalize`
        hands out, so the 2x growth slack is not pinned by the result."""
        return self._data[: self._len].copy()


def flatten_prefix_spans(
    bases: np.ndarray, lengths: np.ndarray, asns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-native core of :func:`flatten_prefixes`.

    Sorts spans by (start, widest-first) exactly like the python sweep,
    then takes a vectorized fast path when the sorted family is already
    disjoint — which it always is for generated worlds, whose allocator
    pools never nest. Nested families fall back to the reference sweep.
    """
    bases = np.asarray(bases, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    asns = np.asarray(asns, dtype=np.int64)
    sizes = np.int64(1) << (32 - lengths)
    ends = bases + sizes
    order = np.lexsort((-sizes, bases))
    starts_sorted = bases[order]
    ends_sorted = ends[order]
    asns_sorted = asns[order]
    if len(starts_sorted) == 0 or bool(
        np.all(ends_sorted[:-1] <= starts_sorted[1:])
    ):
        return starts_sorted, ends_sorted, asns_sorted
    return _sweep_spans(
        list(zip(starts_sorted.tolist(), ends_sorted.tolist(), asns_sorted.tolist()))
    )


def _sweep_spans(
    spans: list[tuple[int, int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference laminar sweep for nested families (pre-sorted input)."""
    starts = TableBuilder(np.int64)
    ends = TableBuilder(np.int64)
    origins = TableBuilder(np.int64)

    def emit(lo: int, hi: int, asn: int) -> None:
        if lo < hi:
            starts.append(lo)
            ends.append(hi)
            origins.append(asn)

    stack: list[tuple[int, int]] = []  # (end, asn) of open outer prefixes
    pos = 0
    for base, end, asn in spans:
        while stack and stack[-1][0] <= base:
            top_end, top_asn = stack.pop()
            emit(pos, top_end, top_asn)
            pos = max(pos, top_end)
        if stack:
            emit(pos, base, stack[-1][1])
        pos = max(pos, base)
        stack.append((end, asn))
    while stack:
        top_end, top_asn = stack.pop()
        emit(pos, top_end, top_asn)
        pos = max(pos, top_end)
    return starts.array(), ends.array(), origins.array()


def flatten_prefixes(prefixes: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a nested prefix family into disjoint LPM intervals.

    Announced prefixes are power-of-two aligned blocks, so any two are
    either disjoint or nested — a laminar family. The innermost covering
    prefix of every elementary interval is precisely the trie's
    longest-match winner. Returns (starts, ends, origins) sorted by
    start; gaps between announcements are simply absent from the table.
    """
    n = len(prefixes)
    bases = np.fromiter((p.base for p in prefixes), dtype=np.int64, count=n)
    lengths = np.fromiter((p.length for p in prefixes), dtype=np.int64, count=n)
    asns = np.fromiter((p.asn for p in prefixes), dtype=np.int64, count=n)
    return flatten_prefix_spans(bases, lengths, asns)


class WorldTableRecorder:
    """Accumulates world tables (and object-graph meta) from generation.

    One instance lives for one :class:`_Builder` run and *is* the
    world's primary storage: the builder calls the ``record_*`` hooks as
    it makes decisions, :meth:`finalize` packs the compiled-world array
    dict, and the ``materialize_*`` methods replay the recorded event
    streams into the classic ``ASGraph`` / ``RouterFabric`` /
    ``PrefixTable`` objects when (and only when) a consumer wants them.

    Replay is in recorded order, so every materialized dict has the same
    insertion order the eager build used to produce — materialized
    worlds are indistinguishable from pre-PR-8 ones.
    """

    def __init__(self) -> None:
        self._asns = TableBuilder(np.int64)
        #: (a, b, rel code from a's view), both directions per AS edge.
        self._edges = TableBuilder(np.int64, cols=3)
        #: (ip, router id, owning-router ASN) per addressed interface.
        self._interfaces = TableBuilder(np.int64, cols=3)
        self._iface_numbered_from = TableBuilder(np.int64)
        #: Router meta, row-indexed by router id - 1 (ids are sequential).
        self._router_asns = TableBuilder(np.int64)
        self._router_cities = TableBuilder(CITY_DTYPE)
        self._router_roles = TableBuilder(np.int8)
        #: interconnect rows in link-id order:
        #: a_asn b_asn a_router b_router a_ip b_ip numbered_from group_id
        self._links = TableBuilder(np.int64, cols=8)
        self._link_cities = TableBuilder(CITY_DTYPE)
        self._link_kinds = TableBuilder(np.int8)
        #: (base, length, asn) per announced prefix, in allocation order.
        self._prefixes = TableBuilder(np.int64, cols=3)
        self._prefix_kinds = TableBuilder(np.int8)
        #: AS meta parallel to ``_asns`` (strings/tuples stay python-side;
        #: they are O(#ASes), not O(#routers)).
        self._as_names: list[str] = []
        self._as_roles = TableBuilder(np.int8)
        self._as_cities: list[tuple[str, ...]] = []
        self._as_weights = TableBuilder(np.float64)

    # -- hooks driven by the generator ----------------------------------

    def record_as(
        self,
        asn: int,
        name: str,
        role: ASRole,
        cities: tuple[str, ...],
        subscriber_weight: float,
    ) -> None:
        self._asns.append(asn)
        self._as_names.append(name)
        self._as_roles.append(CODE_OF_AS_ROLE[role])
        self._as_cities.append(cities)
        self._as_weights.append(subscriber_weight)

    def record_edge(self, a: int, b: int, rel_of_a: Relationship) -> None:
        """One AS adjacency; ``rel_of_a`` is ``b`` from ``a``'s view."""
        code = CODE_OF_REL[rel_of_a]
        self._edges.append((a, b, code))
        self._edges.append((b, a, CODE_OF_REL[rel_of_a.inverse()]))

    def record_router(
        self, router_id: int, asn: int, city_code: str, role: RouterRole
    ) -> None:
        # Router ids are assigned sequentially from 1, so the row index
        # is the id minus one — finalize() and replay rely on this.
        assert router_id == len(self._router_asns) + 1, "router recorded out of order"
        self._router_asns.append(asn)
        self._router_cities.append(city_code)
        self._router_roles.append(CODE_OF_ROUTER_ROLE[role])

    def record_interface(
        self, ip: int, router_id: int, numbered_from_asn: int
    ) -> None:
        # Direct row read instead of .get(): router ids are sequential
        # from 1 and recorded before their interfaces, so the index is
        # always in the filled region. Two interfaces per link makes
        # this hook hot enough for the bounds check to show up.
        owner = self._router_asns._data[router_id - 1]
        self._interfaces.append((ip, router_id, owner))
        self._iface_numbered_from.append(numbered_from_asn)

    def record_prefix(self, base: int, length: int, asn: int, kind: int) -> None:
        self._prefixes.append((base, length, asn))
        self._prefix_kinds.append(kind)

    def record_link(
        self,
        link_id: int,
        a_asn: int,
        b_asn: int,
        a_router_id: int,
        b_router_id: int,
        a_ip: int,
        b_ip: int,
        city_code: str,
        kind: InterconnectKind,
        numbered_from_asn: int,
        group_id: int,
    ) -> None:
        assert link_id == len(self._links) + 1, "interconnect recorded out of order"
        self._links.append(
            (a_asn, b_asn, a_router_id, b_router_id, a_ip, b_ip,
             numbered_from_asn, group_id)
        )
        self._link_cities.append(city_code)
        self._link_kinds.append(CODE_OF_KIND[kind])

    # -- headline sizes --------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The summary sizes ``world_digest`` needs, straight from the
        tables — no object graph required."""
        announced = int(np.count_nonzero(self._prefix_kinds.view() != PREFIX_IXP))
        return {
            "ases": len(self._asns),
            "as_edges": len(self._edges) // 2,
            "routers": len(self._router_asns),
            "interconnects": len(self._links),
            "prefixes": announced,
        }

    # -- assembly --------------------------------------------------------

    def finalize(self) -> dict[str, np.ndarray]:
        """Pack the recorded events into the compiled-world array dict.

        Every array matches the object-graph derivation in
        :func:`repro.net.compiled.compile_from_object_graph` bit for bit:
        same sort orders, same dtypes, same CSR layouts.
        """
        prefix_rows = self._prefixes.view()
        prefix_kinds = self._prefix_kinds.view()
        announced = prefix_rows[prefix_kinds != PREFIX_IXP]
        ixp_rows = prefix_rows[prefix_kinds == PREFIX_IXP]
        lpm_starts, lpm_ends, lpm_origins = flatten_prefix_spans(
            announced[:, 0], announced[:, 1], announced[:, 2]
        )
        ixp_starts, ixp_ends, _ = flatten_prefix_spans(
            ixp_rows[:, 0], ixp_rows[:, 1], ixp_rows[:, 2]
        )

        # CSR adjacency over sorted ASNs, neighbors sorted per row.
        adj_asns = np.sort(self._asns.view())
        edge_arr = self._edges.view()
        if len(edge_arr):
            order = np.lexsort((edge_arr[:, 1], edge_arr[:, 0]))
            edge_arr = edge_arr[order]
            adj_neighbors = edge_arr[:, 1].copy()
            adj_rel = edge_arr[:, 2].astype(np.int8)
            indptr = np.searchsorted(edge_arr[:, 0], adj_asns, side="left")
            indptr = np.append(indptr, len(edge_arr)).astype(np.int64)
        else:
            adj_neighbors = np.asarray([], dtype=np.int64)
            adj_rel = np.asarray([], dtype=np.int8)
            indptr = np.zeros(len(adj_asns) + 1, dtype=np.int64)

        # Interfaces sorted by address; owner is the owning router's AS.
        iface_arr = self._interfaces.view()
        n_routers = len(self._router_asns)
        if len(iface_arr):
            order = np.argsort(iface_arr[:, 0], kind="stable")
            by_ip = iface_arr[order]
            iface_ips = by_ip[:, 0].copy()
            iface_router = by_ip[:, 1].copy()
            iface_owner = by_ip[:, 2].copy()
            # Router -> interface CSR over sorted (== sequential) router
            # ids. A stable sort by router id groups each router's rows
            # while preserving insertion order within a router — which is
            # exactly fabric port order.
            port_order = np.argsort(iface_arr[:, 1], kind="stable")
            router_iface_ips = iface_arr[port_order, 0].copy()
            counts = np.bincount(
                iface_arr[:, 1], minlength=n_routers + 1
            )[1:]
            router_indptr = np.concatenate(
                ([0], np.cumsum(counts, dtype=np.int64))
            ).astype(np.int64)
        else:
            iface_ips = iface_router = iface_owner = np.asarray([], dtype=np.int64)
            router_iface_ips = np.asarray([], dtype=np.int64)
            router_indptr = np.zeros(n_routers + 1, dtype=np.int64)

        n_links = len(self._links)
        return {
            "lpm_starts": lpm_starts,
            "lpm_ends": lpm_ends,
            "lpm_origins": lpm_origins,
            "ixp_starts": ixp_starts,
            "ixp_ends": ixp_ends,
            "adj_asns": adj_asns,
            "adj_indptr": indptr,
            "adj_neighbors": adj_neighbors,
            "adj_rel": adj_rel,
            "iface_ips": iface_ips,
            "iface_router": iface_router,
            "iface_owner_asn": iface_owner,
            "router_ids": np.arange(1, n_routers + 1, dtype=np.int64),
            "router_indptr": router_indptr,
            "router_iface_ips": router_iface_ips,
            "link_ids": np.arange(1, n_links + 1, dtype=np.int64),
            "link_cols": self._links.array().reshape(n_links, 8),
            "link_city": self._link_cities.array(),
            "link_kind": self._link_kinds.array(),
        }

    # -- lazy object-graph materialization -------------------------------

    def materialize_graph(self) -> ASGraph:
        """Replay the AS stream into a classic :class:`ASGraph`.

        Insertion order equals recorded (construction) order, so
        neighbour-dict iteration downstream matches the eager build.
        """
        graph = ASGraph()
        roles = self._as_roles.view().tolist()
        weights = self._as_weights.view().tolist()
        for i, asn in enumerate(self._asns.view().tolist()):
            graph.add_as(
                AS(
                    asn=asn,
                    name=self._as_names[i],
                    role=AS_ROLE_CODES[roles[i]],
                    home_cities=self._as_cities[i],
                    subscriber_weight=weights[i],
                )
            )
        # Even rows hold the originally-recorded direction; add_edge
        # writes the inverse itself.
        for a, b, code in self._edges.view()[::2].tolist():
            graph.add_edge(a, b, REL_CODES[code])
        return graph

    def materialize_fabric(self) -> RouterFabric:
        """Replay routers, interfaces, and interconnects into a fabric."""
        fabric = RouterFabric()
        cities = self._router_cities.view().tolist()
        roles = self._router_roles.view().tolist()
        for i, asn in enumerate(self._router_asns.view().tolist()):
            fabric.new_router(asn, cities[i], ROUTER_ROLE_CODES[roles[i]])
        numbered = self._iface_numbered_from.view().tolist()
        for i, (ip, router_id, _owner) in enumerate(
            self._interfaces.view().tolist()
        ):
            fabric.add_interface(ip, router_id, numbered[i])
        link_cities = self._link_cities.view().tolist()
        link_kinds = self._link_kinds.view().tolist()
        max_group = 0
        for i, row in enumerate(self._links.view().tolist()):
            fabric.add_interconnect(
                a_asn=row[0],
                b_asn=row[1],
                a_router_id=row[2],
                b_router_id=row[3],
                a_ip=row[4],
                b_ip=row[5],
                city_code=link_cities[i],
                kind=KIND_CODES[link_kinds[i]],
                numbered_from_asn=row[6],
                group_id=row[7],
            )
            if row[7] > max_group:
                max_group = row[7]
        # Group ids were handed out once per parallel group and every
        # group holds at least one link, so the counter resumes at max+1.
        fabric._next_group_id = max_group + 1
        return fabric

    def materialize_addressing(
        self,
    ) -> tuple[PrefixTable, dict[int, list[Prefix]], dict[int, list[Prefix]]]:
        """Replay the prefix log into the trie + client/infra dicts."""
        table = PrefixTable()
        client: dict[int, list[Prefix]] = {}
        infra: dict[int, list[Prefix]] = {}
        kinds = self._prefix_kinds.view().tolist()
        for i, (base, length, asn) in enumerate(self._prefixes.view().tolist()):
            kind = kinds[i]
            if kind == PREFIX_IXP:
                continue
            prefix = Prefix(base=base, length=length, asn=asn)
            table.insert(prefix)
            bucket = client if kind == PREFIX_CLIENT else infra
            bucket.setdefault(asn, []).append(prefix)
        return table, client, infra
