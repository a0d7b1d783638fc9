"""Compiled read-only world snapshots: structure-of-arrays for the hot sweeps.

The object graph hanging off :class:`~repro.topology.internet.Internet`
is the right representation for correctness-first code, but the §5
coverage sweep hammers a handful of queries millions of times:
longest-prefix-match origin lookups, AS-adjacency/relationship tests, and
router-fabric interface walks. :class:`CompiledWorld` flattens exactly
those into numpy arrays once per world and answers them with
``searchsorted`` and CSR slicing — vectorized for whole hop corpora at a
time.

Router-level forwarding (:mod:`repro.routing.forwarding`) reads the
same tables: links per AS pair, core and access routers per (AS, metro)
and each router's first interface, through a python-side index built on
first use. The router meta behind it (each router's AS, metro and role)
comes from the generator's recorder and is not part of the snapshot
schema, so a world loaded from a snapshot alone cannot answer those
lookups.

Two invariants the rest of the code leans on:

* **agreement** — every compiled answer is *equal* to the object-graph
  answer (enforced by the ``compiled.world_agreement`` validate contract
  and the equivalence tests). The LPM table is the prefix trie flattened
  into disjoint half-open intervals, so a binary search reproduces the
  trie's longest-match semantics bit for bit.
* **one build per world** — :func:`compile_world` memoizes per world
  digest, so every consumer in a process shares one set of arrays.
  Fork-started pool workers inherit that memo copy-on-write; spawn
  workers rebuild their study once from its config and compile there.

Generation is *array-native*: the generator streams straight into the
recorder's numpy builders (:mod:`repro.topology.tables`), the object
graph is a lazy facade nothing on the generate→compile→persist path ever
materializes, and :func:`compile_world` merely wraps the recorded
arrays. The object-graph walk in :func:`compile_from_object_graph` is
the reference implementation the validate contract and the golden-digest
tests compare against, and the fallback for a world that carries no
tables. Compiled worlds also persist as versioned memory-mapped ``.npz``
snapshots in the artifact cache (:mod:`repro.net.snapshot`), keyed by
world digest, so :func:`compiled_world_for` cold-loads a known world in
milliseconds without generating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.net import snapshot
from repro.obs import metrics
from repro.obs.log import get_logger
from repro.topology.asgraph import Relationship
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect, RouterRole
from repro.topology.tables import (
    CITY_DTYPE,
    CODE_OF_KIND,
    CODE_OF_REL as _CODE_OF_REL,
    CODE_OF_ROUTER_ROLE,
    KIND_CODES,
    REL_CODES as _REL_CODES,
    flatten_prefixes as _flatten_prefixes,
)
from repro.util import artifact_cache

_log = get_logger(__name__)

_BUILDS = metrics.counter("compiled.builds")
_CACHE_HITS = metrics.counter("compiled.cache_hits")
_TABLE_WRAPS = metrics.counter("compiled.table_wraps")
_SNAPSHOT_LOADS = metrics.counter("compiled.snapshot_loads")
_BATCH_LOOKUPS = metrics.counter("compiled.batch_lookups")

#: Sentinel origin for "no announcement covers this address".
NO_ORIGIN = -1

#: Artifact-cache namespaces for persisted snapshots and the
#: generator-config -> world-digest index that enables cold loads
#: without generating.
SNAPSHOT_KIND = "world-snapshot"
DIGEST_INDEX_KIND = "world-digest"


@dataclass
class CompiledWorld:
    """Read-only structure-of-arrays snapshot of one generated world.

    Every field is a numpy array (or a small python dict built from one),
    so the whole snapshot persists as one ``.npz`` and memory-maps back
    without pickling the object graph.
    """

    digest: str
    seed: int

    # --- longest-prefix match (public BGP view) ---
    lpm_starts: np.ndarray  # int64, sorted disjoint interval starts
    lpm_ends: np.ndarray  # int64, half-open interval ends
    lpm_origins: np.ndarray  # int64, origin ASN per interval

    # --- IXP address screening ---
    ixp_starts: np.ndarray  # int64
    ixp_ends: np.ndarray  # int64

    # --- AS adjacency, CSR over sorted ASNs ---
    adj_asns: np.ndarray  # int64, sorted ASNs
    adj_indptr: np.ndarray  # int64, len == len(adj_asns) + 1
    adj_neighbors: np.ndarray  # int64, neighbor ASNs, sorted per row
    adj_rel: np.ndarray  # int8, _REL_CODES code per neighbor entry

    # --- router fabric: interfaces ---
    iface_ips: np.ndarray  # int64, sorted interface addresses
    iface_router: np.ndarray  # int64, owning router id per address
    iface_owner_asn: np.ndarray  # int64, ground-truth owner AS per address

    # --- router fabric: router -> interface CSR ---
    router_ids: np.ndarray  # int64, sorted router ids
    router_indptr: np.ndarray  # int64
    router_iface_ips: np.ndarray  # int64, interface ips in fabric port order

    # --- interconnect link table, row-indexed by sorted link id ---
    link_ids: np.ndarray  # int64, sorted
    link_cols: np.ndarray  # int64, shape (n_links, 8): a_asn b_asn a_router
    #                        b_router a_ip b_ip numbered_from group_id
    link_city: np.ndarray  # <U4 metro code per link
    link_kind: np.ndarray  # int8 KIND_CODES code per link

    # --- router meta, row-aligned with router_ids. Not part of the
    # snapshot schema (``_ARRAY_FIELDS``): compile_world attaches it from
    # the world's recorder, the object walk derives it from the fabric ---
    router_asn: np.ndarray | None = None  # int64 owning AS per router
    router_city: np.ndarray | None = None  # <U4 metro code per router
    router_role: np.ndarray | None = None  # int8 ROUTER_ROLE_CODES code

    #: Lazy python-side index: ASN -> row in adj_asns (built on first use,
    #: never persisted).
    _asn_row: dict[int, int] | None = field(default=None, repr=False, compare=False)
    #: Lazy Interconnect views materialized from link rows on demand
    #: (scalar consumers only; never persisted).
    _link_views: dict[int, Interconnect] | None = field(
        default=None, repr=False, compare=False
    )
    #: Lazy python-side forwarding index (see :meth:`_forwarding_index`).
    _forwarding: tuple | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # LPM / IXP

    def origin_batch(self, ips: np.ndarray) -> np.ndarray:
        """Vectorized LPM origin ASN per address (``NO_ORIGIN`` for none)."""
        _BATCH_LOOKUPS.inc()
        ips = np.asarray(ips, dtype=np.int64)
        idx = np.searchsorted(self.lpm_starts, ips, side="right") - 1
        idx_clipped = np.maximum(idx, 0)
        covered = (idx >= 0) & (ips < self.lpm_ends[idx_clipped])
        return np.where(covered, self.lpm_origins[idx_clipped], NO_ORIGIN)

    def origin(self, ip: int) -> int | None:
        """Scalar LPM origin ASN, or None when no announcement covers it."""
        idx = int(np.searchsorted(self.lpm_starts, ip, side="right")) - 1
        if idx < 0 or ip >= int(self.lpm_ends[idx]):
            return None
        return int(self.lpm_origins[idx])

    def is_ixp_batch(self, ips: np.ndarray) -> np.ndarray:
        """Vectorized IXP-prefix membership test."""
        ips = np.asarray(ips, dtype=np.int64)
        if not len(self.ixp_starts):
            return np.zeros(len(ips), dtype=bool)
        idx = np.searchsorted(self.ixp_starts, ips, side="right") - 1
        idx_clipped = np.maximum(idx, 0)
        return (idx >= 0) & (ips < self.ixp_ends[idx_clipped])

    def is_ixp(self, ip: int) -> bool:
        if not len(self.ixp_starts):
            return False
        idx = int(np.searchsorted(self.ixp_starts, ip, side="right")) - 1
        return idx >= 0 and ip < int(self.ixp_ends[idx])

    # ------------------------------------------------------------------
    # AS adjacency

    def _row_of(self, asn: int) -> int | None:
        index = self._asn_row
        if index is None:
            index = {int(a): i for i, a in enumerate(self.adj_asns)}
            self._asn_row = index
        return index.get(asn)

    def relationship(self, a: int, b: int) -> Relationship | None:
        """Relationship of ``b`` from ``a``'s point of view, or None."""
        row = self._row_of(a)
        if row is None:
            return None
        lo, hi = int(self.adj_indptr[row]), int(self.adj_indptr[row + 1])
        pos = lo + int(np.searchsorted(self.adj_neighbors[lo:hi], b))
        if pos >= hi or int(self.adj_neighbors[pos]) != b:
            return None
        return _REL_CODES[int(self.adj_rel[pos])]

    def neighbors_of(self, asn: int) -> dict[int, Relationship]:
        row = self._row_of(asn)
        if row is None:
            return {}
        lo, hi = int(self.adj_indptr[row]), int(self.adj_indptr[row + 1])
        return {
            int(n): _REL_CODES[int(c)]
            for n, c in zip(self.adj_neighbors[lo:hi], self.adj_rel[lo:hi])
        }

    # ------------------------------------------------------------------
    # router fabric

    def owner_asn_of_ip(self, ip: int) -> int | None:
        """Ground-truth owner AS of an interface address (fabric view)."""
        pos = int(np.searchsorted(self.iface_ips, ip))
        if pos >= len(self.iface_ips) or int(self.iface_ips[pos]) != ip:
            return None
        return int(self.iface_owner_asn[pos])

    def interface_ips_of(self, router_id: int) -> tuple[int, ...]:
        """Interface addresses of one router, in fabric (port) order."""
        pos = int(np.searchsorted(self.router_ids, router_id))
        if pos >= len(self.router_ids) or int(self.router_ids[pos]) != router_id:
            return ()
        lo, hi = int(self.router_indptr[pos]), int(self.router_indptr[pos + 1])
        return tuple(int(ip) for ip in self.router_iface_ips[lo:hi])

    def link_row(self, link_id: int) -> tuple[int, ...] | None:
        """One interconnect as a flat tuple (a_asn, b_asn, a_router,
        b_router, a_ip, b_ip, numbered_from_asn, group_id)."""
        pos = self._link_pos(link_id)
        if pos is None:
            return None
        return tuple(int(v) for v in self.link_cols[pos])

    def _link_pos(self, link_id: int) -> int | None:
        pos = int(np.searchsorted(self.link_ids, link_id))
        if pos >= len(self.link_ids) or int(self.link_ids[pos]) != link_id:
            return None
        return pos

    def interconnect_view(self, link_id: int) -> Interconnect | None:
        """Materialize one link row as an :class:`Interconnect` object.

        This is the lazy object view of the table-first world: scalar
        consumers that want the ergonomic dataclass get one constructed
        on demand (and memoized), while the table stays the primary
        representation. The view is indistinguishable from the fabric's
        own object — same frozen dataclass, same field values.
        """
        views = self._link_views
        if views is None:
            views = {}
            self._link_views = views
        view = views.get(link_id)
        if view is None:
            pos = self._link_pos(link_id)
            if pos is None:
                return None
            row = self.link_cols[pos]
            view = Interconnect(
                link_id=link_id,
                a_asn=int(row[0]),
                b_asn=int(row[1]),
                a_router_id=int(row[2]),
                b_router_id=int(row[3]),
                a_ip=int(row[4]),
                b_ip=int(row[5]),
                city_code=str(self.link_city[pos]),
                kind=KIND_CODES[int(self.link_kind[pos])],
                numbered_from_asn=int(row[6]),
                group_id=int(row[7]),
            )
            views[link_id] = view
        return view

    # ------------------------------------------------------------------
    # forwarding lookups: what router-level path expansion reads

    def core_router_of(self, asn: int, city: str) -> int | None:
        """The AS's core router in ``city``, or None."""
        return self._forwarding_index()[0].get((asn, city))

    def access_routers_of(self, asn: int, city: str) -> tuple[int, ...]:
        """The AS's access routers in ``city``, in router-id order."""
        return self._forwarding_index()[1].get((asn, city), ())

    def first_interface_ip(self, router_id: int) -> int | None:
        """The router's first interface in port order, or None when it
        has none."""
        return self._forwarding_index()[2].get(router_id)

    def links_between(self, a: int, b: int) -> tuple[tuple, ...]:
        """Interconnects joining two ASes (either order), in link-id order,
        as rows ``(link_id, a_asn, b_asn, a_router_id, b_router_id, a_ip,
        b_ip, city_code)``."""
        pair = (a, b) if a < b else (b, a)
        return self._forwarding_index()[3].get(pair, ())

    def _forwarding_index(self) -> tuple[dict, dict, dict, dict]:
        """(asn, city) -> core router, (asn, city) -> access routers,
        router -> first interface, AS pair -> link rows; built once from
        the tables with ``.tolist()``, so every answer is a python int or
        str, never a numpy scalar."""
        index = self._forwarding
        if index is not None:
            return index
        if self.router_asn is None:
            raise LookupError(
                "this world carries no router meta; build it with compile_world(internet)"
            )
        core_code = CODE_OF_ROUTER_ROLE[RouterRole.CORE]
        access_code = CODE_OF_ROUTER_ROLE[RouterRole.ACCESS]
        core: dict[tuple[int, str], int] = {}
        access: dict[tuple[int, str], tuple[int, ...]] = {}
        for router_id, asn, city, role in zip(
            self.router_ids.tolist(), self.router_asn.tolist(),
            self.router_city.tolist(), self.router_role.tolist(),
        ):
            if role == core_code:
                core[(asn, city)] = router_id
            elif role == access_code:
                access[(asn, city)] = access.get((asn, city), ()) + (router_id,)
        starts = self.router_indptr[:-1]
        has_interface = self.router_indptr[1:] > starts
        first_ip = dict(zip(
            self.router_ids[has_interface].tolist(),
            self.router_iface_ips[starts[has_interface]].tolist(),
        ))
        links: dict[tuple[int, int], tuple[tuple, ...]] = {}
        for link_id, (a, b, a_router, b_router, a_ip, b_ip, _numbered, _group), city in zip(
            self.link_ids.tolist(), self.link_cols.tolist(), self.link_city.tolist()
        ):
            pair = (a, b) if a < b else (b, a)
            links[pair] = links.get(pair, ()) + (
                (link_id, a, b, a_router, b_router, a_ip, b_ip, city),
            )
        index = self._forwarding = (core, access, first_ip, links)
        return index

    # ------------------------------------------------------------------
    # oracle priming

    def prime_oracle(self, oracle, ips) -> int:
        """Prefill an :class:`~repro.inference.borders.OriginOracle`'s
        per-address caches for a whole hop corpus in one vectorized pass.

        The values written are exactly what the oracle's trie walk would
        have produced (IXP addresses -> None origin, sibling collapse via
        the oracle's own ``canonical``), so priming is invisible in
        results — it only converts thousands of scalar trie walks into
        two ``searchsorted`` calls. Returns the number of addresses primed
        (0 when the oracle's IXP screen differs from this world's, i.e.
        the oracle was not built from the same Internet).
        """
        oracle_spans = sorted(
            (p.base, p.base + (1 << (32 - p.length)))
            for p in oracle._ixp_prefixes
        )
        world_spans = list(zip(self.ixp_starts.tolist(), self.ixp_ends.tolist()))
        if oracle_spans != world_spans:
            return 0
        fresh = [ip for ip in ips if ip not in oracle._origin_cache]
        if not fresh:
            return 0
        arr = np.asarray(fresh, dtype=np.int64)
        origins = self.origin_batch(arr)
        ixp = self.is_ixp_batch(arr)
        canonical = oracle.canonical
        canonical_memo: dict[int, int] = {}
        origin_cache = oracle._origin_cache
        ixp_cache = oracle._ixp_cache
        for ip, raw, at_ixp in zip(fresh, origins.tolist(), ixp.tolist()):
            ixp_cache[ip] = at_ixp
            if at_ixp or raw == NO_ORIGIN:
                origin_cache[ip] = None
                continue
            collapsed = canonical_memo.get(raw)
            if collapsed is None:
                collapsed = canonical(raw)
                canonical_memo[raw] = collapsed
            origin_cache[ip] = collapsed
        return len(fresh)

    # ------------------------------------------------------------------
    # schema: every array field, in snapshot order

    _ARRAY_FIELDS: tuple[str, ...] = (
        "lpm_starts", "lpm_ends", "lpm_origins",
        "ixp_starts", "ixp_ends",
        "adj_asns", "adj_indptr", "adj_neighbors", "adj_rel",
        "iface_ips", "iface_router", "iface_owner_asn",
        "router_ids", "router_indptr", "router_iface_ips",
        "link_ids", "link_cols", "link_city", "link_kind",
    )
    #: The router meta arrays, outside the snapshot schema.
    _ROUTER_FIELDS = ("router_asn", "router_city", "router_role")


#: digest -> CompiledWorld, one per process.
_COMPILE_CACHE: dict[str, CompiledWorld] = {}


def world_digest(internet: Internet) -> str:
    """Stable identity of a generated world for compile caching.

    Seed plus headline sizes: two worlds from the same generator config
    share all of them; any change to the generator's output changes at
    least one.
    """
    summary = internet.summary()
    parts = [str(internet.seed)] + [f"{k}={summary[k]}" for k in sorted(summary)]
    return "|".join(parts)


def snapshot_path(digest: str) -> Path:
    """Artifact-cache location of one world's persisted snapshot.

    The key covers the world digest plus the cache's code salt; the
    snapshot's own ``format_version`` is checked at load, so a stale file
    degrades to a warning and a rebuild, never to wrong tables.
    """
    key = artifact_cache.artifact_key(SNAPSHOT_KIND, digest)
    return artifact_cache.cache_dir() / f"{SNAPSHOT_KIND}-{key}.npz"


def _world_from_arrays(
    digest: str, seed: int, arrays: dict[str, np.ndarray]
) -> CompiledWorld | None:
    """Wrap an array dict as a world; None when the schema doesn't match."""
    if set(arrays) < set(CompiledWorld._ARRAY_FIELDS):
        return None
    return CompiledWorld(
        digest=digest,
        seed=seed,
        **{name: arrays[name] for name in CompiledWorld._ARRAY_FIELDS},
    )


def persist_snapshot(world: CompiledWorld) -> Path | None:
    """Write ``world`` to its cache slot (no-op when already present).

    Returns the snapshot path, or None when the artifact cache is off
    (``REPRO_CACHE=0``) or the write failed.
    """
    if not artifact_cache.enabled():
        return None
    path = snapshot_path(world.digest)
    if path.exists():
        return path
    arrays = {
        name: np.ascontiguousarray(getattr(world, name))
        for name in CompiledWorld._ARRAY_FIELDS
    }
    try:
        snapshot.save_arrays(path, arrays, digest=world.digest, seed=world.seed)
    except OSError as error:  # read-only fs, disk full — cache is best-effort
        _log.warning("could not persist world snapshot %s: %s", path, error)
        return None
    artifact_cache.evict_to_limit()
    return path if path.exists() else None


def load_snapshot_world(digest: str) -> CompiledWorld | None:
    """Memory-map a persisted snapshot for ``digest``, or None on a miss."""
    if not artifact_cache.enabled():
        return None
    path = snapshot_path(digest)
    loaded = snapshot.load_arrays(path, expect_digest=digest)
    if loaded is None:
        return None
    world = _world_from_arrays(digest, loaded["seed"], loaded["arrays"])
    if world is None:
        _log.warning("world snapshot %s misses arrays; rebuilding", path)
        return None
    _SNAPSHOT_LOADS.inc()
    artifact_cache.touch(path)
    return world


def compile_world(internet: Internet) -> CompiledWorld:
    """Compile (or fetch the memoized) snapshot for one world.

    Resolution order: the arrays the generator's recorder already
    emitted, else a persisted memory-mapped snapshot, else the
    object-graph derivation. Whichever path built it, the world is
    persisted so the next cold process loads it in milliseconds.
    """
    digest = world_digest(internet)
    cached = _COMPILE_CACHE.get(digest)
    if cached is not None:
        _CACHE_HITS.inc()
        _attach_router_meta(cached, internet)
        return cached
    world: CompiledWorld | None = None
    if internet.tables is not None:
        world = _world_from_arrays(digest, internet.seed, internet.tables)
        if world is not None:
            _TABLE_WRAPS.inc()
    if world is None:
        world = load_snapshot_world(digest)
    if world is None:
        world = _compile(internet, digest)
    _attach_router_meta(world, internet)
    persist_snapshot(world)
    _COMPILE_CACHE[digest] = world
    return world


def _attach_router_meta(world: CompiledWorld, internet: Internet) -> None:
    """Give a world built from tables or a snapshot its router meta."""
    if world.router_asn is None:
        world.router_asn, world.router_city, world.router_role = internet.router_columns()


def compile_from_object_graph(internet: Internet) -> CompiledWorld:
    """Derive the tables by walking the object graph.

    Not memoized and never persisted: this is the reference
    implementation the ``compiled.world_agreement`` contract and the
    golden-digest tests compare the recorder's tables against.
    """
    return _compile(internet, world_digest(internet))


def compiled_world_for(config) -> CompiledWorld:
    """Resolve a generator config straight to a compiled world.

    The fast path never touches the generator: a tiny persisted index
    maps the config to its world digest, and the digest's snapshot is
    memory-mapped in milliseconds. Only on a miss (first run, evicted
    snapshot, stale format) is the world generated — and then persisted
    so the next cold process takes the fast path.
    """
    index_key = None
    if artifact_cache.enabled():
        index_key = artifact_cache.artifact_key(DIGEST_INDEX_KIND, config)
        digest = artifact_cache.load(DIGEST_INDEX_KIND, index_key)
        if isinstance(digest, str):
            cached = _COMPILE_CACHE.get(digest)
            if cached is not None:
                _CACHE_HITS.inc()
                return cached
            world = load_snapshot_world(digest)
            if world is not None:
                _COMPILE_CACHE[digest] = world
                return world
    from repro.topology.generator import generate_internet

    world = compile_world(generate_internet(config))
    if index_key is not None:
        artifact_cache.store(DIGEST_INDEX_KIND, index_key, world.digest)
    return world


def clear_compile_cache() -> None:
    """Drop memoized snapshots (tests use this to control memory)."""
    _COMPILE_CACHE.clear()


def _compile(internet: Internet, digest: str) -> CompiledWorld:
    _BUILDS.inc()
    fabric = internet.fabric
    graph = internet.graph

    lpm_starts, lpm_ends, lpm_origins = _flatten_prefixes(
        internet.prefix_table.prefixes()
    )
    ixp_starts, ixp_ends, _ = _flatten_prefixes(internet.ixps.prefixes())

    asns = graph.asns()
    indptr = [0]
    neighbor_list: list[int] = []
    rel_list: list[int] = []
    for asn in asns:
        row = graph.neighbors(asn)
        for neighbor in sorted(row):
            neighbor_list.append(neighbor)
            rel_list.append(_CODE_OF_REL[row[neighbor]])
        indptr.append(len(neighbor_list))

    interfaces = fabric.interfaces()  # already in address order
    iface_ips = np.asarray([i.ip for i in interfaces], dtype=np.int64)
    iface_router = np.asarray([i.router_id for i in interfaces], dtype=np.int64)
    iface_owner = np.asarray(
        [fabric.router(i.router_id).asn for i in interfaces], dtype=np.int64
    )

    # Routers with zero interfaces still get an (empty) CSR row so lookups
    # distinguish "no interfaces" from "unknown router".
    router_ids = sorted(
        {router.router_id for asn in asns for router in fabric.routers_of_as(asn)}
    )
    router_indptr = [0]
    router_iface_ips: list[int] = []
    for router_id in router_ids:
        router_iface_ips.extend(i.ip for i in fabric.interfaces_of(router_id))
        router_indptr.append(len(router_iface_ips))
    routers = [fabric.router(router_id) for router_id in router_ids]

    links = fabric.interconnects()  # sorted by link id
    link_ids = np.asarray([l.link_id for l in links], dtype=np.int64)
    link_cols = np.asarray(
        [
            (
                l.a_asn, l.b_asn, l.a_router_id, l.b_router_id,
                l.a_ip, l.b_ip, l.numbered_from_asn, l.group_id,
            )
            for l in links
        ],
        dtype=np.int64,
    ).reshape(len(links), 8)
    link_city = np.asarray([l.city_code for l in links], dtype=CITY_DTYPE)
    link_kind = np.asarray([CODE_OF_KIND[l.kind] for l in links], dtype=np.int8)

    world = CompiledWorld(
        digest=digest,
        seed=internet.seed,
        lpm_starts=lpm_starts,
        lpm_ends=lpm_ends,
        lpm_origins=lpm_origins,
        ixp_starts=ixp_starts,
        ixp_ends=ixp_ends,
        adj_asns=np.asarray(asns, dtype=np.int64),
        adj_indptr=np.asarray(indptr, dtype=np.int64),
        adj_neighbors=np.asarray(neighbor_list, dtype=np.int64),
        adj_rel=np.asarray(rel_list, dtype=np.int8),
        iface_ips=iface_ips,
        iface_router=iface_router,
        iface_owner_asn=iface_owner,
        router_ids=np.asarray(router_ids, dtype=np.int64),
        router_indptr=np.asarray(router_indptr, dtype=np.int64),
        router_iface_ips=np.asarray(router_iface_ips, dtype=np.int64),
        link_ids=link_ids,
        link_cols=link_cols,
        link_city=link_city,
        link_kind=link_kind,
        router_asn=np.asarray([r.asn for r in routers], dtype=np.int64),
        router_city=np.asarray([r.city_code for r in routers], dtype=CITY_DTYPE),
        router_role=np.asarray(
            [CODE_OF_ROUTER_ROLE[r.role] for r in routers], dtype=np.int8
        ),
    )
    _log.info(
        "compiled world %s: %d LPM intervals, %d AS rows, %d interfaces, %d links",
        digest.split("|", 1)[0], len(lpm_starts), len(asns), len(iface_ips), len(links),
    )
    return world
