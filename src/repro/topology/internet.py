"""The assembled synthetic Internet: one object bundling all ground truth.

:class:`Internet` is what the generator returns and what every downstream
layer (routing, measurement platforms, inference validation) consumes. It
deliberately keeps *two* views of address ownership:

* :attr:`prefix_table` — the public, BGP-derived view (longest-prefix
  match), which is what inference algorithms are allowed to use, and which
  is wrong for border interfaces numbered from the neighbour's space;
* :meth:`true_owner_asn` — ground truth from the router fabric, reserved
  for validation and never passed to inference code.

The object graph is a *facade*: generation is array-native
(:mod:`repro.topology.tables`), and :attr:`graph` / :attr:`fabric` /
:attr:`prefix_table` / the prefix dicts materialize lazily from the
recorded event streams on first access. Snapshot persistence,
``compile_world``, and ``world_digest`` never touch them — peak memory
for the generate→persist path scales with the numpy tables, not the
python heap. Materialized objects replay in recorded construction
order, so they are bit-identical to what the old eager build produced.
"""

from __future__ import annotations

from repro.topology.addressing import Prefix, PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.topology.dns import ReverseDNS
from repro.topology.geo import CITIES, City, city_by_code
from repro.topology.ixp import IXPRegistry
from repro.topology.routers import Interconnect, RouterFabric


class Internet:
    """All topology state for one generated Internet instance.

    Built only by the generator, from its
    :class:`~repro.topology.tables.WorldTableRecorder` (``meta``) and the
    arrays it finalized (``tables``); object views materialize lazily.
    """

    def __init__(
        self,
        seed: int,
        *,
        orgs: "OrgMap",
        ixps: IXPRegistry,
        rdns: ReverseDNS,
        meta,
        tables: dict,
        generation_stats: dict | None = None,
    ) -> None:
        self.seed = seed
        self.orgs = orgs
        self.ixps = ixps
        self.rdns = rdns
        #: Compiled arrays emitted by the generator's recorder, which
        #: :func:`repro.net.compiled.compile_world` wraps directly (a world
        #: without them compiles from its snapshot or the object graph).
        self.tables: dict | None = tables
        #: Per-phase wall/CPU and peak-RSS of the generation run that
        #: built this world.
        self.generation_stats = generation_stats or {}
        self._meta = meta
        self._graph: ASGraph | None = None
        self._fabric: RouterFabric | None = None
        self._prefix_table: PrefixTable | None = None
        self._client_prefixes: dict[int, list[Prefix]] | None = None
        self._infra_prefixes: dict[int, list[Prefix]] | None = None

    def __repr__(self) -> str:  # keep logs small; the tables aren't repr-able
        return f"Internet(seed={self.seed}, ases={self.summary()['ases']})"

    # ------------------------------------------------------------------
    # lazy object-graph facade

    @property
    def graph(self) -> ASGraph:
        if self._graph is None:
            self._graph = self._meta.materialize_graph()
        return self._graph

    @property
    def fabric(self) -> RouterFabric:
        if self._fabric is None:
            self._fabric = self._meta.materialize_fabric()
        return self._fabric

    @property
    def prefix_table(self) -> PrefixTable:
        if self._prefix_table is None:
            self._materialize_addressing()
        return self._prefix_table

    #: Prefixes where an AS's end hosts (clients, servers) live.
    @property
    def client_prefixes(self) -> dict[int, list[Prefix]]:
        if self._client_prefixes is None:
            self._materialize_addressing()
        return self._client_prefixes

    #: Prefixes used for router interfaces and border numbering.
    @property
    def infra_prefixes(self) -> dict[int, list[Prefix]]:
        if self._infra_prefixes is None:
            self._materialize_addressing()
        return self._infra_prefixes

    def _materialize_addressing(self) -> None:
        table, client, infra = self._meta.materialize_addressing()
        if self._prefix_table is None:
            self._prefix_table = table
        if self._client_prefixes is None:
            self._client_prefixes = client
        if self._infra_prefixes is None:
            self._infra_prefixes = infra

    def materialized(self) -> bool:
        """Whether every object view has been built (memory tells)."""
        return None not in (
            self._graph, self._fabric, self._prefix_table,
            self._client_prefixes, self._infra_prefixes,
        )

    def router_columns(self):
        """(ASN, metro code, role code) arrays per router, straight from
        the recorder; see
        :meth:`~repro.topology.tables.WorldTableRecorder.router_columns`."""
        return self._meta.router_columns()

    def materialize(self) -> "Internet":
        """Force-build every object view (the eager pre-PR-8 shape)."""
        self.graph
        self.fabric
        self.prefix_table
        return self

    # ------------------------------------------------------------------
    # convenience lookups

    def city(self, code: str) -> City:
        return city_by_code(code)

    def cities(self) -> tuple[City, ...]:
        return CITIES

    def as_named(self, name: str) -> AS:
        """Find an AS by exact name (names are unique in generated Internets)."""
        for autonomous_system in self.graph:
            if autonomous_system.name == name:
                return autonomous_system
        raise KeyError(f"no AS named {name!r}")

    def access_asns(self) -> list[int]:
        return sorted(a.asn for a in self.graph.ases_by_role(ASRole.ACCESS))

    def true_owner_asn(self, ip: int) -> int | None:
        """Ground-truth AS owning the device behind ``ip``.

        Router interfaces resolve via the fabric (correct even for border
        interfaces numbered from the neighbour's space); end-host addresses
        resolve via client prefixes.
        """
        owner = self.fabric.owner_asn_of_ip(ip)
        if owner is not None:
            return owner
        match = self.prefix_table.lookup(ip)
        if match is None:
            return None
        # Client space is always numbered from its own AS, so LPM is truth
        # there; infra space may number borders for the neighbour, but those
        # IPs were caught by the fabric lookup above.
        return match.asn

    def routed_prefixes(self) -> list[Prefix]:
        """Every prefix announced into BGP (client + infra), as bdrmap targets."""
        return self.prefix_table.prefixes()

    def interconnects_of_org(self, asn: int) -> list[Interconnect]:
        """All interdomain links whose endpoint belongs to ``asn``'s org."""
        siblings = self.orgs.siblings(asn)
        seen: set[int] = set()
        result: list[Interconnect] = []
        for sibling in sorted(siblings):
            for link in self.fabric.links_of_as(sibling):
                if link.link_id not in seen:
                    seen.add(link.link_id)
                    result.append(link)
        return result

    def relationship_of_link(self, link: Interconnect, from_asn: int) -> Relationship | None:
        """Business relationship of the far end of ``link`` as seen from ``from_asn``."""
        return self.graph.relationship(from_asn, link.other_asn(from_asn))

    def summary(self) -> dict[str, int]:
        """Headline sizes, useful in logs and docs.

        Computed from the recorder, so taking a world digest never forces
        the object facade to materialize. The object-graph counts are
        identical by construction (and the ``compiled.world_agreement``
        contract keeps them honest).
        """
        base = self._meta.counts()
        base["ixps"] = len(self.ixps)
        base["orgs"] = len(self.orgs)
        return base


# Imported late to avoid a cycle in type checking tools that resolve
# annotations eagerly; OrgMap is only referenced by name above.
from repro.topology.orgs import OrgMap  # noqa: E402  (intentional tail import)
