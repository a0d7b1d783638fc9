"""Inference tools reimplemented from the literature.

* :mod:`mapit` — MAP-IT (Marder & Smith, IMC 2016): multipass passive
  inference of interdomain interfaces from an already-collected traceroute
  corpus, using prefix→AS data, sibling organizations, AS relationships,
  and IXP prefixes. This is what the paper runs over the M-Lab Paris
  traceroutes (§4.2, §4.3).
* :mod:`bdrmap` — bdrmap (Luckie et al., IMC 2016): vantage-point-based
  enumeration of *all* interdomain interconnections of the VP's network,
  with alias resolution and relationship annotation (§5.1, Table 3).
* :mod:`alias` — simulated alias resolution (the Ark-side MIDAR/iffinder
  step bdrmap depends on).
* :mod:`borders` — shared utilities: org-collapsed origin lookup and IXP
  address screening.
* :mod:`corpus` — a traceroute corpus as deduplicated hop columns, the
  input MAP-IT's passes and bdrmap's border walk run over.

These are measurement-analysis algorithms: they only consume public
artifacts (traceroutes, prefix tables, relationship and IXP lists), never
the generator's ground truth. The validation experiments check their
output *against* ground truth.
"""

from repro.inference.alias import AliasResolver, AliasResolution
from repro.inference.bdrmap import BdrmapResult, BorderLink, run_bdrmap
from repro.inference.borders import OriginOracle
from repro.inference.mapit import InferredLink, MapIt, MapItConfig, MapItResult

__all__ = [
    "AliasResolution",
    "AliasResolver",
    "BdrmapResult",
    "BorderLink",
    "InferredLink",
    "MapIt",
    "MapItConfig",
    "MapItResult",
    "OriginOracle",
    "run_bdrmap",
]
