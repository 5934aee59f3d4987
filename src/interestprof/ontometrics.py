"""Size, structural-cohesion and semiotic quality metrics over a Taxonomy."""

from __future__ import annotations

from typing import NamedTuple

from .taxonomy import Taxonomy


class SizeMetrics(NamedTuple):
    size_c: int  # concepts (root included)
    size_i: int  # instance statements
    size_a: int  # (attribute-name, value-type) pairs
    size_r: int  # relation statements
    size_total: int


class StructuralMetrics(NamedTuple):
    n_rn: int          # root nodes (no parent)
    n_ln: int          # leaf nodes (no concept children)
    max_spl: int       # longest root-to-leaf simple path, in edges
    n_ic: int          # isolated concepts: no parent, children or instances, root excluded
    tnrnr: int         # concepts reachable from the roots (roots included)
    anrnr: str         # tnrnr / n_rn, the exact ratio as text: n_rn is 1, so str(tnrnr)


class SemioticReport(NamedTuple):
    # A parsed taxonomy always passes lawfulness, interpretability and consistency.
    lawfulness: bool        # file parsed
    richness: int           # distinct statement kinds used (1..5)
    interpretability: bool  # names nonempty and unique
    consistency: bool       # acyclic is-a, single-owner instances
    clarity: bool           # no two concepts differ only by case; may fail
    comprehensiveness: int  # equals SizeMetrics.size_total
    accuracy: bool          # operator attestation, never computed


def size_metrics(tax: Taxonomy) -> SizeMetrics:
    size_c = len(tax.parent)
    size_i = len(tax.instances)
    size_a = sum(len(pairs) for pairs in tax.attributes.values())
    size_r = len(tax.relations)
    return SizeMetrics(size_c, size_i, size_a, size_r, size_c + size_i + size_a + size_r)


def structural_metrics(tax: Taxonomy) -> StructuralMetrics:
    """Structural cohesion of a parsed taxonomy, read as the tree it is.

    ``parse_taxonomy`` accepts exactly one ``root`` statement, rejects a
    concept whose parent is undeclared and rejects any is-a cycle, so every
    concept lies on a parent chain that ends at the root. Hence there is one
    root node (n_rn 1), no isolated concept (n_ic 0), every concept is
    reachable from the root (tnrnr, anrnr), and the longest root-to-leaf path
    is the largest of the depths the parse recorded (max_spl). A leaf is a
    concept that is nobody's parent.
    """
    parents = set(tax.parent.values())
    n_ln = sum(1 for c in tax.parent if c not in parents)
    n = len(tax.parent)
    return StructuralMetrics(n_rn=1, n_ln=n_ln, max_spl=max(tax.depth.values()), n_ic=0,
                             tnrnr=n, anrnr=str(n))


def semiotic_report(tax: Taxonomy, accuracy_attested: bool = False) -> SemioticReport:
    """Syntactic / semantic / pragmatic quality summary of a parsed taxonomy.

    Truthfulness of the modeled content cannot be computed mechanically, so
    ``accuracy`` is whatever the operator attested in the configuration.
    """
    richness = 1  # a validated taxonomy always has a root statement
    if len(tax.parent) > 1:
        richness += 1
    if tax.instances:
        richness += 1
    if tax.relations:
        richness += 1
    if tax.attributes:
        richness += 1

    return SemioticReport(
        lawfulness=True,
        richness=richness,
        # parse_taxonomy takes names as whitespace-split tokens, rejects an
        # instance term empty after normalization, a duplicate concept or
        # instance and any is-a cycle, and gives each instance one owner.
        interpretability=True,
        consistency=True,
        clarity=len({c.casefold() for c in tax.parent}) == len(tax.parent),
        comprehensiveness=size_metrics(tax).size_total,
        accuracy=accuracy_attested,
    )
