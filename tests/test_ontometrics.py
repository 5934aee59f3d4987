"""Ontology size, structural and semiotic metric checks against brute force."""

import random
from fractions import Fraction

from hypothesis import given

import oracles
from conftest import taxonomy_sources
from interestprof.ontometrics import (
    StructuralMetrics,
    semiotic_report,
    size_metrics,
    structural_metrics,
)
from interestprof.taxonomy import parse_taxonomy

CHAIN = """\
root R
concept A parent R topic
concept B parent A
instance x concept B
instance y concept B
"""


def test_root_only_taxonomy():
    tax = parse_taxonomy("root R\n")
    size = size_metrics(tax)
    assert (size.size_c, size.size_i, size.size_a, size.size_r) == (1, 0, 0, 0)
    assert size.size_total == 1
    s = structural_metrics(tax)
    assert (s.n_rn, s.n_ln, s.max_spl, s.n_ic, s.tnrnr) == (1, 1, 0, 0, 1)


def test_three_node_chain():
    tax = parse_taxonomy(CHAIN)
    s = structural_metrics(tax)
    assert (s.n_rn, s.n_ln, s.max_spl, s.n_ic, s.tnrnr) == (1, 1, 2, 0, 3)
    assert Fraction(s.anrnr) == Fraction(3)
    # brute-force agreement on the same file
    assert oracles.bf_max_spl(tax.parent) == 2
    assert len(oracles.bf_reachable(tax.parent)) == 3


def test_star_shapes():
    for k in range(1, 6):
        lines = ["root R"] + [f"concept T{i} parent R topic" for i in range(k)]
        lines += [f"instance t{i} concept T{i}" for i in range(k)]
        tax = parse_taxonomy("\n".join(lines))
        s = structural_metrics(tax)
        assert s.max_spl == 1
        assert s.n_ln == k
        assert s.tnrnr == k + 1
        assert s.n_ic == 0


def test_size_counts_attributes_and_relations():
    src = CHAIN + "attribute A depth int\nattribute B depth int\nrelation near A B\n"
    size = size_metrics(parse_taxonomy(src))
    assert size.size_a == 2
    assert size.size_r == 1
    assert size.size_total == size.size_c + size.size_i + size.size_a + size.size_r


def test_size_additive_over_disjoint_merge():
    body_a = "concept A parent R topic\ninstance a1 concept A\n"
    body_b = "concept B parent R topic\ninstance b1 concept B\ninstance b2 concept B\n"
    total_a = size_metrics(parse_taxonomy("root R\n" + body_a)).size_total
    total_b = size_metrics(parse_taxonomy("root R\n" + body_b)).size_total
    merged = size_metrics(parse_taxonomy("root R\n" + body_a + body_b)).size_total
    assert merged == total_a + total_b - 1  # shared root counted once


def test_semiotic_on_validated_taxonomy():
    tax = parse_taxonomy(CHAIN)
    rep = semiotic_report(tax, accuracy_attested=True)
    assert rep.lawfulness and rep.interpretability and rep.consistency and rep.clarity
    assert rep.accuracy is True
    assert rep.richness == 3  # root, concept, instance statements
    assert rep.comprehensiveness == size_metrics(tax).size_total


def test_semiotic_accuracy_is_attestation_only():
    tax = parse_taxonomy(CHAIN)
    assert semiotic_report(tax, accuracy_attested=False).accuracy is False


def test_clarity_fails_on_case_clash():
    tax = parse_taxonomy("root R\nconcept Food parent R topic\nconcept food parent R\n")
    assert semiotic_report(tax).clarity is False
    assert semiotic_report(tax).interpretability is True


def test_richness_counts_statement_kinds():
    full = CHAIN + "attribute A depth int\nrelation near A B\n"
    assert semiotic_report(parse_taxonomy(full)).richness == 5
    assert semiotic_report(parse_taxonomy("root R\n")).richness == 1


@given(taxonomy_sources(max_concepts=11))
def test_structural_matches_brute_force(src):
    # Every field against its definition for any parent map, not just a tree.
    tax = parse_taxonomy(src)
    roots = [c for c, p in tax.parent.items() if p is None]
    with_children = set(tax.parent.values())
    leaves = [c for c in tax.parent if c not in with_children]
    owners = set(tax.instances.values())
    isolated = [c for c in leaves if c in roots and c not in owners and c != tax.root]
    reachable = len(oracles.bf_reachable(tax.parent))
    assert structural_metrics(tax) == StructuralMetrics(
        n_rn=len(roots),
        n_ln=len(leaves),
        max_spl=oracles.bf_max_spl(tax.parent),
        n_ic=len(isolated),
        tnrnr=reachable,
        anrnr=str(Fraction(reachable, len(roots))),  # the exact ratio's text
    )


def test_flat_topic_files_have_no_isolated_nodes():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 8)
        lines = ["root R"] + [f"concept T{i} parent R topic" for i in range(k)]
        for j in range(rng.randint(0, 10)):
            lines.append(f"instance i{j} concept T{rng.randrange(k)}")
        tax = parse_taxonomy("\n".join(lines))
        assert structural_metrics(tax).n_ic == 0
