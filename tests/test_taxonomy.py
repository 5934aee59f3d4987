"""Taxonomy parsing, validation and query behavior."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import oracles
from conftest import (
    cyclic_taxonomy_sources, starter_taxonomy, tangled_taxonomy_sources, taxonomy_sources,
)
from interestprof.errors import CycleError, TaxonomyError, UnknownTopicError
from interestprof.ontometrics import structural_metrics
from interestprof.taxonomy import (
    N_TOPICS,
    TOPICS,
    LabelIndex,
    normalize_term,
    parse_taxonomy,
    resolve_compound,
    topic_index,
    topic_of_instance,
)

MINIMAL = """\
root Interest
concept Drink parent Interest topic
instance espresso concept Drink
"""


def test_minimal_file():
    tax = parse_taxonomy(MINIMAL)
    assert len(tax.parent) == 2
    assert tax.root == "Interest"
    assert tax.topics == frozenset({"Drink"})
    assert tax.instances == {"espresso": "Drink"}


def test_comments_and_blank_lines_ignored():
    tax = parse_taxonomy("# header\n\nroot R  # trailing\n\nconcept A parent R topic\n")
    assert tuple(tax.parent) == ("R", "A")


def test_cycle_error_names_the_cycle():
    with pytest.raises(CycleError) as err:
        parse_taxonomy("root R\nconcept A parent B\nconcept B parent A\n")
    msg = str(err.value)
    assert "A" in msg and "B" in msg and "cycle" in msg


def test_duplicate_instance_rejected():
    with pytest.raises(TaxonomyError, match="duplicate instance"):
        parse_taxonomy(MINIMAL + "instance espresso concept Drink\n")


def test_duplicate_instance_after_normalization():
    src = MINIMAL + "instance ESPRESSO concept Drink\n"
    with pytest.raises(TaxonomyError, match="duplicate instance"):
        parse_taxonomy(src)


def test_duplicate_concept_rejected():
    src = "root R\nconcept A parent R\nconcept A parent R\n"
    with pytest.raises(TaxonomyError, match="duplicate concept 'A'"):
        parse_taxonomy(src)


def test_missing_root():
    with pytest.raises(TaxonomyError, match="missing root"):
        parse_taxonomy("concept A parent R\n")


def test_duplicate_root():
    with pytest.raises(TaxonomyError, match="duplicate root"):
        parse_taxonomy("root R\nroot S\n")


def test_unknown_parent_reported_with_line():
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy("root R\nconcept A parent Nowhere\n")
    assert "Nowhere" in str(err.value)
    assert err.value.line == 2


def test_unknown_instance_concept():
    with pytest.raises(TaxonomyError, match="unknown concept"):
        parse_taxonomy("root R\ninstance foo concept Missing\n")


def test_syntax_error_carries_line_and_column():
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy("root R\nconcept A parent\n")
    assert err.value.line == 2
    assert err.value.column is not None


@pytest.mark.parametrize("source, line, column", [
    ("root oo\nroot oo\n", 2, 6),
    ("root R\nconcept nce parent R\nconcept nce parent R\n", 3, 9),
    ("root R\nconcept C parent R topic\ninstance nst concept C\ninstance nst concept C\n",
     4, 10),
])
def test_duplicate_name_column_is_the_names_own_token(source, line, column):
    """The column is where the name's token starts, even when the name is a
    substring of the keyword before it."""
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy(source)
    assert (err.value.line, err.value.column) == (line, column)


def test_unknown_statement_keyword():
    with pytest.raises(TaxonomyError, match="unknown statement"):
        parse_taxonomy("root R\nfrobnicate A\n")


def test_root_redeclared_as_concept():
    with pytest.raises(TaxonomyError, match="also declared"):
        parse_taxonomy("root R\nconcept R parent R\n")


def test_forward_parent_reference_is_fine():
    tax = parse_taxonomy("root R\nconcept A parent B\nconcept B parent R topic\n")
    assert tax.parent["A"] == "B"


def test_relation_and_attribute_statements():
    src = MINIMAL + "concept Food parent Interest topic\n" \
        + "relation pairs_with Drink Food\nattribute Drink serving_size int\n"
    tax = parse_taxonomy(src)
    assert tax.relations == (("pairs_with", "Drink", "Food"),)
    assert tax.attributes == {"Drink": (("serving_size", "int"),)}


def test_topic_of_instance_basics():
    tax = starter_taxonomy()
    assert topic_of_instance(tax, "espresso") == "Drink"
    assert topic_of_instance(tax, "sandal") == "Fashion"
    assert topic_of_instance(tax, "dough") == "Food"
    assert topic_of_instance(tax, "zzz_unknown") is None


def test_topic_of_instance_case_and_separator_insensitive():
    tax = starter_taxonomy()
    for variant in ("Espresso", "ESPRESSO", " espresso "):
        assert topic_of_instance(tax, variant) == "Drink"
    assert topic_of_instance(tax, "Coffee Mug") == "Drink"
    assert topic_of_instance(tax, "coffee_mug") == "Drink"


def test_nearest_topic_ancestor_wins():
    src = """\
root R
concept Drink parent R topic
concept Coffee parent Drink
concept Specialty parent Coffee topic
instance espresso concept Coffee
instance latte concept Specialty
instance water concept Drink
"""
    tax = parse_taxonomy(src)
    assert topic_of_instance(tax, "espresso") == "Drink"
    assert topic_of_instance(tax, "latte") == "Specialty"
    assert topic_of_instance(tax, "water") == "Drink"


def test_instance_with_no_topic_ancestor():
    tax = parse_taxonomy("root R\nconcept Plain parent R\ninstance thing concept Plain\n")
    assert topic_of_instance(tax, "thing") is None


def test_label_index_maps_an_instance_with_no_topic_to_unmapped():
    index = LabelIndex(parse_taxonomy(
        "root R\nconcept Plain parent R\nconcept Drink parent R topic\n"
        "instance thing concept Plain\ninstance espresso concept Drink\n"
    ))
    assert index.position("thing") == N_TOPICS
    assert index.position("Espresso") == TOPICS.index("Drink")
    assert index.position("unlisted") == N_TOPICS


def test_uncovered_topic_warns():
    tax = parse_taxonomy("root R\nconcept Lonely parent R topic\n")
    assert any("Lonely" in w for w in tax.warnings)


def test_starter_has_no_warnings():
    assert starter_taxonomy().warnings == ()


def test_every_starter_instance_maps_to_exactly_one_topic():
    tax = starter_taxonomy()
    for term in tax.instances:
        first = topic_of_instance(tax, term)
        assert first in TOPICS
        assert topic_of_instance(tax, term) == first  # deterministic


def test_topic_index_contract():
    assert topic_index("Activities") == 0
    assert topic_index("Wellness") == 23
    assert len(TOPICS) == 24
    assert [topic_index(name) for name in TOPICS] == list(range(24))
    with pytest.raises(UnknownTopicError):
        topic_index("NotATopic")


def test_compound_alias_table():
    assert resolve_compound("Food and Drink") == ("Food", "Drink")
    assert resolve_compound("SandO") == ("Sport", "Outdoors")
    assert resolve_compound("food  and drink") == ("Food", "Drink")
    assert resolve_compound("Travel") is None


def test_normalize_term():
    assert normalize_term(" Coffee_Mug ") == "coffee mug"
    assert normalize_term("a__b  c") == "a b c"


@given(cyclic_taxonomy_sources())
def test_cycle_detection_rejects_back_edges(src):
    with pytest.raises(CycleError):
        parse_taxonomy(src)


def _read_generated(src):
    """(parent map in declaration order, topics, term -> owner) of a generated source."""
    parent, topics, instances = {}, set(), {}
    for tok in map(str.split, src.splitlines()):
        if tok[0] == "root":
            parent[tok[1]] = None
        elif tok[0] == "concept":
            parent[tok[1]] = tok[3]
            if len(tok) == 5:
                topics.add(tok[1])
        else:
            instances[tok[1]] = tok[3]
    return parent, topics, instances


@given(st.one_of(taxonomy_sources(), tangled_taxonomy_sources()))
def test_parse_walk_matches_brute_force(src):
    parent, topics, instances = _read_generated(src)
    cycle = oracles.bf_first_cycle(parent)
    if cycle is not None:
        with pytest.raises(CycleError) as err:
            parse_taxonomy(src)
        assert str(err.value) == "is-a cycle: " + " -> ".join(cycle)
        return
    tax = parse_taxonomy(src)
    assert tax.warnings == tuple(
        f"topic '{name}' is not on the ancestry path of any instance"
        for name in oracles.bf_uncovered_topics(parent, topics, instances)
    )
    nearest = oracles.bf_nearest_topics(parent, topics, instances)
    assert {term: topic_of_instance(tax, term) for term in instances} == nearest
    metrics = structural_metrics(tax)
    assert metrics.max_spl == oracles.bf_max_spl(parent)
    assert metrics.tnrnr == len(oracles.bf_reachable(parent)) == len(parent)
