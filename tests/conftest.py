"""Shared fixtures, strategies and cached data for the test suite."""

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from interestprof.ingest import (
    PredictionRecord,
    ProfileDataset,
    load_score_cells,
    serialize_predictions,
)
from interestprof.profiling import TopicDistribution, UserProfile, profile_prefixes
from interestprof.scoring import ScoreBlock
from interestprof.taxonomy import N_TOPICS, TOPICS, LabelIndex, Taxonomy, load_taxonomy

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
STARTER_PATH = DATA_DIR / "uio-starter.taxonomy"
WORKED_EXAMPLE_PATH = DATA_DIR / "worked-example.jsonl"
COUNTS_PATH = DATA_DIR / "uio-starter.counts.json"

settings.register_profile("default", deadline=None)
settings.load_profile("default")

_STARTER: Taxonomy | None = None


def starter_taxonomy() -> Taxonomy:
    """Cached parse of the shipped starter taxonomy (usable inside @given)."""
    global _STARTER
    if _STARTER is None:
        _STARTER = load_taxonomy(STARTER_PATH)
    return _STARTER


@pytest.fixture(scope="session")
def starter_tax() -> Taxonomy:
    return starter_taxonomy()


# Vocabulary pools for generated records: mapped terms from several topics,
# plus terms the starter taxonomy does not know.
KNOWN_TERMS = (
    "espresso", "cup", "ladle", "coffee_mug", "dough", "pizza", "banana",
    "sandal", "gown", "kimono", "alp", "volcano", "tent", "castle", "palace",
    "laptop", "mouse", "suitcase", "soccer_ball", "racket", "newspaper",
    "balloon", "cradle", "groom", "hammock", "bouquet", "syringe", "kite",
)
UNKNOWN_TERMS = ("zzz_unknown", "not_a_label", "mystery_object")


def make_record(user_id: str, image_id: str, pairs) -> PredictionRecord:
    ordered = tuple(sorted(pairs, key=lambda lp: -lp[1]))
    return PredictionRecord(user_id=user_id, image_id=image_id, predictions=ordered)


@pytest.fixture
def worked_example_record() -> PredictionRecord:
    return make_record(
        "u1",
        "img1",
        [
            ("espresso", 0.08),
            ("cup", 0.07),
            ("dough", 0.06),
            ("ladle", 0.05),
            ("sandal", 0.04),
        ],
    )


def profile_from_scores(user_id: str, scores, unmapped: float = 0.0,
                        mechanism: str = "occ") -> UserProfile:
    """Hand-built profile for analytics tests; both vectors share the scores."""
    v = TopicDistribution(scores=tuple(scores), unmapped_mass=unmapped)
    peak = max(v.scores)
    predicted = TOPICS[v.scores.index(peak)] if peak > 0 else TOPICS[0]
    return UserProfile(
        user_id=user_id,
        n_images=1,
        v_prob=v,
        v_occ=v,
        mechanism=mechanism,
        predicted_topic=predicted,
    )


def dense_rows(block: ScoreBlock) -> list[tuple[TopicDistribution, TopicDistribution]]:
    """(probability, occurrence) rows of each image; occurrence cells are counts / k."""
    rows = []
    for cells in block.rows:
        prob = [0.0] * (N_TOPICS + 1)
        occ = [0.0] * (N_TOPICS + 1)
        for pos, p, c in cells:
            prob[pos] = p
            occ[pos] = c / block.k
        rows.append(tuple(TopicDistribution(scores=tuple(v[:N_TOPICS]), unmapped_mass=v[N_TOPICS])
                          for v in (prob, occ)))
    return rows


def block_of(records, tax: Taxonomy, k: int = 5) -> ScoreBlock:
    """ScoreBlock of one user's records, written as prediction lines and read
    back the one way the program reads them; no records give an empty block."""
    if not records:
        return ScoreBlock(user_id="", image_ids=(), k=k, rows=())
    (user_id,) = {rec.user_id for rec in records}
    lines = serialize_predictions(ProfileDataset(records={user_id: list(records)}))
    return load_score_cells(lines, LabelIndex(tax), k).pop_block(user_id)


def image_rows(record: PredictionRecord, tax: Taxonomy, k: int = 5):
    """(probability, occurrence) rows of one record."""
    return dense_rows(block_of([record], tax, k))[0]


def block_from_rows(rows) -> ScoreBlock:
    """ScoreBlock (k = N_TOPICS) of user "u" from dense (scores, unmapped) rows.

    Each nonzero value v is a cell's probability and round(5 * v) its count,
    so on multiples of 0.2 the counts tie and order like the values.
    """
    return ScoreBlock(
        user_id="u",
        image_ids=tuple(f"i{n}" for n in range(len(rows))),
        k=N_TOPICS,
        rows=tuple(
            tuple((pos, v, round(5 * v)) for pos, v in enumerate((*scores, unmapped)) if v)
            for scores, unmapped in rows
        ),
    )


def profile_of(records, tax: Taxonomy, k: int = 5, mechanism: str = "occ") -> UserProfile:
    """Profile of one user over all of their records."""
    return profile_prefixes(block_of(records, tax, k), (len(records),), mechanism)[0]


def sweep_of(dataset, tax: Taxonomy, k: int, sweep, mechanism: str = "occ"):
    """Profiles per sweep value over each user's first n records, dataset order."""
    per_user = [profile_prefixes(block_of(dataset.records[u], tax, k), sweep, mechanism)
                for u in dataset.users()]
    return {n: [row[j] for row in per_user] for j, n in enumerate(sweep)}


def vector(**topic_scores) -> tuple[float, ...]:
    """Length-24 score tuple from topic=value keyword arguments."""
    scores = [0.0] * N_TOPICS
    for name, value in topic_scores.items():
        scores[TOPICS.index(name)] = value
    return tuple(scores)


@st.composite
def taxonomy_sources(draw, max_concepts: int = 10, max_instances: int = 8) -> str:
    """Source text of a random valid taxonomy (tree rooted at R).

    Concept lines come in any order, so a child may precede its parent.
    """
    n = draw(st.integers(min_value=1, max_value=max_concepts))
    names = [f"C{i}" for i in range(n)]
    concepts = []
    for i, name in enumerate(names):
        parent = "R" if i == 0 else draw(st.sampled_from(["R"] + names[:i]))
        flag = " topic" if draw(st.booleans()) else ""
        concepts.append(f"concept {name} parent {parent}{flag}")
    lines = ["root R"] + draw(st.permutations(concepts))
    n_inst = draw(st.integers(min_value=0, max_value=max_instances))
    for j in range(n_inst):
        owner = draw(st.sampled_from(["R"] + names))
        lines.append(f"instance term_{j} concept {owner}")
    return "\n".join(lines) + "\n"


@st.composite
def cyclic_taxonomy_sources(draw) -> str:
    """Random tree with one re-parented edge that closes an is-a cycle."""
    n = draw(st.integers(min_value=2, max_value=10))
    names = [f"C{i}" for i in range(n)]
    parents = {}
    for i, name in enumerate(names):
        parents[name] = "R" if i == 0 else draw(st.sampled_from(names[:i]))
    x = draw(st.sampled_from(names))
    # Re-parent x's topmost non-root ancestor onto x. When x is already
    # topmost this degenerates to a self-loop, still a cycle.
    top = x
    while parents[top] != "R":
        top = parents[top]
    parents[top] = x
    lines = ["root R"] + [f"concept {c} parent {p}" for c, p in parents.items()]
    return "\n".join(lines) + "\n"


@st.composite
def tangled_taxonomy_sources(draw, max_concepts: int = 10, max_instances: int = 8) -> str:
    """Source text where each concept's parent is any name, declared before or
    after it or itself, so one file may hold several is-a cycles, and topic
    flags and instance owners fall anywhere."""
    n = draw(st.integers(min_value=1, max_value=max_concepts))
    names = [f"C{i}" for i in range(n)]
    concepts = []
    for name in names:
        parent = draw(st.sampled_from(["R"] + names))
        flag = " topic" if draw(st.booleans()) else ""
        concepts.append(f"concept {name} parent {parent}{flag}")
    lines = ["root R"] + draw(st.permutations(concepts))
    for j in range(draw(st.integers(min_value=0, max_value=max_instances))):
        lines.append(f"instance term_{j} concept {draw(st.sampled_from(['R'] + names))}")
    return "\n".join(lines) + "\n"


@st.composite
def prediction_pairs(draw, max_len: int = 5):
    """(label, prob) lists mixing mapped and unmapped vocabulary."""
    terms = st.sampled_from(KNOWN_TERMS + UNKNOWN_TERMS)
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    return draw(st.lists(st.tuples(terms, prob), min_size=1, max_size=max_len))
