"""Interest taxonomy: rooted concept hierarchy, instance vocabulary, topic queries.

File format (UTF-8 text, one statement per line, ``#`` starts a comment; a
leading BOM is ignored):

    root <name>                                   exactly once
    concept <name> parent <name> [topic]
    instance <term> concept <name>
    relation <name> <conceptA> <conceptB>
    attribute <concept> <attr-name> <value-type>

Concept names are case-sensitive tokens without whitespace. Instance terms
are matched case-insensitively, with underscores and spaces treated as equal,
because classifier vocabularies are inconsistent about both. Names quoted in
messages have their control characters escaped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    CycleError,
    TaxonomyError,
    UnknownTopicError,
    check_utf8,
    escape_control,
    open_input,
)

#: Canonical topic order. This is the vectorization contract: every score
#: vector in the pipeline is indexed by position in this tuple.
TOPICS: tuple[str, ...] = (
    "Activities",
    "Business",
    "Drink",
    "Education",
    "Entertainment",
    "Events",
    "Family",
    "Fashion",
    "Fitness",
    "Food",
    "Industry",
    "News",
    "Outdoors",
    "People",
    "Places",
    "Shopping",
    "Sport",
    "Technology",
    "Travel",
    "Culture",
    "Hobbies",
    "Lifestyle",
    "Relationship",
    "Wellness",
)

N_TOPICS = len(TOPICS)

_TOPIC_POS: dict[str, int] = {name: i for i, name in enumerate(TOPICS)}

#: Compound category names (and their questionnaire shorthand) mapped to the
#: atomic topics used everywhere else in the pipeline. Kept for diagnostics:
#: labels files must use atomic names, and errors point here.
COMPOUND_ALIASES: dict[str, tuple[str, ...]] = {
    "Sport and Outdoors": ("Sport", "Outdoors"),
    "Food and Drink": ("Food", "Drink"),
    "Shopping and Fashion": ("Shopping", "Fashion"),
    "Fitness and Wellness": ("Fitness", "Wellness"),
    "News and Entertainment": ("News", "Entertainment"),
    "Business and Industry": ("Business", "Industry"),
    "Places and Events": ("Places", "Events"),
    "Hobbies and Activities": ("Hobbies", "Activities"),
    "Family and Relationship": ("Family", "Relationship"),
    "Lifestyle and Culture": ("Lifestyle", "Culture"),
    "SandO": ("Sport", "Outdoors"),
    "FandD": ("Food", "Drink"),
    "SandF": ("Shopping", "Fashion"),
    "FandW": ("Fitness", "Wellness"),
    "NandE": ("News", "Entertainment"),
    "BandI": ("Business", "Industry"),
    "PandE": ("Places", "Events"),
    "HandA": ("Hobbies", "Activities"),
    "FandR": ("Family", "Relationship"),
    "LandC": ("Lifestyle", "Culture"),
}

_ALIAS_FOLDED = {" ".join(k.split()).casefold(): v for k, v in COMPOUND_ALIASES.items()}


def topic_index(topic: str) -> int:
    """Position of a canonical topic name in the fixed topic order."""
    try:
        return _TOPIC_POS[topic]
    except KeyError:
        raise UnknownTopicError(f"unknown topic '{escape_control(topic)}'") from None


def topic_at(index: int) -> str:
    """Inverse of topic_index."""
    if not 0 <= index < N_TOPICS:
        raise UnknownTopicError(f"topic index {index} out of range [0, {N_TOPICS})")
    return TOPICS[index]


def resolve_compound(name: str) -> tuple[str, ...] | None:
    """Atomic topics behind a compound category name, or None if not a known alias."""
    return _ALIAS_FOLDED.get(" ".join(name.split()).casefold())


def normalize_term(term: str) -> str:
    """Canonical form of an instance term: casefolded, '_' and whitespace runs
    collapsed to single spaces."""
    return " ".join(term.replace("_", " ").casefold().split())


@dataclass(frozen=True, eq=True)
class Taxonomy:
    """Validated, immutable concept hierarchy.

    ``parent`` maps every concept to its is-a parent; the root maps to None.
    Insertion order is declaration order (root first), which serialization
    preserves. All query helpers are pure reads; ``label_index`` is built on
    first use and afterwards only memoizes lookups.
    """

    root: str
    parent: dict[str, str | None]
    topics: frozenset[str]
    instances: dict[str, str]  # normalized term -> owning concept
    attributes: dict[str, tuple[tuple[str, str], ...]]
    relations: tuple[tuple[str, str, str], ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def concepts(self) -> tuple[str, ...]:
        return tuple(self.parent)

    def children_map(self) -> dict[str, list[str]]:
        kids: dict[str, list[str]] = {}
        for c, p in self.parent.items():
            if p is not None:
                kids.setdefault(p, []).append(c)
        return kids

    def ancestry(self, concept: str) -> Iterator[str]:
        """Concept itself first, then each is-a parent up to the root."""
        node: str | None = concept
        while node is not None:
            yield node
            node = self.parent[node]

    @cached_property
    def label_index(self) -> LabelIndex:
        """Compiled label lookup for scoring, built on first use.

        Raises UnknownTopicError when an instance's nearest topic is not one
        of the canonical topics.
        """
        return LabelIndex(self)


class LabelIndex:
    """Classifier label -> canonical topic position, compiled from a taxonomy.

    Every instance term is resolved to the position of its nearest topic once,
    when the index is built. Each raw label is normalized on its first lookup
    and remembered, so repeated labels cost one dict probe. Labels with no
    topic map to N_TOPICS, the unmapped position. The prediction loader keeps
    its own per-load memo in front of ``position``, so a load calls it once
    per distinct label.
    """

    def __init__(self, tax: Taxonomy):
        by_term: dict[str, int] = {}
        for term in tax.instances:
            topic = topic_of_instance(tax, term)
            if topic is None:
                continue
            if topic not in _TOPIC_POS:
                raise UnknownTopicError(
                    f"topic concept '{escape_control(topic)}' (nearest topic of instance "
                    f"'{escape_control(term)}') is not one of the {N_TOPICS} canonical topics"
                )
            by_term[term] = _TOPIC_POS[topic]
        self._by_term = by_term
        self._by_label: dict[str, int] = {}

    def position(self, label: str) -> int:
        """Topic position of a label, N_TOPICS when it maps to no topic."""
        pos = self._by_label.get(label)
        if pos is None:
            pos = self._by_label[label] = self._by_term.get(normalize_term(label), N_TOPICS)
        return pos


def find_cycle(parent: dict[str, str | None]) -> list[str] | None:
    """First is-a cycle found in a parent map, as [a, b, ..., a], else None."""
    done: set[str] = set()
    for start in parent:
        if start in done:
            continue
        seen: dict[str, int] = {}
        path: list[str] = []
        node: str | None = start
        while node is not None and node not in done:
            if node in seen:
                return path[seen[node]:] + [node]
            seen[node] = len(path)
            path.append(node)
            node = parent.get(node)
        done.update(path)
    return None


def _syntax(msg: str, no: int, raw: str, token: str | None = None) -> TaxonomyError:
    col = raw.index(token) + 1 if token is not None and token in raw else 1
    return TaxonomyError(msg, line=no, column=col)


def parse_taxonomy(source: str | Iterable[str]) -> Taxonomy:
    """Parse and validate a taxonomy from a string or an iterable of lines.

    Raises TaxonomyError (with line/column) on syntax problems, duplicate
    concepts or instances, unknown references and a missing root,
    CycleError when the is-a graph is cyclic, and DataFormatError (with the
    line) on text that is not valid UTF-8.
    """
    lines = source.splitlines() if isinstance(source, str) else [str(l) for l in source]

    root: str | None = None
    decl: dict[str, tuple[str, bool, int]] = {}  # concept -> (parent, topic?, line)
    order: list[str] = []
    instances: dict[str, str] = {}
    inst_lines: dict[str, int] = {}
    attributes: dict[str, list[tuple[str, str]]] = {}
    relations: list[tuple[str, str, str]] = []
    ref_checks: list[tuple[str, str, int]] = []  # (what, concept name, line)

    for no, raw in enumerate(lines, start=1):
        if not raw.isascii():
            check_utf8(raw, "line", no)
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tok = text.split()
        kw = tok[0]
        if kw == "root":
            if len(tok) != 2:
                raise _syntax("root statement takes exactly one name", no, raw, kw)
            if root is not None:
                raise _syntax(f"duplicate root statement (root is '{escape_control(root)}')",
                              no, raw, tok[1])
            root = tok[1]
        elif kw == "concept":
            if len(tok) not in (4, 5) or tok[2] != "parent" or (len(tok) == 5 and tok[4] != "topic"):
                raise _syntax("expected: concept <name> parent <name> [topic]", no, raw, kw)
            name, parent_name = tok[1], tok[3]
            if name in decl:
                raise _syntax(
                    f"duplicate concept '{escape_control(name)}' "
                    f"(first declared on line {decl[name][2]})",
                    no, raw, name,
                )
            decl[name] = (parent_name, len(tok) == 5, no)
            order.append(name)
        elif kw == "instance":
            if len(tok) != 4 or tok[2] != "concept":
                raise _syntax("expected: instance <term> concept <name>", no, raw, kw)
            term = normalize_term(tok[1])
            if not term:
                raise _syntax(f"instance term '{escape_control(tok[1])}' is empty after "
                              "normalization", no, raw, tok[1])
            if term in instances:
                raise _syntax(
                    f"duplicate instance '{escape_control(term)}' "
                    f"(first declared on line {inst_lines[term]})",
                    no, raw, tok[1],
                )
            instances[term] = tok[3]
            inst_lines[term] = no
            ref_checks.append((f"instance '{escape_control(term)}'", tok[3], no))
        elif kw == "relation":
            if len(tok) != 4:
                raise _syntax("expected: relation <name> <conceptA> <conceptB>", no, raw, kw)
            relations.append((tok[1], tok[2], tok[3]))
            what = f"relation '{escape_control(tok[1])}'"
            ref_checks.append((what, tok[2], no))
            ref_checks.append((what, tok[3], no))
        elif kw == "attribute":
            if len(tok) != 4:
                raise _syntax("expected: attribute <concept> <attr-name> <value-type>", no, raw, kw)
            attributes.setdefault(tok[1], []).append((tok[2], tok[3]))
            ref_checks.append(("attribute", tok[1], no))
        else:
            raise _syntax(f"unknown statement '{escape_control(kw)}'", no, raw, kw)

    if root is None:
        raise TaxonomyError("missing root statement")
    if root in decl:
        raise TaxonomyError(
            f"root '{escape_control(root)}' also declared as a concept", line=decl[root][2]
        )

    known = set(decl) | {root}
    for name, (parent_name, _, no) in decl.items():
        if parent_name not in known:
            raise TaxonomyError(
                f"concept '{escape_control(name)}' references unknown parent "
                f"'{escape_control(parent_name)}'", line=no
            )
    for what, concept_name, no in ref_checks:
        if concept_name not in known:
            raise TaxonomyError(
                f"{what} references unknown concept '{escape_control(concept_name)}'", line=no
            )

    parent: dict[str, str | None] = {root: None}
    for name in order:
        parent[name] = decl[name][0]

    cycle = find_cycle(parent)
    if cycle is not None:
        raise CycleError("is-a cycle: " + escape_control(" -> ".join(cycle)))

    topics = frozenset(name for name, (_, is_topic, _) in decl.items() if is_topic)

    covered: set[str] = set()
    for concept in instances.values():
        node: str | None = concept
        while node is not None:
            if node in topics:
                covered.add(node)
            node = parent[node]
    warnings = tuple(
        f"topic '{escape_control(name)}' is not on the ancestry path of any instance"
        for name in order
        if name in topics and name not in covered
    )

    return Taxonomy(
        root=root,
        parent=parent,
        topics=topics,
        instances=instances,
        attributes={c: tuple(pairs) for c, pairs in attributes.items()},
        relations=tuple(relations),
        warnings=warnings,
    )


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse a taxonomy file from disk; a missing file is a ConfigError."""
    with open_input(path, "taxonomy") as fh:
        return parse_taxonomy(fh.read())


def serialize_taxonomy(tax: Taxonomy) -> str:
    """Render a Taxonomy back to the file format (parse-stable)."""
    out = [f"root {tax.root}"]
    for name, parent_name in tax.parent.items():
        if parent_name is None:
            continue
        flag = " topic" if name in tax.topics else ""
        out.append(f"concept {name} parent {parent_name}{flag}")
    for term, concept in tax.instances.items():
        out.append(f"instance {term.replace(' ', '_')} concept {concept}")
    for concept, pairs in tax.attributes.items():
        for attr_name, value_type in pairs:
            out.append(f"attribute {concept} {attr_name} {value_type}")
    for name, a, b in tax.relations:
        out.append(f"relation {name} {a} {b}")
    return "\n".join(out) + "\n"


def topic_of_instance(tax: Taxonomy, term: str) -> str | None:
    """Nearest topic-flagged concept on the ancestry path of an instance term.

    Returns None when the term is not a known instance or no ancestor
    (including the owning concept itself) is topic-flagged.
    """
    concept = tax.instances.get(normalize_term(term))
    if concept is None:
        return None
    for anc in tax.ancestry(concept):
        if anc in tax.topics:
            return anc
    return None
