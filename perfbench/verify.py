"""Independent check of the artifacts one ``pipeline`` run wrote.

Nothing here imports interestprof. The taxonomy and the generated inputs are
parsed again from disk, and the user vectors of a seeded sample of users are
recomputed by brute force with exact fractions, in the spirit of
``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Canonical vector order, restated so that the check does not trust the library.
TOPICS = (
    "Activities", "Business", "Drink", "Education", "Entertainment", "Events",
    "Family", "Fashion", "Fitness", "Food", "Industry", "News", "Outdoors",
    "People", "Places", "Shopping", "Sport", "Technology", "Travel", "Culture",
    "Hobbies", "Lifestyle", "Relationship", "Wellness",
)
VECTOR_KEYS = TOPICS + ("unmapped",)

BASE_ARTIFACTS = frozenset({
    "ontology_metrics.json", "ontology_metrics.txt",
    "image_scores_prob.csv", "image_scores_occ.csv",
    "profiles.json", "profiles_sweep.json",
    "pearson.csv", "pearson_bands.csv", "pearson_heatmap.svg", "co_interest.csv",
})
EVAL_ARTIFACTS = frozenset({
    "report.json", "accuracy_by_topic.csv", "confusion.csv", "cmc.csv",
    "precision_recall.csv", "roc_points.csv", "cmc.svg", "accuracy_sweep.svg",
})

SAMPLE_USERS = 12


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


def _norm(term: str) -> str:
    return " ".join(term.replace("_", " ").casefold().split())


def _topic_lookup(taxonomy_text: str) -> dict[str, str]:
    """normalized instance term -> topic, by walking each concept's parent chain."""
    parent: dict[str, str | None] = {}
    flagged: set[str] = set()
    owner: dict[str, str] = {}
    for line in taxonomy_text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "root":
            parent[tok[1]] = None
        elif tok[0] == "concept":
            parent[tok[1]] = tok[3]
            if tok[-1] == "topic":
                flagged.add(tok[1])
        elif tok[0] == "instance":
            owner[_norm(tok[1])] = tok[3]
    lookup = {}
    for term, concept in owner.items():
        node = concept
        while node is not None and node not in flagged:
            node = parent[node]
        if node is not None:
            lookup[term] = node
    return lookup


def _close9(expected: float, got) -> bool:
    """True when ``got`` equals ``expected`` to 9 significant digits (one unit of slack)."""
    if not isinstance(got, (int, float)):
        return False
    if expected == 0.0:
        return got == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(expected))) - 8)
    return abs(expected - got) <= unit * 1.000001


class Reference:
    """Expected facts about one workload's outputs, derived from its inputs alone."""

    def __init__(self, inputs: dict[str, Path], topk: int, mechanism: str, seed: int):
        self.topk = topk
        self.mechanism = mechanism
        lookup = _topic_lookup(inputs["taxonomy"].read_text(encoding="utf-8"))
        self.images: dict[str, list[list[tuple[str | None, float]]]] = {}
        self.rows: list[tuple[str, str]] = []
        with open(inputs["predictions"], encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                self.rows.append((obj["user_id"], obj["image_id"]))
                self.images.setdefault(obj["user_id"], []).append(
                    [(lookup.get(_norm(p["label"])), p["prob"]) for p in obj["predictions"]]
                )
        self.labels: dict[str, str] = {}
        if "labels" in inputs:
            lines = inputs["labels"].read_text(encoding="utf-8").splitlines()[1:]
            self.labels = dict(line.split(",") for line in lines if line)
        self.profiled = [
            u for u, imgs in self.images.items()
            if any(topic is not None and prob > 0 for img in imgs for topic, prob in img)
        ]
        self.sample = random.Random(seed).sample(
            self.profiled, min(SAMPLE_USERS, len(self.profiled))
        )
        self.expected = {u: self._vectors(self.images[u]) for u in self.sample}
        self.artifacts = BASE_ARTIFACTS | (EVAL_ARTIFACTS if self.labels else frozenset())

    def _vectors(self, imgs) -> dict[str, list[Fraction]]:
        """Exact v_prob and v_occ for one user's images, unmapped last."""
        prob = [Fraction(0)] * (len(TOPICS) + 1)
        occ = [Fraction(0)] * (len(TOPICS) + 1)
        for img in imgs:
            counts = [0] * len(TOPICS)
            for topic, p in img:
                slot = len(TOPICS) if topic is None else TOPICS.index(topic)
                prob[slot] += Fraction(p)
                if topic is not None:
                    counts[slot] += 1
            peak = max(counts)
            if peak == 0:
                occ[-1] += 1
            else:
                tied = [i for i, c in enumerate(counts) if c == peak]
                for i in tied:
                    occ[i] += Fraction(1, len(tied))
        grand = sum(prob)
        if grand == 0:
            prob = [Fraction(0)] * len(TOPICS) + [Fraction(1)]
        else:
            prob = [v / grand for v in prob]
        return {"v_prob": prob, "v_occ": [v / len(imgs) for v in occ]}

    def check(self, outdir: Path) -> list[str]:
        """Problems found in ``outdir``; an empty list means the run is correct."""
        present = {p.name for p in outdir.iterdir()}
        missing = sorted(self.artifacts - present)
        if missing:
            return [f"missing artifacts: {missing}"]
        problems = []
        for name in ("image_scores_prob.csv", "image_scores_occ.csv"):
            problems += self._check_scores(outdir / name)
        profiles = json.loads((outdir / "profiles.json").read_text(encoding="utf-8"))
        sweep = json.loads((outdir / "profiles_sweep.json").read_text(encoding="utf-8"))
        problems += self._check_profiles(profiles, sweep)
        if self.labels:
            report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
            problems += self._check_report(report, sweep)
        return problems

    def _check_scores(self, path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("user_id,image_id,"):
            return [f"{path.name}: bad header"]
        keys = [tuple(line.split(",", 2)[:2]) for line in lines[1:]]
        if len(keys) != len(self.rows):
            return [f"{path.name}: {len(keys)} rows for {len(self.rows)} input images"]
        if keys != self.rows:
            return [f"{path.name}: rows do not follow the input images"]
        return []

    def _check_profiles(self, profiles: list, sweep: dict) -> list[str]:
        problems = []
        users = [p["user_id"] for p in profiles]
        if users != self.profiled:
            problems.append(
                f"profiles.json has {len(users)} users, expected the {len(self.profiled)} "
                "with mapped labels, in input order"
            )
        groups = [("profiles.json", None, profiles)] + [
            (f"profiles_sweep.json[{k}]", int(k), ps) for k, ps in sweep.items()
        ]
        for where, n, ps in groups:
            if n is not None and [p["user_id"] for p in ps] != users:
                problems.append(f"{where}: users differ from profiles.json")
            for p in ps:
                for vec in ("v_prob", "v_occ"):
                    total = math.fsum(p[vec][key] for key in VECTOR_KEYS)
                    if abs(total - 1.0) > 1e-6:
                        problems.append(f"{where}: {p['user_id']} {vec} sums to {total!r}")
                if n is not None and p["n_images"] != min(n, len(self.images[p["user_id"]])):
                    problems.append(f"{where}: {p['user_id']} has n_images {p['n_images']}")
        by_user = {p["user_id"]: p for p in profiles}
        for user, exact in self.expected.items():
            p = by_user.get(user)
            if p is None:
                continue  # already reported through the user list
            for vec, values in exact.items():
                for key, value in zip(VECTOR_KEYS, values):
                    if not _close9(float(value), p[vec][key]):
                        problems.append(
                            f"profiles.json: {user} {vec}[{key}] is {p[vec][key]!r}, "
                            f"brute force gives {float(value)!r}"
                        )
            chosen = exact["v_prob" if self.mechanism == "prob" else "v_occ"][:-1]
            best = max(chosen)
            if p["predicted_topic"] not in [t for t, v in zip(TOPICS, chosen) if v == best]:
                problems.append(f"profiles.json: {user} predicted_topic {p['predicted_topic']}")
        return problems

    def _check_report(self, report: dict, sweep: dict) -> list[str]:
        k_max = max(sweep, key=int)
        rows = [p for p in sweep[k_max] if p["user_id"] in self.labels]
        hits = sum(1 for p in rows if p["predicted_topic"] == self.labels[p["user_id"]])
        expected = hits / len(rows) if rows else 0.0
        got = report.get("overall_accuracy", {}).get(k_max)
        if not _close9(expected, got):
            return [f"report.json: overall accuracy at {k_max} is {got!r}, expected {expected!r}"]
        return []


class Checker:
    """Full check of the first correct run; later runs must match its digests."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.digests: dict[str, str] | None = None

    def __call__(self, outdir: Path) -> list[str]:
        found = digests(outdir)
        if self.digests is not None:
            return [] if found == self.digests else ["artifact digests differ from the first run"]
        try:
            problems = self.reference.check(outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
        if not problems:
            self.digests = found
        return problems
