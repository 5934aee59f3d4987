"""Benchmark workloads and their seeded input generator.

Each workload is a fixture spec for ``interestprof.fixtures.generate_fixture``
plus the pipeline flags it runs with. ``oov-96x500-top10`` additionally swaps
a share of the generated labels for terms the taxonomy does not contain; that
substitution lives here, not in the library, so the program only ever sees
finished input files.

BENCHMARK.json lists ``paper-480x100`` and ``wide-1200x10`` with why each was
chosen; they are the workloads whose end-to-end figures gate a change. On a
shared 2-core host a pipeline run's wall time swings by 15% or more from one
run to the next, so each gated run needs several pipeline runs, and the time
for all runs allows that for two workloads, not three. ``oov-96x500-top10``
is run by report.py and by ``run.py --workload oov-96x500-top10``: top-10
labels, 40% of them outside the taxonomy, no labels file. It stresses
taxonomy lookups and misses, ingest of a 30 MB file and per-image CSV
writing, with little sweep and no evaluation, so a change that speeds up the
sweep but slows per-image writing shows there.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAXONOMY = ROOT / "data" / "uio-starter.taxonomy"
OOV_VOCABULARY = 800  # terms that no taxonomy instance normalizes to


@dataclass(frozen=True)
class Workload:
    name: str
    users_per_topic: int
    images: int
    purity: float
    topk: int
    mechanism: str
    labels: bool
    oov_share: float = 0.0  # share of labels swapped for out-of-vocabulary terms
    oov_users: int = 0      # users whose labels are all out of vocabulary

    @property
    def n_users(self) -> int:
        return 24 * self.users_per_topic

    @property
    def n_images(self) -> int:
        return self.n_users * self.images

    def pipeline_flags(self) -> list[str]:
        return ["--topk", str(self.topk), "--mechanism", self.mechanism]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-480x100",
            users_per_topic=20, images=100, purity=0.6, topk=5, mechanism="occ", labels=True,
        ),
        Workload(
            name="wide-1200x10",
            users_per_topic=50, images=10, purity=0.6, topk=5, mechanism="prob", labels=True,
        ),
        Workload(
            name="oov-96x500-top10",
            users_per_topic=4, images=500, purity=0.6, topk=10, mechanism="prob", labels=False,
            oov_share=0.4, oov_users=2,
        ),
    )
}


def generate(workload: Workload, seed: int, outdir: Path) -> dict[str, Path]:
    """Write the workload's input files under ``outdir`` and return their paths.

    The same (workload, seed) writes the same bytes. The taxonomy is copied in
    so that the program reads only files from ``outdir``.
    """
    from interestprof.fixtures import generate_fixture
    from interestprof.ingest import PredictionRecord, ProfileDataset, serialize_predictions
    from interestprof.taxonomy import load_taxonomy

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"taxonomy": outdir / "taxonomy.txt", "predictions": outdir / "predictions.jsonl"}
    shutil.copyfile(TAXONOMY, paths["taxonomy"])
    tax = load_taxonomy(paths["taxonomy"])
    dataset = generate_fixture(
        workload.users_per_topic, workload.images, workload.purity, seed, tax, workload.topk
    )
    if workload.oov_share > 0.0 or workload.oov_users > 0:
        rng = random.Random(f"oov/{workload.name}/{seed}")
        vocab = [f"unmapped_term_{i:04d}" for i in range(OOV_VOCABULARY)]
        all_oov = set(rng.sample(dataset.users(), workload.oov_users))
        records = {}
        for user, recs in dataset.records.items():
            share = 1.0 if user in all_oov else workload.oov_share
            records[user] = [
                PredictionRecord(
                    user_id=rec.user_id,
                    image_id=rec.image_id,
                    predictions=tuple(
                        (rng.choice(vocab) if rng.random() < share else label, prob)
                        for label, prob in rec.predictions
                    ),
                )
                for rec in recs
            ]
        dataset = ProfileDataset(records=records, labels=dataset.labels, warnings=[])
    paths["predictions"].write_text(serialize_predictions(dataset), encoding="utf-8")
    if workload.labels:
        paths["labels"] = outdir / "labels.csv"
        paths["labels"].write_text(
            "user_id,topic\n" + "".join(f"{u},{t}\n" for u, t in dataset.labels.items()),
            encoding="utf-8",
        )
    return paths
