"""The benchmark's workloads: inputs, timed CLI commands and output checks.

Every workload is driven through ``arxmatch.cli.main`` only. ``setup``
runs in a set-up child process and builds the inputs and the base store
from the seed; ``commands`` is the closed loop a timed pass runs, one
command after the other; ``check`` verifies what a pass produced.

- golden-1k: the committed seed-42 corpus through every CLI stage. It is
  the behaviour contract (outputs must equal tests/data/golden byte for
  byte) and most of its time is the classifier step on a small index.
- classify-10k: a slice of DOI-less preprints matched against all 15,000
  published records of a 10k corpus, so every preprint goes through
  blocking, pair scoring and the forest on a large index.
- daily-10k: a day's batch of 500 new pairs arriving at a store of 10k
  merged pairs plus 5k decoys; 95% of them resolve by DOI, so store I/O,
  merge and profile upkeep dominate and the scoring path is mostly
  bypassed.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import checks

TIMESTAMP = "2024-01-01T00:00:00Z"
GOLDEN_SEED = 42


def _write_jsonl(path: Path, objects) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                separators=(",", ":")))
            fh.write("\n")


def _drop_dois(records: list[dict], keep_rate: float, rng: random.Random) -> list[dict]:
    """Copies of the preprints, each keeping its DOI with probability keep_rate."""
    out = []
    for rec in records:
        rec = dict(rec)
        if rng.random() >= keep_rate:
            rec["doi"] = None
        out.append(rec)
    return out


class Corpus:
    """Generator output split by position: pairs first, then decoys."""

    def __init__(self, directory: Path):
        self.preprints = checks.read_jsonl(directory / "preprints.jsonl")
        published = checks.read_jsonl(directory / "published.jsonl")
        self.n = len(self.preprints)
        self.pair_published = published[:self.n]
        self.decoys = published[self.n:]


class Workload:
    name: str

    def effective_seed(self, seed: int) -> int:
        """The seed the workload's inputs are made from."""
        return seed

    def setup(self, root: Path, work: Path, seed: int, cli) -> None:
        raise NotImplementedError

    def base_store(self, setup_dir: Path) -> Path | None:
        """Store directory a pass starts from (copied), or None for empty."""
        return setup_dir / "store"

    def commands(self, setup_dir: Path, pass_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def truth(self, setup_dir: Path) -> Path:
        return setup_dir / "corpus" / "groundtruth.json"

    def check(self, root: Path, setup_dir: Path, pass_dir: Path,
              seed: int) -> list[tuple[str, bool, str]]:
        raise NotImplementedError


class Golden(Workload):
    name = "golden-1k"

    def effective_seed(self, seed):
        return GOLDEN_SEED

    def setup(self, root, work, seed, cli):
        src = root / "tests" / "data" / "corpus1000"
        (work / "corpus").mkdir(parents=True)
        for name in ("preprints.jsonl", "published.jsonl", "groundtruth.json"):
            shutil.copyfile(src / name, work / "corpus" / name)

    def base_store(self, setup_dir):
        return None

    def commands(self, setup_dir, pass_dir):
        corpus, store = setup_dir / "corpus", pass_dir / "store"
        model, seed = pass_dir / "model.json", str(GOLDEN_SEED)
        return [
            ["ingest", "--preprints", str(corpus / "preprints.jsonl"),
             "--published", str(corpus / "published.jsonl"), "--store", str(store)],
            ["train", "--store", str(store), "--model", str(model), "--seed", seed],
            ["match", "--store", str(store), "--model", str(model),
             "--timestamp", TIMESTAMP, "--report", str(pass_dir / "match_report.json")],
            ["eval", "--store", str(store), "--seed", seed,
             "--report", str(pass_dir / "eval_report.json")],
            ["merge", "--store", str(store)],
            ["stats", "--store", str(store), "--report", str(pass_dir / "stats.json")],
            ["scope", "--store", str(store), "--report", str(pass_dir / "scope.csv")],
        ]

    def check(self, root, setup_dir, pass_dir, seed):
        return checks.golden(root / "tests" / "data" / "golden", pass_dir)


class Classify(Workload):
    """Train on a separate 1k slice, then match DOI-less preprints."""

    name = "classify-10k"
    N = 10_000
    TRAIN = 1_000
    SLICE = 250

    def setup(self, root, work, seed, cli):
        corpus_dir = work / "corpus"
        cli(["gen", "--n", str(self.N), "--seed", str(seed), "--out", str(corpus_dir)])
        c = Corpus(corpus_dir)
        _write_jsonl(work / "train_preprints.jsonl", c.preprints[:self.TRAIN])
        _write_jsonl(work / "train_published.jsonl",
                     c.pair_published[:self.TRAIN] + c.decoys[:self.TRAIN // 2])
        _write_jsonl(work / "slice.jsonl",
                     [dict(rec, doi=None)
                      for rec in c.preprints[self.TRAIN:self.TRAIN + self.SLICE]])
        train_store = work / "train_store"
        cli(["ingest", "--preprints", str(work / "train_preprints.jsonl"),
             "--published", str(work / "train_published.jsonl"),
             "--store", str(train_store)])
        cli(["train", "--store", str(train_store), "--model", str(work / "model.json"),
             "--seed", str(seed)])
        cli(["ingest", "--published", str(corpus_dir / "published.jsonl"),
             "--store", str(work / "store")])

    def commands(self, setup_dir, pass_dir):
        store = str(pass_dir / "store")
        return [
            ["ingest", "--preprints", str(setup_dir / "slice.jsonl"), "--store", store],
            ["match", "--store", store, "--model", str(setup_dir / "model.json"),
             "--timestamp", TIMESTAMP, "--report", str(pass_dir / "match_report.json")],
        ]

    def check(self, root, setup_dir, pass_dir, seed):
        truth = checks.load_truth(self.truth(setup_dir))
        slice_ids = [r["id"] for r in checks.read_jsonl(setup_dir / "slice.jsonl")]
        results = [checks.report_conservation(pass_dir / "match_report.json")]
        results += checks.decisions_vs_truth(pass_dir / "store", truth,
                                             classifier_path=set(slice_ids))
        results += checks.pinned_hashes(self.name, seed, pass_dir)
        return results


class Daily(Workload):
    """One day's batch of new pairs folded into a store of 10k merged pairs.

    Every pass starts from the same merged base store, so the passes of a
    run repeat the same day and their median filters out machine noise.
    """

    name = "daily-10k"
    N = 10_000
    TRAIN = 1_000
    BATCH = 500
    BATCH_DOI_RATE = 0.95
    TRAIN_DOI_RATE = 0.3
    DAY = "2024-01-02T00:00:00Z"

    def setup(self, root, work, seed, cli):
        corpus_dir = work / "corpus"
        n = self.N + self.TRAIN + self.BATCH
        cli(["gen", "--n", str(n), "--seed", str(seed), "--out", str(corpus_dir),
             "--doi-rate", "1.0", "--wrong-doi-rate", "0"])
        c = Corpus(corpus_dir)
        rng = random.Random(seed)
        base_decoys, train_decoys = self.N // 2, self.TRAIN // 2
        _write_jsonl(work / "base_preprints.jsonl", c.preprints[:self.N])
        _write_jsonl(work / "base_published.jsonl",
                     c.pair_published[:self.N] + c.decoys[:base_decoys])
        train = slice(self.N, self.N + self.TRAIN)
        _write_jsonl(work / "train_preprints.jsonl",
                     _drop_dois(c.preprints[train], self.TRAIN_DOI_RATE, rng))
        _write_jsonl(work / "train_published.jsonl",
                     c.pair_published[train]
                     + c.decoys[base_decoys:base_decoys + train_decoys])
        batch = slice(self.N + self.TRAIN, n)
        _write_jsonl(work / "batch_preprints.jsonl",
                     _drop_dois(c.preprints[batch], self.BATCH_DOI_RATE, rng))
        _write_jsonl(work / "batch_published.jsonl",
                     c.pair_published[batch] + c.decoys[base_decoys + train_decoys:])
        train_store, store = work / "train_store", work / "store"
        model = work / "model.json"
        cli(["ingest", "--preprints", str(work / "train_preprints.jsonl"),
             "--published", str(work / "train_published.jsonl"),
             "--store", str(train_store)])
        cli(["train", "--store", str(train_store), "--model", str(model),
             "--seed", str(seed)])
        cli(["ingest", "--preprints", str(work / "base_preprints.jsonl"),
             "--published", str(work / "base_published.jsonl"), "--store", str(store)])
        cli(["match", "--store", str(store), "--model", str(model),
             "--timestamp", TIMESTAMP, "--report", str(work / "base_match.json")])
        cli(["merge", "--store", str(store)])

    def commands(self, setup_dir, pass_dir):
        store = str(pass_dir / "store")
        return [
            ["ingest", "--preprints", str(setup_dir / "batch_preprints.jsonl"),
             "--published", str(setup_dir / "batch_published.jsonl"), "--store", store],
            ["match", "--store", store, "--model", str(setup_dir / "model.json"),
             "--timestamp", self.DAY, "--report", str(pass_dir / "match_report.json")],
            ["merge", "--store", store],
            ["scope", "--store", store, "--report", str(pass_dir / "scope.csv")],
        ]

    def check(self, root, setup_dir, pass_dir, seed):
        truth = checks.load_truth(self.truth(setup_dir))
        classifier_path = {rec["id"] for rec in
                           checks.read_jsonl(setup_dir / "batch_preprints.jsonl")
                           if rec["doi"] is None}
        results = [checks.report_conservation(pass_dir / "match_report.json"),
                   checks.scope_csv(pass_dir / "scope.csv")]
        results += checks.decisions_vs_truth(pass_dir / "store", truth,
                                             classifier_path=classifier_path)
        results.append(checks.merges_follow_decisions(pass_dir / "store"))
        results += checks.pinned_hashes(self.name, seed, pass_dir)
        return results


WORKLOADS = {w.name: w for w in (Golden(), Classify(), Daily())}
