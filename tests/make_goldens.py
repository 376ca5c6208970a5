#!/usr/bin/env python3
"""Regenerate the golden outputs for the end-to-end pipeline tests.

Runs the committed fixture corpus through ingest -> train -> match ->
eval -> merge -> stats -> scope with pinned seeds and timestamp
(run_pipeline, which the golden tests run too), then copies the small
reports verbatim into tests/data/golden/ and records sha256 hashes of the
bulky artifacts (model, store files). Run from the repo root:

    python tests/make_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from arxmatch.cli import main

ROOT = Path(__file__).resolve().parent
CORPUS = ROOT / "data" / "corpus1000"
GOLDEN = ROOT / "data" / "golden"

SEED = "42"
TIMESTAMP = "2024-01-01T00:00:00Z"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        sys.exit(f"command failed ({code}): {' '.join(argv)}")


def run_pipeline(workdir: Path) -> None:
    """The golden run: the seven commands over the fixture corpus, with the
    store in workdir/store, the model in workdir/model.json and each report
    beside them (train's, which it prints, in workdir/train.json)."""
    store = workdir / "store"
    model = workdir / "model.json"
    run("ingest", "--preprints", str(CORPUS / "preprints.jsonl"),
        "--published", str(CORPUS / "published.jsonl"), "--store", str(store))
    with open(workdir / "train.json", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        run("train", "--store", str(store), "--model", str(model), "--seed", SEED)
    run("match", "--store", str(store), "--model", str(model),
        "--timestamp", TIMESTAMP, "--report", str(workdir / "match_report.json"))
    run("eval", "--store", str(store), "--seed", SEED,
        "--report", str(workdir / "eval_report.json"))
    run("merge", "--store", str(store))
    run("stats", "--store", str(store), "--report", str(workdir / "stats.json"))
    run("scope", "--store", str(store), "--report", str(workdir / "scope.csv"))


def build(workdir: Path) -> None:
    run_pipeline(workdir)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in ("match_report.json", "eval_report.json", "stats.json",
                 "scope.csv"):
        shutil.copyfile(workdir / name, GOLDEN / name)
    hashes = {"model.json": sha256(workdir / "model.json")}
    for f in sorted((workdir / "store").iterdir()):
        if f.suffix == ".jsonl":
            hashes[f"store/{f.name}"] = sha256(f)
    (GOLDEN / "hashes.json").write_text(
        json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden files written to {GOLDEN}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
