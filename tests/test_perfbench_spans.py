"""The benchmark's tracer must find every binding it wraps, and its kernel
counters must count the work the matcher does."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import arxmatch

from conftest import CORPUS_DIR

ROOT = Path(__file__).resolve().parents[1]


def run_traced(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that sees src/ and perfbench/, since
    spans.install rebinds module globals for the rest of the process."""
    path = os.pathsep.join([str(Path(arxmatch.__file__).parents[1]), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_install_finds_every_patch_point():
    code = (
        "import spans\n"
        "from arxmatch import _kernels\n"
        "rec = spans.SpanRecorder('probe')\n"
        "spans.install(rec, {})\n"
        "print(_kernels.levenshtein.span_name)\n"
    )
    assert run_traced(code).split() == ["kernels.levenshtein"]


BATCH_MATCH = """
import json
import sys
import spans
from arxmatch import similarity
from arxmatch.candidates import build_index, query_candidates
from arxmatch.corpus import CorpusStore
from arxmatch.forest import bootstrap_training_set, train_forest
from arxmatch.matcher import batch_match

K = 20
similarity.CHUNK_PAIRS = 500  # several chunks out of 150 preprints
store = CorpusStore()
store.ingest_preprints(sys.argv[1] + "/preprints.jsonl")
store.ingest_published(sys.argv[1] + "/published.jsonl")
index = build_index(store)
model = train_forest(*bootstrap_training_set(store, index), n_trees=10, seed=1)
for pid in sorted(store.preprints)[150:]:
    del store.preprints[pid]

# the scored pairs and their chunks, recomputed without the traced functions
want = {"pairs": 0, "scored": 0, "doi": 0, "chunks": 0}
chunk = 0
for pid in store.unmerged_preprints():
    p = store.preprints[pid]
    if store.doi_accession(p.doi) is not None:
        want["doi"] += 1
        continue
    ranked = query_candidates(index, p, K)
    want["scored"] += bool(ranked)
    want["pairs"] += len(ranked)
    chunk += len(ranked)
    if chunk >= similarity.CHUNK_PAIRS:
        want["chunks"] += 1
        chunk = 0
want["chunks"] += chunk > 0

rec = spans.SpanRecorder("contract")
spans.install(rec, {})
batch_match(store, index, model, K)
spans_of = {name: sum(1 for nid in rec.name if nid == rec.names.index(name))
            for name in ("kernels.levenshtein", "similarity.feature_vector_projected",
                         "forest.predict_many")}
got = {"rows": rec.counters["kernels.forest_eval.rows"], **spans_of}
print(json.dumps({"want": want, "got": got}))
"""


def test_tracer_counts_match_the_scored_pairs():
    out = json.loads(run_traced(BATCH_MATCH, str(CORPUS_DIR)))
    want, got = out["want"], out["got"]
    assert want["doi"] > 0 and want["scored"] > 0  # both matcher steps ran
    assert got["rows"] == want["pairs"]
    # one title kernel call and one forest call per chunk of pairs, not
    # one per preprint
    assert got["kernels.levenshtein"] == got["similarity.feature_vector_projected"] \
        == got["forest.predict_many"] == want["chunks"]
    assert 1 < want["chunks"] < want["scored"]
