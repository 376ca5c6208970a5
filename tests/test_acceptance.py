"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

from __future__ import annotations

import json
import time

import numpy as np

from arxmatch import _kernels
from arxmatch.candidates import build_index, query_candidates
from arxmatch.cli import main as cli_main
from arxmatch.corpus import CorpusStore, MatchDecision, OUTCOME_DOI
from arxmatch.evaluate import evaluate
from arxmatch.forest import ForestModel
from arxmatch.matcher import MatchRunReport, batch_match, build_naive_index, naive_match
from arxmatch.normalize import normalize_text
from arxmatch.scope import (
    REASON_CODES,
    decide_categories,
    load_rules,
)
from arxmatch.similarity import FeatureVector
from arxmatch.synth import PerturbationProfile, gen_synthetic_corpus

from conftest import (
    CORPUS_DIR,
    DATA_DIR,
    criterion,
    make_preprint,
    make_published,
    store_with,
)
from test_candidates import brute_force_rank
from test_forest import gini_split_oracle
from test_similarity import edit_distance_oracle, levenshtein_each, scored

TS = "2024-01-01T00:00:00Z"


# -- 1. paper-number arithmetic -------------------------------------------------

def test_match_count_arithmetic_golden():
    with criterion("match-count arithmetic (production report fixture)"):
        fields = json.loads((DATA_DIR / "reference_counts.json").read_text())
        report = MatchRunReport(**fields)
        report.check()
        assert report.doi_matches == 73567
        assert report.classifier_matches == 176858
        assert report.doi_matches + report.classifier_matches == 250425
        assert report.naive_equal_title_authors == 144825
        assert report.classifier_matches - report.naive_equal_title_authors \
            == 32033
        assert report.new_vs_naive == 32033


# -- 2. synthetic precision / recall ----------------------------------------------

def test_synthetic_precision_recall(corpus_store):
    with criterion("eval precision >= 0.99 and recall >= 0.95 on fixture"):
        start = time.monotonic()
        report = evaluate(corpus_store, seed=42)
        elapsed = time.monotonic() - start
        print(f"  precision={report.precision:.4f} recall={report.recall:.4f} "
              f"holdout={report.holdout_size} elapsed={elapsed:.1f}s")
        assert report.precision >= 0.99
        assert report.recall >= 0.95
        assert elapsed < 60.0


# -- 3. two-step dominance ----------------------------------------------------------

def test_two_step_dominance(corpus_store, corpus_index, corpus_model,
                            corpus_truth):
    with criterion("two-step matches strictly dominate naive baseline"):
        batch_match(corpus_store, corpus_index, corpus_model, 20, timestamp=TS)
        truth = corpus_truth["pairs"]
        naive_index = build_naive_index(corpus_store)
        naive_correct = {
            pid for pid in truth
            if naive_match(corpus_store.preprints[pid], corpus_store,
                           naive_index) == truth[pid]
        }
        two_step_correct = {
            pid for pid, d in corpus_store.decisions.items()
            if d.matched_accession == truth.get(pid)
        }
        print(f"  naive={len(naive_correct)} two-step={len(two_step_correct)}")
        assert naive_correct < two_step_correct  # strict superset
        assert len(two_step_correct) >= 1.1 * len(naive_correct)


# -- 4. oracle equivalence suites ------------------------------------------------------

def test_candidate_index_vs_brute_force(tmp_path):
    with criterion("candidate index == brute-force scoring (exact)"):
        out = gen_synthetic_corpus(400, PerturbationProfile(), seed=17,
                                   out_dir=tmp_path)
        store = CorpusStore()
        store.ingest_preprints(tmp_path / "preprints.jsonl")
        store.ingest_published(tmp_path / "published.jsonl")
        assert len(store.published) == 600  # <= 1,000 records
        index = build_index(store)
        for pid in sorted(store.preprints):
            p = store.preprints[pid]
            assert query_candidates(index, p, 20) == \
                brute_force_rank(store, p, 20), pid
        assert len(out["pairs"]) == 400


def test_gini_split_vs_exhaustive_search():
    with criterion("Gini split == exhaustive search (datasets <= 50)"):
        rng = np.random.default_rng(18)
        feats = np.array([0, 1, 2], dtype=np.int64)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            x = np.round(rng.random((n, 3)), 3)
            labels = rng.integers(0, 2, n).astype(bool)
            weights = np.ones(n)
            got = _kernels.best_split(x, np.where(labels, weights, 0.0),
                                      np.where(labels, 0.0, weights), feats)
            want = gini_split_oracle(x, labels, weights)
            assert int(got[0]) == want[0]
            if want[0] >= 0:
                assert float(got[1]) == want[1]


def test_levenshtein_vs_dp_oracle_10k():
    with criterion("normalized Levenshtein == DP oracle on 10,000 pairs"):
        rng = np.random.default_rng(19)
        alphabet = list("abcdefgh -")
        for _ in range(2_000):  # five candidates per string
            a = "".join(rng.choice(alphabet, rng.integers(0, 24)))
            bs = ["".join(rng.choice(alphabet, rng.integers(0, 24))) for _ in range(5)]
            for dist, b in zip(levenshtein_each(a, bs), bs):
                want = edit_distance_oracle(a, b)
                assert dist == want
                if a or b:
                    assert dist / max(len(a), len(b)) == want / max(len(a), len(b))


# -- 5. invariant property suites ----------------------------------------------------

_CHAR_POOL = list(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \t.,;:!?()[]'\"/+*=<>&%#@_|~^{}$\\-"
    "éüñßÅøçàİı½²µαβΓ數学ένα"
) + ["́", "̈", "\\alpha", "\\'{e}", "\\textbf{x}", "$x^2$", "--",
     "–", "—"]


def _random_text(rng, max_parts=12) -> str:
    k = int(rng.integers(0, max_parts))
    return "".join(str(rng.choice(_CHAR_POOL)) for _ in range(k))


def test_property_normalization_idempotence():
    with criterion("property: normalization idempotence (1,000 cases)"):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            s = _random_text(rng)
            once = normalize_text(s)
            assert normalize_text(once) == once


def test_property_similarity_bounds_symmetry_reflexivity():
    with criterion("property: distance bounds/symmetry/reflexivity (1,000 cases)"):
        rng = np.random.default_rng(21)
        vocab = ["zeta", "knot", "curve", "group", "flow", "bound", "walk"]
        fams = ["Doe", "Roe", "Smith", "Chen"]
        for _ in range(1000):
            ta = normalize_text(" ".join(rng.choice(vocab, rng.integers(0, 6))))
            tb = normalize_text(" ".join(rng.choice(vocab, rng.integers(0, 6))))
            aa = [make_preprint(authors=(f"A {f}",)).authors[0]
                  for f in rng.choice(fams, rng.integers(1, 4))]
            ab = [make_preprint(authors=(f"B {f}",)).authors[0]
                  for f in rng.choice(fams, rng.integers(1, 4))]
            # the titles double as abstracts
            v = scored(ta, tb, aa, ab, ta, tb)
            assert all(0.0 <= d <= 1.0 for d in v)
            assert v == scored(tb, ta, ab, aa, tb, ta)
            same = scored(ta, ta, aa, aa, ta, ta)
            assert same.title_d == 0.0 and same.author_d == 0.0
            assert same.abstract_d in (0.0, 0.5)


def test_property_lexicographic_total_order():
    with criterion("property: lexicographic total-order laws (1,000 cases)"):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            u, v, w = (FeatureVector(*np.round(rng.random(3), 2))
                       for _ in range(3))
            assert sum(map(bool, (u < v, u == v, u > v))) == 1  # trichotomy
            assert (u < v) == (v > u)
            assert u == u and not u < u
            if u <= v and v <= w:
                assert u <= w
            if u <= v and v <= u:
                assert u == v  # antisymmetry


def _stub_model() -> ForestModel:
    tree = [{"feature": 0, "threshold": 0.35, "left": 1, "right": 2},
            {"leaf": 1.0}, {"leaf": 0.0}]
    return ForestModel(trees=[tree], n_trees=1, max_depth=1, seed=0)


def test_property_report_conservation():
    with criterion("property: doi+classifier+unmatched == total (1,000 cases)"):
        rng = np.random.default_rng(23)
        vocab = ["zeta", "knot", "curve", "group", "flow", "bound", "walk",
                 "graph", "norm", "field"]
        model = _stub_model()
        for _ in range(1000):
            n_pre = int(rng.integers(1, 8))
            n_pub = int(rng.integers(1, 12))
            published = []
            for i in range(n_pub):
                doi = f"10.1/d{int(rng.integers(0, 6))}" \
                    if rng.random() < 0.5 else None
                published.append(make_published(
                    accession=f"zbl{i:08d}",
                    title="On " + " ".join(rng.choice(vocab, 3)),
                    doi=doi))
            preprints = []
            for i in range(n_pre):
                doi = f"10.1/d{int(rng.integers(0, 6))}" \
                    if rng.random() < 0.5 else None
                preprints.append(make_preprint(
                    pid=f"2301.{i:05d}",
                    title="On " + " ".join(rng.choice(vocab, 3)),
                    doi=doi))
            store = store_with(preprints, published)
            report = batch_match(store, build_index(store), model, 5,
                                 timestamp=TS)
            assert report.doi_matches + report.classifier_matches + \
                report.unmatched == report.total_preprints == n_pre
            assert report.new_vs_naive >= 0


def test_property_merge_idempotence(tmp_path):
    with criterion("property: merge idempotence, byte-equal export (1,000 cases)"):
        rng = np.random.default_rng(24)

        def export(store: CorpusStore, tag: str) -> bytes:
            out = tmp_path / tag
            store.save(out)
            return b"".join(
                (out / name).read_bytes()
                for name in sorted(("preprints.jsonl", "published.jsonl",
                                    "decisions.jsonl", "merges.jsonl"))
            )

        for case in range(1000):
            n = int(rng.integers(1, 4))
            preprints = [make_preprint(pid=f"2301.{i:05d}") for i in range(n)]
            published = [make_published(accession=f"zbl{i:08d}")
                         for i in range(n)]
            store = store_with(preprints, published)
            pick = int(rng.integers(0, n))
            decision = MatchDecision(f"2301.{pick:05d}", OUTCOME_DOI,
                                     f"zbl{pick:08d}", None, TS)
            store.record_decision(decision)
            store.merge_on_publication(decision)
            first = export(store, "a")
            store.merge_on_publication(decision)
            second = export(store, "b")
            assert first == second, case


def test_property_one_entry_per_arxiv_id(tmp_path):
    with criterion("property: one entry per arXiv id, version monotone (1,000 cases)"):
        rng = np.random.default_rng(25)
        for case in range(1000):
            store = CorpusStore()
            versions: dict[str, int] = {}
            for batch in range(2):
                lines = []
                for _ in range(int(rng.integers(1, 6))):
                    pid = f"2301.{int(rng.integers(1, 4)):05d}"
                    lines.append(json.dumps({
                        "id": pid, "version": int(rng.integers(1, 5)),
                        "title": "T", "authors": ["Jane Doe"], "abstract": "",
                        "categories": ["math.AG"], "msc": [], "doi": None,
                        "withdrawn": False,
                    }))
                path = tmp_path / "batch.jsonl"
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                store.ingest_preprints(path)
                ids = [r.id for r in store.preprints.values()]
                assert len(ids) == len(set(ids))
                for pid, rec in store.preprints.items():
                    assert rec.version >= versions.get(pid, 1)
                    versions[pid] = rec.version


# -- 6. scope decision table ---------------------------------------------------------------

def test_scope_decision_table():
    with criterion("scope decision table + exhaustive reason codes"):
        rules = load_rules()
        table = {
            ("math.AG",): (True, "included_subcategory"),
            ("math.GM",): (False, "excluded_subcategory"),
            ("math.ST", "cs.LG"): (False, "conditional_crosslisted_nonmath"),
            ("math-ph",): (True, "standalone_included"),
        }
        for cats, (want_in, want_reason) in table.items():
            got = decide_categories(cats, rules)
            assert got.in_scope == want_in, cats
            assert got.reason == want_reason, cats
        reason_cases = {
            ("math.NT",): "included_subcategory",
            ("math-ph",): "standalone_included",
            ("stat.TH",): "conditional_included",
            ("stat.TH", "stat.ML"): "conditional_crosslisted_nonmath",
            ("math.IT",): "excluded_subcategory",
            ("cs.CC",): "no_mathematical_category",
        }
        seen = set()
        for cats, want in reason_cases.items():
            got = decide_categories(cats, rules)
            assert got.reason == want, cats
            seen.add(got.reason)
        assert seen == set(REASON_CODES)


# -- 7. end-to-end determinism ------------------------------------------------------------------

def _run_pipeline(work) -> dict[str, bytes]:
    store = work / "store"
    model = work / "model.json"

    def run(*argv):
        assert cli_main(list(argv)) == 0, argv

    run("ingest", "--preprints", str(CORPUS_DIR / "preprints.jsonl"),
        "--published", str(CORPUS_DIR / "published.jsonl"), "--store", str(store))
    run("train", "--store", str(store), "--model", str(model), "--seed", "42")
    run("match", "--store", str(store), "--model", str(model),
        "--timestamp", TS, "--report", str(work / "match.json"))
    run("eval", "--store", str(store), "--seed", "42",
        "--report", str(work / "eval.json"))
    run("merge", "--store", str(store))
    run("stats", "--store", str(store), "--report", str(work / "stats.json"))
    out = {}
    for f in sorted(store.glob("*.jsonl")):
        out[f"store/{f.name}"] = f.read_bytes()
    for name in ("model.json", "match.json", "eval.json", "stats.json"):
        out[name] = (work / name).read_bytes()
    return out


def test_end_to_end_determinism(tmp_path):
    with criterion("two pipeline runs are byte-identical"):
        run_a = _run_pipeline(tmp_path / "a")
        run_b = _run_pipeline(tmp_path / "b")
        assert run_a.keys() == run_b.keys()
        assert set(run_a) >= {"store/preprints.jsonl", "store/decisions.jsonl",
                              "store/merges.jsonl", "store/profiles.jsonl",
                              "model.json"}
        for name in run_a:
            assert run_a[name] == run_b[name], name
