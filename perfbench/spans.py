"""Span recorder and per-layer summary for the traced benchmark run.

The recorder wraps arxmatch's public layer functions at the names their
callers look up (``from .x import y`` binds ``y`` in the caller's module,
so each such binding is replaced separately). Every wrapped call becomes
one span: name, start, end, parent span and the run id of the timed pass.
Spans stay in memory in flat arrays and are written to one JSON file when
the pass ends; ``summarize`` turns that file into per-layer numbers.

Nothing under ``src/`` is modified: wrapping happens in the child process
that runs the traced pass, after import and before the first command.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


class SpanRecorder:
    """Flat in-memory span store for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_exit=None):
        """Return fn wrapped in a span; on_exit(args, kwargs, result) counts."""
        if hasattr(fn, "span_name"):
            raise ValueError(f"{name}: already traced as {fn.span_name}")
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        traced.span_name = name
        return traced

    def write(self, path: str | Path) -> None:
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")),
                              encoding="utf-8")


def _patch(owner, attr: str, wrapper) -> None:
    if not hasattr(owner, attr):
        raise AttributeError(f"{owner!r} has no attribute {attr!r} to trace")
    setattr(owner, attr, wrapper)


def install(rec: SpanRecorder, truth: dict[str, str]):
    """Wrap every traced layer function; return a (hits, misses) reader for
    the normalize_text LRU cache.

    `truth` maps preprint id -> true accession and feeds recall@k.
    """
    from arxmatch import (_kernels, authors, candidates, cli, corpus, evaluate,
                          forest, matcher, normalize, similarity)

    c = rec.counters

    def lev_exit(args, kwargs, result):
        c["kernels.levenshtein.cells"] += int(args[0].size) * int(args[1].size)

    def forest_rows(args, kwargs, result):
        c["kernels.forest_eval.rows"] += int(args[6].shape[0])

    def predict_rows(args, kwargs, result):
        c["forest.predict_many.rows"] += int(len(args[1]))

    def query_exit(args, kwargs, result):
        if not result:
            c["candidates.query_candidates.empty"] += 1

    def match_query_exit(args, kwargs, result):
        query_exit(args, kwargs, result)
        true_acc = truth.get(args[1].id)
        if true_acc is not None:
            c["candidates.recall.queries"] += 1
            c["candidates.recall.hits"] += true_acc in result

    def doi_exit(args, kwargs, result):
        c["matcher.doi_hits"] += result is not None

    def classifier_exit(args, kwargs, result):
        c["matcher.classifier_calls"] += 1
        c["matcher.positives"] += result is not None

    for kname in ("levenshtein", "sorted_dot", "best_split", "forest_eval"):
        on_exit = {"levenshtein": lev_exit, "forest_eval": forest_rows}.get(kname)
        _patch(_kernels, kname,
               rec.wrap(f"kernels.{kname}", getattr(_kernels, kname), on_exit))

    _patch(matcher, "feature_vector_projected",
           rec.wrap("similarity.feature_vector_projected",
                    similarity.feature_vector_projected))
    _patch(forest, "feature_vector",
           rec.wrap("similarity.feature_vector", similarity.feature_vector))
    _patch(similarity, "project", rec.wrap("similarity.project", similarity.project))

    _patch(matcher, "predict_many",
           rec.wrap("forest.predict_many", forest.predict_many, predict_rows))
    train = rec.wrap("forest.train_forest", forest.train_forest)
    for owner in (cli, evaluate):
        _patch(owner, "train_forest", train)
    pairs = rec.wrap("forest.training_pairs_from", forest.training_pairs_from)
    for owner in (forest, evaluate):
        _patch(owner, "training_pairs_from", pairs)

    build = rec.wrap("candidates.build_index", candidates.build_index)
    for owner in (cli, evaluate):
        _patch(owner, "build_index", build)
    _patch(matcher, "query_candidates",
           rec.wrap("candidates.query_candidates", candidates.query_candidates,
                    match_query_exit))
    _patch(forest, "query_candidates",
           rec.wrap("candidates.query_candidates", candidates.query_candidates,
                    query_exit))

    lru = normalize.normalize_text
    normalized = rec.wrap("normalize.normalize_text", lru)
    for owner in (candidates, matcher, normalize, similarity):
        _patch(owner, "normalize_text", normalized)

    _patch(matcher, "match_by_doi",
           rec.wrap("matcher.match_by_doi", matcher.match_by_doi, doi_exit))
    classifier = rec.wrap("matcher.match_by_classifier",
                          matcher.match_by_classifier, classifier_exit)
    for owner in (matcher, evaluate):
        _patch(owner, "match_by_classifier", classifier)

    store_cls = corpus.CorpusStore
    _patch(store_cls, "load",
           classmethod(rec.wrap("corpus.load", store_cls.load.__func__)))
    _patch(store_cls, "save", rec.wrap("corpus.save", store_cls.save))
    for method in ("ingest_preprints", "ingest_published"):
        _patch(store_cls, method,
               rec.wrap("corpus.ingest", getattr(store_cls, method)))

    _patch(cli, "build_profiles",
           rec.wrap("authors.build_profiles", authors.build_profiles))
    table = authors.ProfileTable
    _patch(table, "update_on_merge",
           rec.wrap("authors.update_on_merge", table.update_on_merge))
    _patch(table, "export_jsonl",
           rec.wrap("authors.export_jsonl", table.export_jsonl))

    _patch(cli, "scope_report", rec.wrap("scope.scope_report", cli.scope_report))
    _patch(cli, "evaluate", rec.wrap("evaluate.evaluate", cli.evaluate))

    def cache_counts() -> tuple[int, int]:
        info = lru.cache_info()
        return info.hits, info.misses

    return cache_counts


def summarize(path: str | Path) -> dict[str, dict]:
    """Per span name: calls, busy_s (summed duration) and self_s.

    Self time is a span's duration minus the part of it its child spans
    cover. The program is single-threaded, so a span's direct children
    never overlap and that part is the sum of their durations.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    names = data["names"]
    starts, ends, parents = data["start"], data["end"], data["parent"]
    child_time = [0.0] * len(starts)
    for i, par in enumerate(parents):
        if par >= 0:
            child_time[par] += ends[i] - starts[i]
    out: dict[str, dict] = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                            for n in names}
    for i, nid in enumerate(data["name"]):
        dur = ends[i] - starts[i]
        row = out[names[nid]]
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - child_time[i]
    return {"run_id": data["run_id"], "spans": out, "counters": data["counters"]}
