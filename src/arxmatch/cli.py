"""arxmatch command line: ingest -> scope -> train -> match -> merge -> stats/eval.

Every command exits 0 on success, 1 on runtime failure (with a single
machine-readable JSON error line on stderr), and 2 on usage errors. All
randomized steps take an explicit --seed. The match timestamp can be
pinned with --timestamp or the SOURCE_DATE_EPOCH environment variable so
that repeated runs are byte-identical.

The seven store commands open --store through ``corpus.open_store``: only
ingest creates a store; ingest, match and merge lock it exclusively until
their files are replaced, and train, eval, stats and scope lock it shared
while they read it. A store that is missing or locked fails with exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .authors import build_profiles
from .candidates import DEFAULT_K, build_index
from .corpus import (OUTCOME_UNMATCHED, PROFILES_FILE, CorpusStore, StoreError,
                     open_store, write_atomic)
from .evaluate import evaluate
from .forest import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_N_TREES,
    DEFAULT_NEG_PER_POS,
    DEFAULT_THRESHOLD,
    bootstrap_training_set,
    load_model,
    save_model,
    train_forest,
)
from .matcher import batch_match
from .scope import load_rules, scope_report
from .synth import PerturbationProfile, gen_synthetic_corpus

class CliError(RuntimeError):
    """Runtime failure surfaced as exit code 1."""


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with write_atomic(path) as fh:
        fh.write(text)


def _report_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# TIMESTAMP_FORMAT's output; a regex, since strptime imports a locale
# module that costs a third of a megabyte
TIMESTAMP_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


def _run_timestamp(explicit: str | None) -> str:
    """The decision timestamp: ``--timestamp`` in ``TIMESTAMP_FORMAT``, else
    ``SOURCE_DATE_EPOCH`` as integer seconds, else the current time."""
    if explicit is not None:
        fields = TIMESTAMP_RE.fullmatch(explicit)
        try:
            if fields is None:
                raise ValueError
            datetime(*map(int, fields.groups()))  # no such date: ValueError
        except ValueError:
            raise CliError(f"--timestamp must look like 2024-01-01T00:00:00Z, "
                           f"got {explicit!r}") from None
        return explicit
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return datetime.now(tz=timezone.utc).strftime(TIMESTAMP_FORMAT)
    try:
        if not re.fullmatch(r"-?[0-9]+", epoch):
            raise ValueError
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
            TIMESTAMP_FORMAT)
    except (ValueError, OverflowError, OSError):  # not an integer, or no date
        raise CliError(f"SOURCE_DATE_EPOCH must be integer seconds since "
                       f"the epoch, got {epoch!r}") from None


# -- commands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    if not args.preprints and not args.published:
        raise CliError("nothing to ingest: pass --preprints and/or --published")
    for path in (args.preprints, args.published):
        if path:
            _require_file(path)
    with open_store(args.store, "c") as store:
        result: dict = {}
        if args.preprints:
            result["preprints"] = store.ingest_preprints(args.preprints).as_dict()
        if args.published:
            result["published"] = store.ingest_published(args.published).as_dict()
        store.save(args.store)
    sys.stdout.write(_report_json(result))
    return 0


def _require_file(path: str) -> None:
    if not Path(path).is_file():
        raise CliError(f"input file not found: {path}")


def _require_candidates(k: int) -> None:
    if k < 1:
        raise CliError(f"--candidates must be >= 1, got {k}")


def cmd_scope(args) -> int:
    with open_store(args.store) as store:
        csv_text = scope_report(store, store.decisions, load_rules(args.rules))
    _write_text(args.report, csv_text)
    return 0


def cmd_train(args) -> int:
    with open_store(args.store) as store:
        index = build_index(store)
        x, labels = bootstrap_training_set(store, index, neg_per_pos=args.neg_per_pos)
    positives = int(labels.sum())
    model = train_forest(x, labels, n_trees=args.trees, max_depth=args.depth,
                         seed=args.seed, decision_threshold=args.threshold)
    save_model(model, args.model)
    sys.stdout.write(_report_json({
        "model": args.model,
        "training_pairs": len(labels),
        "positives": positives,
        "negatives": len(labels) - positives,
        "n_trees": model.n_trees,
        "max_depth": model.max_depth,
        "seed": model.seed,
    }))
    return 0


def cmd_match(args) -> int:
    _require_candidates(args.candidates)
    timestamp = _run_timestamp(args.timestamp)
    with open_store(args.store, "w") as store:
        _require_file(args.model)
        model = load_model(args.model)
        index = build_index(store)
        report = batch_match(store, index, model, k=args.candidates,
                             timestamp=timestamp)
        store.save(args.store)
    _write_text(args.report, _report_json(dataclasses.asdict(report)))
    return 0


def cmd_merge(args) -> int:
    with open_store(args.store, "w") as store:
        merged = 0
        for pid in sorted(store.decisions):
            decision = store.decisions[pid]
            if decision.outcome == OUTCOME_UNMATCHED:
                continue
            store.merge_on_publication(decision)
            merged += 1
        profiles = build_profiles(store)
        store.save(args.store)
        profiles.export_jsonl(Path(args.store) / PROFILES_FILE)
    sys.stdout.write(_report_json({"merged": merged,
                                   "profiles": len(profiles.profiles)}))
    return 0


def _subject_table(store: CorpusStore, unpublished: list[str]) -> list[dict]:
    names = json.loads(
        resources.files("arxmatch.data").joinpath("msc_sections.json")
        .read_text("utf-8"))
    counts: dict[str, int] = {}
    for pid in unpublished:
        rec = store.preprints[pid]
        if rec.msc:
            area = rec.msc[0][:2]
            counts[area] = counts.get(area, 0) + 1
    return [
        {"msc": area, "area": names.get(area, f"msc-{area}"),
         "count": counts[area]}
        for area in sorted(counts, key=lambda a: (-counts[a], a))
    ]


def cmd_stats(args) -> int:
    with open_store(args.store) as store:
        unpublished = store.unpublished_preprints()
        with_msc = sum(1 for pid in unpublished if store.preprints[pid].msc)
        stats = {
            "preprints_total": len(store.preprints),
            "published_total": len(store.published),
            "unpublished": len(unpublished),
            "matched": len(store.preprints) - len(unpublished),
            "merged": len(store.merges),
            "withdrawn": sum(1 for r in store.preprints.values() if r.withdrawn),
            "with_msc": with_msc,
            "subjects": _subject_table(store, unpublished),
        }
    _write_text(args.report, _report_json(stats))
    return 0


def cmd_eval(args) -> int:
    _require_candidates(args.candidates)
    with open_store(args.store) as store:
        report = evaluate(store, seed=args.seed, n_trees=args.trees,
                          max_depth=args.depth, neg_per_pos=args.neg_per_pos,
                          k=args.candidates, decision_threshold=args.threshold)
    _write_text(args.report, _report_json(dataclasses.asdict(report)))
    return 0


def cmd_gen(args) -> int:
    profile = PerturbationProfile(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(PerturbationProfile)})
    truth = gen_synthetic_corpus(args.n, profile, args.seed, args.out)
    sys.stdout.write(_report_json({
        "out": args.out,
        "pairs": len(truth["pairs"]),
        "decoys": len(truth["decoys"]),
        "doi_assigned": len(truth["doi_assigned"]),
        "wrong_doi": len(truth["wrong_doi"]),
    }))
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arxmatch",
        description="Match preprint metadata against a published-literature corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load JSONL records into a store directory")
    p.add_argument("--preprints", help="preprint JSONL file")
    p.add_argument("--published", help="published-record JSONL file")
    p.add_argument("--store", required=True, help="store directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("scope", help="per-category scope report (CSV)")
    p.add_argument("--store", required=True)
    p.add_argument("--rules", help="scope rules JSON (default: packaged rules)")
    p.add_argument("--report", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_scope)

    p = sub.add_parser("train", help="train the match classifier from DOI pairs")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True, help="output model JSON path")
    p.add_argument("--trees", type=int, default=DEFAULT_N_TREES)
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--neg-per-pos", type=int, default=DEFAULT_NEG_PER_POS)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("match", help="run the two-step matcher over the store")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True, help="trained model JSON path")
    p.add_argument("--candidates", type=int, default=DEFAULT_K,
                   help="candidates per preprint (default %(default)s)")
    p.add_argument("--report", help="report JSON path (default: stdout)")
    p.add_argument("--timestamp",
                   help="pin the decision timestamp, as 2024-01-01T00:00:00Z; "
                        "default: SOURCE_DATE_EPOCH or current time")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("merge", help="merge matched preprints into published entries")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("stats", help="corpus statistics and MSC subject table")
    p.add_argument("--store", required=True)
    p.add_argument("--report", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="precision/recall on held-out DOI pairs")
    p.add_argument("--store", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", help="output JSON path (default: stdout)")
    p.add_argument("--trees", type=int, default=DEFAULT_N_TREES)
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--neg-per-pos", type=int, default=DEFAULT_NEG_PER_POS)
    p.add_argument("--candidates", type=int, default=DEFAULT_K)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic evaluation corpus")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    for field in dataclasses.fields(PerturbationProfile):  # --title-sub, ...
        p.add_argument("--" + field.name.replace("_", "-"), type=float,
                       default=field.default)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, StoreError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform runtime failure surface
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
