"""arxmatch command line: ingest -> scope -> train -> match -> merge -> stats/eval.

Every command exits 0 on success, 1 on runtime failure (with a single
machine-readable JSON error line on stderr), and 2 on usage errors. All
randomized steps take an explicit --seed. The match timestamp can be
pinned with --timestamp so that repeated runs are byte-identical.

The seven store commands open --store through ``corpus.open_store``: only
ingest creates a store; ingest, match and merge lock it exclusively until
their files are replaced, and train, eval, stats and scope lock it shared
while they read it. Each command loads only the tables it reads or writes:
ingest those of its inputs, train and eval preprints and published, scope
those two and decisions, and match, merge and stats all four. A store that
is missing or locked, or a bad line in a table the command loads, fails
with exit 1, after the forest options of train and eval, match's --model,
scope's --rules and every output path pass; an output path may name neither
a file of the store nor the command's own --model or --rules.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .authors import build_profiles
from .candidates import DEFAULT_K, build_index
from .corpus import (LOCK_FILE, PROFILES_FILE, TABLES, CorpusStore, StoreError,
                     open_store, report_json, write_atomic)
from .evaluate import evaluate
from .forest import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_N_TREES,
    DEFAULT_NEG_PER_POS,
    DEFAULT_THRESHOLD,
    bootstrap_training_set,
    hyperparameter_problem,
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


TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# TIMESTAMP_FORMAT's output; a regex, since strptime imports a locale
# module that costs a third of a megabyte
TIMESTAMP_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")


def _run_timestamp(explicit: str | None) -> str:
    """The decision timestamp: ``--timestamp`` in ``TIMESTAMP_FORMAT``, else
    the current UTC time."""
    if explicit is None:
        return datetime.now(tz=timezone.utc).strftime(TIMESTAMP_FORMAT)
    fields = TIMESTAMP_RE.fullmatch(explicit)
    try:
        if fields is None:
            raise ValueError
        datetime(*map(int, fields.groups()))  # no such date: ValueError
    except ValueError:
        raise CliError(f"--timestamp must look like 2024-01-01T00:00:00Z, "
                       f"got {explicit!r}") from None
    return explicit


# -- commands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    if not args.preprints and not args.published:
        raise CliError("nothing to ingest: pass --preprints and/or --published")
    for path in (args.preprints, args.published):
        if path:
            _require_file(path)
    tables = [t for t in ("preprints", "published") if getattr(args, t)]
    with open_store(args.store, "c", tables) as store:
        result: dict = {}
        if args.preprints:
            result["preprints"] = store.ingest_preprints(args.preprints).as_dict()
        if args.published:
            result["published"] = store.ingest_published(args.published).as_dict()
        # a report that stdout cannot encode fails here, before the save
        text = report_json(result)
        if sys.stdout.encoding:  # None for an in-memory stream
            text.encode(sys.stdout.encoding, sys.stdout.errors)
        store.save(args.store)
    sys.stdout.write(text)
    return 0


def _require_file(path: str) -> None:
    if not Path(path).is_file():
        raise CliError(f"input file not found: {path}")


def _require_output(path: str | None, store: str, source: str | None = None) -> None:
    """A file path to write, or None for stdout; its directory must exist,
    and it must be neither one of the store's own files nor ``source``, the
    file the command reads."""
    if path is None:
        return
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise CliError(f"output path must name a file in an existing directory: {path}")
    home = Path(store).resolve()
    own = [f"{table}.jsonl" for table in TABLES] + [PROFILES_FILE, LOCK_FILE]
    target = Path(path).resolve()
    if target in [home / name for name in own]:
        raise CliError(f"output path is a file of the store: {path}")
    if source is not None and target == Path(source).resolve():
        raise CliError(f"output path is the command's input file: {path}")


def _require_candidates(k: int) -> None:
    if k < 1:
        raise CliError(f"--candidates must be >= 1, got {k}")


def _require_hyperparameters(args) -> None:
    problem = hyperparameter_problem(args.trees, args.depth, args.seed,
                                     args.threshold, args.neg_per_pos)
    if problem is not None:
        raise CliError(problem)


def cmd_scope(args) -> int:
    if args.rules is not None:
        _require_file(args.rules)
    rules = load_rules(args.rules)
    _require_output(args.report, args.store, args.rules)
    with open_store(args.store, tables=("preprints", "published",
                                        "decisions")) as store:
        csv_text = scope_report(store, rules)
    _write_text(args.report, csv_text)
    return 0


def cmd_train(args) -> int:
    _require_hyperparameters(args)
    _require_output(args.model, args.store)
    with open_store(args.store, tables=("preprints", "published")) as store:
        index = build_index(store)
        x, labels = bootstrap_training_set(store, index, neg_per_pos=args.neg_per_pos)
    positives = int(labels.sum())
    model = train_forest(x, labels, n_trees=args.trees, max_depth=args.depth,
                         seed=args.seed, decision_threshold=args.threshold)
    save_model(model, args.model)
    sys.stdout.write(report_json({
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
    _require_file(args.model)
    model = load_model(args.model)
    _require_output(args.report, args.store, args.model)
    with open_store(args.store, "w") as store:
        index = build_index(store)
        report = batch_match(store, index, model, k=args.candidates,
                             timestamp=timestamp)
        store.save(args.store)
    _write_text(args.report, report_json(dataclasses.asdict(report)))
    return 0


def cmd_merge(args) -> int:
    with open_store(args.store, "w") as store:
        merged = 0
        for pid in sorted(store.decisions):
            decision = store.decisions[pid]
            if not decision.matched:
                continue
            store.merge_on_publication(decision)
            merged += 1
        profiles = build_profiles(store)
        store.save(args.store)
        profiles.export_jsonl(Path(args.store) / PROFILES_FILE)
    sys.stdout.write(report_json({"merged": merged,
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
    _require_output(args.report, args.store)
    with open_store(args.store) as store:
        unpublished = store.unpublished_preprints()
        # each unpublished preprint with MSC codes counts once, under its first area
        subjects = _subject_table(store, unpublished)
        stats = {
            "preprints_total": len(store.preprints),
            "published_total": len(store.published),
            "unpublished": len(unpublished),
            "matched": len(store.preprints) - len(unpublished),
            "merged": len(store.merges),
            "withdrawn": sum(1 for r in store.preprints.values() if r.withdrawn),
            "with_msc": sum(row["count"] for row in subjects),
            "subjects": subjects,
        }
    _write_text(args.report, report_json(stats))
    return 0


def cmd_eval(args) -> int:
    _require_candidates(args.candidates)
    _require_hyperparameters(args)
    _require_output(args.report, args.store)
    with open_store(args.store, tables=("preprints", "published")) as store:
        report = evaluate(store, seed=args.seed, n_trees=args.trees,
                          max_depth=args.depth, neg_per_pos=args.neg_per_pos,
                          k=args.candidates, decision_threshold=args.threshold)
    _write_text(args.report, report_json(dataclasses.asdict(report)))
    return 0


def cmd_gen(args) -> int:
    if (Path(args.out) / LOCK_FILE).exists():
        raise CliError(f"--out is a store directory: {args.out}")
    profile = PerturbationProfile(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(PerturbationProfile)})
    truth = gen_synthetic_corpus(args.n, profile, args.seed, args.out)
    sys.stdout.write(report_json({
        "out": args.out,
        "pairs": len(truth["pairs"]),
        "decoys": len(truth["decoys"]),
        "doi_assigned": len(truth["doi_assigned"]),
        "wrong_doi": len(truth["wrong_doi"]),
    }))
    return 0


# -- parser ---------------------------------------------------------------------


def _add_forest_options(p: argparse.ArgumentParser) -> None:
    """train's and eval's options, checked by hyperparameter_problem."""
    p.add_argument("--trees", type=int, default=DEFAULT_N_TREES)
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--neg-per-pos", type=int, default=DEFAULT_NEG_PER_POS)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=int, required=True)


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
    _add_forest_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("match", help="run the two-step matcher over the store")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True, help="trained model JSON path")
    p.add_argument("--candidates", type=int, default=DEFAULT_K,
                   help="candidates per preprint (default %(default)s)")
    p.add_argument("--report", help="report JSON path (default: stdout)")
    p.add_argument("--timestamp",
                   help="pin the decision timestamp, as 2024-01-01T00:00:00Z; "
                        "default: the current time")
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
    p.add_argument("--report", help="output JSON path (default: stdout)")
    p.add_argument("--candidates", type=int, default=DEFAULT_K)
    _add_forest_options(p)
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
