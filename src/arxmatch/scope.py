"""Editorial scope rules over arXiv category codes.

Which preprints enter the database is pure category-set policy: the
mathematics subcategories minus a fixed exclusion list, mathematical
physics as a whole, and statistics theory (math.ST / stat.TH) only when
the submission carries no cross-listing from a non-mathematical archive.
The rule sets ship as a versioned JSON data file so policy changes need
no code change; overlap_share is the analytic tool that justifies them
after a match run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .corpus import OUTCOME_UNMATCHED, CorpusStore, MatchDecision

REASON_INCLUDED = "included_subcategory"
REASON_STANDALONE = "standalone_included"
REASON_CONDITIONAL_IN = "conditional_included"
REASON_CONDITIONAL_OUT = "conditional_crosslisted_nonmath"
REASON_EXCLUDED = "excluded_subcategory"
REASON_NO_MATH = "no_mathematical_category"

REASON_CODES = (
    REASON_INCLUDED,
    REASON_STANDALONE,
    REASON_CONDITIONAL_IN,
    REASON_CONDITIONAL_OUT,
    REASON_EXCLUDED,
    REASON_NO_MATH,
)

REPORT_HEADER = ("category", "count", "overlap_share", "in_scope", "reason")


@dataclass(frozen=True)
class ScopeRules:
    included: frozenset[str]
    excluded: frozenset[str]
    conditional: frozenset[str]
    standalone: frozenset[str]

    def __post_init__(self):
        if self.included & self.excluded:
            raise ValueError("included and excluded category sets overlap")


@dataclass(frozen=True)
class ScopeDecision:
    in_scope: bool
    reason: str

    def __bool__(self) -> bool:
        return self.in_scope


def load_rules(path: str | Path | None = None) -> ScopeRules:
    """Read a rule set: a JSON object whose keys ``included``, ``excluded``,
    ``conditional`` and ``standalone`` each hold a list of category codes.
    Other keys are ignored. Any other file raises ValueError, naming the
    file when it is not JSON and the key at fault when there is one."""
    source = resources.files("arxmatch.data").joinpath("scope_rules.json") \
        if path is None else Path(path)
    try:
        obj = json.loads(source.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also not UTF-8
        raise ValueError(f"unreadable scope rules {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("scope rules must be a JSON object")
    sets = {}
    for key in (f.name for f in fields(ScopeRules)):
        codes = obj.get(key)
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise ValueError(f"scope rules: {key!r} must be a list of strings")
        sets[key] = frozenset(codes)
    return ScopeRules(**sets)


def _is_nonmath(category: str, rules: ScopeRules) -> bool:
    """Whether one category code counts as non-mathematical: any code
    outside the rule sets and the math and math-ph archives does."""
    if (category in rules.included or category in rules.excluded
            or category in rules.conditional or category in rules.standalone):
        return False
    return category.split(".", 1)[0] not in ("math", "math-ph")


def decide_categories(categories, rules: ScopeRules) -> ScopeDecision:
    cats = list(categories)
    if not cats:
        raise ValueError("a preprint must carry at least one category")
    if any(c in rules.included for c in cats):
        return ScopeDecision(True, REASON_INCLUDED)
    if any(c in rules.standalone for c in cats):
        return ScopeDecision(True, REASON_STANDALONE)
    if any(c in rules.conditional for c in cats):
        if any(_is_nonmath(c, rules) for c in cats):
            return ScopeDecision(False, REASON_CONDITIONAL_OUT)
        return ScopeDecision(True, REASON_CONDITIONAL_IN)
    if any(c in rules.excluded for c in cats):
        return ScopeDecision(False, REASON_EXCLUDED)
    return ScopeDecision(False, REASON_NO_MATH)


def overlap_share(category: str, store: CorpusStore,
                  decisions: dict[str, MatchDecision]) -> float | None:
    """Fraction of preprints carrying the category that matched; None if absent."""
    carrying = [pid for pid in store.preprints
                if category in store.preprints[pid].categories]
    if not carrying:
        return None
    matched = sum(
        1 for pid in carrying
        if pid in decisions and decisions[pid].outcome != OUTCOME_UNMATCHED
    )
    return matched / len(carrying)


def scope_report(store: CorpusStore, decisions: dict[str, MatchDecision],
                 rules: ScopeRules) -> str:
    """Per-category CSV: count, overlap share, and the policy verdict.

    One pass over the preprints; the share is ``overlap_share``'s, counting
    each preprint once per category it carries."""
    counts: dict[str, int] = {}
    carrying: dict[str, int] = {}
    matched: dict[str, int] = {}
    for pid, rec in store.preprints.items():
        for cat in rec.categories:
            counts[cat] = counts.get(cat, 0) + 1
        decision = decisions.get(pid)
        hit = decision is not None and decision.outcome != OUTCOME_UNMATCHED
        for cat in set(rec.categories):
            carrying[cat] = carrying.get(cat, 0) + 1
            matched[cat] = matched.get(cat, 0) + hit
    rows = []
    for cat in sorted(counts, key=lambda c: (-counts[c], c)):
        share = matched[cat] / carrying[cat]
        verdict = decide_categories([cat], rules)
        rows.append((
            cat,
            str(counts[cat]),
            f"{share:.4f}",
            "true" if verdict.in_scope else "false",
            verdict.reason,
        ))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    writer.writerows(rows)
    return buf.getvalue()
