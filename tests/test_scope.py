from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arxmatch.corpus import OUTCOME_DOI, OUTCOME_UNMATCHED, MatchDecision
from arxmatch.scope import (
    REASON_CODES,
    REASON_CONDITIONAL_IN,
    REASON_CONDITIONAL_OUT,
    REASON_EXCLUDED,
    REASON_INCLUDED,
    REASON_NO_MATH,
    REASON_STANDALONE,
    ScopeRules,
    decide_categories,
    load_rules,
    overlap_share,
    scope_report,
)

from conftest import make_preprint, make_published, store_with

TS = "2024-01-01T00:00:00Z"
RULES = load_rules()


def decision(pid, accession="zbl00000001", matched=True):
    if matched:
        return MatchDecision(pid, OUTCOME_DOI, accession, None, TS)
    return MatchDecision(pid, OUTCOME_UNMATCHED, None, None, TS)


class TestInScope:
    def test_included_subcategory(self):
        d = decide_categories(("math.AG",), RULES)
        assert d.in_scope and d.reason == REASON_INCLUDED

    def test_general_mathematics_excluded(self):
        d = decide_categories(("math.GM",), RULES)
        assert not d.in_scope and d.reason == REASON_EXCLUDED

    def test_statistics_with_nonmath_crosslist_excluded(self):
        d = decide_categories(("math.ST", "cs.LG"), RULES)
        assert not d.in_scope and d.reason == REASON_CONDITIONAL_OUT

    def test_mathematical_physics_included_as_whole(self):
        d = decide_categories(("math-ph",), RULES)
        assert d.in_scope and d.reason == REASON_STANDALONE

    def test_statistics_alone_included(self):
        for cat in ("math.ST", "stat.TH"):
            d = decide_categories((cat,), RULES)
            assert d.in_scope and d.reason == REASON_CONDITIONAL_IN

    def test_statistics_with_math_crosslist_included(self):
        d = decide_categories(("math.ST", "math.GM"), RULES)
        assert d.in_scope and d.reason == REASON_CONDITIONAL_IN

    def test_excluded_plus_included_is_in(self):
        d = decide_categories(("math.GM", "math.AG"), RULES)
        assert d.in_scope and d.reason == REASON_INCLUDED

    def test_pure_nonmath(self):
        d = decide_categories(("cs.LG",), RULES)
        assert not d.in_scope and d.reason == REASON_NO_MATH

    def test_unknown_code_flagged_nonmath(self):
        d = decide_categories(("math.ST", "xy.ZW"), RULES)
        assert not d.in_scope and d.reason == REASON_CONDITIONAL_OUT

    def test_unlisted_math_subcategory_not_nonmath(self):
        # an unlisted math.* code is mathematical but carries no inclusion
        d = decide_categories(("math.ST", "math.ZZ"), RULES)
        assert d.in_scope and d.reason == REASON_CONDITIONAL_IN

    def test_reason_codes_closed_enumeration(self):
        cases = {
            ("math.AG",): REASON_INCLUDED,
            ("math-ph",): REASON_STANDALONE,
            ("math.ST",): REASON_CONDITIONAL_IN,
            ("math.ST", "q-bio.PE"): REASON_CONDITIONAL_OUT,
            ("math.HO",): REASON_EXCLUDED,
            ("hep-th",): REASON_NO_MATH,
        }
        seen = set()
        for cats, want in cases.items():
            got = decide_categories(cats, RULES)
            assert got.reason == want
            seen.add(got.reason)
        assert seen == set(REASON_CODES)

    def test_monotone_nonmath_crosslist_only_flips_in_to_out(self):
        import itertools
        base_sets = [("math.ST",), ("math.ST", "stat.TH"), ("math.AG",),
                     ("math.GM",), ("math-ph",)]
        for cats, extra in itertools.product(base_sets,
                                             ("cs.LG", "physics.soc-ph")):
            before = decide_categories(cats, RULES)
            after = decide_categories(cats + (extra,), RULES)
            assert not (not before.in_scope and after.in_scope)

    def test_rules_validation(self):
        with pytest.raises(ValueError):
            ScopeRules(included=frozenset({"math.GM"}),
                       excluded=frozenset({"math.GM"}),
                       conditional=frozenset(), standalone=frozenset())

    def test_default_rules_shape(self):
        assert len(RULES.included) == 28
        assert RULES.excluded == {"math.GM", "math.HO", "math.IT"}
        assert RULES.conditional == {"math.ST", "stat.TH"}
        assert RULES.standalone == {"math-ph", "math.MP"}


class TestLoadRules:
    @pytest.mark.parametrize("change, problem", [
        ({"included": "math.AG"}, "'included' must be a list of strings"),
        ({"excluded": ["math.GM", 7]}, "'excluded' must be a list of strings"),
        ({"standalone": None}, "'standalone' must be a list of strings"),
    ])
    def test_malformed_rule_set_names_the_key(self, tmp_path, change, problem):
        rules = {f: sorted(getattr(RULES, f))
                 for f in ("included", "excluded", "conditional", "standalone")}
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({**rules, **change}))
        with pytest.raises(ValueError, match=problem):
            load_rules(path)

    @pytest.mark.parametrize("data", [b'{"included":\n\n', b"[" * 100_000,
                                      b'{"included": 1' + b"9" * 5000 + b"}",
                                      b'{"included": ["math.\xff"]}'])
    def test_unparseable_file_names_the_file(self, tmp_path, data):
        path = tmp_path / "rules.json"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"unreadable scope rules {path}: "):
            load_rules(path)

    def test_rule_set_must_be_an_object(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(sorted(RULES.included)))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_rules(path)


class TestOverlapShare:
    def _store(self):
        preprints = [
            make_preprint(pid=f"2301.{i:05d}", categories=("math.AG",))
            for i in range(1, 11)
        ]
        return store_with(preprints, [make_published()])

    def test_all_matched(self):
        store = self._store()
        decisions = {p: decision(p) for p in store.preprints}
        assert overlap_share("math.AG", store, decisions) == 1.0

    def test_half_matched(self):
        store = self._store()
        decisions = {}
        for i, pid in enumerate(sorted(store.preprints)):
            decisions[pid] = decision(pid, matched=i % 2 == 0)
        assert overlap_share("math.AG", store, decisions) == 0.5

    def test_absent_category(self):
        assert overlap_share("math.NT", self._store(), {}) is None

    def test_crosslisted_counts(self):
        store = store_with(
            [make_preprint(categories=("math.NT", "math.AG"))], [])
        decisions = {"2301.00001": decision("2301.00001")}
        assert overlap_share("math.AG", store, decisions) == 1.0
        assert overlap_share("math.NT", store, decisions) == 1.0


class TestScopeReport:
    def test_header_only_for_empty_store(self):
        out = scope_report(store_with([], []), {}, RULES)
        assert out == "category,count,overlap_share,in_scope,reason\n"

    def test_generator_ground_truth(self):
        preprints = (
            [make_preprint(pid=f"2301.{i:05d}", categories=("math.AG",))
             for i in range(1, 5)]
            + [make_preprint(pid=f"2302.{i:05d}", categories=("math.GM",))
               for i in range(1, 3)]
        )
        store = store_with(preprints, [make_published()])
        decisions = {
            "2301.00001": decision("2301.00001"),
            "2301.00002": decision("2301.00002"),
            "2301.00003": decision("2301.00003", matched=False),
            "2301.00004": decision("2301.00004", matched=False),
            "2302.00001": decision("2302.00001", matched=False),
            "2302.00002": decision("2302.00002", matched=False),
        }
        rows = list(csv.DictReader(io.StringIO(
            scope_report(store, decisions, RULES))))
        assert rows[0]["category"] == "math.AG"
        assert rows[0]["count"] == "4"
        assert rows[0]["overlap_share"] == "0.5000"
        assert rows[0]["in_scope"] == "true"
        assert rows[1]["category"] == "math.GM"
        assert rows[1]["overlap_share"] == "0.0000"
        assert rows[1]["in_scope"] == "false"

    def test_rules_flip_changes_exactly_one_row(self, tmp_path):
        preprints = [make_preprint(pid="2301.00001", categories=("math.IT",)),
                     make_preprint(pid="2301.00002", categories=("math.AG",))]
        store = store_with(preprints, [])
        base = scope_report(store, {}, RULES)
        custom = {
            "included": sorted(RULES.included | {"math.IT"}),
            "excluded": sorted(RULES.excluded - {"math.IT"}),
            "conditional": sorted(RULES.conditional),
            "standalone": sorted(RULES.standalone),
            "nonmath_prefixes": ["cs"],  # older rule files carry it; ignored
        }
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(custom))
        flipped = scope_report(store, {}, load_rules(rules_path))
        base_rows = {r["category"]: r for r in csv.DictReader(io.StringIO(base))}
        new_rows = {r["category"]: r for r in csv.DictReader(io.StringIO(flipped))}
        assert base_rows["math.IT"]["in_scope"] == "false"
        assert new_rows["math.IT"]["in_scope"] == "true"
        assert base_rows["math.AG"] == new_rows["math.AG"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.lists(st.sampled_from(("math.AG", "math.NT", "cs.LG")),
                           min_size=1, max_size=4),
                  st.sampled_from((None, True, False))),
        max_size=8))
    def test_shares_equal_overlap_share(self, rows):
        # repeated categories on one preprint count it once, as in overlap_share
        store = store_with([make_preprint(pid=f"2301.{i:05d}", categories=cats)
                            for i, (cats, _) in enumerate(rows, 1)], [])
        decisions = {f"2301.{i:05d}": decision(f"2301.{i:05d}", matched=m)
                     for i, (_, m) in enumerate(rows, 1) if m is not None}
        report = csv.DictReader(io.StringIO(scope_report(store, decisions, RULES)))
        for row in report:
            share = overlap_share(row["category"], store, decisions)
            assert row["overlap_share"] == f"{share:.4f}"
