"""Kernel basics and the lane-packed Levenshtein against its oracles; the
oracle suites in test_similarity and test_forest cover the rest."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arxmatch._kernels as K

from test_similarity import edit_distance_oracle, levenshtein_each


def scalar_levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """One pair at a time: the single-lane form of the packed kernel.

    Bit i of a Python int stands for row i + 1 of the DP column; peq[c]
    has bit i set where a[i] == c, and the score follows the last row
    through the high bit.
    """
    n, m = a.size, b.size
    if n == 0:
        return int(m)
    if m == 0:
        return int(n)
    peq: dict[int, int] = {}
    bit = 1
    for c in a.tolist():
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, score = mask, 0, n
    for c in b.tolist():
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def assert_matches_oracle(a: str, bs: list[str]) -> None:
    assert levenshtein_each(a, bs) == [edit_distance_oracle(a, b) for b in bs], (a, bs)


def test_str_to_codes_roundtrip():
    codes = K.str_to_codes("abc-δ 1")
    assert codes.tolist() == [ord(c) for c in "abc-δ 1"]
    assert K.str_to_codes("").size == 0


def test_levenshtein_numpy_basics():
    assert levenshtein_each("abc", ["abc", "abd", "", "xyz"]) == [0, 1, 3, 3]
    assert levenshtein_each("", ["xyz"]) == [3]
    assert levenshtein_each("kitten", ["sitting"]) == [3]
    assert levenshtein_each("abc", []) == []


def test_scalar_oracle_vs_dp():
    rng = np.random.default_rng(30)
    for _ in range(300):
        a, b = ("".join(rng.choice(list("abc -"), rng.integers(0, 90)))
                for _ in range(2))
        assert scalar_levenshtein(K.str_to_codes(a), K.str_to_codes(b)) \
            == edit_distance_oracle(a, b)


class TestLanes:
    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 128])
    def test_lane_lengths_at_word_boundaries(self, m):
        rng = np.random.default_rng(31 + m)
        for _ in range(5):
            a = "".join(rng.choice(list("abcd"), rng.integers(0, 140)))
            bs = ["".join(rng.choice(list("abcd"), m)) for _ in range(3)]
            bs.insert(1, a[:m])  # a near match keeps long runs of carries
            assert_matches_oracle(a, bs)

    def test_all_lanes_empty(self):
        assert levenshtein_each("abc", ["", "", ""]) == [3, 3, 3]
        assert levenshtein_each("", ["", ""]) == [0, 0]

    def test_empty_a_scores_each_length(self):
        assert levenshtein_each("", ["a", "", "x" * 65, "ab" * 100]) == [1, 0, 65, 200]

    def test_carry_stops_at_guard_bit(self):
        # a long run of matches in a lane makes the add carry up through
        # the lane's top bit; without the guard bit it would land in the
        # next lane's first row
        a = "a" * 70
        bs = ["a" * 64, "b", "a" * 3, "", "b" * 5, "a" * 129, "ba", "a"]
        assert_matches_oracle(a, bs)
        assert_matches_oracle("b" + a, bs)
        assert_matches_oracle(a + "b", bs[::-1])

    def test_mixed_long_and_short_lanes(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            a = "".join(rng.choice(list("ab"), rng.integers(0, 100)))
            bs = ["".join(rng.choice(list("ab"), rng.choice([0, 1, 2, 3, 70, 130])))
                  for _ in range(int(rng.integers(1, 10)))]
            assert_matches_oracle(a, bs)

    def test_non_bmp_and_combining_codepoints(self):
        alphabet = ["\U0001d538", "\U0001d539", "\u0301", "\u0308", "\u00e9", "e",
                    "\u6578", "\u00df", " "]
        rng = np.random.default_rng(33)
        for _ in range(40):
            a = "".join(rng.choice(alphabet, rng.integers(0, 80)))
            bs = ["".join(rng.choice(alphabet, rng.integers(0, 80)))
                  for _ in range(int(rng.integers(1, 6)))]
            assert_matches_oracle(a, bs)
        # a combining mark is a codepoint of its own, a non-BMP letter is one
        assert levenshtein_each("e\u0301\U0001d538", [
            "\u00e9\U0001d538", "e\u0301\U0001d539", "\U0001d538",
        ]) == [2, 1, 2]


class TestWords:
    def test_lanes_spill_over_the_word_width(self):
        # 200 lanes of up to 100 characters fill several words
        rng = np.random.default_rng(34)
        a = "".join(rng.choice(list("abcde "), 60))
        bs = ["".join(rng.choice(list("abcde "), rng.integers(0, 100)))
              for _ in range(200)]
        assert sum(len(b) + 1 for b in bs) > 2 * K.WORD_BITS
        want = [scalar_levenshtein(K.str_to_codes(a), K.str_to_codes(b)) for b in bs]
        assert levenshtein_each(a, bs) == want

    def test_lane_wider_than_a_word(self):
        a = "ab" * 40
        bs = ["ba" * 2500, "a", "ab" * 2100, ""]
        assert len(bs[0]) > K.WORD_BITS
        want = [scalar_levenshtein(K.str_to_codes(a), K.str_to_codes(b)) for b in bs]
        assert levenshtein_each(a, bs) == want

    @pytest.mark.parametrize("word_bits", [1, 2, 8, 65, 130])
    def test_any_word_width_gives_the_same_distances(self, monkeypatch, word_bits):
        rng = np.random.default_rng(35)
        a = "".join(rng.choice(list("abc"), 50))
        bs = ["".join(rng.choice(list("abc"), rng.choice([0, 1, 7, 64, 65])))
              for _ in range(30)]
        want = levenshtein_each(a, bs)
        monkeypatch.setattr(K, "WORD_BITS", word_bits)
        assert levenshtein_each(a, bs) == want


short_text = st.text(alphabet="ab c\u0301\U0001d538", max_size=40)


@given(short_text, st.lists(short_text, max_size=8))
@settings(max_examples=200, deadline=None)
def test_property_random_lanes_match_the_dp_oracle(a, bs):
    assert_matches_oracle(a, bs)


def sparse(counts: dict[int, int]) -> np.ndarray:
    """A (2, n) sorted_dot vector: keys over counts."""
    return np.array((list(counts), list(counts.values())), dtype=np.int64).reshape(2, -1)


def dots_of(a: dict[int, int], bs: list[dict[int, int]]) -> list[int]:
    """sorted_dot of a with each of bs, concatenated with their ends; the
    lookup it borrows must come back all zero."""
    ends = np.cumsum([len(b) for b in bs], dtype=np.int64)
    b = np.concatenate([sparse(b) for b in bs], axis=1) if bs else sparse({})
    lookup = np.zeros(2 * 31 + 2, dtype=np.int64)
    dots = K.sorted_dot(lookup, sparse(a), b, ends).tolist()
    assert not lookup.any()
    return dots


class TestSortedDot:
    def test_basics(self):
        a = {5: 2, -1: 1, 9: 3}
        assert dots_of(a, [{5: 4}, {}, {9: 1, -1: 1, 7: 8}, {-2: 1}]) == [8, 0, 4, 0]
        assert dots_of({}, [{1: 1}, {}]) == [0, 0]
        assert dots_of(a, []) == []

    @given(st.dictionaries(st.integers(-30, 30), st.integers(1, 10**6)),
           st.lists(st.dictionaries(st.integers(-30, 30), st.integers(1, 10**6)),
                    max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_equals_dict_dot(self, a, bs):
        assert dots_of(a, bs) == [sum(n * a.get(key, 0) for key, n in b.items())
                                  for b in bs]

    def test_exact_where_the_running_sum_wraps(self):
        # each dot is just below 2**63 - 1, so the int64 running sum wraps
        # several times; every segment's difference is still exact
        big = 2**31 - 1
        a = {0: big, 1: big}
        bs = [{0: big, 1: big}] * 6 + [{1: 1}, {}, {0: big}]
        want = [2 * big * big] * 6 + [big, 0, big * big]
        assert max(want) < 2**63
        assert dots_of(a, bs) == want

    def test_lookup_zeroed_when_a_key_is_out_of_range(self):
        lookup = np.zeros(8, dtype=np.int64)
        with pytest.raises(IndexError):
            K.sorted_dot(lookup, sparse({1: 5, -2: 1}), sparse({9: 1}), np.array([1]))
        assert not lookup.any()
