"""Kernel basics and the run Levenshtein against its oracles; the oracle
suites in test_similarity and test_forest cover the rest."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arxmatch._kernels as K

from test_similarity import edit_distance_oracle, levenshtein_each, levenshtein_run


def scalar_levenshtein(a: str, b: str) -> int:
    """One pair at a time: the single-lane form of the run kernel.

    Bit i of a Python int stands for row i + 1 of the DP column; peq[c]
    has bit i set where a[i] == c, and the score follows the last row
    through the high bit.
    """
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    pv, mv, score = mask, 0, n
    for c in b:
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


# 300 CJK letters and an astral one: a run over them has more than 255 symbols
WIDE = "".join(chr(0x4E00 + i) for i in range(300)) + "\U0001d538"


def test_encode_roundtrip():
    strings = ["abc-δ 1", "", "δx\U0001d538"]
    symbols, ends = K.encode(strings)
    assert symbols.dtype == np.uint8
    assert ends.tolist() == [7, 7, 10]
    # symbols number the characters in order of first appearance
    chars = list(dict.fromkeys("".join(strings)))
    assert symbols.max() == len(chars) - 1
    assert "".join(chars[s] for s in symbols.tolist()) == "".join(strings)
    symbols, ends = K.encode(["ab", WIDE])
    assert symbols.dtype == np.uint32 and symbols.max() == 302
    assert ends.tolist() == [2, 303]
    assert K.encode([])[0].size == 0


def test_levenshtein_numpy_basics():
    assert levenshtein_each("abc", ["abc", "abd", "", "xyz"]) == [0, 1, 3, 3]
    assert levenshtein_each("", ["xyz"]) == [3]
    assert levenshtein_each("kitten", ["sitting"]) == [3]
    assert levenshtein_each("abc", []) == []
    assert levenshtein_run(["abc", "", "kitten"], ["sitting", "ab", "abd", "x"],
                           [2, 0, 0, 1]) == [3, 1, 1, 1]


def test_scalar_oracle_vs_dp():
    rng = np.random.default_rng(30)
    for _ in range(300):
        a, b = ("".join(rng.choice(list("abc -"), rng.integers(0, 90)))
                for _ in range(2))
        assert scalar_levenshtein(a, b) == edit_distance_oracle(a, b)


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
        # a long run of matches makes the add carry up through a word's top
        # bit: it must reach the next word of its own lane, through the
        # horizontal delta carried between words, and no other lane
        a = "a" * 70
        bs = ["a" * 64, "b", "a" * 3, "", "b" * 5, "a" * 129, "ba", "a"]
        assert_matches_oracle(a, bs)
        assert_matches_oracle("b" + a, bs)
        assert_matches_oracle(a + "b", bs[::-1])
        assert_matches_oracle("a" * 200, bs)

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
        # 200 lanes against patterns of one to four 64-bit words
        rng = np.random.default_rng(34)
        patterns = ["".join(rng.choice(list("abcde "), n)) for n in (60, 64, 65, 130, 250)]
        texts = ["".join(rng.choice(list("abcde "), rng.integers(0, 100)))
                 for _ in range(200)]
        owner = rng.integers(0, len(patterns), len(texts)).tolist()
        want = [scalar_levenshtein(patterns[o], t) for o, t in zip(owner, texts)]
        assert levenshtein_run(patterns, texts, owner) == want

    def test_lane_wider_than_a_word(self):
        a = "ab" * 40
        bs = ["ba" * 2500, "a", "ab" * 2100, ""]
        assert len(a) > 64
        want = [scalar_levenshtein(a, b) for b in bs]
        assert levenshtein_each(a, bs) == want


short_text = st.text(alphabet="ab c\u0301\U0001d538", max_size=40)


@given(short_text, st.lists(short_text, max_size=8))
@settings(max_examples=200, deadline=None)
def test_property_random_lanes_match_the_dp_oracle(a, bs):
    assert_matches_oracle(a, bs)


LANE_LENGTHS = st.sampled_from([0, 1, 63, 64, 65, 128, 129, 200])
ALPHABETS = st.sampled_from(["ab", "ab c\u0301\U0001d538\u00e9", WIDE[:40] + "a "])


@st.composite
def runs(draw):
    """Patterns of mixed word counts and the texts scored against them:
    random strings, and near copies of their pattern (long runs of
    carries); a run may hold every character of WIDE as well."""
    alphabet = draw(ALPHABETS)

    def text(n: int) -> str:
        return draw(st.text(alphabet=alphabet, min_size=n, max_size=n))

    patterns = [text(draw(LANE_LENGTHS)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        patterns.append(WIDE)
    texts, owner = [], []
    for _ in range(draw(st.integers(0, 10))):
        o = draw(st.integers(0, len(patterns) - 1))
        if draw(st.booleans()):
            t = list(patterns[o][:draw(LANE_LENGTHS)])
            for i in draw(st.lists(st.integers(0, 199), max_size=4)):
                if i < len(t):
                    t[i] = draw(st.sampled_from(alphabet))
            texts.append("".join(t))
        else:
            texts.append(text(draw(LANE_LENGTHS)))
        owner.append(o)
    return patterns, texts, owner


@given(runs())
@settings(max_examples=300, deadline=None)
def test_property_run_matches_the_scalar_oracle(run):
    patterns, texts, owner = run
    assert levenshtein_run(patterns, texts, owner) == \
        [scalar_levenshtein(patterns[o], t) for o, t in zip(owner, texts)]


def test_run_alphabet_of_more_than_255_symbols():
    rng = np.random.default_rng(36)
    letters = list(WIDE) + list("abc ")
    patterns = ["".join(rng.choice(letters, n)) for n in (0, 1, 63, 64, 65, 129, 200)]
    texts = ["".join(rng.choice(letters, rng.integers(0, 210))) for _ in range(30)]
    texts += [p[::-1] for p in patterns]
    owner = rng.integers(0, len(patterns), len(texts)).tolist()
    assert K.encode(patterns + texts)[0].dtype == np.uint32
    assert levenshtein_run(patterns, texts, owner) == \
        [edit_distance_oracle(patterns[o], t) for o, t in zip(owner, texts)]


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
