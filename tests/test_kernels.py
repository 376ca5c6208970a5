"""Kernel basics; the oracle suites in test_similarity and test_forest cover the rest."""

from __future__ import annotations

import arxmatch._kernels as K


def test_str_to_codes_roundtrip():
    codes = K.str_to_codes("abc-δ 1")
    assert codes.tolist() == [ord(c) for c in "abc-δ 1"]
    assert K.str_to_codes("").size == 0


def test_levenshtein_numpy_basics():
    assert K.levenshtein(K.str_to_codes("abc"), K.str_to_codes("abc")) == 0
    assert K.levenshtein(K.str_to_codes("abc"), K.str_to_codes("abd")) == 1
    assert K.levenshtein(K.str_to_codes(""), K.str_to_codes("xyz")) == 3
    assert K.levenshtein(K.str_to_codes("kitten"), K.str_to_codes("sitting")) == 3
