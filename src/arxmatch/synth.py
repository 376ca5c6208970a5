"""Synthetic preprint/published corpus generator for the evaluation harness.

Produces n paired records plus n/2 published-only decoys. The published
half of each pair is a perturbed copy of the preprint: random title word
substitutions, author drops/additions, abstract sentence rewrites. A
configurable share of preprints carries the counterpart's DOI; a small
fraction of those DOIs is mangled so they resolve to nothing, exercising
the fall-through into the classifier step. Output is deterministic for a
given seed and knob setting: ``preprints.jsonl`` and ``published.jsonl``,
the inputs of ``ingest``, and the ground-truth map ``groundtruth.json``.

The corpus is the scalar stream of ``np.random.default_rng(seed)``:
``integers(low, high)``, ``random()`` and the document-type
``choice(3, p=...)``. ``_Draws`` rebuilds those three calls bit for bit
from PCG64 raw output, which numpy keeps stable across versions, read in
blocks so that a draw is a few integer operations instead of a numpy call.
A new kind of draw needs its emulation in ``_Draws`` and a case in the
oracle tests that compare it with numpy's Generator call for call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import DOCUMENT_TYPES, report_json, write_atomic, write_jsonl

MAX_PAIRS = 100_000  # preprint i is numbered i; arXiv numbers have five digits
RAW_BLOCK = 4096  # PCG64 outputs fetched per numpy call


@dataclass(frozen=True)
class PerturbationProfile:
    title_sub: float = 0.1
    author_change: float = 0.05
    abstract_edit: float = 0.2
    doi_rate: float = 0.3
    wrong_doi_rate: float = 0.01

    def __post_init__(self):
        for name, rate in vars(self).items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


_ADJECTIVES = [
    "abelian", "affine", "algebraic", "analytic", "arithmetic", "asymptotic",
    "bounded", "canonical", "categorical", "classical", "coherent", "compact",
    "complex", "convex", "critical", "cyclic", "degenerate", "discrete",
    "dual", "elliptic", "ergodic", "etale", "finite", "fractional", "free",
    "generic", "geometric", "graded", "hyperbolic", "invariant", "irreducible",
    "local", "logarithmic", "maximal", "minimal", "modular", "monotone",
    "nilpotent", "noncommutative", "nonlinear", "optimal", "parabolic",
    "perverse", "polynomial", "projective", "quantum", "random", "rational",
    "reductive", "regular", "relative", "singular", "smooth", "spectral",
    "stable", "stochastic", "symmetric", "symplectic", "tame", "topological",
    "torsion", "transcendental", "twisted", "uniform", "unitary", "weighted",
]
_NOUNS = [
    "algebra", "bundle", "category", "class", "cohomology", "complex",
    "condition", "conjecture", "connection", "curvature", "curve", "cycle",
    "decomposition", "deformation", "domain", "duality", "dynamics",
    "embedding", "entropy", "equation", "estimate", "extension", "fibration",
    "field", "filtration", "flow", "foliation", "form", "formula", "function",
    "functor", "graph", "group", "homology", "ideal", "identity", "inequality",
    "invariant", "kernel", "lattice", "lemma", "limit", "manifold", "map",
    "matrix", "measure", "metric", "model", "module", "moduli", "monoid",
    "norm", "operator", "orbit", "pairing", "partition", "polytope",
    "problem", "process", "quotient", "representation", "resolution", "ring",
    "scheme", "semigroup", "sequence", "series", "sheaf", "singularity",
    "space", "spectrum", "stack", "structure", "surface", "system", "tensor",
    "theorem", "torus", "transform", "variety", "walk",
]
_FAMILIES = [
    "Abramov", "Baker", "Bernstein", "Bhatt", "Calderon", "Carlsson", "Chen",
    "Costa", "Dumas", "Eriksson", "Farkas", "Fernandez", "Fischer", "Fontaine",
    "Garcia", "Goldberg", "Gross", "Haas", "Hansen", "Hoffmann", "Horvath",
    "Ibrahim", "Ivanov", "Jansen", "Jimenez", "Kato", "Keller", "Kim",
    "Kobayashi", "Kovacs", "Kumar", "Laurent", "Lehmann", "Levin", "Lindgren",
    "Liu", "Lombardi", "Marino", "Mendez", "Meyer", "Morandi", "Nagy",
    "Nakamura", "Novak", "Okada", "Olsen", "Pappas", "Petrov", "Popescu",
    "Quintero", "Ramirez", "Rossi", "Roy", "Salem", "Sato", "Schneider",
    "Silva", "Sorensen", "Suzuki", "Takahashi", "Tanaka", "Varga", "Vasquez",
    "Wagner", "Wang", "Weber", "Yamamoto", "Zhang", "Zhao", "Zhou",
]
_GIVENS = [
    "Ada", "Akira", "Alice", "Amir", "Anna", "Boris", "Carla", "Chiara",
    "Daniel", "Dmitri", "Elena", "Emil", "Erik", "Fatima", "Felix", "Gustav",
    "Hana", "Hiro", "Ines", "Igor", "Ivan", "Julia", "Karl", "Kenji", "Lara",
    "Leo", "Lin", "Luca", "Maria", "Marta", "Mei", "Milan", "Nadia", "Nora",
    "Omar", "Pavel", "Petra", "Rafael", "Rosa", "Sara", "Sofia", "Tomas",
    "Vera", "Viktor", "Wei", "Yuki", "Zofia",
]
_CATEGORIES = [
    "math.AC", "math.AG", "math.AP", "math.AT", "math.CA", "math.CO",
    "math.CV", "math.DG", "math.DS", "math.FA", "math.GR", "math.GT",
    "math.LO", "math.NT", "math.OA", "math.OC", "math.PR", "math.QA",
    "math.RA", "math.RT", "math.SG", "math.SP",
]
_MSC_AREAS = [
    "05", "11", "14", "20", "30", "35", "37", "46", "53", "57", "60", "81",
]
_JOURNALS = [
    ("J. Algebra Geom.", "jag"),
    ("Ann. Anal. Appl.", "aaa"),
    ("Comm. Number Theory", "cnt"),
    ("Trans. Topology", "tt"),
    ("Proc. Probab. Soc.", "pps"),
    ("Q. J. Spectral Theory", "qjst"),
]
_SENTENCE_SHAPES = [
    "we study the {a} {n} of {a2} {n2}s",
    "our main result establishes a {a} {n} for every {a2} {n2}",
    "as an application we obtain a {a} bound on the {n} of the {a2} {n2}",
    "the proof combines a {a} {n} argument with {a2} {n2} techniques",
    "this extends earlier work on {a} {n}s to the {a2} setting",
    "we also classify the {a} {n}s arising from {a2} {n2}s",
]


_TITLE_WORDS = _ADJECTIVES + _NOUNS


class _Draws:
    """``np.random.default_rng(seed)``'s ``integers(low, high)`` and ``random()``.

    Both read the PCG64 raw 64-bit outputs in order. ``integers`` is numpy's
    bounded draw for spans up to 2**32, Lemire's method on 32-bit halves: a
    fresh output serves its low half and keeps its high half for the next
    32-bit draw, as PCG64's own buffer does. ``random`` takes the top 53 bits
    of a fresh output and leaves a kept half alone.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(seed)
        # iter(f, None) calls f until it returns None, which a list never is
        blocks = iter(lambda: bitgen.random_raw(RAW_BLOCK).tolist(), None)
        self._next64 = chain.from_iterable(blocks).__next__
        self._half: int | None = None

    def _next32(self) -> int:
        half = self._half
        if half is None:
            raw = self._next64()
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low  # numpy draws nothing for a one-value range
        if not 1 < span <= 1 << 32:
            raise ValueError(f"high - low must be in 1..2**32, got {span}")
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:  # only then can it fall below the threshold
            threshold = ((1 << 32) - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53


def _choice_cdf(p: list[float]) -> list[float]:
    """``Generator.choice(len(p), p=p)``'s table: the running sum of p over
    its last entry. The choice is ``bisect_right(table, rng.random())``."""
    cdf = np.cumsum(p)
    return (cdf / cdf[-1]).tolist()


_DOCUMENT_TYPE_CDF = _choice_cdf([0.9, 0.08, 0.02])  # in DOCUMENT_TYPES order


def _pick(rng: _Draws, pool: list[str]) -> str:
    return pool[rng.integers(0, len(pool))]


def _make_title(rng: _Draws) -> str:
    words = ["On", "the", _pick(rng, _ADJECTIVES), _pick(rng, _NOUNS), "of"]
    extra = rng.integers(2, 5)
    for _ in range(extra):
        words.append(_pick(rng, _ADJECTIVES) if rng.random() < 0.5
                     else _pick(rng, _NOUNS))
    words.append(_pick(rng, _NOUNS) + "s")
    return " ".join(words)


def _make_sentence(rng: _Draws) -> str:
    shape = _pick(rng, _SENTENCE_SHAPES)
    return shape.format(a=_pick(rng, _ADJECTIVES), n=_pick(rng, _NOUNS),
                        a2=_pick(rng, _ADJECTIVES), n2=_pick(rng, _NOUNS))


def _make_abstract(rng: _Draws) -> str:
    n = rng.integers(3, 7)
    return ". ".join(_make_sentence(rng).capitalize() for _ in range(n)) + "."


def _make_authors(rng: _Draws) -> list[str]:
    n = rng.integers(1, 5)
    seen: set[str] = set()
    out = []
    while len(out) < n:
        name = f"{_pick(rng, _GIVENS)} {_pick(rng, _FAMILIES)}"
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _make_msc(rng: _Draws) -> list[str]:
    k = rng.integers(1, 4)
    out = []
    for _ in range(k):
        area = _pick(rng, _MSC_AREAS)
        letter = chr(ord("A") + rng.integers(0, 8))
        out.append(f"{area}{letter}{rng.integers(10, 100):02d}")
    return out


def _make_source(rng: _Draws, journal: str, year: int) -> str:
    return (f"{journal} {rng.integers(1, 90)}, No. {rng.integers(1, 13)}, "
            f"{rng.integers(1, 400)}-{rng.integers(400, 900)} ({year})")


def _perturb_title(rng: _Draws, title: str, rate: float) -> str:
    words = title.split()
    for i in range(len(words)):
        if rng.random() < rate:
            words[i] = _pick(rng, _TITLE_WORDS)
    return " ".join(words)


def _perturb_authors(rng: _Draws, authors: list[str],
                     rate: float) -> list[str]:
    out = list(authors)
    if rng.random() < rate and len(out) > 1:
        out.pop(rng.integers(0, len(out)))
    if rng.random() < rate:
        out.append(f"{_pick(rng, _GIVENS)} {_pick(rng, _FAMILIES)}")
    return out


def _perturb_abstract(rng: _Draws, abstract: str,
                      rate: float) -> str:
    sentences = [s for s in abstract.rstrip(".").split(". ") if s]
    for i in range(len(sentences)):
        if rng.random() < rate:
            sentences[i] = _make_sentence(rng).capitalize()
    return ". ".join(sentences) + "."


def _mangle_doi(doi: str) -> str:
    return doi + "9"  # still DOI syntax, resolves to nothing


def gen_synthetic_corpus(n: int, profile: PerturbationProfile, seed: int,
                         out_dir: str | Path) -> dict:
    """Write preprints.jsonl, published.jsonl, groundtruth.json; return truth."""
    if type(n) is not int:
        raise ValueError("n must be an integer")
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"n must be in 1..{MAX_PAIRS}, got {n}")
    if type(seed) is not int:
        raise ValueError("seed must be an integer")
    rng = _Draws(seed & 0xFFFFFFFFFFFFFFFF)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    preprints: list[dict] = []
    published: list[dict] = []
    pairs: dict[str, str] = {}
    doi_assigned: list[str] = []
    wrong_doi: list[str] = []

    for i in range(n):
        pid = f"{15 + i % 10:02d}{1 + i % 12:02d}.{i:05d}"
        accession = f"zbl{10_000_000 + i}"
        title = _make_title(rng)
        authors = _make_authors(rng)
        abstract = _make_abstract(rng)
        categories = [_pick(rng, _CATEGORIES)]
        if rng.random() < 0.3:
            second = _pick(rng, _CATEGORIES)
            if second != categories[0]:
                categories.append(second)
        journal, slug = _JOURNALS[i % len(_JOURNALS)]
        year = 2016 + i % 9
        doi = f"10.{1000 + i % len(_JOURNALS)}/{slug}.{year}.{i:05d}"

        pub_title = _perturb_title(rng, title, profile.title_sub)
        pub_authors = _perturb_authors(rng, authors, profile.author_change)
        pub_abstract = _perturb_abstract(rng, abstract, profile.abstract_edit)

        p_doi = None
        if rng.random() < profile.doi_rate:
            doi_assigned.append(pid)
            if rng.random() < profile.wrong_doi_rate:
                wrong_doi.append(pid)
                p_doi = _mangle_doi(doi)
            else:
                p_doi = doi

        preprints.append({
            "id": pid,
            "version": int(rng.integers(1, 4)),
            "title": title,
            "authors": authors,
            "abstract": abstract,
            "categories": categories,
            "msc": _make_msc(rng) if rng.random() < 0.4 else [],
            "doi": p_doi,
            "withdrawn": False,
        })
        published.append({
            "accession": accession,
            "title": pub_title,
            "authors": pub_authors,
            "abstract": pub_abstract,
            "doi": doi,
            "source": _make_source(rng, journal, year),
            "document_type": DOCUMENT_TYPES[
                bisect_right(_DOCUMENT_TYPE_CDF, rng.random())],
            "msc": _make_msc(rng),
        })
        pairs[pid] = accession

    decoys: list[str] = []
    for j in range(n // 2):
        accession = f"zbl{20_000_000 + j}"
        decoys.append(accession)
        journal, slug = _JOURNALS[j % len(_JOURNALS)]
        year = 2016 + j % 9
        published.append({
            "accession": accession,
            "title": _make_title(rng),
            "authors": _make_authors(rng),
            "abstract": _make_abstract(rng),
            "doi": f"10.{2000 + j % len(_JOURNALS)}/{slug}.{year}.d{j:05d}",
            "source": _make_source(rng, journal, year),
            "document_type": "journal_article",
            "msc": _make_msc(rng),
        })

    truth = {
        "n": n,
        "seed": seed,
        "profile": asdict(profile),
        "pairs": pairs,
        "doi_assigned": doi_assigned,
        "wrong_doi": wrong_doi,
        "decoys": decoys,
    }
    write_jsonl(out_dir / "preprints.jsonl", preprints)
    write_jsonl(out_dir / "published.jsonl", published)
    with write_atomic(out_dir / "groundtruth.json") as fh:
        fh.write(report_json(truth))
    return truth
