"""arxmatch: preprint-to-published record linkage.

Two-step matching (DOI join, then candidate retrieval + random-forest
classification over title/author/abstract similarity vectors) with an
editorial scope filter, merge-on-publication semantics, and deterministic
author-profile assignment.
"""

from ._kernels import BACKEND
from .corpus import CorpusStore, MatchDecision, PreprintRecord, PublishedRecord
from .similarity import ScoringTable, feature_vector

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CorpusStore",
    "MatchDecision",
    "PreprintRecord",
    "PublishedRecord",
    "ScoringTable",
    "__version__",
    "feature_vector",
]
