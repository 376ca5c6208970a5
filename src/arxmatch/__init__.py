"""arxmatch: preprint-to-published record linkage.

Two-step matching (DOI join, then candidate retrieval + random-forest
classification over title/author/abstract similarity vectors) with an
editorial scope filter, merge-on-publication semantics, and deterministic
author-profile assignment.
"""

__version__ = "0.1.0"
