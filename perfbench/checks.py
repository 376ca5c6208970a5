"""Output checks run after every timed pass.

Each check returns ``(name, ok, detail)`` and counts as one operation; a
failed check is a failed operation. The checks pin behaviour so that no
speed-up can change what the pipeline produces:

- golden-1k artifacts equal ``tests/data/golden`` byte for byte;
- generated workloads agree with the generator's ``groundtruth.json``
  (every DOI decision exact, classifier precision >= 0.99 and recall
  >= 0.95), report counts add up, merges follow decisions;
- for the default seed, the store files hash to the values pinned in
  ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PRECISION = 0.99
MIN_RECALL = 0.95
GOLDEN_REPORTS = ("match_report.json", "eval_report.json", "stats.json", "scope.csv")
SCOPE_HEADER = "category,count,overlap_share,in_scope,reason"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_check(path: Path, expected: str, name: str) -> tuple[str, bool, str]:
    if not path.is_file():
        return name, False, f"missing {path.name}"
    got = sha256(path)
    return name, got == expected, f"sha256 {got[:12]} expected {expected[:12]}"


def golden(golden_dir: Path, pass_dir: Path) -> list[tuple[str, bool, str]]:
    hashes = json.loads((golden_dir / "hashes.json").read_text(encoding="utf-8"))
    out = [_hash_check(pass_dir / rel, digest, f"golden:{rel}")
           for rel, digest in sorted(hashes.items())]
    for name in GOLDEN_REPORTS:
        out.append(_hash_check(pass_dir / name, sha256(golden_dir / name),
                               f"golden:{name}"))
    return out


def load_truth(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))["pairs"]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def report_conservation(path: Path) -> tuple[str, bool, str]:
    name = f"conservation:{path.name}"
    if not path.is_file():
        return name, False, "missing report"
    r = json.loads(path.read_text(encoding="utf-8"))
    total = r["doi_matches"] + r["classifier_matches"] + r["unmatched"]
    return name, total == r["total_preprints"], \
        f"{total} decided of {r['total_preprints']}"


def decisions_vs_truth(store: Path, truth: dict[str, str],
                       classifier_path: set[str]) -> list[tuple[str, bool, str]]:
    """DOI decisions exact; classifier precision and recall over the
    preprints that had to go through the classifier step."""
    path = store / "decisions.jsonl"
    if not path.is_file():
        return [("truth:decisions", False, "missing decisions.jsonl")]
    decisions = {d["preprint"]: d for d in read_jsonl(path)}
    doi = [d for d in decisions.values() if d["outcome"] == "doi_match"]
    doi_wrong = sum(1 for d in doi if truth.get(d["preprint"]) != d["matched_accession"])
    cls = [d for d in decisions.values() if d["outcome"] == "classifier_match"]
    cls_right = sum(1 for d in cls if truth.get(d["preprint"]) == d["matched_accession"])
    precision = cls_right / len(cls) if cls else 1.0
    found = sum(1 for pid in classifier_path
                if pid in decisions and decisions[pid]["outcome"] == "classifier_match"
                and truth.get(pid) == decisions[pid]["matched_accession"])
    recall = found / len(classifier_path) if classifier_path else 1.0
    return [
        ("truth:doi_decisions", doi_wrong == 0,
         f"{doi_wrong} of {len(doi)} DOI decisions differ from ground truth"),
        ("truth:classifier_precision", precision >= MIN_PRECISION,
         f"{precision:.4f} over {len(cls)} classifier matches"),
        ("truth:classifier_recall", recall >= MIN_RECALL,
         f"{recall:.4f} over {len(classifier_path)} DOI-less preprints"),
    ]


def merges_follow_decisions(store: Path) -> tuple[str, bool, str]:
    decisions = {d["preprint"]: d for d in read_jsonl(store / "decisions.jsonl")}
    merges = read_jsonl(store / "merges.jsonl")
    matched = sum(1 for d in decisions.values() if d["outcome"] != "unmatched")
    bad = sum(1 for m in merges
              if decisions.get(m["preprint"], {}).get("matched_accession")
              != m["accession"])
    return "merges_follow_decisions", bad == 0 and len(merges) == matched, \
        f"{len(merges)} merges, {matched} matched decisions, {bad} disagree"


def scope_csv(path: Path) -> tuple[str, bool, str]:
    name = f"scope:{path.name}"
    if not path.is_file():
        return name, False, "missing report"
    lines = path.read_text(encoding="utf-8").splitlines()
    return name, bool(lines) and lines[0] == SCOPE_HEADER and len(lines) > 1, \
        f"{len(lines) - 1} category rows"


def pinned_hashes(workload: str, seed: int, pass_dir: Path) -> list[tuple[str, bool, str]]:
    """Store hashes recorded for the default seed; none for other seeds."""
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    if seed != expected["default_seed"]:
        return []
    return [_hash_check(pass_dir / rel, digest, f"pinned:{rel}")
            for rel, digest in sorted(expected["hashes"][workload].items())]
