from __future__ import annotations

import contextlib
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import arxmatch
from arxmatch import forest, synth
from arxmatch.cli import main
from arxmatch.corpus import CorpusStore

from conftest import CORPUS_DIR, GOLDEN_DIR
from test_forest import stump_payload, wide_tree

SEED = "42"
TS = "2024-01-01T00:00:00Z"


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture()
def small_corpus(tmp_path) -> Path:
    out = tmp_path / "corpus"
    assert run("gen", "--n", "60", "--seed", "7", "--out", str(out),
               "--doi-rate", "1.0") == 0
    return out


@pytest.fixture()
def small_store(tmp_path, small_corpus) -> Path:
    store = tmp_path / "store"
    assert run("ingest", "--preprints", str(small_corpus / "preprints.jsonl"),
               "--published", str(small_corpus / "published.jsonl"),
               "--store", str(store)) == 0
    return store


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("match", "--store", "somewhere")  # --model missing
        assert exc.value.code == 2

    def test_unknown_command_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_runtime_error_is_1(self, tmp_path, capsys):
        assert run("stats", "--store", str(tmp_path / "missing")) == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"]

    def test_match_with_missing_model_file_is_1(self, small_store, capsys):
        assert run("match", "--store", str(small_store),
                   "--model", str(small_store / "no-model.json")) == 1
        assert "not found" in capsys.readouterr().err

    def test_success_is_0(self, small_store):
        assert run("stats", "--store", str(small_store),
                   "--report", str(small_store / "stats.json")) == 0

    def test_ingest_without_inputs_is_1(self, tmp_path):
        assert run("ingest", "--store", str(tmp_path / "s")) == 1

    def test_stats_with_dangling_merge_is_1(self, small_store, capsys):
        (small_store / "merges.jsonl").write_text(
            json.dumps({"preprint": "2301.99999", "accession": "zbl99999999"}) + "\n")
        assert run("stats", "--store", str(small_store)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "unknown preprint" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("rules, problem", [
        ({"included": "math.AG", "excluded": [], "conditional": [], "standalone": []},
         "'included' must be a list of strings"),
        (["math.AG"], "scope rules must be a JSON object"),
    ], ids=["string-set", "not-an-object"])
    def test_scope_with_malformed_rules_is_1(self, small_store, tmp_path, capsys,
                                             rules, problem):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        assert run("scope", "--store", str(small_store), "--rules", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert problem in json.loads(lines[0])["error"]

    def test_scope_with_unparseable_rules_names_the_file(self, small_store, tmp_path,
                                                         capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"included":\n\n')
        assert run("scope", "--store", str(small_store), "--rules", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert f"unreadable scope rules {path}: Expecting value" in error

    def test_stats_with_repeated_preprint_is_1(self, small_store, capsys):
        path = small_store / "preprints.jsonl"
        first = path.read_bytes().splitlines(keepends=True)[0]
        with open(path, "ab") as fh:
            fh.write(first)
        assert run("stats", "--store", str(small_store)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "repeated preprint" in json.loads(lines[0])["error"]

    def test_ingest_input_not_utf8_is_1(self, small_corpus, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes((small_corpus / "preprints.jsonl").read_bytes() + b"\xff\xfe\n")
        assert run("ingest", "--preprints", str(path),
                   "--store", str(tmp_path / "store")) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert f"{path}:61: invalid UTF-8" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("store_path", ["new", "new/deeper"])
    def test_failed_first_ingest_leaves_no_store(self, small_corpus, tmp_path, capsys,
                                                 store_path):
        path = tmp_path / "bad.jsonl"
        first = (small_corpus / "preprints.jsonl").read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(first + b"\xff\n")
        store = tmp_path / store_path
        assert run("ingest", "--preprints", str(path), "--store", str(store)) == 1
        assert f"{path}:2: invalid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert run("stats", "--store", str(store)) == 1
        assert "store directory not found" in capsys.readouterr().err

    def test_failed_ingest_keeps_an_existing_store(self, small_store, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\n")
        before = {f.name: f.read_bytes() for f in small_store.iterdir()}
        assert run("ingest", "--preprints", str(path), "--store", str(small_store)) == 1
        assert {f.name: f.read_bytes() for f in small_store.iterdir()} == before

    def test_failed_ingest_keeps_an_existing_empty_directory(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\n")
        (tmp_path / "empty").mkdir()
        assert run("ingest", "--preprints", str(path),
                   "--store", str(tmp_path / "empty")) == 1
        assert [f.name for f in (tmp_path / "empty").iterdir()] == [".lock"]

    @pytest.mark.parametrize("where", ["preprints", "published"])
    def test_surrogate_escape_is_a_line_reject(self, small_corpus, tmp_path, capsys,
                                               where):
        lines = {name: (small_corpus / f"{name}.jsonl").read_text("utf-8").splitlines()
                 for name in ("preprints", "published")}
        store = tmp_path / "store"
        for name in lines:
            (tmp_path / f"{name}-0.jsonl").write_text(lines[name][0] + "\n", "utf-8")
            new = json.loads(lines[name][1])
            if name == where:
                new["title"] = "On \ud800 knots"  # json.dumps writes "\\ud800"
            (tmp_path / f"{name}-1.jsonl").write_text(json.dumps(new) + "\n", "utf-8")
        for day in ("0", "1"):
            capsys.readouterr()
            assert run("ingest", "--preprints", str(tmp_path / f"preprints-{day}.jsonl"),
                       "--published", str(tmp_path / f"published-{day}.jsonl"),
                       "--store", str(store)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report[where]["errors"] == [{"line": 1, "reason": "unpaired surrogate escape"}]
        assert run("stats", "--store", str(store)) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["preprints_total"], stats["published_total"]) == \
            ((1, 2) if where == "preprints" else (2, 1))

    def test_line_nested_past_the_recursion_limit_is_a_line_reject(
            self, small_corpus, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_bytes(b"[" * 100_000 + b"\n"
                         + (small_corpus / "preprints.jsonl").read_bytes())
        assert run("ingest", "--preprints", str(path),
                   "--store", str(tmp_path / "store")) == 0
        report = json.loads(capsys.readouterr().out)["preprints"]
        assert (report["added"], report["rejected"]) == (60, 1)
        assert report["errors"] == [{"line": 1, "reason": "malformed JSON: nested too deeply"}]

    def test_integer_past_the_digit_limit_is_a_line_reject(self, small_corpus, tmp_path,
                                                           capsys):
        path = tmp_path / "long.jsonl"
        path.write_bytes(b'{"id": 1' + b"9" * 5000 + b"}\n"
                         + (small_corpus / "preprints.jsonl").read_bytes())
        assert run("ingest", "--preprints", str(path),
                   "--store", str(tmp_path / "store")) == 0
        report = json.loads(capsys.readouterr().out)["preprints"]
        assert (report["added"], report["rejected"]) == (60, 1)
        assert report["errors"][0]["line"] == 1
        assert report["errors"][0]["reason"].startswith("malformed JSON: Exceeds the limit")

    def test_eval_too_few_pairs_is_1(self, small_store, capsys):
        assert run("eval", "--store", str(small_store), "--seed", "1") == 1
        assert "too few" in capsys.readouterr().err


class TestGenBounds:
    @pytest.mark.parametrize("args, problem", [
        (["--n", "100001"], "n must be in 1..100000, got 100001"),
        (["--n", "0"], "n must be in 1..100000, got 0"),
        (["--doi-rate", "1.5"], "doi_rate must be in [0, 1], got 1.5"),
        (["--title-sub", "-0.1"], "title_sub must be in [0, 1]"),
        (["--wrong-doi-rate", "nan"], "wrong_doi_rate must be in [0, 1]"),
    ])
    def test_out_of_range_is_1_before_anything_is_written(self, tmp_path, capsys,
                                                          monkeypatch, args, problem):
        def no_generation(rng):
            raise AssertionError("generation started")

        monkeypatch.setattr(synth, "_make_title", no_generation)
        out = tmp_path / "corpus"
        assert run("gen", "--n", "5", "--seed", "1", "--out", str(out), *args) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert problem in json.loads(lines[0])["error"]
        assert not out.exists()


@pytest.fixture()
def doi_only_store(tmp_path) -> tuple[Path, Path]:
    """A store where every preprint resolves by DOI, and a model."""
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    assert run("gen", "--n", "50", "--seed", "7", "--out", str(corpus),
               "--doi-rate", "1.0", "--wrong-doi-rate", "0") == 0
    assert run("ingest", "--preprints", str(corpus / "preprints.jsonl"),
               "--published", str(corpus / "published.jsonl"),
               "--store", str(store)) == 0
    model = tmp_path / "model.json"
    assert run("train", "--store", str(store), "--model", str(model),
               "--trees", "5", "--depth", "3", "--seed", "7") == 0
    return store, model


def _one_error_line(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class TestCandidatesOption:
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_match_rejects_k_below_one(self, doi_only_store, tmp_path, capsys, k):
        store, model = doi_only_store
        before = {f.name: f.read_bytes() for f in store.iterdir()}
        capsys.readouterr()
        assert run("match", "--store", str(store), "--model", str(model),
                   "--candidates", k, "--timestamp", TS,
                   "--report", str(tmp_path / "match.json")) == 1
        assert "--candidates" in _one_error_line(capsys)
        assert not (tmp_path / "match.json").exists()
        assert {f.name: f.read_bytes() for f in store.iterdir()} == before

    def test_match_checks_k_before_the_store(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run("match", "--store", str(missing), "--model",
                   str(tmp_path / "model.json"), "--candidates", "0") == 1
        assert "--candidates" in _one_error_line(capsys)
        assert not missing.exists()

    def test_eval_rejects_k_below_one(self, tmp_path, capsys):
        assert run("eval", "--store", str(tmp_path / "missing"), "--seed", "1",
                   "--candidates", "0") == 1
        assert "--candidates" in _one_error_line(capsys)


class TestTimestampOption:
    @pytest.mark.parametrize("ts", ["next tuesday", "2024-1-1T00:00:00Z",
                                    "2024-02-30T00:00:00Z", "2024-01-01 00:00:00", ""])
    def test_match_rejects_a_bad_timestamp(self, doi_only_store, tmp_path, capsys, ts):
        store, model = doi_only_store
        before = {f.name: f.read_bytes() for f in store.iterdir()}
        capsys.readouterr()
        assert run("match", "--store", str(store), "--model", str(model),
                   "--timestamp", ts, "--report", str(tmp_path / "match.json")) == 1
        assert "--timestamp" in _one_error_line(capsys)
        assert not (tmp_path / "match.json").exists()
        assert {f.name: f.read_bytes() for f in store.iterdir()} == before

    @pytest.mark.parametrize("epoch", ["abc", "1.5", " 12", "99999999999999999999"])
    def test_match_rejects_a_bad_source_date_epoch(self, doi_only_store, tmp_path,
                                                   capsys, monkeypatch, epoch):
        store, model = doi_only_store
        before = {f.name: f.read_bytes() for f in store.iterdir()}
        capsys.readouterr()
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert run("match", "--store", str(store), "--model", str(model),
                   "--report", str(tmp_path / "match.json")) == 1
        assert "SOURCE_DATE_EPOCH" in _one_error_line(capsys)
        assert {f.name: f.read_bytes() for f in store.iterdir()} == before

    @pytest.mark.parametrize("epoch", ["abc", None])
    def test_match_checks_the_timestamp_before_the_store(self, tmp_path, capsys,
                                                         monkeypatch, epoch):
        missing = tmp_path / "missing"
        argv = ["match", "--store", str(missing), "--model", str(tmp_path / "m.json")]
        if epoch is None:
            argv += ["--timestamp", "next tuesday"]
        else:
            monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert run(*argv) == 1
        assert "not found" not in _one_error_line(capsys)
        assert not missing.exists()

    def test_source_date_epoch_pins_the_decisions(self, doi_only_store, tmp_path,
                                                  monkeypatch):
        store, model = doi_only_store
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1704067200")
        assert run("match", "--store", str(store), "--model", str(model),
                   "--report", str(tmp_path / "match.json")) == 0
        assert json.loads((tmp_path / "match.json").read_text())["timestamp"] == TS
        stamps = {json.loads(line)["decided_at"] for line in
                  (store / "decisions.jsonl").read_text().splitlines()}
        assert stamps == {TS}


def _python(code: str, *args: str, **kwargs) -> subprocess.Popen:
    """Start a Python child that imports this checkout's arxmatch."""
    env = dict(os.environ, PYTHONPATH=str(Path(arxmatch.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            text=True, **kwargs)


@contextlib.contextmanager
def _holding(code: str, *args: str):
    """Run a Python child until it prints 'held', then SIGKILL it on exit."""
    holder = _python(code, *args, stdout=subprocess.PIPE)
    try:
        assert holder.stdout.readline().strip() == "held"
        yield holder
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()


HOLD_WRITER = (
    "import sys, time\n"
    "from arxmatch.corpus import open_store\n"
    "with open_store(sys.argv[1], sys.argv[2]):\n"
    "    print('held', flush=True)\n"
    "    time.sleep(60)\n"
)
HOLD_SHARED = (
    "import fcntl, sys, time\n"
    "fh = open(sys.argv[1], 'a')\n"
    "fcntl.flock(fh, fcntl.LOCK_SH | fcntl.LOCK_NB)\n"
    "print('held', flush=True)\n"
    "time.sleep(60)\n"
)


class TestLocking:
    def test_concurrent_lock_refused(self, small_corpus, tmp_path, capsys):
        store = tmp_path / "locked"
        store.mkdir()
        with open(store / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = run("ingest", "--preprints",
                       str(small_corpus / "preprints.jsonl"),
                       "--store", str(store))
        assert code == 1
        assert "locked" in capsys.readouterr().err

    def test_lock_released_after_run(self, small_store):
        with open(small_store / ".lock", "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_killed_holder_does_not_block(self, small_corpus, tmp_path):
        store = tmp_path / "store"
        with _holding(HOLD_WRITER, str(store), "c") as holder:
            pass
        assert holder.returncode == -signal.SIGKILL
        assert run("ingest", "--preprints", str(small_corpus / "preprints.jsonl"),
                   "--store", str(store)) == 0

    def test_reader_refused_while_a_writer_holds_the_store(self, small_store, capsys):
        with _holding(HOLD_WRITER, str(small_store), "w"):
            assert run("stats", "--store", str(small_store)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "is locked by another run" in json.loads(lines[0])["error"]

    def test_writer_refused_while_a_reader_holds_the_store(self, small_store, tmp_path,
                                                           capsys):
        before = {f.name: f.read_bytes() for f in small_store.iterdir()}
        with _holding(HOLD_SHARED, str(small_store / ".lock")):
            assert run("stats", "--store", str(small_store)) == 0  # readers share
            capsys.readouterr()
            assert run("match", "--store", str(small_store),
                       "--model", str(tmp_path / "model.json")) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "is locked by another run" in json.loads(lines[0])["error"]
        assert {f.name: f.read_bytes() for f in small_store.iterdir()} == before


class TestMissingStore:
    @pytest.mark.parametrize("argv", [
        ["match", "--model", "model.json"], ["merge"],
        ["train", "--model", "model.json", "--seed", "1"], ["eval", "--seed", "1"],
        ["stats"], ["scope"],
    ], ids=lambda argv: argv[0])
    def test_mistyped_store_is_1_and_creates_nothing(self, tmp_path, monkeypatch,
                                                     capsys, argv):
        monkeypatch.chdir(tmp_path)
        typo = tmp_path / "stroe"
        assert run(*argv, "--store", str(typo)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"store directory not found: {typo}"
        assert list(tmp_path.iterdir()) == []


class TestPipeline:
    def test_full_pipeline_small(self, tmp_path, small_store, capsys):
        model = tmp_path / "model.json"
        assert run("train", "--store", str(small_store), "--model", str(model),
                   "--trees", "10", "--depth", "4", "--seed", "7") == 0
        assert run("match", "--store", str(small_store), "--model", str(model),
                   "--timestamp", TS,
                   "--report", str(tmp_path / "match.json")) == 0
        report = json.loads((tmp_path / "match.json").read_text())
        assert report["doi_matches"] + report["classifier_matches"] + \
            report["unmatched"] == report["total_preprints"] == 60
        assert run("merge", "--store", str(small_store)) == 0
        assert (small_store / "profiles.jsonl").exists()
        assert run("scope", "--store", str(small_store),
                   "--report", str(tmp_path / "scope.csv")) == 0
        assert (tmp_path / "scope.csv").read_text().startswith(
            "category,count,overlap_share,in_scope,reason")
        capsys.readouterr()
        assert run("stats", "--store", str(small_store)) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["preprints_total"] == 60
        assert stats["merged"] == report["doi_matches"] + \
            report["classifier_matches"]

    def test_stats_subject_table_ranked(self, small_store, capsys):
        assert run("stats", "--store", str(small_store)) == 0
        stats = json.loads(capsys.readouterr().out)
        counts = [row["count"] for row in stats["subjects"]]
        assert counts == sorted(counts, reverse=True)
        for row in stats["subjects"]:
            assert set(row) == {"msc", "area", "count"}

    def test_stats_lists_the_unpublished_preprints_once(self, small_store, capsys,
                                                         monkeypatch):
        calls = []
        listing = CorpusStore.unpublished_preprints

        def counted(store):
            calls.append(1)
            return listing(store)

        monkeypatch.setattr(CorpusStore, "unpublished_preprints", counted)
        assert run("stats", "--store", str(small_store)) == 0
        assert json.loads(capsys.readouterr().out)["subjects"]
        assert len(calls) == 1

    def test_scope_stdout(self, small_store, capsys):
        assert run("scope", "--store", str(small_store)) == 0
        out = capsys.readouterr().out
        assert out.startswith("category,count,overlap_share,in_scope,reason")

    def test_withdrawal_arrives_as_newer_version(self, tmp_path, capsys):
        store = tmp_path / "store"
        preprint = {"id": "2301.00001", "version": 1, "title": "On Knot Invariants",
                    "authors": ["Jane Doe"], "abstract": "We study knots.",
                    "categories": ["math.GT"], "msc": [], "doi": None,
                    "withdrawn": False}
        for version, withdrawn in ((1, False), (2, True)):
            path = tmp_path / f"v{version}.jsonl"
            path.write_text(json.dumps(dict(preprint, version=version,
                                            withdrawn=withdrawn)) + "\n")
            assert run("ingest", "--preprints", str(path), "--store", str(store)) == 0
        assert run("merge", "--store", str(store)) == 0
        capsys.readouterr()
        assert run("stats", "--store", str(store)) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["preprints_total"], stats["withdrawn"]) == (1, 1)
        assert stats["unpublished"] == 1  # a withdrawn preprint stays listed
        rows = [json.loads(line) for line in
                (store / "profiles.jsonl").read_text().splitlines()]
        assert [row["documents"] for row in rows] == [[{
            "kind": "preprint", "key": "2301.00001",
            "withdrawn": True, "on_published_version": True,
        }]]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    store = work / "store"
    model = work / "model.json"
    assert run("ingest", "--preprints", str(CORPUS_DIR / "preprints.jsonl"),
               "--published", str(CORPUS_DIR / "published.jsonl"),
               "--store", str(store)) == 0
    with open(work / "train.json", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        assert run("train", "--store", str(store), "--model", str(model),
                   "--seed", SEED) == 0
    assert run("match", "--store", str(store), "--model", str(model),
               "--timestamp", TS,
               "--report", str(work / "match_report.json")) == 0
    assert run("eval", "--store", str(store), "--seed", SEED,
               "--report", str(work / "eval_report.json")) == 0
    assert run("merge", "--store", str(store)) == 0
    assert run("stats", "--store", str(store),
               "--report", str(work / "stats.json")) == 0
    assert run("scope", "--store", str(store),
               "--report", str(work / "scope.csv")) == 0
    return work


class TestGoldenRun:
    """The committed fixture must reproduce the committed reference outputs."""

    @pytest.mark.parametrize("name", ["match_report.json", "eval_report.json",
                                      "stats.json", "scope.csv"])
    def test_reports_match_golden(self, pipeline, name):
        assert (pipeline / name).read_bytes() == \
            (GOLDEN_DIR / name).read_bytes()

    def test_train_report(self, pipeline):
        report = json.loads((pipeline / "train.json").read_text("utf-8"))
        assert {k: report[k] for k in ("training_pairs", "positives", "negatives",
                                       "n_trees", "max_depth", "seed")} == {
            "training_pairs": 1220, "positives": 305, "negatives": 915,
            "n_trees": 100, "max_depth": 6, "seed": 42}

    def test_no_tmp_file_left(self, pipeline):
        assert not list(pipeline.rglob("*.tmp"))

    def test_artifact_hashes_match_golden(self, pipeline):
        import hashlib

        hashes = json.loads((GOLDEN_DIR / "hashes.json").read_text())
        for rel, want in hashes.items():
            got = hashlib.sha256((pipeline / rel).read_bytes()).hexdigest()
            assert got == want, rel


TABLES = ("preprints.jsonl", "published.jsonl", "decisions.jsonl", "merges.jsonl")


def _stamps(store: Path) -> dict[str, tuple[int, int]]:
    """(inode, mtime) of each store file; a replaced file gets a new inode."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in store.iterdir() if p.name.endswith(".jsonl")}


# the golden corpus in two daily batches: each write command of the run, the
# files it must leave untouched and the files it must replace
REWRITE_STEPS = [
    ("ingest", (), TABLES),
    ("match", ("preprints.jsonl", "published.jsonl", "merges.jsonl"),
     ("decisions.jsonl",)),
    ("merge", ("preprints.jsonl", "published.jsonl", "decisions.jsonl"),
     ("merges.jsonl",)),
    ("ingest-preprints", ("published.jsonl", "decisions.jsonl", "merges.jsonl",
                          "profiles.jsonl"), ("preprints.jsonl",)),
    ("ingest-all-unchanged", TABLES + ("profiles.jsonl",), ()),
    ("match-2", ("preprints.jsonl", "published.jsonl", "merges.jsonl",
                 "profiles.jsonl"), ("decisions.jsonl",)),
    ("merge-2", ("preprints.jsonl", "published.jsonl", "decisions.jsonl"),
     ("merges.jsonl",)),
    ("merge-nothing-new", TABLES, ()),
]


@pytest.fixture(scope="module")
def rewrite_run(tmp_path_factory):
    """Run REWRITE_STEPS; per step, the file stamps before and after, whether
    every table file equals a full rewrite of the loaded store, and the
    profile bytes before and after."""
    work = tmp_path_factory.mktemp("rewrites")
    store, model = work / "store", work / "model.json"
    lines = (CORPUS_DIR / "preprints.jsonl").read_text("utf-8").splitlines(True)
    first, second = work / "first.jsonl", work / "second.jsonl"
    first.write_text("".join(lines[:800]), "utf-8")
    second.write_text("".join(lines[800:]), "utf-8")
    match = ["match", "--store", str(store), "--model", str(model), "--timestamp", TS,
             "--report", str(work / "match.json")]
    merge = ["merge", "--store", str(store)]
    later = ["ingest", "--preprints", str(second), "--store", str(store)]
    argv = {
        "ingest": ["ingest", "--preprints", str(first),
                   "--published", str(CORPUS_DIR / "published.jsonl"),
                   "--store", str(store)],
        "match": match, "merge": merge,
        "ingest-preprints": later, "ingest-all-unchanged": later,
        "match-2": match, "merge-2": merge, "merge-nothing-new": merge,
    }
    out = {}
    for step, _, _ in REWRITE_STEPS:
        if step == "match":
            assert run("train", "--store", str(store), "--model", str(model),
                       "--trees", "10", "--depth", "4", "--seed", SEED) == 0
        before = _stamps(store) if store.exists() else {}
        profiles = store / "profiles.jsonl"
        old_profiles = profiles.read_bytes() if profiles.exists() else None
        assert run(*argv[step]) == 0, step
        after = _stamps(store)
        fresh = work / f"fresh-{step}"
        CorpusStore.load(store).save(fresh)
        oracle = all((store / n).read_bytes() == (fresh / n).read_bytes()
                     for n in TABLES)
        new_profiles = profiles.read_bytes() if profiles.exists() else None
        out[step] = before, after, oracle, (old_profiles, new_profiles)
    return out


class TestStoreRewrites:
    """A write command replaces only the table files its run changed."""

    @pytest.mark.parametrize("step", [s for s, _, _ in REWRITE_STEPS])
    def test_every_file_equals_a_full_rewrite(self, rewrite_run, step):
        assert rewrite_run[step][2]

    @pytest.mark.parametrize("step, kept, replaced", REWRITE_STEPS,
                             ids=[s for s, _, _ in REWRITE_STEPS])
    def test_untouched_files_keep_their_inode(self, rewrite_run, step, kept, replaced):
        before, after, _, _ = rewrite_run[step]
        for name in kept:
            assert after[name] == before[name], name
        for name in replaced:
            assert after[name] != before.get(name), name

    def test_merge_with_nothing_new_writes_the_same_profiles(self, rewrite_run):
        old, new = rewrite_run["merge-nothing-new"][3]
        assert old is not None and new == old

    def test_first_ingest_of_published_only_creates_every_table(self, tmp_path):
        store = tmp_path / "store"
        assert run("ingest", "--published", str(CORPUS_DIR / "published.jsonl"),
                   "--store", str(store)) == 0
        assert sorted(_stamps(store)) == sorted(TABLES)
        for name in ("preprints.jsonl", "decisions.jsonl", "merges.jsonl"):
            assert (store / name).read_bytes() == b""


class TestInterruptedIngest:
    """Rerunning an ingest that died between two file replacements reports
    every line it already stored as unchanged, with no errors, and leaves
    the bytes an uninterrupted run leaves."""

    @staticmethod
    def _ingest(corpus: Path, store: Path) -> list[str]:
        return ["ingest", "--preprints", str(corpus / "preprints.jsonl"),
                "--published", str(corpus / "published.jsonl"), "--store", str(store)]

    @staticmethod
    def _files(store: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in store.iterdir()}

    def _rerun_matches_a_clean_run(self, small_corpus, tmp_path, capsys, store):
        assert run(*self._ingest(small_corpus, tmp_path / "clean")) == 0
        capsys.readouterr()
        assert run(*self._ingest(small_corpus, store)) == 0
        report = json.loads(capsys.readouterr().out)
        for name in ("preprints", "published"):
            assert report[name]["rejected"] == 0 and report[name]["errors"] == []
        assert report["preprints"]["unchanged"] == 60
        assert self._files(store) == self._files(tmp_path / "clean")

    @pytest.mark.parametrize("fail_at", [2, 3, 4])
    def test_rerun_after_a_failed_replace(self, small_corpus, tmp_path, capsys,
                                          monkeypatch, fail_at):
        # a store directory that exists stays when the ingest fails, with
        # the files replaced before the failure
        store = tmp_path / "store"
        store.mkdir()
        replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError(28, "No space left on device")
            replace(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", failing_replace)
            assert run(*self._ingest(small_corpus, store)) == 1
        assert [Path(c).name for c in calls] == ["preprints.jsonl", "published.jsonl",
                                                 "decisions.jsonl", "merges.jsonl"][:fail_at]
        assert not list(store.glob("*.tmp"))
        self._rerun_matches_a_clean_run(small_corpus, tmp_path, capsys, store)

    def test_rerun_after_a_kill_after_the_first_replace(self, small_corpus, tmp_path,
                                                       capsys):
        store = tmp_path / "store"
        store.mkdir()
        child = (
            "import os, sys\n"
            "from arxmatch.cli import main\n"
            "replace = os.replace\n"
            "def replace_then_die(src, dst):\n"
            "    replace(src, dst)\n"
            "    os._exit(9)\n"
            "os.replace = replace_then_die\n"
            "main(sys.argv[1:])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(arxmatch.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", child,
                               *self._ingest(small_corpus, store)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 9, proc.stderr
        # every stale table was encoded in full before the first rename
        assert sorted(p.name for p in store.iterdir()) == [
            ".lock", "decisions.jsonl.tmp", "merges.jsonl.tmp", "preprints.jsonl",
            "published.jsonl.tmp"]
        tmps = {p.name.removesuffix(".tmp"): p.read_bytes() for p in store.glob("*.tmp")}
        self._rerun_matches_a_clean_run(small_corpus, tmp_path, capsys, store)
        assert tmps == {name: (tmp_path / "clean" / name).read_bytes() for name in tmps}


class TestModuleEntryPoint:
    def test_python_m_arxmatch(self, small_store):
        env = dict(os.environ, PYTHONPATH=str(Path(arxmatch.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "arxmatch", "stats",
                               "--store", str(small_store)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["preprints_total"] == 60


class TestBadModel:
    def test_self_looping_model_is_1(self, tmp_path):
        """A tree whose root is its own child must not hang match."""
        corpus, store = tmp_path / "corpus", tmp_path / "store"
        assert run("gen", "--n", "20", "--seed", "7", "--out", str(corpus),
                   "--doi-rate", "0") == 0  # every preprint reaches the forest
        assert run("ingest", "--preprints", str(corpus / "preprints.jsonl"),
                   "--published", str(corpus / "published.jsonl"),
                   "--store", str(store)) == 0
        model = tmp_path / "loop.json"
        model.write_text(json.dumps({
            "schema_version": 1, "n_trees": 1, "max_depth": 1, "seed": 0,
            "decision_threshold": 0.5,
            "trees": [[{"feature": 0, "threshold": 0.5, "left": 0, "right": 0}]],
        }))
        proc = _python("import sys\nfrom arxmatch.cli import main\n"
                       "sys.exit(main(sys.argv[1:]))\n",
                       "match", "--store", str(store), "--model", str(model),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "left child" in json.loads(lines[0])["error"]

    def test_integer_beyond_the_float_range_is_1(self, small_store, tmp_path, capsys):
        model = tmp_path / "huge.json"
        payload = stump_payload()
        payload["trees"][0][0]["threshold"] = 10**400
        model.write_text(json.dumps(payload))
        assert run("match", "--store", str(small_store), "--model", str(model)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == \
            f"ModelFormatError: {model}: tree 0: node 0: threshold is not a finite number"

    def test_model_over_the_table_bound_is_1(self, small_store, tmp_path, capsys,
                                             monkeypatch):
        model = tmp_path / "wide.json"
        model.write_text(json.dumps({
            "schema_version": 1, "n_trees": 1, "max_depth": 400, "seed": 0,
            "decision_threshold": 0.5, "trees": [wide_tree(130)],
        }))
        before = {f.name: f.read_bytes() for f in small_store.iterdir()}
        assert run("match", "--store", str(small_store), "--model", str(model)) == 1
        monkeypatch.setattr(forest, "MAX_TABLE_ENTRIES", 10)
        assert run("train", "--store", str(small_store), "--model",
                   str(tmp_path / "m.json"), "--seed", SEED) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 2
        assert "lookup table of 2,248,484 entries" in json.loads(lines[0])["error"]
        assert "exceeds the limit of 10" in json.loads(lines[1])["error"]
        assert not (tmp_path / "m.json").exists()
        assert {f.name: f.read_bytes() for f in small_store.iterdir()} == before
