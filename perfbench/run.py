"""Pipeline benchmark for arxmatch.

    python3 perfbench/run.py --workload golden-1k --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Every workload (see workloads.py) is
driven through the public CLI entry point ``arxmatch.cli.main``, taken
from ``src/`` of the checkout, in fresh single-threaded child processes:

- set-up runs at least SETUPS times, each in its own child, and short
  set-ups repeat until they add up to SETUP_MIN_S; ``setup_s`` is the
  median child time, from its start to the end of its work;
- timed passes then run one after the other, each in a fresh child on a
  fresh copy of the set-up state, until ``--seconds`` have passed (at least
  one pass). A pass is a closed loop with one client: each CLI command
  starts when the previous one returned. Metrics are medians over passes;
- every pass's outputs are checked (checks.py).

The run pins itself, its children and the host-speed probe (probe.py) to
one CPU. Every time metric is in seconds at the probe's reference speed:
each wall interval is scaled by the speed the probe measured on that CPU
during it, so that other tenants of the shared host do not move the
metrics. The raw wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` does one
set-up and three passes, the middle one traced (spans.py), and reports the
per-layer metrics, taken from the traced pass only, plus the tracing
overhead. Every CLI command and every output check is one operation; a
non-zero exit or a failed check is a failed operation. The last line of
stdout is the JSON result; the lines before it give the environment stamp
and every stage time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUPS = 3
# a set-up of a few hundred ms holds only a handful of probe samples, so
# short ones repeat (up to SETUP_MAX times) to steady their median
SETUP_MIN_S = 2.0
SETUP_MAX = 15
RUN_BUDGET_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("match_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, unit, better) reported by --trace 1; BENCHMARK.json lists the same
PER_LAYER = [
    ("kernels.levenshtein.calls", "count", "lower"),
    ("kernels.levenshtein.self_s", "s", "lower"),
    ("kernels.levenshtein.cells", "count", "lower"),
    ("kernels.sorted_dot.calls", "count", "lower"),
    ("kernels.sorted_dot.self_s", "s", "lower"),
    ("kernels.forest_eval.calls", "count", "lower"),
    ("kernels.forest_eval.rows", "count", "lower"),
    ("kernels.forest_eval.self_s", "s", "lower"),
    ("kernels.best_split.calls", "count", "lower"),
    ("kernels.best_split.self_s", "s", "lower"),
] + [
    (f"similarity.{fn}.{field}", unit, "lower")
    for fn in ("feature_vector_projected", "feature_vector", "project")
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
] + [
    ("forest.predict_many.calls", "count", "lower"),
    ("forest.predict_many.rows_per_call", "rows/call", "higher"),
    ("forest.predict_many.self_s", "s", "lower"),
    ("forest.train_forest.busy_s", "s", "lower"),
    ("forest.training_pairs_from.busy_s", "s", "lower"),
    ("candidates.build_index.busy_s", "s", "lower"),
    ("candidates.query_candidates.calls", "count", "lower"),
    ("candidates.query_candidates.self_s", "s", "lower"),
    ("candidates.query_candidates.empty", "count", "lower"),
    ("candidates.recall_at_k", "ratio", "higher"),
    ("normalize.normalize_text.calls", "count", "lower"),
    ("normalize.normalize_text.self_s", "s", "lower"),
    ("normalize.normalize_text.miss_ratio", "ratio", "lower"),
    ("matcher.doi_hits", "count", "higher"),
    ("matcher.classifier_calls", "count", "lower"),
    ("matcher.positive_share", "ratio", "higher"),
    ("corpus.load.calls", "count", "lower"),
    ("corpus.load.busy_s", "s", "lower"),
    ("corpus.save.calls", "count", "lower"),
    ("corpus.save.busy_s", "s", "lower"),
    ("corpus.ingest.busy_s", "s", "lower"),
    ("corpus.store_bytes", "bytes", "lower"),
    ("authors.build_profiles.busy_s", "s", "lower"),
    ("authors.update_on_merge.calls", "count", "lower"),
    ("authors.update_on_merge.busy_s", "s", "lower"),
    ("authors.export_jsonl.busy_s", "s", "lower"),
    ("scope.scope_report.busy_s", "s", "lower"),
    ("evaluate.evaluate.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(RuntimeError):
    """The run cannot produce a result (missing sources, set-up failure)."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, store_bytes: int, overhead_s: float) -> dict:
    """Per-layer values keyed like PER_LAYER, from one traced pass."""
    span, counters = summary["spans"], summary["counters"]

    def s(name: str, field: str) -> float:
        return span.get(name, {}).get(field, 0)

    values: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "busy_s", "self_s"):
            values[metric] = s(layer, field)
    values.update({
        "kernels.levenshtein.cells": counters.get("kernels.levenshtein.cells", 0),
        "kernels.forest_eval.rows": counters.get("kernels.forest_eval.rows", 0),
        "forest.predict_many.rows_per_call": _ratio(
            counters.get("forest.predict_many.rows", 0),
            s("forest.predict_many", "calls")),
        "candidates.query_candidates.empty":
            counters.get("candidates.query_candidates.empty", 0),
        "candidates.recall_at_k": _ratio(counters.get("candidates.recall.hits", 0),
                                         counters.get("candidates.recall.queries", 0)),
        "normalize.normalize_text.miss_ratio": _ratio(
            counters.get("normalize.cache_misses", 0),
            counters.get("normalize.cache_misses", 0)
            + counters.get("normalize.cache_hits", 0)),
        "matcher.doi_hits": counters.get("matcher.doi_hits", 0),
        "matcher.classifier_calls": counters.get("matcher.classifier_calls", 0),
        "matcher.positive_share": _ratio(counters.get("matcher.positives", 0),
                                         counters.get("matcher.classifier_calls", 0)),
        "corpus.store_bytes": store_bytes,
        "trace.overhead_s": overhead_s,
    })
    return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}


def tree_hashes(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                **{k: "1" for k in SINGLE_THREAD})


class Run:
    """One benchmark run: operation accounting and child processes."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.meta = work / "_bench"
        self.meta.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env_stamp: dict = {}

    def child(self, tag: str, spec: dict) -> tuple[dict, tuple[float, float]]:
        """Run child.py on spec; return its result, and the monotonic times
        it was started and finished its work."""
        spec = dict(spec, root=str(ROOT), workload=self.wl.name, seed=self.seed)
        spec_path, out_path = self.meta / f"{tag}.spec.json", self.meta / f"{tag}.out.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s used up before {tag}")
        with open(self.meta / f"{tag}.log", "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path),
                     str(out_path)], stdout=log, stderr=subprocess.STDOUT,
                    env=child_env(), cwd=ROOT, timeout=remaining, check=False)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{tag} exceeded the run budget") from None
        if proc.returncode != 0 or not out_path.is_file():
            tail = (self.meta / f"{tag}.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{tag} child exited {proc.returncode}:\n{tail}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        # the child's own clock: waiting on it with a timeout polls every 50 ms
        span = (t0, result["done"])
        for cmd in result["commands"]:
            self.attempted += 1
            if cmd["code"] != 0:
                self.failed += 1
                print(f"# FAILED command {cmd['command']} exited {cmd['code']}",
                      file=sys.stderr)
        self.env_stamp = result["env"]
        return result, span

    def record(self, results: list[tuple[str, bool, str]]) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if ok:
                print(f"# check {name} ok: {detail}")
            else:
                self.failed += 1
                print(f"# FAILED check {name}: {detail}", file=sys.stderr)

    def check_pass(self, setup_dir: Path, pass_dir: Path) -> None:
        try:
            results = self.wl.check(ROOT, setup_dir, pass_dir, self.seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            results = [("checks", False, f"{type(exc).__name__}: {exc}")]
        self.record(results)

    def setup(self, index: int) -> tuple[Path, tuple[float, float]]:
        setup_dir = self.work / f"setup{index}"
        setup_dir.mkdir()
        result, span = self.child(f"setup{index}", {"mode": "setup",
                                                     "dir": str(setup_dir)})
        if "error" in result:
            raise BenchError(result["error"])
        return setup_dir, span

    def timed_pass(self, setup_dir: Path, index: int, trace: bool = False) -> tuple[dict, Path]:
        pass_dir = self.work / f"pass{index}"
        base = self.wl.base_store(setup_dir)
        if base is None:
            pass_dir.mkdir()
        else:
            shutil.copytree(base, pass_dir / "store")
        spec = {
            "mode": "pass",
            "commands": self.wl.commands(setup_dir, pass_dir),
            "trace": trace,
            "truth": str(self.wl.truth(setup_dir)),
            "spans": str(self.meta / f"pass{index}.spans.json"),
            "run_id": f"{self.wl.name}-seed{self.seed}-pass{index}",
        }
        result, _ = self.child(f"pass{index}", spec)
        self.check_pass(setup_dir, pass_dir)
        return result, pass_dir


def stage_seconds(result: dict, seconds) -> dict[str, float]:
    """seconds(start, end) summed per CLI command name, plus wall_s over
    all of them."""
    out: dict[str, float] = {"wall_s": 0.0}
    for cmd in result["commands"]:
        key = f"{cmd['command']}_s"
        took = seconds(cmd["start"], cmd["end"])
        out[key] = out.get(key, 0.0) + took
        out["wall_s"] += took
    return out


def wall(start: float, end: float) -> float:
    return end - start


def print_medians(label: str, stages: list[dict]) -> dict[str, float]:
    keys = sorted({k for s in stages for k in s})
    medians = {k: statistics.median(s.get(k, 0.0) for s in stages) for k in keys}
    for k in keys:
        print(f"# stage {k} {medians[k]:.4f} s {label} (median of {len(stages)} passes)")
    return medians


def measure(run: Run, host: probe.Probe, seconds: float) -> dict:
    setup_spans: list[tuple[float, float]] = []
    while len(setup_spans) < SETUPS or (
            sum(wall(*span) for span in setup_spans) < SETUP_MIN_S
            and len(setup_spans) < SETUP_MAX):
        setup_dir, span = run.setup(len(setup_spans))
        setup_spans.append(span)
        if len(setup_spans) > 1:
            shutil.rmtree(setup_dir)
    setup_dir = run.work / "setup0"

    results: list[dict] = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        result, pass_dir = run.timed_pass(setup_dir, len(results))
        shutil.rmtree(pass_dir)
        results.append(result)
        now = time.monotonic()
        if now - t0 >= seconds or run.deadline - now < 1.5 * (now - started):
            break

    samples = host.stop()
    ref = functools.partial(probe.ref_seconds, samples)

    print_medians("wall", [stage_seconds(r, wall) for r in results])
    medians = print_medians("at reference speed",
                            [stage_seconds(r, ref) for r in results])
    setup_ref = [ref(*span) for span in setup_spans]
    print(f"# setup_s wall {[round(wall(*span), 4) for span in setup_spans]}, "
          f"at reference speed {[round(t, 4) for t in setup_ref]}")
    print(f"# probe {len(samples)} samples, median job "
          f"{statistics.median(c for _, c in samples) * 1e3:.4f} ms, "
          f"reference {probe.REF_JOB_S * 1e3:.4f} ms")
    values = {
        "setup_s": statistics.median(setup_ref),
        "wall_s": medians["wall_s"],
        "match_s": medians.get("match_s", 0.0),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_layers(run: Run, host: probe.Probe) -> dict:
    """Untraced, traced, untraced pass; layers come from the traced one.

    The traced pass sits between two untraced ones, and all three are
    taken at reference speed, so that a drift in machine speed over the
    run cancels out of trace.overhead_s. The span times are wall times.
    """
    setup_dir, _ = run.setup(0)
    before, before_dir = run.timed_pass(setup_dir, 0)
    traced, traced_dir = run.timed_pass(setup_dir, 1, trace=True)
    after, after_dir = run.timed_pass(setup_dir, 2)
    plain = tree_hashes(before_dir)
    same = tree_hashes(traced_dir) == plain == tree_hashes(after_dir)
    run.record([("traced_artifacts_equal_untraced", same,
                 f"sha256 of {len(plain)} artifacts from 2 untraced passes and 1 traced")])
    store = traced_dir / "store"
    store_bytes = sum(p.stat().st_size for p in store.iterdir() if p.is_file())
    ref = functools.partial(probe.ref_seconds, host.stop())

    def ref_wall(result: dict) -> float:
        return stage_seconds(result, ref)["wall_s"]

    overhead = ref_wall(traced) - (ref_wall(before) + ref_wall(after)) / 2
    summary = spans.summarize(run.meta / "pass1.spans.json")
    for name, row in sorted(summary["spans"].items()):
        print(f"# span {name} calls={row['calls']} busy_s={row['busy_s']:.4f} "
              f"self_s={row['self_s']:.4f}")
    return layer_metrics(summary, store_bytes, overhead)


def require_checkout() -> None:
    needed = [ROOT / "src" / "arxmatch" / "cli.py",
              ROOT / "tests" / "data" / "corpus1000" / "preprints.jsonl",
              ROOT / "tests" / "data" / "golden" / "hashes.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not an arxmatch checkout, missing: {', '.join(missing)}")


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under .bench_work, removed with its contents on exit."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    require_checkout()
    wl = workloads.WORKLOADS[workload]
    seed = wl.effective_seed(seed)
    # the probe must see the CPU the children run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with work_dir(f"{workload}-seed{seed}") as work:
        run = Run(wl, seed, work)
        with probe.Probe(run.meta / "probe.json", child_env()) as host:
            metrics = measure_layers(run, host) if trace else measure(run, host, seconds)
    print("# env " + json.dumps(dict(run.env_stamp, workload=workload), sort_keys=True))
    for name, m in metrics.items():
        print(f"# metric {name} {m['value']} {m['unit']}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def self_test() -> bool:
    """Show that one corrupted byte in any checked artifact is a failed op."""
    require_checkout()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = [m["name"] for m in declared["end_to_end"]] == [n for n, _ in END_TO_END] \
        and [m["name"] for m in declared["per_layer"]] == [n for n, _, _ in PER_LAYER]
    print(f"# BENCHMARK.json lists the reported metrics: {ok}")
    wl = workloads.WORKLOADS["golden-1k"]
    with work_dir("self-test") as work:
        run = Run(wl, workloads.GOLDEN_SEED, work)
        setup_dir, _ = run.setup(0)
        _, pass_dir = run.timed_pass(setup_dir, 0)
        ok &= run.failed == 0
        print(f"# clean golden-1k pass: {run.attempted} operations, {run.failed} failed")
        truth = checks.load_truth(wl.truth(setup_dir))
        targets = [(rel, lambda: wl.check(ROOT, setup_dir, pass_dir, run.seed))
                   for rel in tree_hashes(pass_dir)]
        # a one-byte change to a DOI decision's accession keeps the JSON valid
        targets.append(("store/decisions.jsonl", lambda: checks.decisions_vs_truth(
            pass_dir / "store", truth, classifier_path=set())))
        for rel, check in targets:
            path = pass_dir / rel
            original = path.read_bytes()
            marker = original.find(b'"doi_match"')
            offset = original.rfind(b'"zbl', 0, marker) + 6 if marker >= 0 \
                else len(original) // 2
            _flip_byte(path, offset)
            before = run.failed
            run.record(check())
            path.write_bytes(original)
            detected = run.failed > before
            ok &= detected
            print(f"# corrupted byte {offset} of {rel}: "
                  f"{'reported as failed' if detected else 'NOT DETECTED'}")
    print(f"# self-test {'passed' if ok else 'FAILED'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running child and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted artifacts count as failures")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, probe.ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
