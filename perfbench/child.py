"""Child process of the pipeline benchmark: one set-up or one timed pass.

    python perfbench/child.py SPEC.json OUT.json

The spec names the mode, the workload and the directories. A set-up
builds inputs and the base store; a pass runs its CLI commands through
``arxmatch.cli.main`` in order, each starting when the previous one
returned (one client, closed loop), optionally under the span recorder.
OUT.json gets every command's start and end on the system-wide monotonic
clock (the parent matches them to the host-speed probe's samples) and its
exit code, the process's peak RSS, the environment stamp, and when its
work was done. The parent pins BLAS/OpenMP to one thread
through the environment, so the process stays single-threaded.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import monotonic


class SetupFailed(RuntimeError):
    pass


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])

    import numpy

    import arxmatch
    from arxmatch import _kernels, cli

    src = (root / "src").resolve()
    if src not in Path(arxmatch.__file__).resolve().parents:
        raise SystemExit(f"arxmatch imported from {arxmatch.__file__}, not {src}")

    log: list[dict] = []
    out: dict = {
        "env": {
            "backend": _kernels.BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "seed": spec["seed"],
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "commands": log,
    }

    def run(argv: list[str], entry=cli.main) -> int:
        t0 = monotonic()
        code = entry(argv)
        log.append({"command": argv[0], "start": t0, "end": monotonic(), "code": code})
        return code

    if spec["mode"] == "setup":
        import workloads

        def checked(argv: list[str]) -> None:
            if run(argv) != 0:
                raise SetupFailed(f"set-up command {argv[0]} exited non-zero")

        try:
            workloads.WORKLOADS[spec["workload"]].setup(
                root, Path(spec["dir"]), spec["seed"], checked)
        except SetupFailed as exc:
            out["error"] = str(exc)
    else:
        rec = None
        if spec["trace"]:
            import spans

            rec = spans.SpanRecorder(spec["run_id"])
            truth = json.loads(Path(spec["truth"]).read_text(encoding="utf-8"))["pairs"]
            cache_counts = spans.install(rec, truth)
            hits0, misses0 = cache_counts()
        for argv in spec["commands"]:
            entry = rec.wrap(f"cli.{argv[0]}", cli.main) if rec else cli.main
            if run(argv, entry) != 0:
                break
        if rec is not None:
            hits, misses = cache_counts()
            rec.counters["normalize.cache_hits"] = hits - hits0
            rec.counters["normalize.cache_misses"] = misses - misses0
            rec.write(spec["spans"])

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["done"] = monotonic()
    Path(out_path).write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
