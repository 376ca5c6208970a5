"""Host-speed probe: corrects the benchmark's times for a shared core.

    python perfbench/probe.py SAMPLES.json

The benchmark's VM shares physical cores with other tenants, and the speed
of one vCPU swings by up to 2x from one second to the next while the
program's CPU time swings with it (there is no steal time to subtract).
The probe measures that swing where the program runs: it is pinned to the
same CPU as the benchmark's child processes and, every PERIOD_S seconds,
wakes up and times one fixed small job by its own thread CPU time. The
job is what most of arxmatch's time goes to, small numpy operations driven
from a Python loop (an edit-distance DP), and is the benchmark's own
code, so a change to arxmatch cannot change it. Jobs tried beside it were
a dict/string word count, a JSON round trip, lookups scattered over a
dict of several MB, and sums of these. The large-dict lookups tracked the
merge-heavy daily-10k a little better, but they slow down more than the
program does when a neighbour is busy, which over-corrected golden-1k;
this job alone tracked every workload within a few per cent. The probe
takes about 2% of the CPU.

``ref_seconds`` turns a wall-clock interval into seconds at the reference
speed: the interval times the mean, over the probe samples taken inside
it, of REF_JOB_S / sample, leaving out the lowest and highest TRIM of
those ratios. REF_JOB_S is about the job's cost on a quiet core of the
machine the bounds were set on (2.1 GHz Xeon, Sapphire Rapids, KVM), so
there reference seconds come close to the wall seconds of a quiet run.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

PERIOD_S = 0.02
REF_JOB_S = 0.00028
TRIM = 0.05
MIN_SAMPLES = 5
WARMUP_JOBS = 200


def job(a, b) -> int:
    """One fixed unit of work: a row-vectorized edit-distance DP."""
    import numpy as np

    prev = np.arange(b.size + 1)
    offs = np.arange(b.size + 1)
    for i in range(a.size):
        sub = prev[:-1] + (b != a[i])
        best = np.minimum(sub, prev[1:] + 1)
        e = np.minimum.accumulate(np.concatenate(([i + 1], best - offs[1:])))
        prev = e + offs
    return int(prev[-1])


def probe_main(out_path: str) -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.integers(97, 123, 40), rng.integers(97, 123, 48)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    parent = os.getppid()
    for _ in range(WARMUP_JOBS):
        job(a, b)
    print("ready", flush=True)
    samples: list[tuple[float, float]] = []
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        t = time.monotonic()
        c0 = time.thread_time()
        job(a, b)
        samples.append((t, time.thread_time() - c0))
    Path(out_path).write_text(json.dumps(samples), encoding="utf-8")
    return 0


class ProbeError(RuntimeError):
    """The probe did not start, failed, or left no samples."""


class Probe:
    """The probe process for one benchmark run; a context manager that
    always stops and reaps it."""

    def __init__(self, out_path: Path, env: dict[str, str]):
        self.out_path = out_path
        self.env = env
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.out_path)],
            stdout=subprocess.PIPE, env=self.env, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._end()
            raise ProbeError("the host-speed probe did not start")
        return self

    def _end(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None:
            self.proc.stdout.close()

    def stop(self) -> list[tuple[float, float]]:
        """Stop the probe and return its (monotonic time, job seconds) samples."""
        self._end()
        if self.proc.returncode != 0 or not self.out_path.is_file():
            raise ProbeError(f"the host-speed probe exited {self.proc.returncode}")
        return [tuple(s) for s in json.loads(self.out_path.read_text(encoding="utf-8"))]

    def __exit__(self, *exc) -> None:
        self._end()


def ref_seconds(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Seconds at the reference speed for the wall interval [t0, t1].

    Uses the samples inside the interval, or the MIN_SAMPLES nearest to
    it when the interval is too short to hold that many.
    """
    times = [t for t, _ in samples]
    lo, hi = bisect_left(times, t0), bisect_right(times, t1)
    if hi - lo < MIN_SAMPLES:
        mid = bisect_left(times, (t0 + t1) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(samples) - MIN_SAMPLES))
        hi = min(len(samples), lo + MIN_SAMPLES)
    if lo >= hi:
        raise ProbeError("no host-speed probe samples")
    ratios = sorted(REF_JOB_S / c for _, c in samples[lo:hi])
    cut = int(len(ratios) * TRIM)
    return (t1 - t0) * statistics.fmean(ratios[cut:len(ratios) - cut])


if __name__ == "__main__":
    sys.exit(probe_main(sys.argv[1]))
