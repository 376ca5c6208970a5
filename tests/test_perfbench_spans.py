"""The benchmark's tracer must find every binding it wraps."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import arxmatch

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_finds_every_patch_point():
    code = (
        "import spans\n"
        "from arxmatch import _kernels\n"
        "rec = spans.SpanRecorder('probe')\n"
        "spans.install(rec, {})\n"
        "print(_kernels.levenshtein.span_name)\n"
    )
    path = os.pathsep.join([str(Path(arxmatch.__file__).parents[1]), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["kernels.levenshtein"]
