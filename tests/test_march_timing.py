"""scripts/march_timing.py's four kinds of child program, each run once.

The children reach into the package (the `out-*` child into private names of
`cli`), and `scripts/bench_snapshot.py` runs every one of them, so a change
that breaks a child shows here rather than in a timing run.
"""

import math
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import march_timing  # noqa: E402


@pytest.mark.parametrize("case", ["n4097", "gap-tab-2001", "ssm-1601", "out-ex-2-4"])
def test_each_kind_of_case_runs_and_reports_its_seconds(case):
    seconds = march_timing.least_seconds(ROOT / "src", case, 1, max(os.sched_getaffinity(0)))
    assert math.isfinite(seconds) and seconds > 0
