"""The byte-identity gate: every deterministic CLI artifact keeps its committed hash.

tests/artifact_hashes.txt is `scripts/artifact_hashes.py`'s output: a
header with numpy's version and its CPU baseline, then one sha256 line per
artifact.  The SIMD targets numpy dispatches on above the baseline are not in
the header, and turning them off must move no line.  A change that moves bits on purpose
regenerates the file in the same commit, and the file's diff lists what moved:

    python3 scripts/artifact_hashes.py > tests/artifact_hashes.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "artifact_hashes.txt"


def _parse(text: str):
    """(header lines, {path: sha256}) of the script's output."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    hashes = dict(line.split("  ", 1)[::-1] for line in lines if not line.startswith("#"))
    return header, hashes


def _assert_hashes_kept(**env):
    """Run the script with env added to the environment; every hash must be the
    committed one, unless the host's header differs."""
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_hashes.py")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, **env})
    assert done.returncode == 0, done.stderr
    header, hashes = _parse(done.stdout)
    golden_header, golden = _parse(GOLDEN.read_text())
    if header != golden_header:
        # numpy's SIMD loops may round differently on another CPU or build
        pytest.skip(f"the hashes were made with {golden_header[1:]}; this host has "
                    f"{header[1:]}, where they cannot be compared")
    moved = sorted(path for path in golden.keys() | hashes.keys()
                   if golden.get(path) != hashes.get(path))
    assert not moved, (f"{len(moved)} artifacts moved: {', '.join(moved)}; if on purpose, "
                       f"regenerate {GOLDEN.name} as its test module says")


def test_cli_artifacts_keep_their_committed_hashes():
    _assert_hashes_kept()


def test_hashes_do_not_depend_on_the_simd_targets_above_the_baseline():
    # numpy's x86-64 dispatch targets above its X86_V2 baseline, turned off
    # for the script's interpreter, which reads the setting as numpy loads
    _assert_hashes_kept(NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
