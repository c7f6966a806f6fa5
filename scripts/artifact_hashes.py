"""Hash every deterministic artifact the singheat CLI writes.

Runs a fixed set of CLI commands, each from a fixed config (two of them also
read a fixed CSV data file), into a temporary directory and prints one
`sha256  relative/path` line per output file, and one `sha256  <run>/stdout`
line per run over what the CLI printed to standard output followed by
`exit N` (its exit code), all sorted by path.  `manifest.json` holds the
output path and is skipped.  The lines are preceded by a `#` header that
records numpy's version and its CPU baseline, so hashes compare only between
hosts with the same header.  The SIMD loops numpy dispatches on above that
baseline are not in it: the package takes exp from the C library, and
turning X86_V3 and X86_V4 off (NPY_DISABLE_CPU_FEATURES) moves no line, as
tests/test_artifact_hashes.py checks.  Comparing the
output of two checkouts shows which artifacts, verdicts or exit codes a
change altered:

    python3 scripts/artifact_hashes.py > after.txt
    diff before.txt after.txt

tests/artifact_hashes.txt is this output, and tests/test_artifact_hashes.py
checks the package against it; a change that moves bits on purpose
regenerates it with

    python3 scripts/artifact_hashes.py > tests/artifact_hashes.txt

The package is imported from the `src` directory next to this script.  The
CLI's own standard output and each command's exit code are also echoed to
standard error.  Uses only the standard library and the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singheat import cli  # noqa: E402


def _csv(header, rows) -> str:
    return header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in rows)


_X = [k / 50 for k in range(51)]
_U0 = [1.0 / (1.0 + 0.1 * math.sin(math.pi * x)) for x in _X]
_U0_MASS = sum((a + b) / 2 for a, b in zip(_U0[:-1], _U0[1:])) / 50

#: data files written next to the configs; "{data}" in a config is their directory
DATA = {
    # tabulated forcing (t, x, f), decaying linearly to zero at t = 2
    "source.csv": _csv("t,x,f", ((t, x, (1 - t / 2) * 0.5 * math.cos(math.pi * x))
                                 for t in (0.0, 1.0, 2.0) for x in _X)),
    "u0.csv": _csv("x,u", ((x, u / _U0_MASS) for x, u in zip(_X, _U0))),
}

#: (output directory, config text or None, CLI arguments before --config/--out)
RUNS = (
    ("example-ex-2-4", None, ["example", "ex-2-4"]),
    ("example-ex-3-3", None, ["example", "ex-3-3"]),
    ("steady", f"source = cosine_static {math.pi / 2!r}\nnu = 1\n", ["steady"]),
    ("constants", "source = cosine_decay\nnu = 10\n", ["constants"]),
    # the limit profile of a time-dependent source, and a static source's
    # homogeneous constants: the two paths the forcing alone now picks
    ("steady-decay", "source = cosine_decay\nnu = 10\n", ["steady"]),
    ("constants-static", "source = cosine_static 0.5\nnu = 1\n", ["constants"]),
    # default n = 2001: the exp family's N-infinity, |g'(t)| times one profile norm
    ("constants-exp", "source = cosine_exp 0.7\nnu = 10\n", ["constants"]),
    ("simulate-homogeneous",
     "source = cosine_static 0.3\nnu = 1\nn = 101\nu0 = inverse_sine 0.1\n",
     ["simulate"]),
    ("simulate-inhomogeneous", "source = cosine_exp 1.5\nnu = 10\nn = 101\n",
     ["simulate"]),
    ("simulate-tabulated-source",
     "source = csv {data}/source.csv\nnu = 30\nn = 51\nt_end = 2\n", ["simulate"]),
    ("simulate-csv-u0",
     "source = cosine_static 0.3\nnu = 1\nn = 51\nu0 = csv {data}/u0.csv\n",
     ["simulate"]),
    ("transform", "nu = 1\nM = 1\nh0 = cosine_bump 0.2\nv0 = sine 0.5\nn = 401\n",
     ["transform"]),
    ("ssm-crosscheck", "nu = 1\nM = 1\nh0 = cosine_bump 0.1\nv0 = sine 0.5\nn = 201\n",
     ["ssm-crosscheck"]),
    # a march at the benchmark's n = 1601
    ("simulate-fine",
     f"source = cosine_static {math.pi / 2!r}\nnu = 1\nn = 1601\ndt = 5e-4\nt_end = 0.05\n",
     ["simulate"]),
    # a static march whose step 1993 of 4000 returns its input, and whose
    # snapshot stride does not divide the step count
    ("simulate-fixed-point",
     "source = cosine_static 0.3\nnu = 1\nn = 51\nt_end = 4\nsnapshot_stride = 700\n",
     ["simulate"]),
    # ten long steps, one of which damps its Newton update (lambda < 1)
    ("simulate-damped",
     "source = cosine_static 0.3\nnu = 1\nn = 101\ndt = 0.1\nt_end = 1\n"
     "u0 = inverse_sine 0.9\n", ["simulate"]),
    # the sheet map at the benchmark's finest grid
    ("transform-fine", "nu = 1\nM = 1\nh0 = cosine_bump 0.3\nv0 = sine 0.5\nn = 6401\n",
     ["transform"]),
)


def run_all(root: Path) -> dict:
    """Run every command; return each run's standard output plus `exit N`."""
    stdout = {}
    configs = root / "configs"
    configs.mkdir()
    for name, text in DATA.items():
        (configs / name).write_text(text)
    for name, text, argv in RUNS:
        argv = [*argv, "--out", str(root / "out" / name)]
        if text is not None:
            path = configs / f"{name}.txt"
            path.write_text(text.format(data=configs))
            argv += ["--config", str(path)]
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        stdout[f"{name}/stdout"] = f"{captured.getvalue()}exit {code}\n"
        print(f"{captured.getvalue()}# {name}: exit {code}", file=sys.stderr)
    return stdout


def fingerprint() -> list[str]:
    """The header lines: what the hashes depend on beyond the source."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    return [
        "# python3 scripts/artifact_hashes.py > tests/artifact_hashes.txt",
        f"# numpy {numpy.__version__}",
        f"# cpu_baseline {' '.join(umath.__cpu_baseline__)}",
    ]


def main() -> int:
    print("\n".join(fingerprint()))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        contents = {key: text.encode() for key, text in run_all(root).items()}
        out = root / "out"
        for path in out.rglob("*"):
            if path.is_file() and path.name != "manifest.json":
                contents[path.relative_to(out).as_posix()] = path.read_bytes()
        for key in sorted(contents, key=lambda key: key.split("/")):   # as paths sort
            print(f"{hashlib.sha256(contents[key]).hexdigest()}  {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
