"""Hash every deterministic artifact the singheat CLI writes.

Runs a fixed set of CLI commands, each from a fixed config, into a temporary
directory and prints one `sha256  relative/path` line per output file, sorted
by path.  `manifest.json` holds the output path and is skipped.  Comparing the
output of two checkouts shows which artifacts a change altered:

    python3 scripts/artifact_hashes.py > after.txt
    diff before.txt after.txt

The package is imported from the `src` directory next to this script.  The
CLI's own standard output and each command's exit code go to standard error.
Uses only the standard library and the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singheat import cli  # noqa: E402

#: (output directory, config text or None, CLI arguments before --config/--out)
RUNS = (
    ("example-ex-2-4", None, ["example", "ex-2-4"]),
    ("example-ex-3-3", None, ["example", "ex-3-3"]),
    ("steady", f"source = cosine_static {math.pi / 2!r}\nnu = 1\n", ["steady"]),
    ("constants", "source = cosine_decay\nnu = 10\n", ["constants"]),
    ("simulate-homogeneous",
     "source = cosine_static 0.3\nnu = 1\nn = 101\nu0 = inverse_sine 0.1\n",
     ["simulate"]),
    ("simulate-inhomogeneous", "source = cosine_exp 1.5\nnu = 10\nn = 101\n",
     ["simulate"]),
    ("transform", "nu = 1\nM = 1\nh0 = cosine_bump 0.2\nv0 = sine 0.5\nn = 401\n",
     ["transform"]),
    ("ssm-crosscheck", "nu = 1\nM = 1\nh0 = cosine_bump 0.1\nv0 = sine 0.5\nn = 201\n",
     ["ssm-crosscheck"]),
)


def run_all(root: Path) -> None:
    configs = root / "configs"
    configs.mkdir()
    for name, text, argv in RUNS:
        argv = [*argv, "--out", str(root / "out" / name)]
        if text is not None:
            path = configs / f"{name}.txt"
            path.write_text(text)
            argv += ["--config", str(path)]
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        print(f"# {name}: exit {code}", file=sys.stderr)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_all(root)
        out = root / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            if path.name == "manifest.json":
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
