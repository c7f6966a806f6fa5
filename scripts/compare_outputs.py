"""Compare the CLI artifacts of two source trees, number by number.

Runs `artifact_hashes.run_all`, the fixed CLI runs whose artifacts
`artifact_hashes.py` hashes, once under each `src` tree, each in a child
interpreter, and compares what they wrote.  For each output file whose bytes
differ it prints how many of the file's numbers moved and the largest
relative change among them, |new - old| / max(|old|, |new|), with the two
values; a file whose text differs beyond its numbers is named as such.  For
each run it prints the lines of standard output (with `exit N`) that
differ.  `manifest.json` holds the output path and is skipped:

    python3 scripts/compare_outputs.py ../parent/src src

It exits 1 if anything differs and 0 if nothing does.  The runs are this
checkout's `artifact_hashes.RUNS`, whichever trees are compared.  Uses only
the standard library and numpy.
"""

from __future__ import annotations

import argparse
import difflib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent

#: run in the child: argv is the src tree, this scripts directory and the
#: directory to run in.  The package is imported from that tree before
#: artifact_hashes, which puts this checkout's src first on the path, so its
#: `from singheat import cli` finds it
CHILD = """
import json, sys
from pathlib import Path
src, scripts, root = sys.argv[1:]
sys.path.insert(0, src)
import singheat.cli
sys.path.insert(0, scripts)
import artifact_hashes
assert Path(singheat.cli.__file__).is_relative_to(src), singheat.cli.__file__
stdout = artifact_hashes.run_all(Path(root))
(Path(root) / "stdout.json").write_text(json.dumps(stdout))
"""

#: a number as the CLI writes one, a decimal or exponent float or nan or ±inf,
#: and not part of a word
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def run_tree(src: Path, root: Path) -> dict:
    """Run every command under the package in src, in root; their standard outputs."""
    root.mkdir()
    # the child echoes each command's output to its standard error
    done = subprocess.run([sys.executable, "-c", CHILD, str(src.resolve()), str(SCRIPTS),
                           str(root)], capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"the runs under {src} failed:\n{done.stderr}")
    return json.loads((root / "stdout.json").read_text())


def numbers(text: str) -> tuple[list, np.ndarray, list]:
    """The text with its numbers cut out, the numbers, and the line of each."""
    found = list(NUMBER.finditer(text))
    return (NUMBER.split(text), np.array([float(m[0]) for m in found]),
            [text.count("\n", 0, m.start()) + 1 for m in found])


def relative_change(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|new - old| / max(|old|, |new|), 0 where both are equal."""
    with np.errstate(invalid="ignore", divide="ignore"):
        change = np.abs(new - old) / np.maximum(np.abs(old), np.abs(new))
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    return np.where(same, 0.0, np.where(np.isnan(change), np.inf, change))


def compare_file(name: str, old: str, new: str) -> str:
    """One line on how the numbers of a file moved between two versions of its text."""
    (old_text, old_numbers, lines), (new_text, new_numbers, _) = numbers(old), numbers(new)
    if old_text != new_text:
        return f"{name}: the text differs beyond its numbers"
    change = relative_change(old_numbers, new_numbers)
    at = int(np.argmax(change))
    return (f"{name}: {np.count_nonzero(change)} of {len(change)} numbers moved, largest "
            f"relative change {change[at]:.2g} at line {lines[at]} "
            f"({float(old_numbers[at])!r} -> {float(new_numbers[at])!r})")


def compare(old_root: Path, new_root: Path, old_stdout: dict, new_stdout: dict) -> list:
    """The report's lines on two runs' output trees, under root/out, and their standard outputs."""
    lines = []
    old_out, new_out = old_root / "out", new_root / "out"
    paths = {p.relative_to(out).as_posix() for out in (old_out, new_out) for p in out.rglob("*")
             if p.is_file() and p.name != "manifest.json"}
    for path in sorted(paths, key=lambda path: path.split("/")):
        old, new = old_out / path, new_out / path
        if not (old.exists() and new.exists()):
            lines.append(f"{path}: only in the {'old' if old.exists() else 'new'} tree")
        elif old.read_bytes() != new.read_bytes():
            lines.append(compare_file(path, old.read_text(), new.read_text()))
    for run in sorted(old_stdout.keys() | new_stdout.keys()):
        moved = [line for line in difflib.ndiff(old_stdout.get(run, "").splitlines(),
                                                new_stdout.get(run, "").splitlines())
                 if line.startswith(("- ", "+ "))]
        if moved:
            lines += [f"{run}:", *(f"  {line}" for line in moved)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", type=Path, help="the src directory of the old tree")
    parser.add_argument("new_src", type=Path, help="the src directory of the new tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / side for side in ("old", "new")]
        stdouts = [run_tree(src, root) for src, root in zip((args.old_src, args.new_src), roots)]
        lines = compare(*roots, *stdouts)
    print("\n".join(lines) if lines else "no artifact differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
