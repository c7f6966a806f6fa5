"""scripts/compare_outputs.py's comparison, on two small hand-made output trees."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import compare_outputs  # noqa: E402


def _tree(root: Path, files: dict) -> Path:
    for path, text in files.items():
        (root / "out" / path).parent.mkdir(parents=True, exist_ok=True)
        (root / "out" / path).write_text(text)
    return root


def test_compare_reports_each_moved_file_and_stdout_line(tmp_path):
    old = _tree(tmp_path / "old", {
        "run/diagnostics.csv": "t,mass,newton_iters\n0,1,0\n0.001,1.0000000000000002,3\n",
        "run/same.json": '{"x": 1.5}\n',
        "run/manifest.json": '{"out": "old"}\n',
        "run/words.txt": "verdict ok 1\n",
        "gone/a.csv": "x\n1\n",
    })
    new = _tree(tmp_path / "new", {
        "run/diagnostics.csv": "t,mass,newton_iters\n0,1,0\n0.001,1,2\n",
        "run/same.json": '{"x": 1.5}\n',
        "run/manifest.json": '{"out": "new"}\n',
        "run/words.txt": "verdict failed 1\n",
        "added/b.csv": "x\n-2.5e-3\n",
    })
    old_stdout = {"run/stdout": "fixed point at t=3.06\nexit 0\n", "gone/stdout": "exit 0\n"}
    new_stdout = {"run/stdout": "fixed point at t=1.993\nexit 0\n", "gone/stdout": "exit 0\n"}
    assert compare_outputs.compare(old, new, old_stdout, new_stdout) == [
        "added/b.csv: only in the new tree",
        "gone/a.csv: only in the old tree",
        "run/diagnostics.csv: 2 of 6 numbers moved, largest relative change 0.33 at line 3 "
        "(3.0 -> 2.0)",
        "run/words.txt: the text differs beyond its numbers",
        "run/stdout:",
        "  - fixed point at t=3.06",
        "  + fixed point at t=1.993",
    ]


def test_numbers_are_cut_from_words_and_compared_relative_to_the_larger():
    text, values, lines = compare_outputs.numbers('u0 = 1e-3\nx: [-2.5, nan, inf]\n')
    assert text == ["u0 = ", "\nx: [", ", ", ", ", "]\n"]
    assert values.tolist()[:2] == [1e-3, -2.5] and lines == [1, 2, 2, 2]
    change = compare_outputs.relative_change(values, values[[0, 1, 3, 3]])
    assert change.tolist() == [0.0, 0.0, float("inf"), 0.0]
    assert compare_outputs.relative_change(np.array([4.0]), np.array([-4.0])) == 2.0
