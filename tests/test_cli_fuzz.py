"""A table-driven fuzz of the CLI: each command's config keys, one at a time.

From a short base config that exits 0 (n = 21, ten march steps), hypothesis
changes one key of `CONFIG_KEYS` to a value drawn from a fixed alphabet:
nan, ±inf, 0, -1, 1e-300, 1e300, typical numbers, malformed words and specs,
and spec names with each of those numbers as argument.  `example` takes no
config, so its keys that have a flag are set by the flag.  A key added to the
table later is drawn too.  Every run must exit 0, 2, 3 or 4, print no
traceback, leave no `--out` when it exits 4, and exit 4 on any non-finite
number.  The runs are derandomized and keep no example database.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singheat.cli import CONFIG_KEYS, TIME_FLAGS, main

#: a config of each command that exits 0 quickly
BASE = {
    "steady": "source = cosine_static 0.5\nnu = 1\nn = 21\n",
    "constants": "source = cosine_static 0.5\nnu = 1\nn = 21\n",
    "simulate": "source = cosine_static 0.5\nnu = 1\nn = 21\nt_end = 0.01\n",
    "transform": "nu = 1\nn = 21\n",
    "ssm-crosscheck": "nu = 1\nn = 21\nt_check = 0.01\n",
}
EXAMPLE = ["example", "ex-3-3", "--n", "21", "--t-end", "0.01"]
#: the keys of `example` that a flag sets, with that flag
EXAMPLE_FLAGS = {"n": "--n", **{key: flag for flag, (key, _) in
                                zip(("--dt", "--t-end"), TIME_FLAGS["example"])}}

NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0.5", "2", "3")
WORDS = ("", "abc", "1 2", "csv no-such-file.csv")
SPECS = ("zero", "constant", "cosine_static", "cosine_decay", "cosine_exp", "inverse_sine",
         "cosine_bump", "sine")
NUMERIC = st.sampled_from(NUMBERS + WORDS + SPECS)
SPEC = st.one_of(st.sampled_from(WORDS + SPECS + NUMBERS),
                 st.builds("{} {}".format, st.sampled_from(SPECS), st.sampled_from(NUMBERS)))

#: (command, key, value) runs left out, each for a fault named in CHANGES.md
LEFT_OUT = {
    # FOUND: the sheet solver takes t_check/dt_ssm steps, about 1e298, and never ends
    ("ssm-crosscheck", "dt_ssm", "1e-300"),
    # FOUND: TheoremConstants squares nu, and the OverflowError escapes as a traceback
    ("constants", "nu", "1e300"),
}


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)), label="command")
    keys = EXAMPLE_FLAGS if command == "example" else CONFIG_KEYS[command]
    key = draw(st.sampled_from(sorted(keys)), label="key")
    # a spec key's values are mostly specs, whose arguments take the numbers
    entry = CONFIG_KEYS[command][key]
    spec = entry is str or isinstance(entry, str)
    return command, key, draw(SPEC if spec else NUMERIC, label="value")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(runs())
def test_one_changed_key_exits_with_a_verdict_or_a_config_error(run):
    command, key, value = run
    assume(run not in LEFT_OUT)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        if command == "example":
            argv = [*EXAMPLE, f"{EXAMPLE_FLAGS[key]}={value}"]
        else:
            config = Path(tmp, "config.txt")
            config.write_text(f"{BASE[command]}{key} = {value}\n")
            argv = [command, "--config", str(config)]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as usage:     # argparse refuses a flag value
                code = usage.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert not out.exists()
        if "nan" in value or "inf" in value:
            assert code == 4, err.getvalue()
