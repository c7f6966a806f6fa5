"""A table-driven fuzz of the CLI: each command's config keys, one at a time.

From a short base config that exits 0 (n = 21, ten march steps), hypothesis
changes one key of `CONFIG_KEYS` to a value drawn from a fixed alphabet:
nan, ±inf, 0, -1, 1e-300, 1e300, typical numbers, malformed words and specs,
and spec names with each of those numbers as argument.  `example` takes no
config, so its keys that have a flag are set by the flag.  A key added to the
table later is drawn too.  Every run must exit 0, 2, 3 or 4, print no
traceback and raise no numpy `RuntimeWarning`, leave no `--out` when it
exits 4, and exit 4 on any non-finite number.  The draws come from a pinned
`@seed`, which takes precedence over `derandomize`, and keep no example
database, so they stay the same when the test's body is edited; derandomized
alone, a test draws from a digest of its source text, and any edit moves
its draws.

Beside the drawn runs, a fixed table sets every numeric key of each command
to each of nan, ±inf, 0, -1, 1e-300 and 1e300, so those runs are made
whatever the draws, with the same assertions.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
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

def _keys(command):
    """The keys of a command a run may change."""
    return sorted(EXAMPLE_FLAGS if command == "example" else CONFIG_KEYS[command])


def _is_spec(command, key) -> bool:
    entry = CONFIG_KEYS[command][key]
    return entry is str or isinstance(entry, str)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)), label="command")
    key = draw(st.sampled_from(_keys(command)), label="key")
    # a spec key's values are mostly specs, whose arguments take the numbers
    return command, key, draw(SPEC if _is_spec(command, key) else NUMERIC, label="value")


#: every numeric key of each command against each non-finite or extreme value
TABLE = [(command, key, value)
         for command in sorted(CONFIG_KEYS) for key in _keys(command)
         if not _is_spec(command, key)
         for value in ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@seed(20180)
@given(runs())
def test_one_changed_key_exits_with_a_verdict_or_a_config_error(run):
    _check(*run)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,key,value", TABLE)
def test_each_numeric_key_at_each_extreme(command, key, value):
    _check(command, key, value)


def _check(command, key, value):
    """Run the command with one key changed; assert the fuzz's verdicts."""
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
