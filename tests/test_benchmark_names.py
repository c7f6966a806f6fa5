"""The benchmark in perfbench/ wraps package callables by name.

`perfbench/spans.py` looks each (owner, attribute) of `layer_callables()` up
on every run, traced or not, so renaming or deleting one of them breaks the
benchmark.  This test loads spans.py from its file, without adding
perfbench/ to the import path, and fails first.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    table = spans.layer_callables()
    assert table
    for name, owner, attr in table:
        where = f"{name}: {owner.__name__}.{attr}"
        assert callable(getattr(owner, attr, None)), where
        if isinstance(owner, type):
            assert attr in vars(owner), where  # patched on the class itself
