"""The library names that the span tracer of `perfbench/` wraps must exist.

`perfbench/run.py --trace 1` wraps each (module, attribute) pair of
`perfbench/tracer.py`'s TARGETS; a rename or deletion in the library would
break it without failing any other test.  The tuple is read from the file,
the tracer is not installed.
"""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS tuple in perfbench/tracer.py")


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"burniat.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
