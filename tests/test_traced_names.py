"""Every function that the benchmark's tracer wraps resolves in the package.

The tracer (``perfbench/tracer.py``) reports a name it cannot find as
absent instead of failing, so a rename would otherwise show only when the
benchmark's own self-test runs.  Its ``LAYERS`` and ``EXTRA`` tables are
read here with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """``module.attribute.path`` for every entry of the two tables, in order."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in ("LAYERS", "EXTRA"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["EXTRA", "LAYERS"]
    return [f"{mod}.{fn}" for table in tables.values() for mod, fns in table.items() for fn in fns]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"normalshift.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"normalshift.{name} does not resolve"
        obj = getattr(obj, attr)
    assert callable(obj)
