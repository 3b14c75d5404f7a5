"""Every name the benchmark reaches in d21link exists.

``perfbench/`` changes only with the benchmark, and it looks its names up
when it runs: the tracer's probes and the worker's calls.  A deletion or a
rename under ``src/`` would first show as a failed benchmark run, so these
tests read those names from the perfbench sources with ``ast``, without
importing them, and resolve each in d21link.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_every_tracer_probe_resolves():
    probes = next(ast.literal_eval(node.value)
                  for node in parse("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["PROBES"])
    assert len(probes) > 20
    for name, _, module, owner, attr in probes:
        home = importlib.import_module("d21link." + module)
        if owner is None:
            assert callable(getattr(home, attr, None)), name
        else:
            # the tracer wraps the function in the class's own namespace
            assert callable(vars(getattr(home, owner)).get(attr)), name


def imported_names(tree):
    """{local name: object} for each import of d21link in ``tree``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "d21link":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["d21link"] = importlib.import_module("d21link")
        elif isinstance(node, ast.ImportFrom) and node.module == "d21link":
            for alias in node.names:
                bound[alias.asname or alias.name] = importlib.import_module(
                    f"d21link.{alias.name}")
    return bound


def dotted(node):
    """``a.b.c`` as ["a", "b", "c"], or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("name, called", [
    ("worker.py", "verify.run_suites"),
    ("traced_cli.py", "d21link.cli.main"),
])
def test_every_name_the_benchmark_calls_resolves(name, called):
    tree = parse(name)
    bound = imported_names(tree)
    checked = set()
    for node in ast.walk(tree):
        parts = dotted(node) if isinstance(node, ast.Attribute) else None
        if parts is None or parts[0] not in bound:
            continue
        value = bound[parts[0]]
        for attr in parts[1:]:
            assert hasattr(value, attr), ".".join(parts)
            value = getattr(value, attr)
        checked.add(".".join(parts))
    assert called in checked
