"""Every module-level function and class of d21link has a caller.

A name defined at the top of a module must be used by package code outside
its own definition, or be one that the benchmark (``perfbench/``) or the
installed script reaches: the package carries no API that only the tests
use.  Dunder names are exempt.  The names are read with ``ast``, without
importing anything; a use is a bare name read in the defining module or in
one that imports it from there, or an attribute of a name bound to the
module.
"""

import ast
from itertools import takewhile
from pathlib import Path

from test_perfbench_contract import PERFBENCH, dotted, parse

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "d21link"


def bindings(tree):
    """``(names, modules)``: each local name that a relative import (the
    package imports itself no other way) binds to a ``(module, name)`` of
    the package, and each bound to a package module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, modules


def package_uses():
    """``(definitions, uses)``: every top-level function or class as
    ``(module, name)``, and those used outside their own definition."""
    definitions, uses = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "" if path.stem == "__init__" else path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
        definitions.update((module, name) for name in own)
        names, modules = bindings(tree)
        for statement in tree.body:
            inside = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    if node.id in names:
                        used = names[node.id]
                    elif node.id in own:
                        used = (module, node.id)
                    else:
                        continue
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    used = (modules[node.value.id], node.attr)
                else:
                    continue
                if used != (module, inside):
                    uses.add(used)
    return definitions, uses


def benchmark_names():
    """``(module, name)`` of each tracer probe, of each dotted name under
    ``d21link`` that a perfbench script calls, and of the console script."""
    reached = set()
    probes = next(ast.literal_eval(node.value)
                  for node in parse("tracer.py").body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["PROBES"])
    for _, _, module, owner, attr in probes:
        reached.add((module, owner or attr))
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = parse(path.name)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("d21link.") and alias.asname:
                        aliases[alias.asname] = alias.name.partition(".")[2]
            elif isinstance(node, ast.ImportFrom) and node.module == "d21link":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            parts = dotted(node) if isinstance(node, ast.Attribute) else None
            if not parts:
                continue
            if parts[0] == "d21link" and len(parts) >= 3:
                reached.add((parts[1], parts[2]))
            elif parts[0] in aliases and len(parts) >= 2:
                reached.add((aliases[parts[0]], parts[1]))
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    scripts = lines[lines.index("[project.scripts]") + 1:]
    for line in takewhile(lambda line: not line.startswith("["), scripts):
        if "=" in line:
            target = ast.literal_eval(line.partition("=")[2].strip())
            package, _, name = target.partition(":")
            reached.add((package.partition(".")[2], name))
    return reached


def test_every_top_level_name_has_a_caller_or_a_benchmark_reach():
    definitions, uses = package_uses()
    assert len(definitions) > 100
    unused = {name for name in definitions - uses
              if not (name[1].startswith("__") and name[1].endswith("__"))}
    assert sorted(unused - benchmark_names()) == []
