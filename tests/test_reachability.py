"""Every definition in ``src/parh`` is reached from outside its own body:
by code in ``src/parh`` that is itself reached or runs at import, by a
name or string in ``perfbench/``, or by a name in the README.  Names are
matched bare, so the test can miss dead code but never fails live code.
Test oracles belong in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _used(nodes):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached(root=ROOT):
    """Qualified names of the definitions nothing reaches, sorted."""
    external = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in (root / "perfbench").glob("*.py"):
        external.update(re.findall(r"\w+", path.read_text()))
    defs = {}  # qualified name -> (name, names used in its own body)
    for path in sorted((root / "src" / "parh").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, _used([node]))
            elif isinstance(node, ast.ClassDef):
                # dunder methods live and die with their class
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
                body = [s for s in node.body if s not in methods]
                defs[f"{path.stem}.{node.name}"] = (node.name, _used(
                    node.bases + node.decorator_list + body
                    + [d for m in methods for d in m.decorator_list]))
                for m in methods:
                    defs[f"{path.stem}.{node.name}.{m.name}"] = (m.name,
                                                                _used([m]))
            else:
                external |= _used([node])
    alive = set(defs)
    while True:
        dead = {q for q in alive if defs[q][0] not in external
                and not any(defs[q][0] in defs[o][1] for o in alive - {q})}
        if not dead:
            return sorted(set(defs) - alive)
        alive -= dead


def test_every_src_definition_is_reached():
    assert unreached() == []
