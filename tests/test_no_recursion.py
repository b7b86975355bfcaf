"""No function under src/ is recursive, so input size is bounded by memory,
not by Python's recursion limit.

The check is a by-name call graph: an edge from each function to every
function of the package that its body calls by plain name or as a
``self.`` method, resolving names imported from sibling modules. A cycle
in that graph is reported.
"""

import ast
from pathlib import Path

import polylogic

SRC = Path(polylogic.__file__).parent


def _call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {mod: {n.name for n in ast.walk(t) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
               for mod, t in trees.items()}
    graph = {}
    for mod, tree in trees.items():
        imported = {a.asname or a.name: f"{n.module}.{a.name}" for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module for a in n.names}
        for fn in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            callees = graph.setdefault(f"{mod}.{fn.name}", set())
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                f = call.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
                    name = f.attr
                else:
                    continue
                if name in defined[mod]:
                    callees.add(f"{mod}.{name}")
                elif name in imported:
                    callees.add(imported[name])
    return graph


def recursive_functions(sources: dict[str, str]) -> list[str]:
    """The functions that can reach themselves in the call graph."""
    graph = _call_graph(sources)
    found = []
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += graph.get(name, ())
        if start in seen:
            found.append(start)
    return sorted(found)


def test_src_has_no_recursive_function():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert len(sources) >= 9
    assert recursive_functions(sources) == []


def test_the_check_finds_direct_mutual_method_and_cross_module_recursion():
    sources = {
        "a": "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
             "def even(n):\n    return n == 0 or odd(n - 1)\n"
             "def odd(n):\n    return n != 0 and even(n - 1)\n"
             "class P:\n    def form(self):\n        return self.atom()\n"
             "    def atom(self):\n        return self.form()\n"
             "def flat(xs):\n    return sorted(xs)\n",
        "b": "from .c import pong\ndef ping(n):\n    return pong(n)\n",
        "c": "from .b import ping\ndef pong(n):\n    return ping(n)\n",
    }
    assert recursive_functions(sources) == [
        "a.atom", "a.even", "a.fact", "a.form", "a.odd", "b.ping", "c.pong",
    ]


def test_json_is_decoded_only_in_json_object():
    """json.load and json.loads are named only in poset.json_object, which maps
    JSON nested deeper than the decoder's recursion limit to MalformedInput."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.stem}: from json import")
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(owner.get(id(node), path.stem))
    assert found == ["poset.json_object"]
