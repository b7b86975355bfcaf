"""Every function and class under src/ is reached from what a command or the
benchmark runs: cli.main, or a module of bench/ (ops, run, workloads, tracing).
Dunder methods are exempt: they run when their class is used.

The check is by name, as in test_no_recursion. A plain name is a definition
of its module or a name imported from a sibling module; an attribute of a
module alias (``from . import poset``, ``nerve = import_module(
"polylogic.nerve")``) is that module's definition; any other attribute reaches
every method of that name. A reached function reaches what its body names, a
reached class its bases, its class body and its dunder methods. The top level
of every module of the package runs on import, so it is reached too; so are
a bench module's ``Target("polylogic.m", "Class.method")`` pairs and the code
it holds in strings that import polylogic.
"""

import ast
from pathlib import Path

import polylogic

SRC = Path(polylogic.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _children(node):
    """The nodes inside node, not descending into the definitions it holds."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, DEFS):
            todo += ast.iter_child_nodes(n)


def unreached(sources: dict[str, str], roots: dict[str, str]) -> list[str]:
    """The non-dunder functions and classes of sources (module -> text, the
    package) that neither its cli.main nor the root modules (module -> text,
    outside the package) reach, as module.name or module.Class.method."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    for mod, text in roots.items():
        tree = ast.parse(text)
        tree.body += [stmt for c in ast.walk(tree) if isinstance(c, ast.Constant)
                      and isinstance(c.value, str) and "import polylogic" in c.value
                      for stmt in ast.parse(c.value).body]
        trees[mod] = tree
    defs, methods, names, aliases = {}, {}, {}, {}
    for mod, tree in trees.items():
        names[mod], aliases[mod] = {}, {}
        classes = {id(m): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
        for n in ast.walk(tree):
            if isinstance(n, DEFS) and mod in sources:
                owner = classes.get(id(n))
                if owner is None or isinstance(n, ast.ClassDef):
                    key = names[mod][n.name] = f"{mod}.{n.name}"
                else:
                    key = f"{mod}.{owner.name}.{n.name}"
                    if not _dunder(n.name):
                        methods.setdefault(n.name, set()).add(key)
                defs.setdefault(key, []).append(n)
            elif isinstance(n, ast.ImportFrom):
                if n.level:
                    base = n.module  # None in "from . import poset"
                elif n.module == "polylogic" or n.module.startswith("polylogic."):
                    base = n.module.removeprefix("polylogic").lstrip(".")
                else:
                    continue
                for a in n.names:
                    if base:
                        names[mod][a.asname or a.name] = f"{base}.{a.name}"
                    elif a.name in sources:
                        aliases[mod][a.asname or a.name] = a.name
            elif (isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                  and getattr(n.value.func, "id", None) == "import_module"):
                target = n.value.args[0].value.removeprefix("polylogic.")
                aliases[mod].update((t.id, target) for t in n.targets)

    def refs(mod, node):
        """The definitions that node names, node not being a definition."""
        for n in _children(node):
            if isinstance(n, ast.Name):
                yield names[mod].get(n.id)
            elif isinstance(n, ast.Attribute):
                alias = aliases[mod].get(getattr(n.value, "id", None))
                if alias is not None:
                    yield names.get(alias, {}).get(n.attr)
                else:
                    yield from methods.get(n.attr, ())
            elif isinstance(n, ast.Call) and len(n.args) >= 2 and all(
                    isinstance(a, ast.Constant) and isinstance(a.value, str) for a in n.args[:2]):
                target, attr = n.args[0].value, n.args[1].value
                if target.startswith("polylogic."):
                    target = target.removeprefix("polylogic.")
                    yield names.get(target, {}).get(attr, f"{target}.{attr}")

    reached = {"cli.main"}
    todo = [*trees.items(), *(("cli", fn) for fn in defs.get("cli.main", ()))]
    for mod in roots:
        todo += [(mod, fn) for fn in ast.walk(trees[mod]) if isinstance(fn, DEFS)]
    while todo:
        mod, node = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(mod, m) for m in node.body if isinstance(m, DEFS) and _dunder(m.name)]
        for key in refs(mod, node):
            if key in defs and key not in reached:
                reached.add(key)
                todo += [(key.partition(".")[0], d) for d in defs[key]]
    return sorted(key for key in defs if key not in reached and not _dunder(key.rpartition(".")[2]))


def test_every_definition_in_src_is_reached_by_a_command_or_the_benchmark():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    roots = {m: (BENCH / f"{m}.py").read_text() for m in ("ops", "run", "workloads", "tracing")}
    assert len(sources) >= 9
    assert unreached(sources, roots) == []


def test_the_check_finds_an_unreached_function_method_and_shadowed_name():
    sources = {
        "cli": "from .a import used\nfrom . import b\n"
               "def main():\n    return used() + b.helper()\n",
        "a": "def used():\n    return Box().size()\n"
             "def unused():\n    return later()\n"
             "def later():\n    return 1\n"
             "class Box:\n    def __len__(self):\n        return 0\n"
             "    def size(self):\n        return 1\n"
             "    def spare(self):\n        return 2\n",
        "b": "def helper():\n    return 2\n"
             "def nerve():\n    return 3\n"
             "def traced():\n    return 4\n",
    }
    roots = {"ops": "from importlib import import_module\nnerve = import_module('polylogic.b')\n"
                    "def go():\n    return nerve.helper()\n"
                    "TARGETS = [Target('polylogic.b', 'traced')]\n"}
    assert unreached(sources, roots) == ["a.Box.spare", "a.later", "a.unused", "b.nerve"]
