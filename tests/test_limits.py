"""--cap and --budget live in one context, set by poset.limits, the one function
that takes them, and read by poset.charge."""

import ast
import threading
from pathlib import Path

import pytest

import polylogic
from polylogic.errors import BudgetExceeded, CapExceeded
from polylogic.poset import DEFAULT_BUDGET, DEFAULT_UPSET_CAP, Poset, charge, limits

SRC = Path(polylogic.__file__).parent


def _refused(kind, n):
    try:
        charge(kind, n)
    except (BudgetExceeded, CapExceeded):
        return True
    return False


def _at_default(kind, limit):
    return not _refused(kind, limit) and _refused(kind, limit + 1)


def _active():
    """Whether the cap and the budget in force are the defaults, read through charges."""
    return _at_default("upsets", DEFAULT_UPSET_CAP), _at_default("valuations", DEFAULT_BUDGET)


def test_limits_apply_inside_the_block_only():
    antichain4 = Poset([f"a{i}" for i in range(4)], [1 << i for i in range(4)])  # 16 up-sets
    assert _active() == (True, True)
    with limits(cap=15, budget=7):
        assert _active() == (False, False)
        with pytest.raises(CapExceeded):
            antichain4.all_upsets()
        assert _refused("valuations", 8) and not _refused("valuations", 7)
    assert _active() == (True, True) and len(antichain4.all_upsets()) == 16
    with pytest.raises(ZeroDivisionError), limits(cap=0):
        1 / 0
    assert _active() == (True, True)


def test_nested_limits_restore_the_outer_ones():
    with limits(cap=15):
        with limits(cap=16, budget=3):
            assert not _refused("upsets", 16) and _refused("valuations", 4)
        assert _refused("upsets", 16) and not _refused("valuations", 4)
        with pytest.raises(CapExceeded), limits(cap=100):
            charge("chains", 101)
        assert _refused("upsets", 16) and not _refused("upsets", 15)
    assert _active() == (True, True)


def test_a_thread_started_in_a_block_runs_at_the_defaults():
    seen = []
    with limits(cap=1, budget=1):
        worker = threading.Thread(target=lambda: seen.append(_active()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert _active() == (False, False)
    assert seen == [(True, True)]


def limit_parameters(sources: dict[str, str]) -> list[str]:
    """module.function(parameter) for every parameter named cap or budget."""
    found = []
    for mod, text in sources.items():
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                    if arg is not None and arg.arg in ("cap", "budget"):
                        found.append(f"{mod}.{getattr(fn, 'name', '<lambda>')}({arg.arg})")
    return sorted(found)


def test_only_limits_takes_a_cap_or_a_budget():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert len(sources) >= 9
    assert limit_parameters(sources) == ["poset.limits(budget)", "poset.limits(cap)"]


def test_the_check_finds_every_kind_of_parameter():
    sources = {
        "a": "def f(x, cap=3):\n    return x\n"
             "class H:\n    def __init__(self, frame, *, budget):\n        pass\n"
             "g = lambda cap: cap\n"
             "def outer():\n    def inner(budget, /):\n        return budget\n    return inner\n"
             "def fine(capacity, budgets, **kw):\n    return kw\n",
    }
    assert limit_parameters(sources) == [
        "a.<lambda>(cap)", "a.__init__(budget)", "a.f(cap)", "a.inner(budget)",
    ]
