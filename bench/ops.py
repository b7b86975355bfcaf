"""Operations of the workloads: the program calls each one makes, and the
check of its answer against the reference.

``execute`` is the timed part and calls polylogic only through module
attributes looked up at call time, so the traced run's wrappers see every
call. ``check`` runs after the clock stops and returns None for a correct
answer or a one-line description of the wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module

import reference as ref

# import_module, because the package re-exports the function ``nerve`` under
# the name of its submodule.
algebra = import_module("polylogic.algebra")
formula = import_module("polylogic.formula")
nerve = import_module("polylogic.nerve")
pipeline = import_module("polylogic.pipeline")
poset = import_module("polylogic.poset")
simplicial = import_module("polylogic.simplicial")


@dataclass
class Loaded:
    """The workload's inputs as the program's objects."""

    formulas: list
    frames: list
    complexes: list
    realized: dict  # frame index -> realize(frame), for point queries
    points: dict  # op id -> point as a Fraction tuple


def prepare(workload) -> Loaded:
    """Load the inputs with the program's own loaders, as a CLI call would."""
    inputs = workload.inputs()
    formulas = [formula.parse(t) for t in inputs["formulas"]]
    frames = [poset.poset_from_json(d) for d in inputs["frames"]]
    complexes = [simplicial.complex_from_json(d) for d in inputs["complexes"]]
    realized, points = {}, {}
    for op in workload.ops:
        if op["kind"] == "point":
            points[op["id"]] = tuple(Fraction(c) for c in op["args"]["point"])
            if "realized" in op["args"]["on"]:
                i = op["args"]["on"]["realized"]
                if i not in realized:
                    realized[i] = nerve.realize(frames[i])
    return Loaded(formulas, frames, complexes, realized, points)


def _complex_of(loaded: Loaded, on: dict):
    if "realized" in on:
        return loaded.realized[on["realized"]]
    return loaded.complexes[on["complex"]]


def execute(op: dict, loaded: Loaded):
    """Run one operation; returns the program's answer in plain data."""
    kind, a = op["kind"], op["args"]
    if kind == "counter":
        f = loaded.formulas[a["formula"]]
        return pipeline.find_frame_countermodel(f, a["max_size"]).to_json()
    if kind == "decide":
        f = loaded.formulas[a["formula"]]
        return pipeline.decide_in_bd_logic(f, a["depth"], a["max_size"]).to_json()
    if kind == "polyhedral":
        f = loaded.formulas[a["formula"]]
        return pipeline.polyhedral_countermodel(f, a["depth"], a["max_size"]).to_json()
    if kind == "frame_check":
        frame = loaded.frames[a["frame"]]
        res = algebra.is_valid(frame, loaded.formulas[a["formula"]])
        valuation = None
        if not res.valid:
            valuation = {p: frame.names_of(m) for p, m in res.valuation.items()}
        return {"valid": res.valid, "valuation": valuation}
    if kind == "esakia":
        return {"ok": pipeline.verify_esakia(loaded.frames[a["frame"]]).ok}
    if kind == "ji":
        return {"ok": pipeline.verify_ji(loaded.complexes[a["complex"]]).ok}
    if kind == "dimbd":
        return {"ok": pipeline.verify_dim_bd(loaded.complexes[a["complex"]]).ok}
    if kind == "realize_verify":
        k = nerve.realize(loaded.frames[a["frame"]])
        rep = simplicial.verify_complex(k)
        return {"ok": rep.ok, "simplices": sorted(k.name(s) for s in k.simplices)}
    if kind == "verify_perturbed":
        rep = simplicial.verify_complex(loaded.complexes[a["complex"]])
        return {"ok": rep.ok, "violations": [sorted(v) for v in rep.violations]}
    if kind == "point":
        return _point_query(op, loaded)
    raise ValueError(f"unknown operation kind {kind!r}")


def _point_query(op: dict, loaded: Loaded):
    a = op["args"]
    k = _complex_of(loaded, a["on"])
    x = loaded.points[op["id"]]
    u = k.open_star(tuple(a["stars"][0]))
    v = k.open_star(tuple(a["stars"][1]))
    c = k.definable("closed", [tuple(s) for s in a["closed"][0]])
    d = k.definable("closed", [tuple(s) for s in a["closed"][1]])
    hi = simplicial.heyting_implication(u, v)
    co = simplicial.co_implication(c, d)
    sets = {"U": u, "V": v, "U|V": u.union(v), "U&V": u.intersection(v), "U->V": hi,
            "C": c, "D": d, "C<-D": co}
    member = {name: s.member(x) for name, s in sets.items()}
    member["C-geom"] = any(k.contains_point(tuple(g), x) for g in a["generators"])
    return {
        "carrier": list(k.carrier(x)),
        "member": member,
        "U->V": sorted(list(s) for s in hi.flags),
        "C<-D": sorted(list(s) for s in co.flags),
    }


def check(op: dict, got, workload) -> str | None:
    """None if ``got`` agrees with the reference, else what is wrong."""
    kind, a, want = op["kind"], op["args"], op["expect"]
    if kind in ("counter", "decide", "polyhedral"):
        f = workload.formulas[a["formula"]]
        if got["status"] != want["status"]:
            return f"status {got['status']}, expected {want['status']}"
        if kind == "polyhedral":
            return _frame_witness_error(got, f, None, a["depth"]) or ref.polyhedral_error(
                got["polyhedral"], f, want["dimension"])
        if want["status"] == "RefutedOnFrame":
            return _frame_witness_error(got, f, want["size"], a.get("depth"))
        return None
    if kind == "frame_check":
        if got["valid"] != want["valid"]:
            return f"valid={got['valid']}, expected {want['valid']} ({want['family']})"
        if not got["valid"]:
            frame = ref.Frame.from_json(workload.frames[a["frame"]])
            return ref.refutation_error(frame, got["valuation"], workload.formulas[a["formula"]])
        return None
    if kind in ("esakia", "ji", "dimbd"):
        return None if got["ok"] == want["ok"] else f"suite ok={got['ok']}, expected {want['ok']}"
    if kind == "realize_verify":
        if got["simplices"] != want["simplices"]:
            return "realization simplices differ from the chains of the poset"
        return None if got["ok"] else "verify_complex rejects a realization"
    if kind == "verify_perturbed":
        if got["ok"] or want["pair"] not in got["violations"]:
            return f"violation {want['pair']} not reported"
        return None
    if kind == "point":
        for key in ("carrier", "U->V", "C<-D"):
            if got[key] != want[key]:
                return f"{key} is {got[key]}, expected {want[key]}"
        bad = sorted(n for n in want["member"] if got["member"][n] != want["member"][n])
        return f"membership wrong for {', '.join(bad)}" if bad else None
    raise ValueError(f"unknown operation kind {kind!r}")


def _frame_witness_error(got, f, size, depth) -> str | None:
    frame = ref.Frame.from_json(got["frame"])
    if size is not None and len(frame.elements) != size:
        return f"refuting frame has {len(frame.elements)} elements, smallest is {size}"
    if depth is not None and frame.depth() > depth:
        return f"refuting frame has depth {frame.depth()} > {depth}"
    return ref.refutation_error(frame, got["valuation"], f)
