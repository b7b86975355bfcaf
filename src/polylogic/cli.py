"""Command-line front end.

Exit codes: 0 = checks pass / no refutation found within bounds,
1 = refutation found (the success outcome for countermodel commands,
see --expect), 2 = error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus as corpus_mod
from .algebra import (
    DEFAULT_BUDGET,
    eval_formula,
    is_valid,
    valuation_from_json,
)
from .errors import MalformedInput, PolylogicError
from .formula import And, Implies, Or, bd, fold, parse, pretty
from .pipeline import (
    decide_in_bd_logic,
    find_frame_countermodel,
    polyhedral_countermodel,
    verify_dim_bd,
    verify_esakia,
    verify_hneg,
    verify_ji,
    verify_nerve,
)
from .poset import DEFAULT_UPSET_CAP, poset_from_json, poset_to_json, read_text
from .simplicial import (
    complex_from_json,
    complex_to_json,
    complex_to_off,
    parse_rational,
    verify_complex,
)


def _emit(args, data, text: str | None = None):
    if getattr(args, "json", False) or text is None:
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(text)


def _ast(f) -> str:
    op = {And: "and", Or: "or", Implies: "implies"}
    return fold(f, pretty, lambda g, left, right: f"({op[type(g)]} {left} {right})")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_formula(args) -> int:
    if args.action == "bd":
        try:
            d = int(args.arg)
        except ValueError:
            raise MalformedInput(f"bd index must be an integer, not {args.arg!r}") from None
        print(pretty(bd(d)))
    elif args.action == "parse":
        print(_ast(parse(args.arg)))
    else:  # print
        print(pretty(parse(args.arg)))
    return 0


def cmd_poset(args) -> int:
    p = poset_from_json(read_text(args.file))
    if args.action == "depth":
        print(p.depth())
    else:  # upsets
        for mask in p.all_upsets(args.cap):
            print("{" + ",".join(p.names_of(mask)) + "}")
    return 0


def cmd_frame(args) -> int:
    f = parse(args.formula)
    frame = poset_from_json(read_text(args.poset))
    if args.valuation:
        v = valuation_from_json(frame, read_text(args.valuation))
        mask = eval_formula(frame, v, f)
        top = mask == frame.full_mask
        _emit(args, {"value": frame.names_of(mask), "top": top},
              ("TOP" if top else "value: {" + ",".join(frame.names_of(mask)) + "}"))
        return 0 if top else 1
    res = is_valid(frame, f, budget=args.budget, cap=args.cap)
    if res.valid:
        _emit(args, {"status": "Valid", "checked": res.checked}, "Valid")
        return 0
    val = {p_: frame.names_of(m) for p_, m in sorted(res.valuation.items())}
    _emit(args, {"status": "Refuted", "valuation": val},
          "Refuted with " + "; ".join(f"{k}={{{','.join(v)}}}" for k, v in val.items()))
    return 1


def cmd_complex(args) -> int:
    k = complex_from_json(read_text(args.file))
    if args.action == "build":
        _emit(args, complex_to_json(k),
              f"{len(k)} simplices: " + " ".join(k.name(s) for s in k.simplices))
    elif args.action == "verify":
        rep = verify_complex(k)
        _emit(args, {"ok": rep.ok, "violations": rep.violations},
              "ok" if rep.ok else "violations: " + " ".join(f"{a}|{b}" for a, b in rep.violations))
        return 0 if rep.ok else 1
    elif args.action == "dim":
        print(k.dim())
    elif args.action == "faceposet":
        print(json.dumps(poset_to_json(k.face_poset()), indent=1))
    elif args.action == "star":
        star = k.open_star(k.key_of(args.arg))
        print(" ".join(star.names()))
    elif args.action == "carrier":
        point = tuple(parse_rational(c) for c in args.arg.split(","))
        print(k.name(k.carrier(point)))
    return 0


def cmd_nerve(args) -> int:
    p = poset_from_json(read_text(args.file))
    from .nerve import realize

    k = realize(p)
    if args.export == "off":
        out = complex_to_off(k)
    else:
        out = json.dumps(complex_to_json(k), indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_counter(args) -> int:
    f = parse(args.formula)
    if args.polyhedral:
        v = polyhedral_countermodel(f, args.depth, args.max_size, args.budget)
    elif args.depth is not None:
        v = decide_in_bd_logic(f, args.depth, args.max_size, args.budget)
    else:
        v = find_frame_countermodel(f, args.max_size, budget=args.budget)
    print(json.dumps(v.to_json(), indent=1, sort_keys=True))
    code = 1 if v.refuted else 0
    if args.expect:
        want = 1 if args.expect == "refuted" else 0
        return 0 if code == want else 1
    return code


def cmd_suite(args) -> int:
    if args.corpus:
        complexes = corpus_mod.load_corpus_complexes(args.corpus)
    else:
        complexes = corpus_mod.corpus_complexes()
    posets = corpus_mod.corpus_posets()
    reports = []
    if args.action == "esakia":
        reports = [(f"poset{i:03d}", verify_esakia(p, args.cap)) for i, p in enumerate(posets)]
    elif args.action == "nerve":
        reports = [(f"poset{i:03d}", verify_nerve(p)) for i, p in enumerate(posets)]
    elif args.action == "dimbd":
        reports = [(n, verify_dim_bd(k, args.budget, args.cap)) for n, k in complexes.items()]
    elif args.action == "ji":
        reports = [(n, verify_ji(k, args.cap)) for n, k in complexes.items()]
    elif args.action == "hneg":
        trials = max(1, args.trials // max(1, len(complexes)))
        reports = [(n, verify_hneg(k, trials, args.seed)) for n, k in complexes.items()]
    ok = all(r.ok for _, r in reports)
    if args.json:
        print(json.dumps(
            {"ok": ok, "reports": [{"subject": n, **r.to_json()} for n, r in reports]},
            indent=1, sort_keys=True))
    else:
        for n, r in reports:
            for line in r.lines():
                print(f"[{n}] {line}")
        print("SUITE " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an int no smaller than low."""
    def bounded_int(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    return bounded_int


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    # a bad option value raises ArgumentError, which main reports in one line
    ap = argparse.ArgumentParser(prog="polylogic", exit_on_error=False)
    ap.add_argument("--json", action="store_true", help="JSON output where applicable")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, exit_on_error=False))

    p = sub.add_parser("formula", help="parse, pretty-print, or generate formulae")
    p.add_argument("action", choices=["parse", "print", "bd"])
    p.add_argument("arg", help="formula text, or the index d for bd")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("poset", help="poset queries")
    p.add_argument("action", choices=["depth", "upsets"])
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_UPSET_CAP)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("frame", help="evaluate or decide a formula on a frame")
    p.add_argument("action", choices=["check"])
    p.add_argument("formula")
    p.add_argument("poset")
    p.add_argument("--valuation")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cap", type=int, default=DEFAULT_UPSET_CAP)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("complex", help="simplicial complex operations")
    p.add_argument("action", choices=["build", "verify", "dim", "faceposet", "star", "carrier"])
    p.add_argument("arg", nargs="?", help="simplex name for star, point for carrier")
    p.add_argument("file")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("nerve", help="realize a poset geometrically")
    p.add_argument("action", choices=["realize"])
    p.add_argument("file")
    p.add_argument("--export", choices=["off", "json"], default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("counter", help="bounded countermodel search")
    p.add_argument("formula")
    p.add_argument("--depth", type=_at_least(0), default=None)
    p.add_argument("--max-size", type=_at_least(0), default=5)
    p.add_argument("--polyhedral", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--expect", choices=["refuted", "none"])
    p.set_defaults(func=cmd_counter)

    p = sub.add_parser("suite", help="verification suites over the corpus")
    p.add_argument("action", choices=["esakia", "dimbd", "ji", "hneg", "nerve"])
    p.add_argument("--corpus", help="directory of *.complex.json files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=500)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cap", type=int, default=DEFAULT_UPSET_CAP)
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("corpus", help="write the bundled corpus to a directory")
    p.add_argument("directory")
    p.set_defaults(func=lambda a: (corpus_mod.write_corpus(a.directory), 0)[1])

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except argparse.ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "complex" and args.action in ("star", "carrier") and args.arg is None:
        ap.error(f"complex {args.action} needs ARG before FILE")
    if args.command == "counter" and args.polyhedral and args.depth is None:
        args.depth = args.max_size  # any depth reachable at that size
    try:
        return args.func(args)
    except (PolylogicError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
