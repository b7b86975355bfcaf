"""Command-line front end.

Exit codes: 0 = checks pass / no refutation found within bounds,
1 = refutation found (the success outcome for countermodel commands,
see --expect), 2 = error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import MalformedInput, PolylogicError
from .formula import And, Implies, Or, _join, bd, fold, parse, pretty
from .poset import DEFAULT_BUDGET, DEFAULT_UPSET_CAP, limits, poset_from_json, read_text

# Each cmd_* imports the rest of what it uses, so a command loads only its own modules.


def _emit(args, data, text: str | None = None):
    if getattr(args, "json", False) or text is None:
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(text)


def _set_text(names) -> str:
    """A set of element names as {a,b}. A name that is empty or holds any of
    ,{}" is written as a JSON string, so two different sets never print alike."""
    return "{" + ",".join(json.dumps(x) if not x or set(x) & set(',{}"') else x
                          for x in names) + "}"


def _simplex_text(name: str) -> str:
    """A simplex name in a list, as a JSON string if it is empty or holds whitespace, " or |."""
    return json.dumps(name) if name.split() != [name] or set(name) & set('"|') else name


def _ast(f) -> str:
    op = {And: "and", Or: "or", Implies: "implies"}
    return _join(fold(f, pretty, lambda g, left, right: (f"({op[type(g)]} ", left, " ", right, ")")))


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
        for mask in p.all_upsets():
            print(_set_text(p.names_of(mask)))
    return 0


def cmd_frame(args) -> int:
    from .algebra import eval_formula, is_valid, valuation_from_json, valuation_to_json

    f = parse(args.formula)
    frame = poset_from_json(read_text(args.poset))
    if args.valuation:
        v = valuation_from_json(frame, read_text(args.valuation))
        mask = eval_formula(frame, v, f)
        top = mask == frame.full_mask
        _emit(args, {"value": frame.names_of(mask), "top": top},
              ("TOP = " if top else "value: ") + _set_text(frame.names_of(mask)))
        return 0 if top else 1
    res = is_valid(frame, f)
    if res.valid:
        _emit(args, {"status": "Valid", "checked": res.checked},
              f"Valid, {res.checked} valuations checked")
        return 0
    val = valuation_to_json(frame, res.valuation)
    _emit(args, {"status": "Refuted", "valuation": val},
          "Refuted with " + "; ".join(f"{k}={_set_text(v)}" for k, v in val.items()))
    return 1


def cmd_complex(args) -> int:
    from .poset import poset_to_json
    from .simplicial import complex_from_json, complex_to_json, parse_rational, verify_complex

    k = complex_from_json(read_text(args.file))
    if args.action == "build":
        points = (f"{_simplex_text(v)}=({','.join(map(str, k.vertices[v]))})"
                  for v in sorted(k.vertices))
        _emit(args, complex_to_json(k),
              f"{len(k)} simplices: " + " ".join(_simplex_text(k.name(s)) for s in k.simplices)
              + "\nvertices: " + " ".join(points))
    elif args.action == "verify":
        rep = verify_complex(k)
        _emit(args, {"ok": rep.ok, "violations": rep.violations}, "ok" if rep.ok else "violations: "
              + " ".join(f"{_simplex_text(a)}|{_simplex_text(b)}" for a, b in rep.violations))
        return 0 if rep.ok else 1
    elif args.action == "dim":
        print(k.dim())
    elif args.action == "faceposet":
        print(json.dumps(poset_to_json(k.face_poset()), indent=1))
    elif args.action == "star":
        star = k.open_star(k.key_of(args.arg))
        print(" ".join(map(_simplex_text, star.names())))
    elif args.action == "carrier":
        point = tuple(parse_rational(c) for c in args.arg.split(","))
        print(k.name(k.carrier(point)))
    return 0


def cmd_nerve(args) -> int:
    from .nerve import realize
    from .simplicial import complex_to_json, complex_to_off

    k = realize(poset_from_json(read_text(args.file)))
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
    from .pipeline import find_frame_countermodel, polyhedral_countermodel

    f = parse(args.formula)
    if args.polyhedral:  # without --depth, any depth reachable at that size
        depth = args.max_size if args.depth is None else args.depth
        v = polyhedral_countermodel(f, depth, args.max_size)
    else:
        v = find_frame_countermodel(f, args.max_size, args.depth)
    _emit(args, v.to_json())
    code = 1 if v.refuted else 0
    if args.expect:
        want = 1 if args.expect == "refuted" else 0
        return 0 if code == want else 1
    return code


def cmd_suite(args) -> int:
    from .corpus import corpus_complexes, corpus_posets, load_corpus
    from .pipeline import verify_dim_bd, verify_esakia, verify_hneg, verify_ji, verify_nerve

    posets = args.action in ("esakia", "nerve")
    if args.corpus:
        subjects = load_corpus(args.corpus, posets)
    elif posets:
        subjects = {f"poset{i:03d}": p for i, p in enumerate(corpus_posets())}
    else:
        subjects = corpus_complexes()
    if not subjects:
        kind = "poset" if posets else "complex"
        raise MalformedInput(f"{args.corpus} holds no {kind} for suite {args.action}")
    trials = max(1, args.trials // len(subjects))
    check = {"esakia": verify_esakia, "nerve": verify_nerve, "dimbd": verify_dim_bd,
             "ji": verify_ji, "hneg": lambda k: verify_hneg(k, trials, args.seed)}[args.action]
    reports = [(n, check(s)) for n, s in subjects.items()]
    ok = all(r.ok for _, r in reports)
    _emit(args, {"ok": ok, "reports": [{"subject": n, **r.to_json()} for n, r in reports]},
          "\n".join([f"[{n}] {line}" for n, r in reports for line in r.lines()]
                    + ["SUITE " + ("PASS" if ok else "FAIL")]))
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    from .corpus import write_corpus

    write_corpus(args.directory)
    return 0


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
    # options shared by several subcommands; --json after one must not reset a --json before it
    json_, budget, cap = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    json_.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="JSON output")
    budget.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)
    cap.add_argument("--cap", type=_at_least(0), default=DEFAULT_UPSET_CAP)

    p = sub.add_parser("formula", help="parse, pretty-print, or generate formulae")
    p.add_argument("action", choices=["parse", "print", "bd"])
    p.add_argument("arg", help="formula text, or the index d for bd")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("poset", help="poset queries", parents=[cap])
    p.add_argument("action", choices=["depth", "upsets"])
    p.add_argument("file")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("frame", help="evaluate or decide a formula on a frame",
                       parents=[json_, budget, cap])
    p.add_argument("action", choices=["check"])
    p.add_argument("formula")
    p.add_argument("poset")
    p.add_argument("--valuation")
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("complex", help="simplicial complex operations", parents=[json_])
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

    p = sub.add_parser("counter", help="bounded countermodel search", parents=[budget])
    p.add_argument("formula")
    p.add_argument("--depth", type=_at_least(0), default=None)
    p.add_argument("--max-size", type=_at_least(0), default=5)
    p.add_argument("--polyhedral", action="store_true")
    p.add_argument("--expect", choices=["refuted", "none"])
    p.set_defaults(func=cmd_counter)

    p = sub.add_parser("suite", help="verification suites over the corpus",
                       parents=[json_, budget, cap])
    p.add_argument("action", choices=["esakia", "dimbd", "ji", "hneg", "nerve"])
    p.add_argument("--corpus", help="directory of *.complex.json complexes and *.json posets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=500)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("corpus", help="write the bundled corpus to a directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_corpus)

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
    try:
        with limits(**{k: v for k, v in vars(args).items() if k in ("cap", "budget")}):
            return args.func(args)
    except BrokenPipeError:
        # the reader has gone (`| head`): what is left goes to the null device,
        # so that the flush at exit fails neither loudly nor with an exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (PolylogicError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
