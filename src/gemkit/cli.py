"""Command-line interface.

Subcommands mirror the library: build catalogue constructions, check and
convert gem files, compute genus data, run move scripts, and compare
graphs.  Output is line-oriented text; --json switches a command to one
JSON object on stdout.  Exit codes: 0 success, 1 domain errors (validation
and failed move or construction preconditions), 2 parse errors.
"""

import argparse
import json
import sys

from .constructions import (g1_prime, g2_prime, product_gem, s2xs1_standard,
                            t3_standard)
from .core import euler_characteristic_from, face_counts_from
from .errors import GemError, ParseError
from .gemfile import export_dot, export_gluings, parse_gem, render_gem
from .invariants import (all_genus_reports, bicolored_cycles, genus_for,
                         genus_lower_bound, is_weak_semi_simple,
                         regular_genus, weak_semi_simple_triples)
from .iso import canonical_signature, isomorphic
from .moves import parse_move_script, run_script
from .small_covers import classify_covers, small_cover_gem
from .torus_cube import torus_gem


def _read_gem(path):
    with open(path, encoding="utf-8") as fh:
        return parse_gem(fh.read())


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _frac(value):
    # exact rationals print as n/d, integers plainly
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _perm_arg(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad permutation {text!r}")


def _pair_arg(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad color pair {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad color pair {text!r}")


def _report_obj(rep):
    return {
        "perm": list(rep.permutation),
        "pairs": list(rep.pair_counts),
        "chi": _frac(rep.chi),
        "rho": _frac(rep.genus),
    }


def _report_line(rep):
    pairs = ",".join(str(c) for c in rep.pair_counts)
    perm = ",".join(str(c) for c in rep.permutation)
    return f"perm={perm} pairs={pairs} chi={_frac(rep.chi)} rho={_frac(rep.genus)}"


def _cmd_build(args):
    name = args.name
    if name == "product-gem":
        if not args.file:
            raise GemError("build product-gem needs a base gem file")
        gem = product_gem(_read_gem(args.file))
    elif name == "torus-cube":
        if args.n is None:
            raise GemError("build torus-cube needs --n")
        gem = torus_gem(args.n, budget=args.budget)
    elif name == "small-cover":
        if args.lam is None:
            raise GemError("build small-cover needs --lambda")
        if not 1 <= args.lam <= 7:
            raise GemError(f"--lambda must be 1..7, got {args.lam}")
        gem = small_cover_gem(args.lam)
    else:
        gem = {"s2xs1": s2xs1_standard, "t3": t3_standard,
               "g1prime": g1_prime, "g2prime": g2_prime}[name]()
    text = render_gem(gem)
    if args.json:
        _emit_json({"name": name, "colors": gem.graph.n_colors,
                    "vertices": gem.graph.num_vertices, "gem": text})
    else:
        _emit(text, args.out)
    return 0


def _cmd_check(args):
    gem = _read_gem(args.file)
    g = gem.graph
    # one walk counts every residue, the full palette included
    counts = g.residue_counts()
    palette = tuple(g.colors())
    connected = counts[palette] == 1
    contracted = all(counts[palette[:j] + palette[j + 1:]] == 1 for j in palette)
    info = {
        "vertices": g.num_vertices,
        "colors": g.n_colors,
        "connected": connected,
        "bipartite": g.is_bipartite(),
        "contracted": contracted,
        "crystallization": connected and contracted,
        "chi": euler_characteristic_from(face_counts_from(counts, g.n_colors)),
    }
    if args.json:
        _emit_json(info)
    else:
        print("ok " + " ".join(f"{k}={str(v).lower()}" for k, v in info.items()))
    return 0


def _cmd_genus(args):
    g = _read_gem(args.file).graph
    if args.perm is not None:
        rep = genus_for(g, args.perm)
        if args.json:
            _emit_json(_report_obj(rep))
        else:
            print(_report_line(rep))
        return 0
    if args.all:
        reports = all_genus_reports(g)
        best = min(reports, key=lambda r: (r.genus, r.permutation))
        if args.json:
            _emit_json({"reports": [_report_obj(r) for r in reports],
                        "min": _report_obj(best)})
        else:
            for rep in reports:
                print(_report_line(rep))
            print("min " + _report_line(best))
        return 0
    rep = regular_genus(g)
    if args.json:
        _emit_json(_report_obj(rep))
    else:
        print(_report_line(rep))
    return 0


def _cmd_cycles(args):
    g = _read_gem(args.file).graph
    i, j = args.pair
    lengths = bicolored_cycles(g, i, j)
    if args.json:
        _emit_json({"pair": [i, j], "count": len(lengths),
                    "lengths": list(lengths)})
    else:
        print(f"count={len(lengths)} lengths={','.join(map(str, lengths))}")
    return 0


def _cmd_chi(args):
    chi = _read_gem(args.file).graph.euler_characteristic()
    if args.json:
        _emit_json({"chi": chi})
    else:
        print(chi)
    return 0


def _cmd_bound(args):
    value = genus_lower_bound(args.chi, args.rank)
    if args.json:
        _emit_json({"chi": args.chi, "rank": args.rank, "bound": value})
    else:
        print(value)
    return 0


def _cmd_wss(args):
    g = _read_gem(args.file).graph
    triples = weak_semi_simple_triples(g, args.perm)
    ok = is_weak_semi_simple(g, args.perm, args.rank)
    if args.json:
        _emit_json({"perm": list(args.perm), "rank": args.rank,
                    "triples": list(triples), "weak_semi_simple": ok})
    else:
        print(f"weak_semi_simple={str(ok).lower()} "
              f"triples={','.join(map(str, triples))}")
    return 0


def _cmd_moves(args):
    gem = _read_gem(args.file)
    with open(args.script, encoding="utf-8") as fh:
        steps = parse_move_script(fh.read())
    result = run_script(gem, steps)
    text = render_gem(result.gem)
    if args.json:
        _emit_json({"trace": list(result.trace), "gem": text})
    else:
        print("trace " + " ".join(map(str, result.trace)))
        _emit(text, args.out)
    return 0


def _cmd_iso(args):
    g1 = _read_gem(args.file_a).graph
    g2 = _read_gem(args.file_b).graph
    found = isomorphic(g1, g2, allow_color_perm=args.color_perm)
    if args.json:
        if found is None:
            _emit_json({"isomorphic": False})
        else:
            _emit_json({"isomorphic": True, "vertex_map": list(found[0]),
                        "color_map": list(found[1])})
    elif found is None:
        print("isomorphic=false")
    else:
        print(f"isomorphic=true colors={','.join(map(str, found[1]))}")
    return 0


def _cmd_canon(args):
    sig = canonical_signature(_read_gem(args.file).graph,
                              allow_color_perm=args.color_perm)
    if args.json:
        _emit_json({"signature": sig})
    else:
        print(sig)
    return 0


def _cmd_export(args):
    gem = _read_gem(args.file)
    if args.format == "dot":
        text = export_dot(gem)
    elif args.format == "gluings":
        text = export_gluings(gem)
    else:
        text = render_gem(gem)
    if args.json:
        _emit_json({"format": args.format, "text": text})
    else:
        _emit(text, args.out)
    return 0


def _cmd_small_cover(args):
    if args.action != "classify":
        raise GemError(f"unknown small-cover action {args.action!r}")
    classes = classify_covers()
    if args.json:
        _emit_json({"classes": [list(c) for c in classes]})
    else:
        for group in classes:
            print("class " + " ".join(map(str, group)))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gemkit",
        description="edge-colored gems of closed manifolds: build, measure, move")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of text")

    p = sub.add_parser("build", parents=[common],
                       help="emit a catalogue construction as a gem file")
    p.add_argument("name", choices=("s2xs1", "t3", "g1prime", "g2prime",
                                    "product-gem", "torus-cube", "small-cover"))
    p.add_argument("file", nargs="?", help="base gem file (product-gem only)")
    p.add_argument("--n", type=int, help="torus dimension (torus-cube only)")
    p.add_argument("--budget", type=int, default=40320,
                   help="vertex budget for torus-cube")
    p.add_argument("--lambda", dest="lam", type=int,
                   help="catalogue index 1..7 (small-cover only)")
    p.add_argument("--out", help="write the gem file here instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", parents=[common], help="validate a gem file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("genus", parents=[common],
                       help="regular genus, per permutation or overall")
    p.add_argument("file")
    p.add_argument("--perm", type=_perm_arg,
                   help="cyclic color order, e.g. 0,2,4,1,3")
    p.add_argument("--all", action="store_true",
                   help="report every canonical cyclic order")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("cycles", parents=[common],
                       help="bicolored cycle census for one color pair")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair_arg, required=True,
                   help="two colors, e.g. 0,2")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("chi", parents=[common], help="Euler characteristic")
    p.add_argument("file")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("bound", parents=[common],
                       help="genus lower bound 2*chi + 5*rank - 4")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("wss", parents=[common],
                       help="weak semi-simplicity at a color order")
    p.add_argument("file")
    p.add_argument("--perm", type=_perm_arg, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_wss)

    p = sub.add_parser("moves", parents=[common],
                       help="apply a move script to a gem file")
    p.add_argument("file")
    p.add_argument("--script", required=True)
    p.add_argument("--out", help="write the final gem here instead of stdout")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("iso", parents=[common],
                       help="colored isomorphism between two gem files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--color-perm", action="store_true",
                   help="also allow recoloring")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical signature of a gem file")
    p.add_argument("file")
    p.add_argument("--color-perm", action="store_true",
                   help="signature up to recoloring")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("export", parents=[common],
                       help="convert a gem file to dot, gluings, or gem")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "gluings", "gem"), required=True)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("small-cover", parents=[common],
                       help="small cover reports")
    p.add_argument("action", choices=("classify",))
    p.set_defaults(func=_cmd_small_cover)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
