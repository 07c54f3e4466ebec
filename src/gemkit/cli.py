"""Command-line interface.

Subcommands mirror the library: build catalogue constructions, check and
convert gem files, compute genus data, run move scripts, and compare
graphs.  One table, _CATALOGUE, gives each build name its builder, the
argument it needs and the one it may also take; build refuses the rest.
Each command returns its answer once, as a JSON object, the lines of its
text form, and (for build, export and moves) a document: the gem, dot or
gluings text.  `main` is the one place that writes output: under --json
it prints the object as one JSON line, otherwise the text lines.  The
document goes to --out when given, under either format, before anything
is printed; without --out it follows the text lines on stdout and is left
out under --json, whose object already holds it.  Exit codes: 0 success,
1 domain errors (validation, failed move or construction preconditions,
unreadable or unwritable files), 2 parse errors.
"""

import argparse
import json
import sys
from functools import cache

from .constructions import (g1_prime, g2_prime, product_gem, s2xs1_standard,
                            t3_standard)
from .core import euler_characteristic_from, face_counts_from
from .errors import GemError, ParseError
from .gemfile import export_dot, export_gluings, parse_gem, render_gem
from .invariants import (all_genus_reports, bicolored_cycles, genus_for,
                         genus_lower_bound, regular_genus, regular_genus_from,
                         weak_semi_simple_from, weak_semi_simple_triples)
from .iso import canonical_signature, isomorphic
from .moves import parse_move_script, run_script
from .small_covers import classify_covers, small_cover_gem
from .torus_cube import torus_gem


def _read_text(path):
    """The file's text, read whole, so a byte that is not UTF-8 is named by
    its offset in the file, as a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})") from None


def _read_gem(path):
    return parse_gem(_read_text(path))


def _frac(value):
    # exact rationals print as n/d, integers plainly
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _ints_arg(name, count=None):
    """argparse type: comma-separated ints, `count` of them if given."""
    def read(text):
        parts = text.split(",")
        try:
            if count in (None, len(parts)):
                return tuple(map(int, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"bad {name} {text!r}")
    return read


def _report_obj(rep):
    return {
        "perm": list(rep.permutation),
        "pairs": list(rep.pair_counts),
        "chi": _frac(rep.chi),
        "rho": _frac(rep.genus),
    }


def _words(obj):
    """`key=value` words: lists joined by commas, booleans in lower case."""
    def word(value):
        if isinstance(value, (list, tuple)):
            return ",".join(map(str, value))
        return str(value).lower() if isinstance(value, bool) else str(value)
    return " ".join(f"{key}={word(value)}" for key, value in obj.items())


# how each build argument is written, in the order build checks them
_BUILD_ARGS = {"file": "a base gem file", "n": "--n", "budget": "--budget",
               "lam": "--lambda"}

# build name -> (its builder, the argument it needs, the one it may also take)
_CATALOGUE = {
    "s2xs1": (s2xs1_standard, None, None),
    "t3": (t3_standard, None, None),
    "g1prime": (g1_prime, None, None),
    "g2prime": (g2_prime, None, None),
    "product-gem": (lambda path: product_gem(_read_gem(path)), "file", None),
    "torus-cube": (torus_gem, "n", "budget"),
    "small-cover": (small_cover_gem, "lam", None),
}

# export format -> the text it makes from a gem
_FORMATS = {"dot": export_dot, "gluings": export_gluings, "gem": render_gem}


def _cmd_build(args):
    make, needs, may = _CATALOGUE[args.name]
    given = {dest: getattr(args, dest) for dest in _BUILD_ARGS
             if getattr(args, dest) is not None}
    for dest in given:
        if dest not in (needs, may):
            raise GemError(f"build {args.name} does not take {_BUILD_ARGS[dest]}")
    if needs is not None and given.get(needs) in (None, ""):
        raise GemError(f"build {args.name} needs {_BUILD_ARGS[needs]}")
    # positional in _BUILD_ARGS order: the needed argument, then --budget
    gem = make(*given.values())
    text = render_gem(gem)
    return ({"name": args.name, "colors": gem.graph.n_colors,
             "vertices": gem.graph.num_vertices, "gem": text}, [], text)


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
    return info, ["ok " + _words(info)], None


def _cmd_genus(args):
    if args.perm is not None and args.all:
        raise GemError("genus takes --perm or --all, not both")
    g = _read_gem(args.file).graph
    if args.perm is not None:
        rep = genus_for(g, args.perm)
    elif args.all:
        reports = all_genus_reports(g)
        best = _report_obj(regular_genus_from(reports))
        objs = [_report_obj(r) for r in reports]
        return ({"reports": objs, "min": best},
                [_words(r) for r in objs] + ["min " + _words(best)], None)
    else:
        rep = regular_genus(g)
    obj = _report_obj(rep)
    return obj, [_words(obj)], None


def _cmd_cycles(args):
    g = _read_gem(args.file).graph
    i, j = args.pair
    lengths = bicolored_cycles(g, i, j)
    census = {"count": len(lengths), "lengths": list(lengths)}
    return {"pair": [i, j], **census}, [_words(census)], None


def _cmd_chi(args):
    chi = _read_gem(args.file).graph.euler_characteristic()
    return {"chi": chi}, [str(chi)], None


def _cmd_bound(args):
    value = genus_lower_bound(args.chi, args.rank)
    return {"chi": args.chi, "rank": args.rank, "bound": value}, [str(value)], None


def _cmd_wss(args):
    triples = weak_semi_simple_triples(_read_gem(args.file).graph, args.perm)
    answer = {"weak_semi_simple": weak_semi_simple_from(triples, args.rank),
              "triples": list(triples)}
    return ({"perm": list(args.perm), "rank": args.rank, **answer},
            [_words(answer)], None)


def _cmd_moves(args):
    gem = _read_gem(args.file)
    steps = parse_move_script(_read_text(args.script))
    result = run_script(gem, steps)
    text = render_gem(result.gem)
    return ({"trace": list(result.trace), "gem": text},
            ["trace " + " ".join(map(str, result.trace))], text)


def _cmd_iso(args):
    g1 = _read_gem(args.file_a).graph
    g2 = _read_gem(args.file_b).graph
    found = isomorphic(g1, g2, allow_color_perm=args.color_perm)
    if found is None:
        return {"isomorphic": False}, [_words({"isomorphic": False})], None
    vertex_map, color_map = found
    return ({"isomorphic": True, "vertex_map": list(vertex_map),
             "color_map": list(color_map)},
            [_words({"isomorphic": True, "colors": color_map})], None)


def _cmd_canon(args):
    sig = canonical_signature(_read_gem(args.file).graph,
                              allow_color_perm=args.color_perm)
    return {"signature": sig}, [sig], None


def _cmd_export(args):
    text = _FORMATS[args.format](_read_gem(args.file))
    return {"format": args.format, "text": text}, [], text


def _cmd_small_cover(args):
    classes = classify_covers()
    return ({"classes": [list(c) for c in classes]},
            ["class " + " ".join(map(str, group)) for group in classes], None)


# built once per process; parse_known_args leaves the parser as it was
@cache
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
    p.add_argument("name", choices=tuple(_CATALOGUE))
    p.add_argument("file", nargs="?", help="base gem file (product-gem only)")
    p.add_argument("--n", type=int, help="torus dimension (torus-cube only)")
    p.add_argument("--budget", type=int,
                   help="vertex budget for torus-cube (default 40320)")
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
    p.add_argument("--perm", type=_ints_arg("permutation"),
                   help="cyclic color order, e.g. 0,2,4,1,3")
    p.add_argument("--all", action="store_true",
                   help="report every canonical cyclic order")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("cycles", parents=[common],
                       help="bicolored cycle census for one color pair")
    p.add_argument("file")
    p.add_argument("--pair", type=_ints_arg("color pair", 2), required=True,
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
    p.add_argument("--perm", type=_ints_arg("permutation"), required=True)
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
    p.add_argument("--format", choices=tuple(_FORMATS), required=True)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("small-cover", parents=[common],
                       help="small cover reports")
    p.add_argument("action", choices=("classify",))
    p.set_defaults(func=_cmd_small_cover)

    return parser


def main(argv=None):
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills build's optional base file only next to the name
    if (args.command == "build" and args.file is None and extra
            and not extra[0].startswith("-")):
        args.file = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        obj, lines, document = args.func(args)
        out = getattr(args, "out", None)
        if document is not None and out:
            # written first, so a failed write leaves stdout empty
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(document)
            document = None
        if args.json:
            # the object holds the document already
            lines, document = [json.dumps(obj, sort_keys=True)], None
        for line in lines:
            print(line)
        if document is not None:
            sys.stdout.write(document)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
