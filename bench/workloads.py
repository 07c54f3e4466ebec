"""The three workloads: seeded inputs, the timed command list, and the checks.

`WORKLOADS[name](Round(...))` writes the round's input files and returns
its commands plus a check to run after all of theirs (or None).  A Command
is one `gemkit ... --json` call; `focus` says whether its time counts in
focus_s or other_s.  `check` receives the parsed JSON answer (the stderr
text when a non-zero exit is expected) and raises oracle.CheckFailed on a
wrong one.
Checks run after the timed list, against oracle.py, which does not import
gemkit.

No timed command may be answered from a module cache filled earlier in
its process: every round runs in a fresh process, each catalogue name is
built once per round, and every file given to `iso` or `canon` is a
relabelling used by no other command of the round (`Round.fresh`).
"""

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle
from oracle import require

DATA = Path(__file__).resolve().parent.parent / "src" / "gemkit" / "data"

# The catalogue facts the answers are checked against.
CLASSES = ((1,), (2, 5), (3, 6), (4, 7))  # isomorphism classes of the reduced covers
G1PRIME_TRACE = (64, 60, 56, 52, 48, 44, 40)
G2PRIME_TRACE = (192, 180, 168, 156, 152, 148, 144, 140, 136, 132, 128, 124, 120)

# Sizes of the inputs, per round.
ISO_PAIRS = 3          # iso of two fresh t5 relabellings
CANON_RELABELS = 3     # canon of fresh t5 relabellings
DIPOLES = 150          # dipoles inserted into t6 and cancelled by a script


@dataclass
class Command:
    argv: list
    focus: bool
    check: Callable
    expect_rc: int = 0


def _read_data(name):
    return (DATA / name).read_text(encoding="utf-8")


def _gem_of(labelled):
    """(invs, labels) lists of a gemkit LabeledGem."""
    return [list(col) for col in labelled.graph.involutions], list(labelled.labels)


class Round:
    """The input files of one round and the helpers that write them."""

    def __init__(self, workload, seed, round_no, workdir):
        self.rng = random.Random(f"{workload}:{seed}:{round_no}")
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.texts = {}
        self.parsed = {}
        self.iso_inputs = set()

    def write(self, name, text):
        self.texts[name] = text
        (self.dir / name).write_text(text, encoding="utf-8")
        return str(self.dir / name)

    def write_gem(self, name, invs, labels, shuffle=True):
        """Write a seeded relabelling of the gem (names travel with vertices)."""
        if shuffle:
            new_id = list(range(len(labels)))
            self.rng.shuffle(new_id)
            invs, labels = oracle.relabel(invs, labels, new_id)
        return self.write(name, oracle.render_gem_text(invs, labels))

    def fresh(self, name, invs, labels):
        """A relabelling for one iso/canon argument; no other command sees this graph."""
        path = self.write_gem(name, invs, labels)
        body = self.texts[name].split("\nc 0:", 1)[1]
        require(body not in self.iso_inputs, f"{name} repeats an earlier iso/canon input")
        self.iso_inputs.add(body)
        return path

    def gem(self, name):
        """(k, invs, labels) of a written file, parsed by the oracle once."""
        if name not in self.parsed:
            self.parsed[name] = oracle.parse_gem_text(self.texts[name])
        return self.parsed[name]


def _interleave(cmds):
    """Spread the other commands evenly among the focus ones, each kind in order.

    The machine's speed drifts over seconds; interleaving makes focus_s and
    other_s sample the same stretch of the round instead of its start and end.
    """
    def place(kind):
        return [((i + 0.5) / len(kind), c) for i, c in enumerate(kind)]

    focus = place([c for c in cmds if c.focus])
    other = place([c for c in cmds if not c.focus])
    return [c for _, c in sorted(focus + other, key=lambda pc: pc[0])]


def _ok_error(stderr):
    """The expected refusal: one 'error:' line on stderr (the exit code is checked apart)."""
    require(stderr.startswith("error:"), f"stderr is {stderr!r}")


# -- genus-census -------------------------------------------------------------------


def genus_census(r):
    import gemkit

    inputs = {}  # file -> (expected chi, expected rho, rank for the bound or None)
    for n in (4, 5, 6, 7):
        r.write_gem(f"t{n}.gem", *_gem_of(gemkit.torus_gem(n)))
        inputs[f"t{n}.gem"] = (0, oracle.torus_genus(n), None)
    for name, rho, rank in (("g1prime", 6, 2), ("g2prime", 16, 4)):
        k, invs, labels = oracle.parse_gem_text(_read_data(f"{name}.gem"))
        r.write_gem(f"{name}.gem", invs, labels)
        inputs[f"{name}.gem"] = (0, rho, rank)
    for i in range(1, 8):
        r.write_gem(f"cover{i}.gem", *_gem_of(gemkit.reduced_cover(i).gem))
        inputs[f"cover{i}.gem"] = (1, 8, 2)
    s2xs1 = r.write("s2xs1.gem", _read_data("s2xs1.gem"))
    path = {name: str(r.dir / name) for name in inputs}

    def genus_check(name):
        chi, rho, rank = inputs[name]

        def check(ans):
            k, invs, _ = r.gem(name)
            want_rho, perm, pairs, chi_eps = oracle.min_genus(oracle.pair_counts(invs), len(invs[0]), k)
            require(ans == {"perm": list(perm), "pairs": pairs, "chi": chi_eps, "rho": want_rho},
                    f"genus {name}: {ans} but the census gives rho={want_rho} at {perm}")
            require(want_rho == rho, f"genus {name}: rho {want_rho}, expected {rho}")
            if rank is not None:
                require(rho == oracle.genus_bound(chi, rank), f"{name}: rho is not the bound")
        return check

    def perm_check(name, perm):
        def check(ans):
            k, invs, _ = r.gem(name)
            counts = {tuple(sorted((perm[i], perm[(i + 1) % k]))):
                      len(oracle.cycle_lengths(invs, perm[i], perm[(i + 1) % k]))
                      for i in range(k)}
            pairs, chi_eps, rho = oracle.genus_at(counts, len(invs[0]), perm)
            require(ans == {"perm": list(perm), "pairs": pairs, "chi": chi_eps, "rho": rho},
                    f"genus --perm {name}: {ans}, the census gives rho={rho}")
            require(rho == inputs[name][1], f"genus --perm {name}: rho {rho}")
        return check

    def chi_check(name):
        def check(ans):
            require(ans == {"chi": inputs[name][0]}, f"chi {name}: {ans}")
            k, invs, _ = r.gem(name)
            if len(invs[0]) <= 1000:
                require(oracle.euler_characteristic(invs) == ans["chi"], f"chi {name}: flood fill")
        return check

    def summary_check(name):
        def check(ans):
            k, invs, _ = r.gem(name)
            want = oracle.summary(invs, chi=inputs[name][0])
            require(ans == want, f"check {name}: {ans}, expected {want}")
        return check

    def cycles_check(name, i, j):
        def check(ans):
            k, invs, _ = r.gem(name)
            lengths = oracle.cycle_lengths(invs, i, j)
            require(ans == {"pair": [i, j], "count": len(lengths), "lengths": lengths},
                    f"cycles {name} {i},{j}: wrong census")
        return check

    def wss_check(name, perm, rank):
        def check(ans):
            k, invs, _ = r.gem(name)
            triples = [oracle.residue_count(invs, (perm[i], perm[(i + 2) % k], perm[(i + 4) % k]))
                       for i in range(k)]
            require(ans == {"perm": list(perm), "rank": rank, "triples": triples,
                            "weak_semi_simple": all(t == rank + 1 for t in triples)},
                    f"wss {name}: {ans}, triples {triples}")
        return check

    cmds = [Command(["genus", path[name]], True, genus_check(name))
            for name in ("t4.gem", "t5.gem", "t6.gem", "g1prime.gem", "g2prime.gem")]
    cmds += [Command(["genus", path[f"cover{i}.gem"]], True, genus_check(f"cover{i}.gem"))
             for i in range(1, 8)]
    stated = oracle.stated_order(7)
    cmds.append(Command(["genus", "--perm", ",".join(map(str, stated)), path["t7.gem"]],
                        True, perm_check("t7.gem", stated)))

    cmds += [Command(["chi", path[name]], False, chi_check(name))
             for name in inputs if name != "t7.gem"]
    cmds.append(Command(["check", path["t6.gem"]], False, summary_check("t6.gem")))
    for name, k in (("t5.gem", 6), ("t6.gem", 7), ("g2prime.gem", 5)):
        i, j = sorted(r.rng.sample(range(k), 2))
        cmds.append(Command(["cycles", path[name], "--pair", f"{i},{j}"], False,
                            cycles_check(name, i, j)))
    orders = oracle.canonical_orders(5)
    for name, rank in (("g1prime.gem", 2), ("g2prime.gem", 4),
                       (f"cover{r.rng.randint(1, 7)}.gem", 2)):
        perm = r.rng.choice(orders)
        cmds.append(Command(["wss", path[name], "--perm", ",".join(map(str, perm)),
                             "--rank", str(rank)], False, wss_check(name, perm, rank)))
    # Colour 7 does not exist and -1 is no colour either: both must be refused.
    for pair in ("0,7", "0,-1"):
        cmds.append(Command(["cycles", s2xs1, "--pair", pair], False, _ok_error, expect_rc=1))
    return _interleave(cmds), None


# -- iso-canon --------------------------------------------------------------------------


def _two_switch(rng, invs):
    """Re-pair two edges of one colour so that some cycle census changes."""
    census = oracle.cycle_census(invs)
    nv = len(invs[0])
    while True:
        c = rng.randrange(len(invs))
        a, x = rng.sample(range(nv), 2)
        b, y = invs[c][a], invs[c][x]
        if x == b:
            continue
        out = [list(col) for col in invs]
        col = out[c]
        col[a], col[x], col[b], col[y] = x, a, y, b
        if oracle.cycle_census(out) != census:
            return out


def iso_canon(r):
    import gemkit

    t5, t5_labels = _gem_of(gemkit.torus_gem(5))
    t4, t4_labels = _gem_of(gemkit.torus_gem(4))
    _, g2, g2_labels = oracle.parse_gem_text(_read_data("g2prime.gem"))
    switched = _two_switch(r.rng, t5)
    colours = list(range(5))
    while colours == sorted(colours):
        r.rng.shuffle(colours)
    g2r = [None] * 5
    for c, col in enumerate(g2):
        g2r[colours[c]] = col

    def iso_check(a, b, color_perm):
        def check(ans):
            _, invs1, _ = r.gem(a)
            _, invs2, _ = r.gem(b)
            require(ans.get("isomorphic") is True, f"iso {a} {b}: {ans}")
            cmap = ans["color_map"]
            if not color_perm:
                require(cmap == list(range(len(invs1))), f"iso {a} {b}: recoloured")
            require(oracle.replay(invs1, invs2, ans["vertex_map"], cmap),
                    f"iso {a} {b}: the witness does not replay")
        return check

    def not_iso_check(a, b):
        def check(ans):
            require(ans == {"isomorphic": False}, f"iso {a} {b}: {ans}")
            require(oracle.cycle_census(r.gem(a)[1]) != oracle.cycle_census(r.gem(b)[1]),
                    f"{a} and {b} have equal cycle censuses")
        return check

    sigs = {}

    def canon_check(name, group):
        def check(ans):
            k, invs, _ = r.gem(name)
            sig = ans["signature"]
            require(sig.startswith(f"{k};{len(invs[0])};"), f"canon {name}: {sig[:20]}")
            sigs.setdefault(group, set()).add(sig)
        return check

    def canon_groups():
        """Runs after every canon check: one signature per group, 2-switch apart."""
        require(all(len(s) == 1 for s in sigs.values()), "relabellings give unequal signatures")
        require(sigs["t5"] != sigs["switched"], "the 2-switch has the signature of t5")

    def summary_check(name):
        # relabelled tori and g2prime are closed 4-manifolds of chi 0; the 2-switch is counted
        chi = None if name.startswith("switch") else 0

        def check(ans):
            require(ans == oracle.summary(r.gem(name)[1], chi), f"check {name}: {ans}")
        return check

    def torus_build_check(n):
        def check(ans):
            k, invs, labels = oracle.parse_gem_text(ans["gem"])
            require(ans["vertices"] == len(invs[0]) and ans["colors"] == k == n + 1,
                    f"build torus-cube --n {n}: sizes")
            oracle.check_torus_rule(k, invs, labels)
        return check

    def classify_check(ans):
        classes = ans["classes"]
        members = sorted(i for group in classes for i in group)
        require(members == list(range(1, 8)), f"classify: {classes} is not a partition of 1..7")
        require(tuple(tuple(g) for g in classes) == CLASSES, f"classify: {classes}")
        covers = {i: _gem_of(gemkit.reduced_cover(i).gem)[0] for i in range(1, 8)}
        for group in classes:
            for i, j in combinations(group, 2):
                require(oracle.find_witness(covers[i], covers[j]) is not None,
                        f"classify: no witness for covers {i} and {j}")

    cmds = []
    for p in range(ISO_PAIRS):
        a = r.fresh(f"t5-iso{p}a.gem", t5, t5_labels)
        b = r.fresh(f"t5-iso{p}b.gem", t5, t5_labels)
        cmds.append(Command(["iso", a, b], True, iso_check(f"t5-iso{p}a.gem", f"t5-iso{p}b.gem", False)))
    a = r.fresh("t5-vs-switch.gem", t5, t5_labels)
    s = r.fresh("switch-iso.gem", switched, t5_labels)
    cmds.append(Command(["iso", a, s], True, not_iso_check("t5-vs-switch.gem", "switch-iso.gem")))
    for p in range(CANON_RELABELS):
        name = f"t5-canon{p}.gem"
        cmds.append(Command(["canon", r.fresh(name, t5, t5_labels)], True, canon_check(name, "t5")))
    cmds.append(Command(["canon", r.fresh("switch-canon.gem", switched, t5_labels)], True,
                        canon_check("switch-canon.gem", "switched")))
    for name, (invs, labels) in (("t4-cp.gem", (t4, t4_labels)), ("g2prime-cp.gem", (g2, g2_labels)),
                                 ("g2recol-cp.gem", (g2r, g2_labels))):
        cmds.append(Command(["canon", "--color-perm", r.fresh(name, invs, labels)], True,
                            canon_check(name, "colour-perm")))
    for a, b in ((("t4-iso.gem", t4, t4_labels), ("g2prime-iso.gem", g2, g2_labels)),
                 (("g2prime-iso2.gem", g2, g2_labels), ("g2recol-iso.gem", g2r, g2_labels))):
        pa, pb = r.fresh(*a), r.fresh(*b)
        cmds.append(Command(["iso", "--color-perm", pa, pb], True, iso_check(a[0], b[0], True)))

    cmds.append(Command(["small-cover", "classify"], False, classify_check))
    for name in list(r.texts):
        cmds.append(Command(["check", str(r.dir / name)], False, summary_check(name)))
    for n in (4, 5):
        cmds.append(Command(["build", "torus-cube", "--n", str(n)], False, torus_build_check(n)))
    g2_edges = oracle.labelled_edges(5, g2, g2_labels)
    cmds.append(Command(["build", "g2prime"], False,
                        lambda ans: require(oracle.labelled_edges(*oracle.parse_gem_text(ans["gem"]))
                                            == g2_edges, "build g2prime differs from g2prime.gem")))
    return _interleave(cmds), canon_groups


# -- moves-io -----------------------------------------------------------------------------


def _insert_dipoles(rng, invs, labels, count):
    """Insert dipoles as gemkit.add_dipole does; return the gem and the undo script.

    Dipole d joins the new vertices d<d>a, d<d>b by its colours; every other
    colour at a seeded vertex is rerouted through d<d>a.  Cancelling the
    dipoles in reverse order restores the original gem, ids included.
    """
    invs = [list(col) for col in invs]
    labels = list(labels)
    k = len(invs)
    lines = []
    orders = [1 + d % (k - 1) for d in range(count)]  # every order equally often
    rng.shuffle(orders)
    for d in range(count):
        at = rng.randrange(len(labels))
        colours = sorted(rng.sample(range(k), orders[d]))
        v1, v2 = len(labels), len(labels) + 1
        for c, col in enumerate(invs):
            col.extend((v2, v1))
            if c not in colours:
                u = col[at]
                col[at], col[v1] = v1, at
                col[v2], col[u] = u, v2
        labels += [f"d{d}a", f"d{d}b"]
        lines.append(f"dipole d{d}a d{d}b {','.join(map(str, colours))}")
    return invs, labels, "\n".join(reversed(lines)) + "\n"


def _dot_edges(text):
    """(label, colour, label) edges of a DOT export, with how many lines listed them."""
    palette = {}
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("// edge colors:"):
            for item in line.split(":", 1)[1].split():
                c, rgb = item.split("=")
                palette[rgb] = int(c)
        elif " -- " in line:
            left, rest = line.split(" -- ", 1)
            right, attrs = rest.split(" [", 1)
            colour = palette[attrs.split('color="', 1)[1].split('"', 1)[0]]
            a, b = sorted((left.strip('"'), right.strip('"')))
            edges.append((a, colour, b))
    return edges


def moves_io(r):
    import gemkit

    s2xs1 = oracle.parse_gem_text(_read_data("s2xs1.gem"))
    t3 = oracle.parse_gem_text(_read_data("t3.gem"))
    r.write_gem("s2xs1.gem", *s2xs1[1:])
    r.write_gem("t3.gem", *t3[1:])
    for name in ("s2xs1", "t3"):
        base = gemkit.parse_gem(_read_data(f"{name}.gem"))
        r.write_gem(f"{name}-product.gem", *_gem_of(gemkit.product_gem(base)))
        r.write(f"{name}.moves", _read_data(("g1prime" if name == "s2xs1" else "g2prime") + ".moves"))
    t6, t6_labels = _gem_of(gemkit.torus_gem(6))
    r.write_gem("t6.gem", t6, t6_labels)
    _, t6, t6_labels = r.gem("t6.gem")
    grown, grown_labels, script = _insert_dipoles(r.rng, t6, t6_labels, DIPOLES)
    r.write_gem("t6-dipoles.gem", grown, grown_labels, shuffle=False)
    r.write("t6-dipoles.moves", script)
    r.write_gem("t7.gem", *_gem_of(gemkit.torus_gem(7)))
    path = {name: str(r.dir / name) for name in r.texts}
    shipped = {name: oracle.labelled_edges(*oracle.parse_gem_text(_read_data(f"{name}.gem")))
               for name in ("g1prime", "g2prime", "cover1")}

    def crystal_check(text, vertices, edges, what):
        k, invs, labels = oracle.parse_gem_text(text)
        require(len(invs[0]) == vertices, f"{what}: {len(invs[0])} vertices")
        facts = oracle.summary(invs, chi=0)
        require(facts["crystallization"] and facts["bipartite"], f"{what}: not a crystallization")
        require(oracle.labelled_edges(k, invs, labels) == edges, f"{what}: differs from the shipped gem")

    def reduction_check(name, trace, shipped_name):
        def check(ans):
            require(tuple(ans["trace"]) == trace, f"moves {name}: trace {ans['trace']}")
            crystal_check(ans["gem"], trace[-1], shipped[shipped_name], f"moves {name}")
        return check

    def dipoles_check(ans):
        start = len(grown_labels)
        require(ans["trace"] == list(range(start, len(t6_labels) - 1, -2)),
                f"moves t6-dipoles: trace {ans['trace'][:4]}...")
        require(ans["gem"] == r.texts["t6.gem"], "cancelling the dipoles does not restore t6")

    def torus_build_check(ans):
        k, invs, labels = oracle.parse_gem_text(ans["gem"])
        require((ans["colors"], ans["vertices"]) == (k, len(invs[0])) == (8, 40320),
                "build torus-cube --n 7: sizes")
        oracle.check_torus_rule(k, invs, labels)

    def catalogue_check(name, vertices):
        def check(ans):
            crystal_check(ans["gem"], vertices, shipped[name], f"build {name}")
        return check

    def product_check(base):
        def check(ans):
            k, invs, labels = oracle.parse_gem_text(ans["gem"])
            facts = oracle.summary(invs)
            require((k, facts["vertices"]) == (5, 8 * len(r.gem(f"{base}.gem")[1][0])),
                    f"build product-gem {base}: sizes")
            require(facts["connected"] and facts["chi"] == 0, f"build product-gem {base}: {facts}")
            require(oracle.labelled_edges(k, invs, labels)
                    == oracle.labelled_edges(*r.gem(f"{base}-product.gem")),
                    f"build product-gem {base}: differs from the moves input")
        return check

    def cover_check(lam):
        def check(ans):
            k, invs, labels = oracle.parse_gem_text(ans["gem"])
            require(len(invs[0]) == 96 and k == 5, f"small cover {lam}: sizes")
            require(oracle.euler_characteristic(invs) == 1, f"small cover {lam}: chi")
            if lam == 1:
                require(oracle.labelled_edges(k, invs, labels) == shipped["cover1"],
                        "small cover 1 differs from cover1.gem")
        return check

    def export_gem_check(ans):
        k, invs, labels = oracle.parse_gem_text(ans["text"])  # each vertex once per colour
        require(ans["text"] == r.texts["t7.gem"], "export t7 --format gem differs from t7.gem")

    def export_dot_check(ans):
        edges = _dot_edges(ans["text"])
        require(len(edges) == len(set(edges)) == 7 * 5040 // 2, "export dot: edge count")
        require(set(edges) == oracle.labelled_edges(*r.gem("t6.gem")), "export dot: edges")

    def export_gluings_check(ans):
        k, invs, labels = r.gem("t6.gem")
        rows = ans["text"].splitlines()
        require(rows[0].split("\t") == ["simplex"] + [f"color{c}" for c in range(k)],
                "export gluings: header")
        require(len(rows) == 1 + len(labels), "export gluings: row count")
        for v, row in enumerate(rows[1:]):
            require(row.split("\t") == [labels[v]] + [labels[col[v]] for col in invs],
                    f"export gluings: row {v}")

    cmds = [
        Command(["moves", path["s2xs1-product.gem"], "--script", path["s2xs1.moves"]], True,
                reduction_check("s2xs1-product", G1PRIME_TRACE, "g1prime")),
        Command(["moves", path["t3-product.gem"], "--script", path["t3.moves"]], True,
                reduction_check("t3-product", G2PRIME_TRACE, "g2prime")),
        Command(["moves", path["t6-dipoles.gem"], "--script", path["t6-dipoles.moves"]], True,
                dipoles_check),
        Command(["build", "torus-cube", "--n", "7"], False, torus_build_check),
        Command(["build", "g1prime"], False, catalogue_check("g1prime", 40)),
        Command(["build", "g2prime"], False, catalogue_check("g2prime", 120)),
    ]
    for base in ("s2xs1", "t3"):
        cmds.append(Command(["build", "product-gem", path[f"{base}.gem"]], False, product_check(base)))
    for lam in range(1, 8):
        cmds.append(Command(["build", "small-cover", "--lambda", str(lam)], False, cover_check(lam)))
    cmds += [
        Command(["export", path["t7.gem"], "--format", "gem"], False, export_gem_check),
        Command(["export", path["t6.gem"], "--format", "dot"], False, export_dot_check),
        Command(["export", path["t6.gem"], "--format", "gluings"], False, export_gluings_check),
    ]
    return _interleave(cmds), None


WORKLOADS = {"genus-census": genus_census, "iso-canon": iso_canon, "moves-io": moves_io}
