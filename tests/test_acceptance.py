"""End-to-end acceptance checks, one test per shipped claim bundle.

Each test prints a single pass/fail line (visible with -s or in the
captured-output section) and enforces its own wall-clock budget.
"""

import gc
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

from gemkit import (add_dipole, all_genus_reports, bicolored_cycles,
                    cancel_dipole, canonical_signature, check_dipole,
                    classify_covers, dj_equivalent, find_dipoles, enumerate_characteristic_functions,
                    genus_for, genus_lower_bound, isomorphic, is_weak_semi_simple,
                    order_two_gem, parse_gem, product_gem, reduced_cover,
                    regular_genus, render_gem, run_script, small_cover_gem,
                    stated_permutation, torus_gem, DipoleSpec, LabeledGem,
                    NotADipole, ScriptStep)
from gemkit.cli import main

from conftest import make_rng, random_colored_graph, shuffled_copy
from oracles import (brute_force_isomorphic, flood_fill_labels,
                     torus_residue_count)


@contextmanager
def report(number, headline, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None:
            assert dt < budget, f"took {dt:.2f}s, budget {budget}s"
        ok = True
        print(f"criterion {number}: PASS in {dt:.2f}s - {headline}")
    finally:
        if not ok:
            print(f"criterion {number}: FAIL - {headline}")


def build_via_cli(capsys, name):
    code = main(["build", name])
    out = capsys.readouterr().out
    assert code == 0
    return parse_gem(out)


def catalogue(s2xs1, t3, g1p, g2p, cover1, reduced1, torus3, torus4):
    return {
        "order2x4": order_two_gem(4).graph,
        "order2x5": order_two_gem(5).graph,
        "s2xs1": s2xs1.graph,
        "t3": t3.graph,
        "g1prime": g1p.graph,
        "g2prime": g2p.graph,
        "cover1": cover1.graph,
        "reduced1": reduced1.graph,
        "torus3": torus3.graph,
        "torus4": torus4.graph,
    }


def test_criterion_1_forty_vertex_reduction(capsys):
    with report(1, "40-vertex gem: g-vector and regular genus 6", budget=1.0):
        gem = build_via_cli(capsys, "g1prime")
        g = gem.graph
        assert g.num_vertices == 40
        tens = {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
        for i in range(5):
            for j in range(i + 1, 5):
                expected = 10 if (i, j) in tens else 8
                assert g.residue_count((i, j)) == expected
        reports = all_genus_reports(g)
        assert len(reports) == 12
        best = min(reports, key=lambda r: (r.genus, r.permutation))
        assert best.genus == 6
        assert best.permutation == (0, 2, 4, 1, 3)


def test_criterion_2_hundred_twenty_vertex_reduction(capsys):
    with report(2, "120-vertex gem: 4-cycle pairs and regular genus 16",
                budget=5.0):
        gem = build_via_cli(capsys, "g2prime")
        g = gem.graph
        assert g.num_vertices == 120
        for pair in ((0, 2), (2, 4), (1, 4), (1, 3), (0, 3)):
            assert g.residue_count(pair) == 30
            assert bicolored_cycles(g, *pair) == [4] * 30
        assert genus_for(g, (0, 2, 4, 1, 3)).genus == 16
        assert regular_genus(g).genus == 16


def test_criterion_3_characteristic_function_enumeration():
    with report(3, "exactly 7 pairwise inequivalent cover assignments",
                budget=1.0):
        lams = enumerate_characteristic_functions()
        assert len(lams) == 7
        assert {lam[4] for lam in lams} == {3, 15, 7, 11}
        assert {lam[5] for lam in lams} == {12, 15, 13, 14}
        for a in range(7):
            for b in range(a + 1, 7):
                assert not dj_equivalent(lams[a], lams[b])


def test_criterion_4_covers_reduce_to_genus_eight():
    with report(4, "seven covers: censuses, 52-vertex reduction, genus 8",
                budget=10.0):
        for i in range(1, 8):
            gem = small_cover_gem(i)
            g96 = gem.graph
            assert g96.num_vertices == 96
            counts = tuple(
                g96.residue_count(tuple(c for c in range(5) if c != j))
                for j in range(5))
            assert counts == (1, 2, 3, 2, 1)
            for pair in ((0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)):
                assert bicolored_cycles(g96, *pair) == [4] * 24
            assert g96.euler_characteristic() == 1
            assert not g96.is_bipartite()
            result = reduced_cover(i)
            assert result.trace == (96, 88, 80, 64, 52)
            g52 = result.gem.graph
            assert genus_for(g52, (0, 3, 2, 1, 4)).genus == 8
            assert regular_genus(g52).genus == 8
            assert g52.euler_characteristic() == 1
            assert not g52.is_bipartite()
            assert is_weak_semi_simple(g52, (0, 3, 2, 1, 4), 2)


def test_criterion_5_cover_isomorphism_classes():
    with report(5, "reduced covers pair up into 4 signature classes",
                budget=10.0):
        reduced = {i: reduced_cover(i).gem.graph for i in range(1, 8)}
        for a, b in ((2, 5), (3, 6), (4, 7)):
            assert isomorphic(reduced[a], reduced[b]) is not None
        assert classify_covers() == ((1,), (2, 5), (3, 6), (4, 7))
        assert len({canonical_signature(g) for g in reduced.values()}) == 4


def test_criterion_6_torus_family(g2p):
    with report(6, "permutation gems match the catalogue and the formula",
                budget=10.0):
        t4 = torus_gem(4)
        assert isomorphic(t4.graph, g2p.graph,
                          allow_color_perm=True) is not None
        t5 = torus_gem(5)
        g = t5.graph
        assert g.num_vertices == 720
        for i in range(6):
            for j in range(i + 1, 6):
                assert set(bicolored_cycles(g, i, j)) <= {4, 6}
        assert stated_permutation(5) == (0, 2, 4, 1, 5, 3)
        assert genus_for(g, (0, 2, 4, 1, 5, 3)).genus == 181
        assert 181 == 1 + 720 * 2 // 8


def test_criterion_7_base_crystallizations(s2xs1, t3):
    with report(7, "base gems: genus 1 and 3, product vertex counts",
                budget=1.0):
        assert regular_genus(s2xs1.graph).genus == 1
        assert regular_genus(t3.graph).genus == 3
        for pair in ((2, 3), (1, 2), (0, 1), (0, 3)):
            assert bicolored_cycles(t3.graph, *pair) == [6] * 4
        for pair in ((0, 2), (1, 3)):
            assert bicolored_cycles(t3.graph, *pair) == [4] * 6
        assert product_gem(s2xs1).graph.num_vertices == 64
        assert product_gem(t3).graph.num_vertices == 192


def test_criterion_8_property_suites(s2xs1, t3, g1p, g2p, cover1, reduced1,
                                     torus3, torus4):
    with report(8, "randomized move, component, and signature properties"):
        graphs = catalogue(s2xs1, t3, g1p, g2p, cover1, reduced1,
                           torus3, torus4)
        rng = make_rng(20260825)

        # dipole insertions preserve chi, bipartiteness, contractedness
        for name, g in graphs.items():
            chi = g.euler_characteristic()
            bip = g.is_bipartite()
            contracted = g.is_contracted()
            for _ in range(200):
                at = rng.randrange(g.num_vertices)
                h = rng.randint(1, g.n_colors - 1)
                colors = frozenset(rng.sample(range(g.n_colors), h))
                grown = add_dipole(g, at, colors).graph
                assert grown.euler_characteristic() == chi, name
                assert grown.is_bipartite() == bip, name
                if 2 <= h <= g.n_colors - 2:
                    assert grown.is_contracted() == contracted, name

        # add-then-cancel returns an isomorphic graph
        for name, g in graphs.items():
            for _ in range(25):
                at = rng.randrange(g.num_vertices)
                h = rng.randint(1, g.n_colors - 1)
                colors = frozenset(rng.sample(range(g.n_colors), h))
                grown = add_dipole(g, at, colors)
                back = cancel_dipole(grown.graph,
                                     DipoleSpec(*grown.added, colors))
                assert isomorphic(back.graph, g) is not None, name

        # component counts vs flood fill on everything at most 200 vertices
        for name, g in graphs.items():
            assert g.num_vertices <= 200
            subsets = [(c,) for c in range(g.n_colors)]
            subsets += [(i, j) for i in range(g.n_colors)
                        for j in range(i + 1, g.n_colors)]
            subsets.append(tuple(range(g.n_colors)))
            for _ in range(3):
                k = rng.randint(1, g.n_colors)
                subsets.append(tuple(rng.sample(range(g.n_colors), k)))
            for colors in subsets:
                assert g.components(colors).labels \
                    == flood_fill_labels(g, colors), (name, colors)

        # isomorphism search vs brute force on small random graphs
        for _ in range(20):
            v = rng.choice((4, 6, 8, 10))
            k = rng.choice((3, 4))
            g = random_colored_graph(rng, v, k)
            h, _ = shuffled_copy(rng, g)
            assert (isomorphic(g, h) is not None) \
                == brute_force_isomorphic(g, h)
            other = random_colored_graph(rng, v, k)
            assert (isomorphic(g, other) is not None) \
                == brute_force_isomorphic(g, other)

        # signature equality coincides with isomorphism
        sigs = {name: canonical_signature(g) for name, g in graphs.items()}
        names = sorted(graphs)
        for a in names:
            for b in names:
                if a >= b or graphs[a].n_colors != graphs[b].n_colors:
                    continue
                assert (sigs[a] == sigs[b]) \
                    == (isomorphic(graphs[a], graphs[b]) is not None), (a, b)
        for name, g in graphs.items():
            rounds = 50 if g.num_vertices <= 64 else 12
            for _ in range(rounds):
                h, _ = shuffled_copy(rng, g)
                assert canonical_signature(h) == sigs[name], name


def test_criterion_9_lower_bound_is_attained(g1p, g2p, reduced1):
    with report(9, "lower bound arithmetic equals each constructed genus"):
        assert genus_lower_bound(0, 2) == 6 == regular_genus(g1p.graph).genus
        assert genus_lower_bound(0, 4) == 16 == regular_genus(g2p.graph).genus
        assert genus_lower_bound(1, 2) == 8 \
            == regular_genus(reduced1.graph).genus


def test_criterion_10_six_torus_isomorphism():
    g = torus_gem(6).graph
    h, _ = shuffled_copy(make_rng(10), g)
    with report(10, "iso of the 6-torus gem and a shuffled copy",
                budget=5.0):
        vmap, cmap = isomorphic(g, h)
        assert cmap == tuple(range(7))
        for c in range(7):
            for v in range(g.num_vertices):
                assert vmap[g.partner(v, c)] == h.partner(vmap[v], c)


def test_criterion_11_six_torus_canonical_form():
    g = torus_gem(6).graph
    h, _ = shuffled_copy(make_rng(11), g)
    with report(11, "canon of the 6-torus gem is relabelling-invariant",
                budget=5.0):
        assert canonical_signature(g) == canonical_signature(h)


def test_criterion_12_five_torus_color_permuted_canonical_form():
    g = torus_gem(5).graph
    h, _ = shuffled_copy(make_rng(12), g)
    h = h.permute_colors((5, 3, 1, 0, 2, 4))
    with report(12, "canon --color-perm of the 5-torus gem", budget=10.0):
        assert canonical_signature(g, allow_color_perm=True) \
            == canonical_signature(h, allow_color_perm=True)


def test_criterion_13_six_torus_dipole_script():
    base = torus_gem(6)
    rng = make_rng(13)
    graph = base.graph
    steps = []
    orders = [1 + d % 6 for d in range(150)]  # every order equally often
    rng.shuffle(orders)
    with report(13, "150 dipole insertions into the 6-torus gem", budget=2.0):
        for d, order in enumerate(orders):
            colors = tuple(sorted(rng.sample(range(7), order)))
            r = add_dipole(graph, rng.randrange(graph.num_vertices), colors)
            graph = r.graph
            steps.append(ScriptStep("dipole", colors,
                                    ((f"d{d}a", f"d{d}b"),), 150 - d))
    labels = list(base.labels)
    for d in range(150):
        labels += [f"d{d}a", f"d{d}b"]
    grown = LabeledGem(graph, labels)
    with report(13, "150-dipole cancel script on the 6-torus gem",
                budget=2.0):
        result = run_script(grown, steps[::-1])
        assert result.trace == tuple(range(5340, 5038, -2))
        assert result.gem.graph == base.graph
        assert result.gem.labels == base.labels


def test_criterion_14_seven_torus_file_round_trip():
    t7 = torus_gem(7)
    with report(14, "the 7-torus gem (40320 vertices) through render and parse",
                budget=3.0):
        text = render_gem(t7)
        again = parse_gem(text)
        assert again.graph == t7.graph
        assert again.labels == t7.labels
        assert render_gem(again) == text


def test_criterion_15_seven_torus_face_counts():
    g = torus_gem(7).graph
    want = tuple(sum(torus_residue_count(7, kept)
                     for kept in combinations(range(8), 7 - h))
                 for h in range(8))
    with report(15, "face counts and chi of the 7-torus gem (40320 vertices)",
                budget=6.0):
        assert g.euler_characteristic() == 0
        assert g.face_counts() == want


def test_criterion_16_seven_torus_build():
    with report(16, "build and render the 7-torus gem (40320 vertices)",
                budget=1.5):
        t7 = torus_gem(7)
        text = render_gem(t7)
        assert t7.graph.num_vertices == 40320
        assert t7.graph.n_colors == 8
        assert text.startswith("gem 1\ncolors 8\nvertices 40320\n")


def test_criterion_17_six_torus_color_permuted_canonical_form():
    g = torus_gem(6).graph
    h, _ = shuffled_copy(make_rng(17), g)
    h = h.permute_colors((4, 6, 1, 0, 5, 2, 3))
    with report(17, "canon --color-perm of the 6-torus gem (5040 maps)",
                budget=10.0):
        assert canonical_signature(g, allow_color_perm=True) \
            == canonical_signature(h, allow_color_perm=True)


def traced_peak_mb(call):
    """call()'s result and the peak of its Python allocations in MB
    (tracemalloc), above what was traced when it started."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


# Peaks on Python 3.11: 10.4 MB to parse the relabelled t7 with its edge
# lines checked by a verdict that does not backtrack (12.4 MB with a regex
# that does, BENCH_19.json; 10.8 MB on 3.10, 10.1 MB on 3.12), 5.7 MB to
# render t7 with its label lines as one string (10.7 MB with one string per
# line), and 13.3 MB to build t7 with one int object per id.  The gates
# leave about 20% for other interpreters (3.10, 3.12).
PARSE_T7_PEAK_MB = 12.5
RENDER_T7_PEAK_MB = 7.0
BUILD_T7_PEAK_MB = 16.0


def test_criterion_18_seven_torus_parse_memory():
    t7 = torus_gem(7)
    perm = list(range(t7.graph.num_vertices))
    make_rng(18).shuffle(perm)
    names = [None] * len(perm)
    for v, name in enumerate(t7.labels):
        names[perm[v]] = name
    text = render_gem(LabeledGem(t7.graph.relabel(perm), names))
    del t7
    with report(18, "parse and render the relabelled 7-torus gem within "
                "their memory gates", budget=10.0):
        gem, peak = traced_peak_mb(lambda: parse_gem(text))
        assert peak < PARSE_T7_PEAK_MB, f"parse peak {peak:.1f} MB"
        again, peak = traced_peak_mb(lambda: render_gem(gem))
        assert again == text
        assert peak < RENDER_T7_PEAK_MB, f"render peak {peak:.1f} MB"


def test_criterion_19_seven_torus_build_memory():
    with report(19, "build the 7-torus gem within its memory gate", budget=10.0):
        t7, peak = traced_peak_mb(lambda: torus_gem(7))
        assert t7.graph.num_vertices == 40320
        assert peak < BUILD_T7_PEAK_MB, f"peak {peak:.1f} MB"


def test_criterion_20_six_torus_dipole_search():
    t6 = torus_gem(6).graph
    rng = make_rng(20)
    grown = t6
    inserted = []
    for d in range(150):
        colors = frozenset(rng.sample(range(7), 1 + d % 6))
        r = add_dipole(grown, rng.randrange(grown.num_vertices), colors)
        grown = r.graph
        inserted.append(DipoleSpec(*r.added, colors))
    with report(20, "find_dipoles on the 6-torus gem, bare and grown by 150 "
                "dipoles", budget=1.5):
        assert find_dipoles(t6) == []
        found = find_dipoles(grown)
    for spec in found:
        check_dipole(grown, spec)
    listed = set(found)
    for spec in inserted:
        try:
            check_dipole(grown, spec)
        except NotADipole:
            continue
        assert spec in listed
