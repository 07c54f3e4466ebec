"""Move calculus: dipoles, polyhedral glue, the combined move, scripts."""

from enum import IntEnum

import pytest

import gemkit.small_covers
from gemkit import (ColoredGraph, CombinedSpec, DipoleSpec, GemError,
                    GlueSpec, LabeledGem, MissingIColoredMatching, MoveError,
                    NotADipole, ParseError, PhiNotIsomorphism,
                    PreconditionFailed, ResultInvalid, SameComponentInIHat,
                    ScriptStep, UnwritableLabel, add_dipole, cancel_dipole,
                    check_dipole, combined_move, find_dipoles, g1_prime,
                    g2_prime, isomorphic, new_graph, parse_move_script,
                    polyhedral_glue, product_gem, reduced_cover,
                    render_move_script, run_script, run_script_text,
                    s2xs1_standard, t3_standard, torus_gem)
from gemkit.constructions import _data_text
from gemkit.moves import _meet

from conftest import fuzz_moves, make_rng, random_colored_graph, shuffled_copy
from oracles import (combined_clauses, combined_move_factored,
                     copying_add_dipole, glue_sides_meet, stepwise_cancel_dipole,
                     stepwise_check_dipole, stepwise_combined_move,
                     stepwise_find_dipoles,
                     stepwise_polyhedral_glue, stepwise_run_script)


def hexagon():
    # 2-colored 6-cycle
    return new_graph(2, [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)]])


def square():
    return new_graph(2, [[(0, 1), (2, 3)], [(1, 2), (3, 0)]])


def projective_plane():
    # 3 colors on 4 vertices, every bicolored pair one 4-cycle
    return new_graph(3, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]])


def bridged_squares():
    # two squares joined vertexwise by a third color
    return new_graph(3, [[(0, 1), (2, 3), (4, 5), (6, 7)],
                         [(1, 2), (3, 0), (5, 6), (7, 4)],
                         [(0, 4), (1, 5), (2, 6), (3, 7)]])


class TestDipoles:
    def test_hexagon_chain(self):
        g = hexagon()
        spec = DipoleSpec(0, 1, frozenset((0,)))
        check_dipole(g, spec)
        r = cancel_dipole(g, spec)
        assert r.graph.num_vertices == 4
        assert r.vertex_map[0] == -1 and r.vertex_map[1] == -1
        assert isomorphic(r.graph, square()) is not None
        # the square still has cancellable 1-dipoles, the double edge has none
        r2 = cancel_dipole(r.graph, find_dipoles(r.graph)[0])
        assert r2.graph.num_vertices == 2
        assert find_dipoles(r2.graph) == []

    def test_find_dipoles_orders(self, s2xs1):
        g = s2xs1.graph
        for spec in find_dipoles(g):
            check_dipole(g, spec)
        grown = add_dipole(g, 3, (1, 2)).graph
        added = [s for s in find_dipoles(grown, order=2)
                 if {s.v1, s.v2} == {8, 9}]
        assert added == [DipoleSpec(8, 9, frozenset((1, 2)))]

    def test_not_adjacent_rejected(self):
        with pytest.raises(NotADipole):
            check_dipole(square(), DipoleSpec(0, 2, frozenset((0,))))

    def test_wrong_colors_rejected(self):
        with pytest.raises(NotADipole):
            check_dipole(square(), DipoleSpec(0, 1, frozenset((1,))))

    def test_same_vertex_rejected(self):
        with pytest.raises(NotADipole) as err:
            check_dipole(square(), DipoleSpec(1, 1, frozenset((0,))))
        assert str(err.value) == "the two dipole vertices coincide"

    def test_shared_residue_rejected(self):
        # deleting color 0 leaves the other two colors connecting 0 to 1
        with pytest.raises(NotADipole):
            check_dipole(projective_plane(), DipoleSpec(0, 1, frozenset((0,))))

    def test_full_color_set_rejected(self):
        g = new_graph(2, [[(0, 1)], [(0, 1)]])
        with pytest.raises(NotADipole):
            check_dipole(g, DipoleSpec(0, 1, frozenset((0, 1))))

    def test_add_then_cancel_round_trip(self, s2xs1):
        rng = make_rng(7)
        g = s2xs1.graph
        for _ in range(20):
            at = rng.randrange(g.num_vertices)
            h = rng.randint(1, g.n_colors - 1)
            colors = frozenset(rng.sample(range(g.n_colors), h))
            r = add_dipole(g, at, colors)
            assert r.added == (g.num_vertices, g.num_vertices + 1)
            assert r.graph.euler_characteristic() == g.euler_characteristic()
            assert r.graph.is_bipartite() == g.is_bipartite()
            back = cancel_dipole(r.graph, DipoleSpec(*r.added, colors))
            assert isomorphic(back.graph, g) is not None

    def test_vertex_out_of_range_rejected(self):
        g = hexagon()
        for v in (6, -1):
            with pytest.raises(MoveError):
                cancel_dipole(g, DipoleSpec(0, v, frozenset((0,))))
            with pytest.raises(MoveError):
                polyhedral_glue(g, GlueSpec(0, (0,), (v,)))
            with pytest.raises(MoveError):
                combined_move(projective_plane(),
                              CombinedSpec(0, 1, 2, (0, 1), (2, v)))

    def test_add_dipole_errors(self, s2xs1):
        g = s2xs1.graph
        with pytest.raises(NotADipole):
            add_dipole(g, 0, (0, 1, 2, 3))
        with pytest.raises(MoveError):
            add_dipole(g, 99, (0,))
        # the same refusals, word for word, as copying_add_dipole
        for at, colors in ((0, (0, 1, 2, 3)), (0, ()), (0, (4,)), (0, (-1,)),
                           (0, (0, 9)), (99, (0, 1, 2, 3)), (99, (0,)),
                           (8, (1, 2)), (-1, (3,))):
            want = outcome(copying_add_dipole, g, at, colors)
            got = outcome(add_dipole, g, at, colors)
            assert isinstance(want, GemError)
            assert type(got) is type(want)
            assert str(got) == str(want)

    def test_find_dipoles_refuses_bad_orders(self, s2xs1):
        grown = add_dipole(s2xs1.graph, 3, (1, 2)).graph
        assert len(find_dipoles(grown, order=2)) == 3
        for order in ("2", 9, -1, 0, 4, 2.5):
            with pytest.raises(NotADipole) as err:
                find_dipoles(grown, order)
            assert str(err.value) == ("a dipole involves between 1 and 3 "
                                      f"colors, got order {order!r}")
        # anything equal to an order in range lists that order, as before
        for order, same in ((True, 1), (2.0, 2), (IntEnum("E", "A B")["B"], 2)):
            assert find_dipoles(grown, order) == find_dipoles(grown, same)


class TestPolyhedralGlue:
    def test_single_vertex_glue_equals_dipole_cancel(self):
        g = hexagon()
        via_glue = polyhedral_glue(g, GlueSpec(0, (0,), (1,)))
        via_dipole = cancel_dipole(g, DipoleSpec(0, 1, frozenset((0,))))
        assert via_glue.graph == via_dipole.graph
        assert via_glue.vertex_map == via_dipole.vertex_map

    def test_two_vertex_glue_rewires_across(self):
        g = bridged_squares()
        r = polyhedral_glue(g, GlueSpec(2, (0, 1), (4, 5)))
        assert r.graph.num_vertices == 4
        # survivors 2,3,6,7 renumber to 0,1,2,3; color 1 now crosses squares
        expected = new_graph(3, [[(0, 1), (2, 3)],
                                 [(0, 2), (1, 3)],
                                 [(0, 2), (1, 3)]])
        assert r.graph == expected
        assert [r.vertex_map[v] for v in (2, 3, 6, 7)] == [0, 1, 2, 3]

    def test_missing_crossing_edge(self):
        g = bridged_squares()
        with pytest.raises(MissingIColoredMatching):
            polyhedral_glue(g, GlueSpec(2, (0, 1), (5, 4)))

    def test_sides_must_not_overlap(self):
        g = bridged_squares()
        with pytest.raises(SameComponentInIHat):
            polyhedral_glue(g, GlueSpec(2, (0, 1), (0, 4)))

    def test_mirror_violation(self):
        # bottom square rewired so phi no longer matches color 0
        g = new_graph(3, [[(0, 1), (2, 3), (4, 6), (5, 7)],
                          [(1, 2), (3, 0), (5, 6), (7, 4)],
                          [(0, 4), (1, 5), (2, 6), (3, 7)]])
        with pytest.raises(PhiNotIsomorphism):
            polyhedral_glue(g, GlueSpec(2, (0, 1), (4, 5)))

    def test_edge_without_preimage(self):
        # color 0 joins 4-6 below, but 0-2 above is no color-0 edge
        g = new_graph(3, [[(0, 1), (2, 3), (4, 6), (5, 7)],
                          [(1, 2), (3, 0), (5, 6), (7, 4)],
                          [(0, 4), (1, 5), (2, 6), (3, 7)]])
        with pytest.raises(PhiNotIsomorphism) as err:
            polyhedral_glue(g, GlueSpec(2, (0, 2), (4, 6)))
        assert str(err.value) == "color 0: edge 4-6 has no preimage edge"

    def test_sides_must_be_separated_without_i(self):
        with pytest.raises(SameComponentInIHat):
            polyhedral_glue(projective_plane(), GlueSpec(0, (0,), (1,)))

    def test_side_length_mismatch(self):
        g = bridged_squares()
        with pytest.raises(PhiNotIsomorphism):
            polyhedral_glue(g, GlueSpec(2, (0, 1), (4,)))

    def test_repeated_vertex_in_a_side(self):
        g = bridged_squares()
        for lam1, lam2 in (((0, 0), (4, 5)), ((0, 1), (4, 4))):
            with pytest.raises(PhiNotIsomorphism) as err:
                polyhedral_glue(g, GlueSpec(2, lam1, lam2))
            assert str(err.value) == "repeated vertex inside a glue side"


class TestCombinedMove:
    def first_combined_setup(self):
        """Replay the catalogue script up to its first combined move."""
        base = product_gem(s2xs1_standard())
        steps = parse_move_script(_data_text("g1prime.moves"))
        assert steps[3].kind == "combined"
        prepared = run_script(base, steps[:3]).gem
        k, i, j = steps[3].colors
        (l1, l2), (m1, m2) = steps[3].groups
        spec = CombinedSpec(k, i, j,
                            (prepared.vertex(l1), prepared.vertex(l2)),
                            (prepared.vertex(m1), prepared.vertex(m2)))
        return prepared, spec

    def test_one_shot_matches_factored(self):
        prepared, spec = self.first_combined_setup()
        one = combined_move(prepared.graph, spec)
        two = combined_move_factored(prepared.graph, spec,
                                     labels=prepared.labels)
        assert one.graph == two.graph
        assert one.vertex_map == two.vertex_map
        assert one.graph.euler_characteristic() \
            == prepared.graph.euler_characteristic()

    def test_colors_must_be_distinct(self):
        prepared, spec = self.first_combined_setup()
        bad = CombinedSpec(spec.i, spec.i, spec.j, spec.pair, spec.pair_image)
        with pytest.raises(PreconditionFailed) as err:
            combined_move(prepared.graph, bad)
        assert str(err.value) \
            == f"colors k={spec.i}, i={spec.i}, j={spec.j} must be distinct"
        # i = j, where every other clause holds for colors k = 2 and i = 0
        graph = new_graph(3, [[(0, 2), (1, 3), (4, 6), (5, 7)],
                              [(0, 4), (1, 5), (2, 6), (3, 7)],
                              [(0, 1), (2, 3), (4, 5), (6, 7)]])
        bad = CombinedSpec(2, 0, 0, (0, 1), (2, 3))
        assert combined_clauses(graph, bad) == (True, True)
        want = assert_same_move(combined_move, stepwise_combined_move,
                                graph, bad)
        assert isinstance(want, PreconditionFailed)
        assert str(outcome(combined_move, graph, bad)) \
            == "colors k=2, i=0, j=0 must be distinct"

    def test_missing_pair_edge(self):
        prepared, spec = self.first_combined_setup()
        v1, v2 = spec.pair
        bad = CombinedSpec(spec.k, spec.i, spec.j, (v1, v1 ^ 1 if v1 ^ 1 != v2
                                                    else v1 + 2),
                           spec.pair_image)
        with pytest.raises(PreconditionFailed):
            combined_move(prepared.graph, bad)

    def test_missing_double_edge(self):
        prepared, spec = self.first_combined_setup()
        # swap the image pair so the i and j edges no longer line up
        bad = CombinedSpec(spec.k, spec.i, spec.j, spec.pair,
                           (spec.pair_image[1], spec.pair_image[0]))
        with pytest.raises(PreconditionFailed):
            combined_move(prepared.graph, bad)

    @pytest.mark.parametrize("spec, refused", [
        (CombinedSpec(2, 0, 1, (0, 1), (2, 3)),
         "pair clause: vertices 0,1 lack a color-2 edge"),
        (CombinedSpec(2, 0, 1, (2, 3), (0, 1)),
         "pair-image clause: vertices 0,1 lack a color-2 edge"),
    ], ids=["pair", "pair-image"])
    def test_only_the_k_edge_clause_fails(self, spec, refused):
        # 0-2 and 1-3 carry colors 0 and 1: the double-edge clause holds
        # either way round; color 2 joins 2-3 but not 0-1
        graph = new_graph(3, [[(0, 2), (1, 3), (4, 5)],
                              [(0, 2), (1, 3), (4, 5)],
                              [(2, 3), (0, 4), (1, 5)]])
        assert combined_clauses(graph, spec) == (True, True)
        want = assert_same_move(combined_move, stepwise_combined_move,
                                graph, spec)
        assert isinstance(want, PreconditionFailed)
        assert str(outcome(combined_move, graph, spec)) == refused


class TestScripts:
    GOOD = """\
# fold the bridged squares onto themselves
glue 2 [a,b] -> [e,f]
"""

    def bridged_gem(self):
        return LabeledGem(bridged_squares(),
                          ["a", "b", "c", "d", "e", "f", "g", "h"])

    def test_parse_and_run(self):
        gem = self.bridged_gem()
        result = run_script_text(gem, self.GOOD)
        assert result.trace == (8, 4)
        assert sorted(result.gem.labels) == ["c", "d", "g", "h"]

    def test_parse_kinds_and_comments(self):
        text = ("# comment line\n"
                "dipole x y 0,2\n"
                "glue 1 [p,q] -> [r,s]  # trailing comment\n"
                "combined 3 {0,1} (a,b) (c,d)\n")
        steps = parse_move_script(text)
        assert [s.kind for s in steps] == ["dipole", "glue", "combined"]
        assert steps[0].colors == (0, 2)
        assert steps[0].groups == (("x", "y"),)
        assert steps[1].colors == (1,)
        assert steps[1].groups == (("p", "q"), ("r", "s"))
        assert steps[2].colors == (3, 0, 1)
        assert steps[2].groups == (("a", "b"), ("c", "d"))
        assert [s.line for s in steps] == [2, 3, 4]

    def test_render_round_trip(self):
        steps = parse_move_script(self.GOOD)
        again = parse_move_script(render_move_script(steps))
        assert [(s.kind, s.colors, s.groups) for s in steps] \
            == [(s.kind, s.colors, s.groups) for s in again]
        for name in ("g1prime.moves", "g2prime.moves"):
            steps = parse_move_script(_data_text(name))
            again = parse_move_script(render_move_script(steps))
            assert [(s.kind, s.colors, s.groups) for s in steps] \
                == [(s.kind, s.colors, s.groups) for s in again]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_move_script("glue 1 [a] -> [b]\nfrobnicate c d\n")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_move_script("dipole a b\n")
        with pytest.raises(ParseError):
            parse_move_script("glue 1 [a,b] -> [c]\n")

    @pytest.mark.parametrize("text, message", [
        ("dipole a b 0,x\n", "line 1, column 12: bad color list '0,x'"),
        ("glue 1 a -> b\n",
         "line 1, column 1: expected: glue <i> [u1,u2,...] -> [w1,w2,...]"),
        ("combined 3 0,1 (a,b) (c,d)\n",
         "line 1, column 1: expected: combined <k> {i,j} (v1,v2) (v1p,v2p)"),
        ("glue 1 [a,] -> [b,c]\n",
         "line 1, column 1: empty vertex label in list"),
        ("combined 3 {0,1} (a) (c,d)\n",
         "line 1, column 1: combined move pairs must list 2 vertices"),
        ("combined 3 {0,1} (a,b) (c,d,e)\n",
         "line 1, column 1: combined move pairs must list 2 vertices"),
        # colors are decimal digits, as in a .gem file: int() would read these
        ("dipole a b 1_0\n", "line 1, column 12: bad color list '1_0'"),
        ("dipole a b +1\n", "line 1, column 12: bad color list '+1'"),
        ("dipole a b -1,2\n", "line 1, column 12: bad color list '-1,2'"),
        # the column is the color list's, not the label's with the same text
        ("dipole 1,x v 1,x\n", "line 1, column 14: bad color list '1,x'"),
    ], ids=["bad-colors", "glue-line", "combined-line", "empty-label",
            "short-pair", "long-image", "underscore", "plus", "minus",
            "label-like-colors"])
    def test_parse_refusals(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_move_script(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, column", [
        ("dipole a b 0,{long}\n", 12),
        ("glue {long} [a] -> [b]\n", 6),
        ("combined {long} {{0,1}} (a,b) (c,d)\n", 10),
        ("combined 3 {{{long},1}} (a,b) (c,d)\n", 12),
        ("combined 3 {{0 , {long}}} (a,b) (c,d)\n", 17),
    ], ids=["dipole", "glue", "combined-k", "combined-i", "combined-j"])
    def test_number_too_long_for_int_is_a_parse_error(
            self, int_digit_limit, text, column):
        text = "# one step\n" + text.format(long="7" * (int_digit_limit + 1))
        with pytest.raises(ParseError) as err:
            parse_move_script(text)
        assert (err.value.line, err.value.column) == (2, column)
        assert f"{int_digit_limit + 1}-digit number is too long" in str(err.value)

    def test_render_every_kind(self):
        text = ("dipole x y 0,2\n"
                "glue 1 [p,q] -> [r,s]\n"
                "combined 3 {0,1} (a,b) (c,d)\n")
        assert render_move_script(parse_move_script(text)) == text
        with pytest.raises(MoveError):
            render_move_script([ScriptStep("twist", (0,), (("a",),))])

    def test_glue_label_with_a_comma_refused(self):
        # written as "glue 0 [a,b] -> [c,d]", it read back as a glue of two
        # vertices, a onto c and b onto d
        assert parse_move_script("glue 0 [a,b] -> [c,d]\n")[0].groups \
            == (("a", "b"), ("c", "d"))
        good = parse_move_script(self.GOOD)
        step = ScriptStep("glue", (0,), (("a,b",), ("c,d",)), 7)
        with pytest.raises(UnwritableLabel) as err:
            render_move_script(good + [step])
        assert str(err.value) == ("step 2 (line 7): label 'a,b' does not read "
                                  "back from a glue line")

    @pytest.mark.parametrize("step, label", [
        (ScriptStep("glue", (1,), (("p", "q]"), ("r", "s"))), "q]"),
        (ScriptStep("combined", (3, 0, 1), (("a", "b"), ("c)", "d"))), "c)"),
        (ScriptStep("dipole", (0,), (("x", "y z"),)), "y z"),
        (ScriptStep("dipole", (0,), (("x#", "y"),)), "x#"),
    ], ids=["glue-bracket", "combined-paren", "dipole-space", "dipole-hash"])
    def test_label_that_breaks_the_line_refused(self, step, label):
        with pytest.raises(UnwritableLabel) as err:
            render_move_script([step])
        assert str(err.value) == (f"step 1 (line 0): label {label!r} does not "
                                  f"read back from a {step.kind} line")

    def test_dipole_label_with_a_comma_renders(self):
        step = ScriptStep("dipole", (2, 0), (("a,b", "c"),))
        text = render_move_script([step])
        assert text == "dipole a,b c 2,0\n"
        assert parse_move_script(text)[0].groups == (("a,b", "c"),)

    def test_color_that_does_not_read_back_refused(self):
        step = ScriptStep("glue", (-1,), (("a",), ("b",)), 2)
        with pytest.raises(MoveError) as err:
            render_move_script([step])
        assert str(err.value) == "step 1 (line 2): colors (-1,) do not read back"

    def test_dipole_color_that_does_not_read_back_refused(self):
        # "dipole a b -1" is a bad color list, as "glue -1 ..." is a bad line
        with pytest.raises(MoveError) as err:
            render_move_script([ScriptStep("dipole", (-1,), (("a", "b"),))])
        assert str(err.value) == "step 1 (line 0): colors (-1,) do not read back"

    def test_seeded_labels_refused_or_read_back(self):
        rng = make_rng("script labels")
        alphabet = ",[]()# ab"

        def label():
            return "".join(rng.choices(alphabet, k=rng.randint(0, 3)))

        verdicts = set()
        for _ in range(900):
            kind = rng.choice(("dipole", "glue", "combined"))
            if kind == "dipole":
                colors = tuple(rng.sample(range(5), rng.randint(1, 4)))
                groups = ((label(), label()),)
            elif kind == "glue":
                size = rng.randint(1, 3)
                colors = (rng.randrange(5),)
                groups = tuple(tuple(label() for _ in range(size))
                               for _ in range(2))
            else:
                colors = tuple(rng.sample(range(5), 3))
                groups = ((label(), label()), (label(), label()))
            step = ScriptStep(kind, colors, groups)
            try:
                text = render_move_script([step])
            except UnwritableLabel as exc:
                named = [l for group in groups for l in group
                         if str(exc) == f"step 1 (line 0): label {l!r} does "
                                        f"not read back from a {kind} line"]
                assert named, (step, str(exc))
                verdicts.add((kind, "refused"))
                continue
            back, = parse_move_script(text)
            assert (back.kind, set(back.colors), back.groups) \
                == (kind, set(colors), groups), (step, text)
            verdicts.add((kind, "written"))
        # every kind reaches both verdicts
        assert len(verdicts) == 6

    def test_unknown_step_kind_refused(self):
        step = ScriptStep("twist", (0,), (("a",),), 4)
        with pytest.raises(MoveError) as err:
            run_script(self.bridged_gem(), [step])
        assert str(err.value) == "step 1 (line 4): unknown step kind 'twist'"

    @pytest.mark.parametrize("step, words", [
        (ScriptStep("combined", (0, 1), (("a", "b"), ("e", "f")), 3),
         "a combined step takes three colors and two pairs of labels"),
        (ScriptStep("combined", (2, 0, 1), (("a", "b", "c"), ("e", "f")), 3),
         "a combined step takes three colors and two pairs of labels"),
        (ScriptStep("dipole", (0,), (("a", "b", "c"),), 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("dipole", (0,), (("a", "b"), ("c", "d")), 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("glue", (), (("a", "b"), ("e", "f")), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("glue", (2,), (("a", "b"),), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("dipole", ("0",), (("a", "b"),), 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("dipole", (0,), (("a", 1),), 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("glue", (2.0,), (("a",), ("e",)), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("glue", (0,), ((1,), (2,)), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("combined", (2, 0, 1), (("a", "b"), ("e", 5)), 3),
         "a combined step takes three colors and two pairs of labels"),
        (ScriptStep("glue", (2,), (1, 2), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("glue", 2, (("a",), ("d",)), 3),
         "a glue step takes one color and two label lists"),
        (ScriptStep("dipole", (0,), 5, 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("dipole", (0,), ("ab",), 3),
         "a dipole step takes one pair of labels"),
        (ScriptStep("combined", (2, 0, 1), ("ab", "ef"), 3),
         "a combined step takes three colors and two pairs of labels"),
    ], ids=["combined-two-colors", "combined-long-pair", "dipole-three-labels",
            "dipole-two-pairs", "glue-no-color", "glue-one-side",
            "dipole-str-color", "dipole-int-label", "glue-float-color",
            "glue-int-labels", "combined-int-label", "glue-int-groups",
            "glue-int-colors", "dipole-int-groups", "dipole-str-group",
            "combined-str-groups"])
    def test_misshapen_step_refused(self, step, words):
        good = parse_move_script(self.GOOD)
        for call in (lambda: run_script(self.bridged_gem(), good + [step]),
                     lambda: render_move_script(good + [step])):
            with pytest.raises(MoveError) as err:
                call()
            assert str(err.value).startswith(f"step 2 (line 3): {words}, got")

    @pytest.mark.parametrize("color, sides", [
        (IntEnum("Color", [("TWO", 2)]).TWO, (("a", "b"), ("e", "f"))),
        (True, (("a",), ("d",))),
    ], ids=["IntEnum", "bool"])
    def test_int_subclass_colors_run_as_ints(self, color, sides):
        gem = self.bridged_gem()
        got = run_script(gem, [ScriptStep("glue", (color,), sides)])
        want = run_script(gem, [ScriptStep("glue", (int(color),), sides)])
        assert (got.trace, got.gem.graph, got.gem.labels) \
            == (want.trace, want.gem.graph, want.gem.labels)
        assert got.trace[-1] < got.trace[0]

    def test_run_errors_name_step_and_line(self):
        gem = self.bridged_gem()
        bad = "glue 2 [a,b] -> [e,f]\n\nglue 2 [a,b] -> [e,f]\n"
        with pytest.raises(MoveError) as err:
            run_script_text(gem, bad)
        assert str(err.value).startswith("step 2 (line 3):")

    def test_unknown_label_rejected(self):
        gem = self.bridged_gem()
        with pytest.raises(MoveError) as err:
            run_script_text(gem, "glue 2 [zz,b] -> [e,f]\n")
        assert "zz" in str(err.value)

    def test_removed_label_rejected(self):
        # a label of the input gem whose vertex an earlier step removed
        gem = self.bridged_gem()
        with pytest.raises(MoveError) as err:
            run_script_text(gem, self.GOOD + "glue 2 [c,a] -> [g,e]\n")
        assert str(err.value) == "step 2 (line 3): unknown vertex label 'a'"

    def test_labels_survive_moves(self):
        gem = self.bridged_gem()
        result = run_script_text(gem, self.GOOD)
        g = result.gem
        # c and g were joined by color 2 before, still are after
        assert g.graph.partner(g.vertex("c"), 2) == g.vertex("g")


# -- the in-place workspace against the per-step oracle ----------------------------


def outcome(fn, *args):
    try:
        return fn(*args)
    except GemError as exc:
        return exc


def assert_same_script(gem, steps):
    """run_script agrees with the per-step oracle; returns the oracle's outcome.

    A success must give the same trace, graph and labels; a failure the
    same error class at the same "step N (line L)".
    """
    fast = outcome(run_script, gem, steps)
    slow = outcome(stepwise_run_script, gem, steps)
    if isinstance(slow, GemError):
        assert type(fast) is type(slow), (fast, slow)
        assert str(slow).startswith("step ")
        assert str(fast).split(":")[0] == str(slow).split(":")[0]
    else:
        assert not isinstance(fast, GemError), fast
        assert fast.trace == slow.trace
        assert fast.gem.graph == slow.gem.graph
        assert fast.gem.labels == slow.gem.labels
    return slow


def assert_same_move(fast, slow, graph, spec):
    """A single move agrees with the oracle: result and vertex_map, or error class."""
    want = outcome(slow, graph, spec)
    got = outcome(fast, graph, spec)
    if isinstance(want, GemError):
        assert type(got) is type(want), (got, want)
    else:
        assert not isinstance(got, GemError), got
        assert got == want
    return want


def labeled(graph, rng):
    names = [f"v{v}" for v in range(graph.num_vertices)]
    rng.shuffle(names)
    return LabeledGem(graph, names)


def shuffled_gem(rng, gem):
    graph, perm = shuffled_copy(rng, gem.graph)
    labels = [None] * graph.num_vertices
    for v, new in enumerate(perm):
        labels[new] = gem.labels[v]
    return LabeledGem(graph, labels)


def grow(rng, graph, count):
    """Insert `count` seeded dipoles; return the graph and the cancel script."""
    inserted = []
    for _ in range(count):
        colors = rng.sample(range(graph.n_colors),
                            rng.randint(1, graph.n_colors - 1))
        r = add_dipole(graph, rng.randrange(graph.num_vertices), colors)
        graph = r.graph
        inserted.append((r.added, tuple(sorted(colors))))
    return graph, inserted


def random_step(rng, gem, line):
    """A move on live labels that is often, but not always, legal."""
    g = gem.graph
    k = g.n_colors
    v1 = rng.randrange(g.num_vertices)
    name = gem.labels
    roll = rng.random()
    if roll < 0.5 or k < 3:
        v2 = g.partner(v1, rng.randrange(k))
        colors = {c for c in range(k) if g.partner(v1, c) == v2}
        if rng.random() < 0.2:
            colors ^= {rng.randrange(k)}
        return ScriptStep("dipole", tuple(sorted(colors)) or (0,),
                          ((name[v1], name[v2]),), line)
    if roll < 0.8:
        i = rng.randrange(k)
        side = [v1]
        if rng.random() < 0.5:
            u = g.partner(v1, rng.choice([c for c in range(k) if c != i]))
            if u != g.partner(v1, i):
                side.append(u)
        image = [g.partner(v, i) for v in side]
        if rng.random() < 0.2:
            image.reverse()
        return ScriptStep("glue", (i,), (tuple(name[v] for v in side),
                                         tuple(name[v] for v in image)), line)
    kk, i, j = rng.sample(range(k), 3)
    v2 = g.partner(v1, kk)
    pair, image = (v1, v2), (g.partner(v1, i), g.partner(v2, i))
    if rng.random() < 0.2:
        image = image[::-1]
    return ScriptStep("combined", (kk, i, j), (tuple(name[v] for v in pair),
                                               tuple(name[v] for v in image)),
                      line)


def plant_combined(rng, graph):
    """A graph and a CombinedSpec whose edge clauses hold by construction."""
    k = graph.n_colors
    kk, i, j = rng.sample(range(k), 3)
    v1, v2, v1p, v2p = rng.sample(range(graph.num_vertices), 4)
    invs = [list(col) for col in graph.involutions]

    def join(col, a, b):
        a2, b2 = col[a], col[b]
        if a2 != b:
            col[a], col[b], col[a2], col[b2] = b, a, b2, a2

    for c in (i, j):
        join(invs[c], v1, v1p)
        join(invs[c], v2, v2p)
    join(invs[kk], v1, v2)
    join(invs[kk], v1p, v2p)
    return (type(graph)(invs),
            CombinedSpec(kk, i, j, (v1, v2), (v1p, v2p)))


def plant_glue(rng, k):
    """Two mirrored copies of a random graph, joined vertexwise by color i,
    with a few edges switched across; and a mirrored glue between them."""
    n = 2 * rng.randint(2, 6)
    half = random_colored_graph(rng, n, k - 1).involutions
    i = rng.randrange(k)
    invs = [list(col) + [w + n for w in col] for col in half]
    invs.insert(i, [v + n for v in range(n)] + list(range(n)))
    for _ in range(rng.randint(0, 2)):
        c = rng.choice([c for c in range(k) if c != i])
        a1 = rng.randrange(n)
        a2 = invs[c][a1]
        if a2 >= n:
            continue  # already switched
        invs[c][a1], invs[c][a2 + n] = a2 + n, a1
        invs[c][a1 + n], invs[c][a2] = a2, a1 + n
    side = rng.sample(range(n), rng.randint(2, min(4, n - 1)))
    return (ColoredGraph(invs),
            GlueSpec(i, tuple(side), tuple(v + n for v in side)))


CATALOGUE = {
    "s2xs1": s2xs1_standard, "t3": t3_standard, "g1prime": g1_prime,
    "g2prime": g2_prime, "t4": lambda: torus_gem(4),
    **{f"reduced{i}": (lambda i=i: reduced_cover(i).gem) for i in range(1, 8)}}


class TestWorkspaceAgainstOracle:
    def test_mirrored_glues(self):
        rng = make_rng(66)
        seen = set()
        for trial in range(200):
            graph, spec = plant_glue(rng, 3 + trial % 4)
            want = assert_same_move(polyhedral_glue, stepwise_polyhedral_glue,
                                    graph, spec)
            seen.add(type(want).__name__)
        assert {"MoveResult", "SameComponentInIHat"} <= seen

    def test_grown_random_graphs_cancel_back(self):
        rng = make_rng(60)
        for trial in range(40):
            k = 2 + trial % 5
            base = random_colored_graph(rng, 2 * rng.randint(1, 6), k)
            grown, inserted = grow(rng, base, rng.randint(1, 8))
            gem = labeled(grown, rng)
            steps = [ScriptStep("dipole", colors,
                                ((gem.labels[a], gem.labels[b]),), line)
                     for line, ((a, b), colors)
                     in enumerate(reversed(inserted), start=1)]
            result = assert_same_script(gem, steps)
            assert result.gem.graph == base
            assert result.gem.labels == gem.labels[:base.num_vertices]

    def test_random_scripts_with_failures(self):
        rng = make_rng(61)
        failures = moved = 0
        for trial in range(150):
            k = 2 + trial % 5
            graph, _ = grow(rng, random_colored_graph(rng, 2 * rng.randint(1, 5), k),
                            rng.randint(0, 6))
            gem = current = labeled(graph, rng)
            steps = []
            fail_at = rng.randint(1, 12)  # past 8: a script that succeeds
            for line in range(1, 9):
                for _ in range(20):
                    # labels of the input gem may name removed vertices
                    source = gem if line == fail_at and rng.random() < 0.3 \
                        else current
                    step = random_step(rng, source, line)
                    done = outcome(stepwise_run_script, current, [step])
                    if isinstance(done, GemError) == (line == fail_at):
                        break
                else:
                    break
                steps.append(step)
                if isinstance(done, GemError):
                    break
                current = done.gem
            result = assert_same_script(gem, steps)
            if isinstance(result, GemError):
                failures += 1
            else:
                moved += len(steps)
        assert 25 < failures < 130
        assert moved > 200

    def test_glue_that_removes_everything(self):
        gem = LabeledGem(bridged_squares(), "abcdefgh")
        steps = parse_move_script("glue 2 [a,b,c,d] -> [e,f,g,h]\n")
        assert isinstance(assert_same_script(gem, steps), ResultInvalid)

    @pytest.mark.parametrize("base, script", [
        (s2xs1_standard, "g1prime.moves"), (t3_standard, "g2prime.moves")])
    def test_catalogue_scripts(self, base, script):
        rng = make_rng(62)
        gem = product_gem(base())
        steps = parse_move_script(_data_text(script))
        for copy in (gem, shuffled_gem(rng, gem), shuffled_gem(rng, gem)):
            assert_same_script(copy, steps)
        # a wrong color in one step fails there, and only there
        for at in rng.sample(range(len(steps)), 4):
            s = steps[at]
            bad = ScriptStep(s.kind, ((s.colors[0] + 1) % 5,) + s.colors[1:],
                             s.groups, s.line)
            broken = steps[:at] + [bad] + steps[at + 1:]
            assert isinstance(assert_same_script(gem, broken), GemError)

    def test_small_cover_reductions(self, monkeypatch):
        replays = []

        def both(gem, steps):
            steps = list(steps)
            replays.append(assert_same_script(gem, steps))
            return run_script(gem, steps)

        monkeypatch.setattr(gemkit.small_covers, "run_script", both)
        for index in range(1, 8):
            assert reduced_cover(index).trace == (96, 88, 80, 64, 52)
        assert len(replays) == 7

    def test_single_moves(self):
        rng = make_rng(63)
        for trial in range(120):
            k = 2 + trial % 5
            graph, inserted = grow(
                rng, random_colored_graph(rng, 2 * rng.randint(1, 5), k),
                rng.randint(0, 4))
            for (a, b), colors in inserted:
                for spec in (DipoleSpec(a, b, frozenset(colors)),
                             DipoleSpec(a, graph.partner(a, 0), frozenset((0,)))):
                    assert_same_move(cancel_dipole, stepwise_cancel_dipole,
                                     graph, spec)
            v = rng.randrange(graph.num_vertices)
            i = rng.randrange(k)
            assert_same_move(polyhedral_glue, stepwise_polyhedral_glue, graph,
                             GlueSpec(i, (v,), (graph.partner(v, i),)))
            if k >= 3 and graph.num_vertices >= 4:
                planted, spec = plant_combined(rng, graph)
                assert_same_move(combined_move, stepwise_combined_move,
                                 planted, spec)

    def test_dipole_checks(self):
        rng = make_rng(64)
        for trial in range(80):
            k = 2 + trial % 5
            graph, _ = grow(rng, random_colored_graph(rng, 2 * rng.randint(1, 6), k),
                            rng.randint(0, 3))
            assert find_dipoles(graph) == stepwise_find_dipoles(graph)
            for order in range(1, k):
                assert find_dipoles(graph, order) \
                    == stepwise_find_dipoles(graph, order)
            for v in range(graph.num_vertices):
                for c in range(k):
                    w = graph.partner(v, c)
                    joined = frozenset(
                        d for d in range(k) if graph.partner(v, d) == w)
                    spec = DipoleSpec(v, w, joined)
                    want = outcome(stepwise_check_dipole, graph, spec)
                    got = outcome(check_dipole, graph, spec)
                    assert type(got) is type(want)

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_catalogue_dipole_search(self, name):
        rng = make_rng(67)
        graph = CATALOGUE[name]().graph
        shuffled, _ = shuffled_copy(rng, graph)
        for g in (graph, shuffled, grow(rng, graph, 12)[0],
                  grow(rng, shuffled, 12)[0]):
            for order in (None, *range(1, g.n_colors)):
                assert find_dipoles(g, order) \
                    == stepwise_find_dipoles(g, order)
            for order in (0, g.n_colors):
                with pytest.raises(NotADipole):
                    find_dipoles(g, order)

    def test_residue_clauses(self):
        rng = make_rng(65)
        for trial in range(150):
            k = 2 + trial % 5
            graph = random_colored_graph(rng, 2 * rng.randint(2, 8), k)
            n = graph.num_vertices
            colors = [c for c in range(k) if rng.random() < 0.6]
            side_a = rng.sample(range(n), rng.randint(1, 3))
            side_b = rng.sample(range(n), rng.randint(1, 3))
            comps = graph.components(colors)
            expected = bool({comps.labels[v] for v in side_a}
                            & {comps.labels[v] for v in side_b})
            assert _meet(graph.involutions, colors, side_a, side_b) == expected
            # the glue clause
            i = rng.randrange(k)
            lam1 = [v for v in side_a if v not in side_b]
            if lam1:
                rest = [c for c in range(k) if c != i]
                assert _meet(graph.involutions, rest, lam1, side_b) \
                    == glue_sides_meet(graph, i, lam1, side_b)
            # the combined move's residue and separation clauses
            if k >= 3:
                planted, spec = plant_combined(rng, graph)
                residue, separation = combined_clauses(planted, spec)
                got = str(outcome(combined_move, planted, spec))
                assert got.startswith("residue clause") == (not residue)
                assert got.startswith("separation clause") \
                    == (residue and not separation)


# -- insertion against copying_add_dipole, and the move fuzzer ---------------------


def assert_same_insertions(rng, graph, per_order=3):
    """add_dipole equals copying_add_dipole at seeded vertices for every
    order, and every inserted pair is a dipole."""
    k = graph.n_colors
    for order in range(1, k):
        for _ in range(per_order):
            at = rng.randrange(graph.num_vertices)
            colors = rng.sample(range(k), order)
            got = add_dipole(graph, at, colors)
            want = copying_add_dipole(graph, at, colors)
            assert got.graph == want.graph
            assert got.vertex_map == want.vertex_map
            assert got.added == want.added
            check_dipole(got.graph, DipoleSpec(*got.added, frozenset(colors)))


class TestInsertionAgainstOracle:
    def test_random_graphs(self):
        rng = make_rng(68)
        for trial in range(60):
            k = 2 + trial % 6
            graph = random_colored_graph(rng, 2 * rng.randint(1, 8), k)
            for g in (graph, shuffled_copy(rng, graph)[0]):
                assert_same_insertions(rng, g)

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_catalogue(self, name):
        rng = make_rng(69)
        graph = CATALOGUE[name]().graph
        for g in (graph, shuffled_copy(rng, graph)[0],
                  shuffled_copy(rng, graph)[0]):
            assert_same_insertions(rng, g)


def test_move_fuzzer_returns_to_the_start():
    graphs = [build().graph for build in CATALOGUE.values()]
    insertions = cancels = 0
    for seed in (1, 2, 3):
        rng = make_rng(seed)
        randoms = [random_colored_graph(rng, 2 * rng.randint(2, 8), k)
                   for k in range(3, 7)]
        for graph in graphs + randoms:
            added, cancelled = fuzz_moves(rng, graph, 20)
            insertions += added
            cancels += cancelled
    assert insertions > 400 and cancels > 200
