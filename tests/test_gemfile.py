"""The .gem text format and the DOT / gluing-table exports."""

import pytest

from gemkit import (ColorOutOfRange, DuplicateVertexInColor, ParseError,
                    VertexCountMismatch, export_dot, export_gluings,
                    g1_prime, new_graph, order_two_gem, parse_gem, render_gem,
                    small_cover_gem, t3_standard, torus_gem)

SMALL = """\
# a square
gem 1
colors 2
vertices 4
label 0 sw
label 2 ne
c 0: 0-1 2-3
c 1: 1-2 3-0
"""


class TestParse:
    def test_small_file(self):
        gem = parse_gem(SMALL)
        assert gem.graph.num_vertices == 4
        assert gem.graph.n_colors == 2
        assert gem.labels == ("sw", "1", "ne", "3")
        assert gem.graph.edges(1) == [(0, 3), (1, 2)]

    def test_color_lines_may_be_split(self):
        text = ("gem 1\ncolors 2\nvertices 4\n"
                "c 0: 0-1\nc 1: 1-2 3-0\nc 0: 2-3\n")
        assert parse_gem(text).graph == parse_gem(SMALL).graph

    def test_comments_and_blank_lines(self):
        text = ("# leading\n\ngem 1  # header\ncolors 2\nvertices 2\n"
                "c 0: 0-1\n  # indented comment\nc 1: 0-1\n")
        assert parse_gem(text).graph.num_vertices == 2

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_gem("colors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1\n")
        assert err.value.line == 1

    def test_bad_pair_token(self):
        with pytest.raises(ParseError) as err:
            parse_gem("gem 1\ncolors 2\nvertices 2\nc 0: 0+1\n")
        assert err.value.line == 4
        assert err.value.column > 1

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_gem("gem 1\ncolors 2\nvertices 2\nedge 0 1\n")

    def test_label_before_vertices(self):
        with pytest.raises(ParseError):
            parse_gem("gem 1\ncolors 2\nlabel 0 a\n")

    def test_duplicate_label_line(self):
        with pytest.raises(ParseError):
            parse_gem("gem 1\ncolors 2\nvertices 2\nlabel 0 a\nlabel 0 b\n"
                      "c 0: 0-1\nc 1: 0-1\n")

    def test_missing_counts(self):
        with pytest.raises(ParseError):
            parse_gem("gem 1\nvertices 2\nc 0: 0-1\n")
        with pytest.raises(ParseError):
            parse_gem("gem 1\ncolors 2\nc 0: 0-1\n")

    def test_structural_errors_use_validation_types(self):
        with pytest.raises(DuplicateVertexInColor):
            parse_gem("gem 1\ncolors 2\nvertices 4\n"
                      "c 0: 0-1 1-2\nc 1: 0-2 1-3\n")
        with pytest.raises(VertexCountMismatch):
            parse_gem("gem 1\ncolors 2\nvertices 4\n"
                      "c 0: 0-1\nc 1: 0-2 1-3\n")
        with pytest.raises(ColorOutOfRange):
            parse_gem("gem 1\ncolors 2\nvertices 2\nc 5: 0-1\n")

    def test_vertex_count_beyond_the_pairs_rejected(self):
        # refused from the pair counts alone, before any array is allocated
        with pytest.raises(VertexCountMismatch) as err:
            parse_gem("gem 1\ncolors 2\nvertices 100000000000\n"
                      "c 0: 0-1\nc 1: 0-1\n")
        assert str(err.value) == \
            "color 0: 99999999998 of 100000000000 vertices have no edge"

    def test_vertex_count_message_matches_new_graph(self):
        text = "gem 1\ncolors 2\nvertices 6\nc 0: 0-1 2-3 4-5\nc 1: 0-1\n"
        with pytest.raises(VertexCountMismatch) as from_file:
            parse_gem(text)
        with pytest.raises(VertexCountMismatch) as from_pairs:
            new_graph(2, [[(0, 1), (2, 3), (4, 5)], [(0, 1)]], num_vertices=6)
        assert str(from_file.value) == str(from_pairs.value) \
            == "color 1: 4 of 6 vertices have no edge"

    def test_color_without_lines_rejected(self):
        with pytest.raises(VertexCountMismatch) as err:
            parse_gem("gem 1\ncolors 3\nvertices 2\nc 0: 0-1\nc 2: 0-1\n")
        assert str(err.value) == "color 1: 2 of 2 vertices have no edge"


class TestRender:
    def test_round_trip_catalogue(self, s2xs1, t3, g1p, g2p, cover1,
                                  reduced1, torus3):
        for gem in (order_two_gem(), s2xs1, t3, g1p, g2p, cover1, reduced1,
                    torus3):
            again = parse_gem(render_gem(gem))
            assert again.graph == gem.graph
            assert again.labels == gem.labels

    def test_comment_header(self):
        text = render_gem(parse_gem(SMALL), comment="two lines\nof note")
        assert text.startswith("# two lines\n# of note\ngem 1\n")
        assert parse_gem(text).graph == parse_gem(SMALL).graph

    def test_default_labels_stay_implicit(self):
        text = render_gem(torus_gem(2))
        assert "label" in text  # permutation words are real labels
        bare = render_gem(parse_gem("gem 1\ncolors 2\nvertices 2\n"
                                    "c 0: 0-1\nc 1: 0-1\n"))
        assert "label" not in bare


class TestExports:
    def test_dot_order_two(self):
        dot = export_dot(order_two_gem(5))
        assert dot.count(" -- ") == 5
        assert dot.count('"p"') == 6  # declaration + five edge endpoints
        assert dot.strip().endswith("}")

    def test_dot_counts(self, g1p, t3):
        dot = export_dot(g1p, name="g1")
        assert dot.startswith("graph g1 {")
        assert dot.count(";") >= 40 + 100
        assert dot.count(" -- ") == 100
        assert export_dot(t3).count(" -- ") == 48

    def test_dot_quoting(self):
        gem = small_cover_gem(1)
        dot = export_dot(gem)
        assert '"T1234^6"' in dot

    def test_gluings_table(self, g2p):
        table = export_gluings(g2p).splitlines()
        assert len(table) == 121
        header = table[0].split("\t")
        assert header == ["simplex", "color0", "color1", "color2",
                          "color3", "color4"]
        for row in table[1:]:
            assert len(row.split("\t")) == 6

    def test_gluings_symmetry(self, s2xs1):
        # if row u names w under color c, row w names u under color c
        table = export_gluings(s2xs1).splitlines()[1:]
        cell = {}
        for row in table:
            parts = row.split("\t")
            cell[parts[0]] = parts[1:]
        for u, partners in cell.items():
            for c, w in enumerate(partners):
                assert cell[w][c] == u
