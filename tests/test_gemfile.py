"""The .gem text format and the DOT / gluing-table exports."""

import sys
import tracemalloc
from importlib.resources import files
from itertools import product

import pytest

from gemkit import (ColorOutOfRange, DuplicateVertexInColor, GemError,
                    LabeledGem, ParseError, UnwritableLabel,
                    VertexCountMismatch, export_dot, export_gluings, g1_prime,
                    new_graph, order_two_gem, parse_gem, render_gem,
                    small_cover_gem, t3_standard, torus_gem)
from gemkit import gemfile
from gemkit.gemfile import _canonical_pairs, _chunks, _edge_ends, _pair_ends

from conftest import make_rng, random_colored_graph, shuffled_copy
from oracles import (edges_render_gem, pairwise_new_graph, requoting_export_dot,
                     rowwise_export_gluings, token_parse_gem)

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

    @pytest.mark.parametrize("text, message", [
        ("gem 1\nvertices 2\n", "line 1, column 1: missing 'colors' line"),
        ("gem 1\ncolors 2\n", "line 1, column 1: missing 'vertices' line"),
    ], ids=["colors", "vertices"])
    def test_missing_count_line_named(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_gem(text)
        assert str(err.value) == message

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

    def test_count_the_text_cannot_hold_allocates_nothing(self):
        # 200000 ids would take about 7 MB; the text holds 52 characters
        text = "gem 1\ncolors 2\nvertices 200000\nlabel 7 x\nc 0: 0-1\nc 1: 0-1\n"
        tracemalloc.start()
        try:
            with pytest.raises(VertexCountMismatch):
                parse_gem(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

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

    @pytest.mark.parametrize("text, line, column", [
        ("gem 1\ncolors \u00b2\n", 2, 1),
        ("gem 1\ncolors 2\n  vertices \u00b2\n", 3, 3),
        ("gem 1\ncolors 2\nvertices 2\nlabel \u00b2 x\n", 4, 1),
        ("gem 1\ncolors 2\nvertices 2\nc \u00b2: 0-1\n", 4, 3),
    ])
    def test_superscript_digit_is_a_parse_error(self, text, line, column):
        # '\u00b2'.isdigit() holds but int() refuses it; counts, ids and
        # colors must be decimal digits
        with pytest.raises(ParseError) as err:
            parse_gem(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_other_decimal_digits_are_read(self):
        # Arabic-Indic digits are decimal, so int() reads them
        text = "gem 1\ncolors 2\nvertices \u0664\nc 0: 0-1 2-3\nc 1: 1-2 \u0663-0\n"
        assert parse_gem(text).graph == parse_gem(
            "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n").graph

    @pytest.mark.parametrize("text, line, column", [
        ("gem 1\ncolors {long}\n", 2, 8),
        ("gem 1\ncolors 2\nvertices {long}\n", 3, 10),
        ("gem 1\ncolors 2\nvertices 2\nlabel {long} x\n", 4, 7),
        ("gem 1\ncolors 2\nvertices 2\nc {long}: 0-1\n", 4, 3),
        ("gem 1\ncolors 2\nvertices 2\nc 0: {long}-1\n", 4, 6),
        ("gem 1\ncolors 2\nvertices 4\nc 0: 0-1  2-{long}\n", 4, 11),
        # the first bad token wins on a line the regular expression refuses
        ("gem 1\ncolors 2\nvertices 4\nc 0: 0-{long} 2-3 x\n", 4, 6),
    ])
    def test_number_too_long_for_int_is_a_parse_error(
            self, int_digit_limit, text, line, column):
        text = text.format(long="1" * (int_digit_limit + 700))
        with pytest.raises(ParseError) as err:
            parse_gem(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert f"{int_digit_limit + 700}-digit number is too long" in str(err.value)
        assert outcome(parse_gem, text) == outcome(token_parse_gem, text)

    def test_number_at_the_digit_limit_is_read(self, int_digit_limit):
        zeros = "0" * (int_digit_limit - 1)
        text = f"gem 1\ncolors 2\nvertices {zeros}4\nc 0: 0-1 2-3\nc 1: 1-2 {zeros}3-0\n"
        assert parse_gem(text).graph == parse_gem(
            "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n").graph
        for one_more in (text.replace("vertices ", "vertices 0"),
                         text.replace("1-2 ", "1-2 0")):
            with pytest.raises(ParseError):
                parse_gem(one_more)

    def test_label_names_end_where_split_breaks(self):
        # _add_labels splits a run of label lines: what _NAME excludes, but
        # for '#', must be what str.split breaks on, at every code point
        every = "".join(map(chr, range(sys.maxunicode + 1))).replace("#", "")
        kept = "".join(every.split())
        assert len(kept) < len(every)
        assert "".join(gemfile._NAME.findall(every)) == kept

    @pytest.mark.parametrize("text, line, message", [
        ("gem 1\ncolors 3\nvertices 2\nc 0: 0-1\nc 1: 0-1\nc 2: 0-1\ncolors 2\n",
         7, "second 'colors' line; the first is line 2"),
        ("gem 1\ncolors 2\nvertices 4\nlabel 0 a\nlabel 3 b\nvertices 2\n"
         "c 0: 0-1\nc 1: 0-1\n",
         6, "second 'vertices' line; the first is line 3"),
    ], ids=["colors", "vertices"])
    def test_second_count_line_refused(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_gem(text)
        assert type(err.value) is ParseError
        assert (err.value.line, err.value.column) == (line, 1)
        assert str(err.value) == f"line {line}, column 1: {message}"

    def test_glued_pairs_rejected_at_their_token(self):
        with pytest.raises(ParseError) as err:
            parse_gem("gem 1\ncolors 2\nvertices 4\nc 0: 0-1  2-34-5\n")
        assert str(err.value) == \
            "line 4, column 11: expected 'a-b' pair, got '2-34-5'"


def outcome(parse, text):
    """(involutions, labels) of a parsed text, or what it raised."""
    try:
        gem = parse(text)
    except (GemError, ParseError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return gem.graph.involutions, gem.labels


def built(build, *args, **kwargs):
    """The graph new_graph-style builders return, or what they raised."""
    try:
        return build(*args, **kwargs).involutions
    except GemError as exc:
        return type(exc), str(exc)


MUTATION_ALPHABET = ("0123456789- \t\r\n#:clabe\u00b2\u0663\x1c"
                     "\x0b\x0c\x85\u2028")

# every line break of str.splitlines other than "\n"
OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

HAND_CASES = [
    # CRLF line endings
    "gem 1\r\ncolors 2\r\nvertices 4\r\nc 0: 0-1 2-3\r\nc 1: 1-2 3-0\r\n",
    # tabs between every token
    "gem\t1\ncolors\t2\nvertices\t4\nlabel\t1\tb\nc\t0:\t0-1\t2-3\nc 1:\t1-2\t \t3-0\t\n",
    # one color split over interleaved lines
    "gem 1\ncolors 2\nvertices 6\nc 0: 0-1\nc 1: 1-2\nc 0: 2-3\nc 1: 3-4 5-0\nc 0: 4-5\n",
    # a comment right after the pairs
    "gem 1\ncolors 2\nvertices 2\nc 0: 0-1# one edge\nc 1: 0-1 # and another\n",
    # c 0: with no pairs, before and after the real ones
    "gem 1\ncolors 2\nvertices 2\nc 0:\nc 0: 0-1\nc 1: 0-1\nc 1:   \n",
    # glued pairs
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-12-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3 4\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0--1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: -0-1 2-3\nc 1: 1-2 3-0\n",
    # vertices 0, with and without pairs
    "gem 1\ncolors 2\nvertices 0\n",
    "gem 1\ncolors 2\nvertices 0\nc 0: 0-1\nc 1: 0-1\n",
    # an odd vertex count
    "gem 1\ncolors 2\nvertices 3\nc 0: 0-1 1-2\nc 1: 0-2 2-1\n",
    # structural faults: loop, duplicate, out of range, too many pairs
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-0 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 1-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-9\nc 1: 1-2 3-0\n",
    # out of range on a line the token scan reads (two spaces)
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1  2-9\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3 0-2\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2 3-0 4-5\n",
    # a shortfall before a faulty color, and after one
    "gem 1\ncolors 3\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2\nc 2: 0-0 1-2\n",
    "gem 1\ncolors 3\nvertices 4\nc 0: 0-1 2-3\nc 1: 0-0 1-2\nc 2: 1-2\n",
    # colors 0 and 1, and no colors line
    "gem 1\ncolors 0\nvertices 2\n",
    "gem 1\ncolors 1\nvertices 2\nc 0: 0-1\n",
    "gem 1\nvertices 2\nc 0: 0-1\n",
    # header faults
    "",
    "  # only a comment\n",
    "gem 2\n",
    "gem 1 extra\n",
    "c 0: 0-1\n",
    "gem 1\ngem 1\n",
    # each other line break between two statements; the fault on the last
    # line shows that its number counts the break
    *(f"gem 1{brk}colors 2\nvertices 2{brk}c 0: 0-1\nc 1: 0-1\n"
      for brk in OTHER_BREAKS),
    *(f"gem 1{brk}colors 2{brk}vertices 2\nc 0: 0-1{brk}c 1: 0-x\n"
      for brk in OTHER_BREAKS),
    # a break directly before "\n" ends an empty line
    "gem 1\x1c\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-x\n",
    "gem 1\r\r\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-x\n",
    "gem 1\ncolors 2\u2028\nvertices 2\nc 0: 0-1\x85\nc 1: 0-1\n label\n",
    # a last line with no newline, bare and after a break
    "gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1",
    "gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1\x1c",
    "gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-x\r",
    # blank lines only
    "\n\n\n",
    "\n \r\n\t\x0c\n\u2029",
    # runs of canonical label lines: a duplicate inside one run, and of an
    # earlier label read on its own; an out-of-range id mid-run; a leading
    # zero; a run before 'vertices'; an id too long for int(); and runs
    # after a count the text cannot hold, read line by line
    "gem 1\ncolors 2\nvertices 4\nlabel 0 a\nlabel 1 b\nlabel 0 c\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nlabel 2 a # alone\nlabel 1 b\nlabel 2 c\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nlabel 0 a\nlabel 9 b\nlabel 1 c\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 8\nlabel 1 y\nlabel 007 x\nlabel 00 z\n"
    "c 0: 0-1 2-3 4-5 6-7\nc 1: 1-2 3-4 5-6 7-0\n",
    "gem 1\ncolors 2\nlabel 0 a\nlabel 1 b\nvertices 2\nc 0: 0-1\nc 1: 0-1\n",
    "gem 1\ncolors 2\nvertices 4\nlabel 0 a\nlabel " + "1" * 5000 + " b\nlabel 1 c\n"
    "c 0: 0-1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 999999\nlabel 0 a\nlabel 1 b\nc 0: 0-1\nc 1: 0-1\n",
    "gem 1\ncolors 2\nvertices 999999\nlabel 0 a\nlabel 0 b\nc 0: 0-1\nc 1: 0-1\n",
    # label lines inside a comment and after another statement's text
    "gem 1\ncolors 2\nvertices 2\n# label 0 a\nlabel 1 b\nc 0: 0-1\nc 1: 0-1\n",
    "gem 1\ncolors 2\nvertices 2 label 0 a\nlabel 1 b\nc 0: 0-1\nc 1: 0-1\n",
    # a run of labels for every vertex, and one whose last line has no "\n"
    "gem 1\ncolors 2\nvertices 4\nlabel 3 d\nlabel 0 a\nlabel 2 c\nlabel 1 b\n"
    "c 0: 0-1 2-3\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1\nlabel 0 a\nlabel 1 b",
    # a second 'vertices' line, lowering the count below ids already
    # labelled, and a second 'colors' line after the edge lines are refused
    "gem 1\ncolors 2\nvertices 4\nlabel 2 a\nlabel 3 b\nvertices 2\nc 0: 0-1\nc 1: 0-1\n",
    "gem 1\ncolors 2\nvertices 4\nlabel 0 a\nlabel 3 b\nvertices 2\nc 0: 0-1\nc 1: 0-1\n",
    "gem 1\ncolors 3\nvertices 2\nc 0: 0-1\nc 1: 0-1\nc 2: 0-1\ncolors 2\n",
    # edge lines that look canonical but that json refuses or the token
    # scan reads: leading zeros, an endpoint too long for int(), one out of
    # range, Arabic-Indic digits, and tabs between pairs
    "gem 1\ncolors 2\nvertices 4\nc 0: 00-1 2-03\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-" + "3" * 5000 + "\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2 3-40000000000000000000000\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 \u0662-\u0663\nc 1: 1-2 3-0\n",
    "gem 1\ncolors 2\nvertices 4\nc 0: 0-1\t2-3\nc 1: 1-2 \t3-0\n",
]


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        # half the edits land in the first lines, where the statements are
        pos = rng.randrange(min(len(chars), 80) if rng.random() < 0.5
                            else len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and pos < len(chars):
            chars[pos] = rng.choice(MUTATION_ALPHABET)
        elif op == 1:
            del chars[pos:pos + rng.randint(1, 3)]
        else:
            chars[pos:pos] = rng.choices(MUTATION_ALPHABET, k=rng.randint(1, 3))
    return "".join(chars)


def seeded_mutations():
    """The shipped data files and t2-t5, each followed by 150 mutations."""
    sources = [files("gemkit").joinpath("data").joinpath(name).read_text()
               for name in ("cover1.gem", "g1prime.gem", "g2prime.gem",
                            "s2xs1.gem", "t3.gem")]
    sources += [render_gem(torus_gem(n)) for n in range(2, 6)]
    rng = make_rng(7)
    texts = []
    for source in sources:
        texts.append(source)
        texts += [_mutate(rng, source) for _ in range(150)]
    return texts


class TestCanonicalPairsVerdict:
    def test_fast_path_agrees_with_the_token_scan_on_every_short_body(self):
        # every string of up to 8 characters over the four that matter:
        # the ints the token scan reads, or the ParseError it raises
        ids = tuple(range(12))
        for size in range(9):
            for chars in product("01- ", repeat=size):
                body = "".join(chars)
                raw = "c 0: " + body
                try:
                    want = _pair_ends(raw, 4)
                except ParseError as exc:
                    want = str(exc)
                try:
                    got = list(_edge_ends(body, raw, 4, ids))
                except ParseError as exc:
                    got = str(exc)
                assert got == want, repr(body)

    def test_longer_bodies(self):
        assert _canonical_pairs("10-2 33-407 5-6")
        for body in ("10-2 33-407 5-6 ", " 10-2", "10-2 33", "10-2-3 4",
                     "10-2  3-4", "10-2 3--4", "10-2 -3-4", "1٣-2"):
            assert not _canonical_pairs(body), body


class TestParseAgainstOracle:
    """parse_gem and new_graph against the token-at-a-time oracles."""

    def test_hand_cases(self):
        for text in HAND_CASES:
            assert outcome(parse_gem, text) == outcome(token_parse_gem, text), text

    def test_lines_match_splitlines_at_small_block_sizes(self):
        # the default block is larger than every hand case and mutation,
        # so cut them at each "\n" and at a few sizes in between too
        rng = make_rng(13)
        texts = HAND_CASES + [_mutate(rng, text)
                              for text in HAND_CASES * 5 if text]
        for text in texts:
            for block in (0, 1, 7, 20):
                lines = [line for chunk in _chunks(text, block)
                         for line in (chunk if type(chunk) is list
                                      else chunk.group().splitlines())]
                assert lines == text.splitlines(), (repr(text), block)

    @pytest.mark.parametrize("block", [0, 1, 7, 20])
    def test_parse_at_small_block_sizes(self, monkeypatch, block):
        # runs of label lines cut at block edges, as the default block
        # is larger than every hand case and most mutations
        monkeypatch.setattr(gemfile, "_BLOCK", block)
        for text in HAND_CASES + seeded_mutations():
            assert outcome(parse_gem, text) == outcome(token_parse_gem, text), \
                repr(text[:200])

    def test_seeded_mutations(self):
        kinds = set()
        for text in seeded_mutations():
            got = outcome(parse_gem, text)
            assert got == outcome(token_parse_gem, text), repr(text[:200])
            kinds.add(got[0] if len(got) == 4 else "parsed")
        # the mutations reach both verdicts and several error classes
        assert {"parsed", ParseError, VertexCountMismatch} <= kinds

    def test_new_graph_bad_pair_lists(self):
        rng = make_rng(11)
        for trial in range(300):
            nv = 2 * rng.randint(1, 8)
            k = rng.randint(2, 4)
            g = random_colored_graph(rng, nv, k)
            pairs = [list(g.edges(c)) for c in range(k)]
            for _ in range(rng.randint(0, 2)):
                c = rng.randrange(k)
                i = rng.randrange(len(pairs[c]))
                a, b = pairs[c][i]
                fault = rng.choice(("loop", "duplicate", "out of range",
                                    "negative", "missing", "extra"))
                if fault == "loop":
                    pairs[c][i] = (a, a)
                elif fault == "duplicate":
                    pairs[c][i] = (a, rng.randrange(nv))
                elif fault == "out of range":
                    pairs[c][i] = (a, nv + rng.randrange(3))
                elif fault == "negative":
                    pairs[c][i] = (-1 - rng.randrange(2), b)
                elif fault == "missing":
                    del pairs[c][i]
                else:
                    pairs[c].append((rng.randrange(nv + 2), rng.randrange(nv + 2)))
            count = rng.choice((None, nv, nv + 2, nv - 1))
            assert built(new_graph, k, pairs, num_vertices=count) == \
                built(pairwise_new_graph, k, pairs, num_vertices=count), \
                (trial, pairs, count)


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

    def test_bytes_match_the_edges_renderer(self, s2xs1, t3, g1p, g2p,
                                            cover1, reduced1):
        rng = make_rng(5)
        gems = [order_two_gem(), s2xs1, t3, g1p, g2p, cover1, reduced1]
        gems += [torus_gem(n) for n in range(2, 7)]
        for gem in gems:
            assert render_gem(gem) == edges_render_gem(gem)
            copy, _ = shuffled_copy(rng, gem.graph)
            assert render_gem(copy) == edges_render_gem(copy)
        note = "made by hand\n\nsecond paragraph "
        assert render_gem(g1p, comment=note) == edges_render_gem(g1p, comment=note)

    @pytest.mark.parametrize("default", [False, True])
    @pytest.mark.parametrize("name", [
        "x#y", "a b", "", "#", "a\tb", "a\nb", "a\x1cb", "\u2028", "a\xa0b",
        "a\nlabel 5 b"])
    def test_label_the_parser_cannot_read_back_refused(self, name, default):
        gem = torus_gem(2)
        if default:  # only vertex 3's label is written
            gem = LabeledGem(gem.graph)
        labels = list(gem.labels)
        labels[3] = name
        with pytest.raises(UnwritableLabel) as err:
            render_gem(LabeledGem(gem.graph, labels))
        assert str(err.value) == (
            f"vertex 3 has label {name!r}; a .gem label must be non-empty, "
            "with no whitespace and no '#'")

    def test_accepted_labels_round_trip(self):
        rng = make_rng(19)
        alphabet = MUTATION_ALPHABET + "xy\xa0\u200b\u00e9\U0001f600"
        graph = torus_gem(2).graph
        refused = 0
        for _ in range(400):
            names = {"".join(rng.choices(alphabet, k=rng.randint(0, 3)))
                     for _ in range(graph.num_vertices)}
            if len(names) < graph.num_vertices:
                continue
            gem = LabeledGem(graph, sorted(names))
            try:
                text = render_gem(gem)
            except UnwritableLabel:
                refused += 1
                continue
            assert parse_gem(text).labels == gem.labels, names
        # both verdicts are reached
        assert 0 < refused < 400

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

    @pytest.mark.parametrize("name, head", [
        ("my gem {", 'graph "my gem {" {'),
        ('say "hi"', 'graph "say \\"hi\\"" {'),
        ("graph", 'graph "graph" {'),
        ("Strict", 'graph "Strict" {'),
        ("9lives", 'graph "9lives" {'),
        ("gem", "graph gem {"),
        ("g1", "graph g1 {"),
        ("_r7", "graph _r7 {"),
    ], ids=["spaces", "quote", "keyword", "keyword-any-case", "leading-digit",
            "gem", "g1", "underscore"])
    def test_dot_name_quoted_unless_a_bare_id(self, name, head):
        # only the first line names the graph
        first, rest = export_dot(order_two_gem(2), name=name).split("\n", 1)
        assert first == head
        assert rest == export_dot(order_two_gem(2)).split("\n", 1)[1]

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

    def test_bare_graph_reads_as_default_labels(self, s2xs1):
        gem = LabeledGem(s2xs1.graph)
        assert export_dot(s2xs1.graph, name="g") == export_dot(gem, name="g")
        assert export_gluings(s2xs1.graph) == export_gluings(gem)

    @staticmethod
    def assert_same_exports(gem, name="gem"):
        assert export_dot(gem, name=name) == requoting_export_dot(gem, name=name)
        assert export_gluings(gem) == rowwise_export_gluings(gem)

    def test_random_labels_match_the_oracles(self):
        rng = make_rng("exports")
        alphabet = '"\\0123456789ab \t#'
        for n_colors in range(2, 8):
            for _ in range(6):
                graph = random_colored_graph(rng, rng.choice([2, 4, 10, 40]), n_colors)
                names = set()
                while len(names) < graph.num_vertices:
                    # decimal names too, often another vertex's id
                    names.add(str(rng.randrange(graph.num_vertices))
                              if rng.random() < 0.3 else
                              "".join(rng.choices(alphabet, k=rng.randint(1, 4))))
                names = list(names)
                rng.shuffle(names)
                self.assert_same_exports(LabeledGem(graph, names), name=f"r{n_colors}")
                self.assert_same_exports(graph)

    def test_catalogue_matches_the_oracles(self, s2xs1, t3, g1p, g2p, cover1,
                                           reduced1):
        rng = make_rng("catalogue exports")
        gems = [order_two_gem(), s2xs1, t3, g1p, g2p, cover1, reduced1]
        gems += [torus_gem(n) for n in range(2, 6)]
        for gem in gems:
            self.assert_same_exports(gem)
            self.assert_same_exports(gem.graph)
            copy, perm = shuffled_copy(rng, gem.graph)
            names = [None] * copy.num_vertices
            for v, name in enumerate(gem.labels):
                names[perm[v]] = name
            self.assert_same_exports(LabeledGem(copy, names))
            self.assert_same_exports(copy)

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
