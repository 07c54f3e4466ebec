"""Command-line driver: formats, files, exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gemkit
from gemkit import (ColoredGraph, LabeledGem, add_dipole, export_dot,
                    export_gluings, g1_prime, parse_gem, parse_move_script,
                    product_gem, render_gem, run_script, s2xs1_standard,
                    small_cover_gem, t3_standard, torus_gem)
from gemkit.cli import main

SQUARE = "gem 1\ncolors 2\nvertices 4\nc 0: 0-1 2-3\nc 1: 1-2 3-0\n"
FOLD_SCRIPT = "dipole 0 1 0\n"


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.gem"
    path.write_text(SQUARE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process():
    """The command and environment that run the CLI as a real process.

    The installed console script is used when it is on PATH, and
    ``python -m gemkit`` otherwise.  Either way the child's PYTHONPATH starts
    with the directory holding the imported package, so the process runs the
    code under test.
    """
    exe = shutil.which("gemkit")
    command = [exe] if exe else [sys.executable, "-m", "gemkit"]
    package_root = str(Path(gemkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]))
    return command, env


class TestBuild:
    def test_catalogue_names(self, capsys):
        code, out, _ = run(capsys, "build", "s2xs1")
        assert code == 0
        assert parse_gem(out).graph.num_vertices == 8
        code, out, _ = run(capsys, "build", "g1prime")
        assert code == 0
        assert parse_gem(out).graph.num_vertices == 40

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.gem"
        code, out, _ = run(capsys, "build", "t3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert parse_gem(target.read_text()).graph.num_vertices == 24

    def test_torus_needs_n(self, capsys):
        code, _, err = run(capsys, "build", "torus-cube")
        assert code == 1
        assert "error:" in err
        code, out, _ = run(capsys, "build", "torus-cube", "--n", "2")
        assert code == 0
        assert parse_gem(out).graph.num_vertices == 6

    def test_torus_budget(self, capsys):
        code, _, err = run(capsys, "build", "torus-cube", "--n", "4",
                           "--budget", "10")
        assert code == 1
        assert "error:" in err

    def test_small_cover(self, capsys):
        code, out, _ = run(capsys, "build", "small-cover", "--lambda", "3")
        assert code == 0
        assert parse_gem(out).graph.num_vertices == 96
        code, _, err = run(capsys, "build", "small-cover", "--lambda", "9")
        assert code == 1

    def test_product_gem(self, capsys, tmp_path):
        base = tmp_path / "base.gem"
        code, out, _ = run(capsys, "build", "s2xs1", "--out", str(base))
        assert code == 0
        code, out, _ = run(capsys, "build", "product-gem", str(base))
        assert code == 0
        assert parse_gem(out).graph.num_vertices == 64

    def test_json(self, capsys):
        code, out, _ = run(capsys, "build", "s2xs1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"] == 8
        assert obj["colors"] == 4
        assert parse_gem(obj["gem"]).graph.num_vertices == 8


class TestMeasurement:
    def test_check(self, capsys, square_file):
        code, out, _ = run(capsys, "check", square_file)
        assert code == 0
        assert out.startswith("ok ")
        assert "vertices=4" in out
        assert "crystallization=false" in out

    def test_check_json(self, capsys, square_file):
        code, out, _ = run(capsys, "check", square_file, "--json")
        obj = json.loads(out)
        assert obj == {"vertices": 4, "colors": 2, "connected": True,
                       "bipartite": True, "contracted": False,
                       "crystallization": False, "chi": 0}

    def test_check_contracted_matches_graph(self, capsys, tmp_path, s2xs1,
                                            t3, g1p, g2p, reduced1, torus4):
        # `check` reads connected, contracted and chi off one residue walk;
        # they must agree with the labeller's predicates
        graphs = {name: gem.graph for name, gem in (
            ("s2xs1", s2xs1), ("t3", t3), ("g1prime", g1p),
            ("g2prime", g2p), ("reduced1", reduced1), ("torus4", torus4))}
        graphs["t3+dipole"] = add_dipole(t3.graph, 0, (1,)).graph
        assert not graphs["t3+dipole"].is_contracted()
        nv = s2xs1.graph.num_vertices
        graphs["s2xs1 twice"] = ColoredGraph(
            [col + tuple(w + nv for w in col) for col in s2xs1.graph.involutions])
        for name, g in graphs.items():
            path = tmp_path / f"{name}.gem"
            path.write_text(render_gem(g))
            code, out, _ = run(capsys, "check", str(path), "--json")
            assert code == 0
            obj = json.loads(out)
            assert obj["connected"] == g.is_connected(), name
            assert obj["contracted"] == g.is_contracted(), name
            assert obj["crystallization"] == g.is_crystallization(), name
            assert obj["chi"] == g.euler_characteristic(), name

    def test_check_walks_the_residues_once(self, capsys, tmp_path,
                                           monkeypatch):
        path = tmp_path / "t4.gem"
        path.write_text(render_gem(torus_gem(4)))
        walks = []
        walk = ColoredGraph.residue_counts

        def counted(graph):
            walks.append(graph.num_vertices)
            return walk(graph)

        def refused(graph, colors=None):
            raise AssertionError("check labelled a residue on its own")

        monkeypatch.setattr(ColoredGraph, "residue_counts", counted)
        monkeypatch.setattr(ColoredGraph, "components", refused)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert walks == [120]
        assert out == ("ok vertices=120 colors=5 connected=true bipartite=true "
                       "contracted=true crystallization=true chi=0\n")

    def test_genus_at_perm(self, capsys, tmp_path):
        path = tmp_path / "g1.gem"
        run(capsys, "build", "g1prime", "--out", str(path))
        code, out, _ = run(capsys, "genus", str(path),
                           "--perm", "0,2,4,1,3")
        assert code == 0
        assert "rho=6" in out
        assert "perm=0,2,4,1,3" in out

    def test_genus_all(self, capsys, tmp_path):
        path = tmp_path / "g1.gem"
        run(capsys, "build", "g1prime", "--out", str(path))
        code, out, _ = run(capsys, "genus", str(path), "--all")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 13
        assert lines[-1].startswith("min ")
        assert "rho=6" in lines[-1]

    def test_genus_json_exact_rationals(self, capsys, tmp_path):
        path = tmp_path / "rp2.gem"
        path.write_text("gem 1\ncolors 3\nvertices 4\n"
                        "c 0: 0-1 2-3\nc 1: 0-2 1-3\nc 2: 0-3 1-2\n")
        code, out, _ = run(capsys, "genus", str(path), "--json")
        obj = json.loads(out)
        assert code == 0
        assert obj["rho"] == "1/2"
        assert obj["chi"] == 1

    def test_cycles(self, capsys, square_file):
        code, out, _ = run(capsys, "cycles", square_file, "--pair", "0,1")
        assert code == 0
        assert out.strip() == "count=1 lengths=4"
        with pytest.raises(SystemExit):
            run(capsys, "cycles", square_file, "--pair", "01")

    def test_genus_two_colors(self, capsys, square_file):
        code, out, _ = run(capsys, "genus", square_file)
        assert (code, out.strip()) == (0, "perm=0,1 pairs=1,1 chi=2 rho=0")
        code, out, _ = run(capsys, "genus", square_file, "--all")
        assert code == 0
        assert out.splitlines() == ["perm=0,1 pairs=1,1 chi=2 rho=0",
                                    "min perm=0,1 pairs=1,1 chi=2 rho=0"]

    def test_chi_and_bound(self, capsys, square_file):
        code, out, _ = run(capsys, "chi", square_file)
        assert (code, out.strip()) == (0, "0")
        code, out, _ = run(capsys, "bound", "--chi", "0", "--rank", "4")
        assert (code, out.strip()) == (0, "16")
        code, out, _ = run(capsys, "bound", "--chi", "1", "--rank", "2",
                           "--json")
        assert json.loads(out) == {"chi": 1, "rank": 2, "bound": 8}

    def test_wss(self, capsys, tmp_path):
        path = tmp_path / "g1.gem"
        run(capsys, "build", "g1prime", "--out", str(path))
        code, out, _ = run(capsys, "wss", str(path),
                           "--perm", "0,2,4,1,3", "--rank", "2")
        assert code == 0
        assert out.strip() == "weak_semi_simple=true triples=3,3,3,3,3"

    def test_wss_labels_each_triple_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g1.gem"
        path.write_text(render_gem(g1_prime()))
        labelled = []
        label = ColoredGraph.components

        def counted(graph, colors=None):
            labelled.append(colors)
            return label(graph, colors)

        monkeypatch.setattr(ColoredGraph, "components", counted)
        code, out, _ = run(capsys, "wss", str(path),
                           "--perm", "0,2,4,1,3", "--rank", "2")
        assert code == 0
        assert out == "weak_semi_simple=true triples=3,3,3,3,3\n"
        assert labelled == [(0, 4, 3), (2, 1, 0), (4, 3, 2), (1, 0, 4),
                            (3, 2, 1)]


class TestMovesCommand:
    def test_run_script(self, capsys, tmp_path):
        gem_path = tmp_path / "hex.gem"
        gem_path.write_text("gem 1\ncolors 2\nvertices 6\n"
                            "c 0: 0-1 2-3 4-5\nc 1: 1-2 3-4 5-0\n")
        script = tmp_path / "fold.moves"
        script.write_text(FOLD_SCRIPT)
        code, out, _ = run(capsys, "moves", str(gem_path),
                           "--script", str(script))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trace 6 4"
        rest = "\n".join(lines[1:]) + "\n"
        assert parse_gem(rest).graph.num_vertices == 4

    def test_failing_step_exits_one(self, capsys, tmp_path, square_file):
        script = tmp_path / "bad.moves"
        script.write_text("dipole 0 2 0\n")
        code, _, err = run(capsys, "moves", square_file,
                           "--script", str(script))
        assert code == 1
        assert "step 1 (line 1)" in err

    def test_json_trace(self, capsys, tmp_path):
        gem_path = tmp_path / "hex.gem"
        gem_path.write_text("gem 1\ncolors 2\nvertices 6\n"
                            "c 0: 0-1 2-3 4-5\nc 1: 1-2 3-4 5-0\n")
        script = tmp_path / "fold.moves"
        script.write_text(FOLD_SCRIPT)
        code, out, _ = run(capsys, "moves", str(gem_path),
                           "--script", str(script), "--json")
        obj = json.loads(out)
        assert obj["trace"] == [6, 4]


class TestComparison:
    def test_iso_and_canon(self, capsys, tmp_path):
        a = tmp_path / "a.gem"
        b = tmp_path / "b.gem"
        run(capsys, "build", "t3", "--out", str(a))
        run(capsys, "build", "torus-cube", "--n", "3", "--out", str(b))
        code, out, _ = run(capsys, "iso", str(a), str(b))
        assert code == 0
        assert out.startswith("isomorphic=true colors=0,1,2,3")
        code, out_a, _ = run(capsys, "canon", str(a))
        code, out_b, _ = run(capsys, "canon", str(b))
        assert out_a == out_b

    def test_iso_false(self, capsys, tmp_path, square_file):
        other = tmp_path / "other.gem"
        other.write_text("gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1\n")
        code, out, _ = run(capsys, "iso", square_file, str(other))
        assert code == 0
        assert out.strip() == "isomorphic=false"
        code, out, _ = run(capsys, "iso", square_file, str(other), "--json")
        assert json.loads(out) == {"isomorphic": False}

    def test_iso_json_witness(self, capsys, tmp_path, square_file):
        relabeled = tmp_path / "r.gem"
        relabeled.write_text("gem 1\ncolors 2\nvertices 4\n"
                             "c 0: 1-2 3-0\nc 1: 2-3 0-1\n")
        code, out, _ = run(capsys, "iso", square_file, str(relabeled),
                           "--json")
        obj = json.loads(out)
        assert obj["isomorphic"] is True
        assert sorted(obj["vertex_map"]) == [0, 1, 2, 3]
        assert obj["color_map"] == [0, 1]

    @pytest.mark.parametrize("command", ["canon", "iso"])
    def test_color_perm_over_eight_colors_is_one(self, capsys, tmp_path,
                                                 command):
        nine = tmp_path / "nine.gem"
        nine.write_text("gem 1\ncolors 9\nvertices 2\n"
                        + "".join(f"c {c}: 0-1\n" for c in range(9)))
        files = [str(nine)] * (2 if command == "iso" else 1)
        code, out, err = run(capsys, command, *files, "--color-perm")
        assert (code, out) == (1, "")
        assert err == ("error: 9! color maps exceed the budget of 40320\n")
        code, out, _ = run(capsys, command, *files)
        assert code == 0


class TestExportCommand:
    def test_formats(self, capsys, square_file, tmp_path):
        code, out, _ = run(capsys, "export", square_file, "--format", "dot")
        assert code == 0
        assert out.startswith("graph gem {")
        code, out, _ = run(capsys, "export", square_file,
                           "--format", "gluings")
        assert out.splitlines()[0] == "simplex\tcolor0\tcolor1"
        target = tmp_path / "copy.gem"
        code, out, _ = run(capsys, "export", square_file, "--format", "gem",
                           "--out", str(target))
        assert code == 0
        assert parse_gem(target.read_text()).graph \
            == parse_gem(SQUARE).graph


class TestSmallCoverCommand:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "small-cover", "classify")
        assert code == 0
        assert out.splitlines() == ["class 1", "class 2 5",
                                    "class 3 6", "class 4 7"]
        code, out, _ = run(capsys, "small-cover", "classify", "--json")
        assert json.loads(out) == {"classes": [[1], [2, 5], [3, 6], [4, 7]]}


class TestExitCodes:
    def test_validation_failure_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text("gem 1\ncolors 2\nvertices 4\n"
                       "c 0: 0-1 1-2\nc 1: 0-2 1-3\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("error:")

    def test_huge_vertex_count_is_one(self, capsys, tmp_path):
        bad = tmp_path / "huge.gem"
        bad.write_text("gem 1\ncolors 2\nvertices 100000000000\n"
                       "c 0: 0-1\nc 1: 0-1\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "vertices have no edge" in err

    def test_syntax_failure_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text("gem 1\ncolors 2\nvertices 4\nc 0 0-1\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err.startswith("parse error:")

    def test_superscript_digit_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.gem"
        bad.write_text("gem 1\ncolors \u00b2\nvertices 4\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("statement", ["vertices {long}", "c 0: 0-{long}"])
    def test_number_too_long_for_int_is_two(self, capsys, tmp_path,
                                            int_digit_limit, statement):
        bad = tmp_path / "long.gem"
        statement = statement.format(long="2" * (int_digit_limit + 700))
        bad.write_text(f"gem 1\ncolors 2\nvertices 2\n{statement}\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: line 4, column ")
        assert "digit number is too long" in err

    def test_color_out_of_range_is_one(self, capsys, square_file):
        for pair in ("0,7", "0,-1"):
            code, out, err = run(capsys, "cycles", square_file, "--pair", pair)
            assert code == 1
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("build", "s2xs1", "nope.gem", "--n", "3", "--lambda", "2"),
        ("build", "s2xs1", "nope.gem"),
        ("build", "t3", "--n", "3"),
        ("build", "g1prime", "--budget", "100"),
        ("build", "g2prime", "--lambda", "2"),
        ("build", "torus-cube", "nope.gem", "--n", "3"),
        ("build", "torus-cube", "--n", "3", "--lambda", "2"),
        ("build", "small-cover", "--lambda", "2", "--budget", "100"),
        ("build", "product-gem", "nope.gem", "--n", "3"),
        ("build", "torus-cube", "--n", "2", "x.gem"),
        ("build", "s2xs1", "--json", "nope.gem"),
    ])
    def test_build_option_the_name_ignores_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: build {argv[1]} does not take ")

    @pytest.mark.parametrize("base_last", [False, True])
    def test_build_base_file_before_or_after_options(self, capsys, tmp_path,
                                                     base_last):
        base = tmp_path / "base.gem"
        base.write_text(render_gem(s2xs1_standard()))
        out_file = tmp_path / "p.gem"
        options = ["--out", str(out_file)]
        args = options + [str(base)] if base_last else [str(base)] + options
        assert run(capsys, "build", "product-gem", *args) == (0, "", "")
        assert out_file.read_text() == render_gem(product_gem(s2xs1_standard()))

    def test_build_second_file_is_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["build", "product-gem", "a.gem", "--out",
                  str(tmp_path / "p.gem"), "b.gem"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: b.gem\n")
        assert not (tmp_path / "p.gem").exists()

    def test_budget_is_read_by_torus_cube(self, capsys):
        code, out, _ = run(capsys, "build", "torus-cube", "--n", "2",
                           "--budget", "6")
        assert code == 0
        assert out.startswith("gem 1\ncolors 3\nvertices 6\n")

    def test_genus_perm_with_all_is_one(self, capsys, square_file):
        code, out, err = run(capsys, "genus", square_file, "--perm", "0,1",
                             "--all")
        assert code == 1
        assert out == ""
        assert err == "error: genus takes --perm or --all, not both\n"

    def test_gem_file_not_utf8_is_two(self, capsys, tmp_path):
        # the offset is the file's, past the decoder's first buffer and CRLFs
        bad = tmp_path / "bad.gem"
        bad.write_bytes(b"# " + b"x" * 20000 + b"\r\ngem 1\r\nlabel 0 a\xffb\n")
        code, out, err = run(capsys, "chi", str(bad))
        assert (code, out, err) == (
            2, "", "parse error: byte 20020 is not UTF-8 (invalid start byte)\n")

    def test_move_script_not_utf8_is_two(self, capsys, tmp_path, square_file):
        script = tmp_path / "bad.moves"
        script.write_bytes(b"# caf\xc3(\ndipole 0 1 0\n")
        code, out, err = run(capsys, "moves", square_file, "--script", str(script))
        assert (code, out, err) == (
            2, "", "parse error: byte 5 is not UTF-8 (invalid continuation byte)\n")

    @pytest.mark.parametrize("argv", [
        ("export", "{base}", "--format", "gem", "--out", "{out}"),
        ("build", "product-gem", "{base}", "--out", "{out}"),
    ], ids=["export", "build"])
    def test_unwritable_label_is_one_and_writes_nothing(
            self, capsys, tmp_path, monkeypatch, argv):
        # no file gemkit reads holds such a label, so the reader is replaced
        base = s2xs1_standard()
        labels = list(base.labels)
        labels[5] = "x#y"
        monkeypatch.setattr("gemkit.cli._read_gem",
                            lambda path: LabeledGem(base.graph, labels))
        out_file = tmp_path / "out.gem"
        argv = [a.format(base="base.gem", out=out_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: vertex 5 has label 'x#y")
        assert not out_file.exists()

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.gem"))
        assert code == 1
        assert err.startswith("error:")

    def test_console_script_end_to_end(self, tmp_path):
        command, env = cli_process()
        good = tmp_path / "t3.gem"
        good.write_text(render_gem(t3_standard()))
        done = subprocess.run([*command, "check", str(good)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert "crystallization=true" in done.stdout
        done = subprocess.run([*command, "genus", str(good)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert "rho=3" in done.stdout
        bad = tmp_path / "bad.gem"
        bad.write_text("not a gem file\n")
        done = subprocess.run([*command, "check", str(bad)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 2

    def test_console_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["gemkit"] == "gemkit.cli:main"
        module, _, attr = scripts["gemkit"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main


# -- every command's output, pinned ----------------------------------------------

HEX = "gem 1\ncolors 2\nvertices 6\nc 0: 0-1 2-3 4-5\nc 1: 1-2 3-4 5-0\n"
PINNED_INPUTS = {
    "square": SQUARE,
    "hex": HEX,
    "fold": FOLD_SCRIPT,
    "rp2": ("gem 1\ncolors 3\nvertices 4\n"
            "c 0: 0-1 2-3\nc 1: 0-2 1-3\nc 2: 0-3 1-2\n"),
    "relabeled": "gem 1\ncolors 2\nvertices 4\nc 0: 1-2 3-0\nc 1: 2-3 0-1\n",
    "two": "gem 1\ncolors 2\nvertices 2\nc 0: 0-1\nc 1: 0-1\n",
    "bad": "gem 1\ncolors 2\nvertices 4\nc 0 0-1\n",
}

# argv -> (text stdout, --json stdout); "{name}" stands for the path of
# PINNED_INPUTS[name], or of the catalogue gem "s2xs1" or "g1" (g1prime)
PINNED_ANSWERS = {
    "check {g1}": (
        "ok vertices=40 colors=5 connected=true bipartite=true contracted=true"
        " crystallization=true chi=0\n",
        '{"bipartite": true, "chi": 0, "colors": 5, "connected": true,'
        ' "contracted": true, "crystallization": true, "vertices": 40}\n'),
    "check {square}": (
        "ok vertices=4 colors=2 connected=true bipartite=true contracted=false"
        " crystallization=false chi=0\n",
        '{"bipartite": true, "chi": 0, "colors": 2, "connected": true,'
        ' "contracted": false, "crystallization": false, "vertices": 4}\n'),
    "genus {g1}": (
        "perm=0,2,4,1,3 pairs=10,10,10,10,10 chi=-10 rho=6\n",
        '{"chi": -10, "pairs": [10, 10, 10, 10, 10], "perm": [0, 2, 4, 1, 3],'
        ' "rho": 6}\n'),
    "genus {g1} --perm 0,1,2,3,4": (
        "perm=0,1,2,3,4 pairs=8,8,8,8,8 chi=-20 rho=11\n",
        '{"chi": -20, "pairs": [8, 8, 8, 8, 8], "perm": [0, 1, 2, 3, 4],'
        ' "rho": 11}\n'),
    "genus {rp2} --all": (
        "perm=0,1,2 pairs=1,1,1 chi=1 rho=1/2\n"
        "min perm=0,1,2 pairs=1,1,1 chi=1 rho=1/2\n",
        '{"min": {"chi": 1, "pairs": [1, 1, 1], "perm": [0, 1, 2],'
        ' "rho": "1/2"}, "reports": [{"chi": 1, "pairs": [1, 1, 1],'
        ' "perm": [0, 1, 2], "rho": "1/2"}]}\n'),
    "cycles {s2xs1} --pair 0,2": (
        "count=2 lengths=4,4\n",
        '{"count": 2, "lengths": [4, 4], "pair": [0, 2]}\n'),
    "chi {g1}": ("0\n", '{"chi": 0}\n'),
    "bound --chi 0 --rank 4": ("16\n", '{"bound": 16, "chi": 0, "rank": 4}\n'),
    "wss {g1} --perm 0,2,4,1,3 --rank 2": (
        "weak_semi_simple=true triples=3,3,3,3,3\n",
        '{"perm": [0, 2, 4, 1, 3], "rank": 2, "triples": [3, 3, 3, 3, 3],'
        ' "weak_semi_simple": true}\n'),
    "wss {g1} --perm 0,1,2,3,4 --rank 2": (
        "weak_semi_simple=false triples=4,4,4,4,4\n",
        '{"perm": [0, 1, 2, 3, 4], "rank": 2, "triples": [4, 4, 4, 4, 4],'
        ' "weak_semi_simple": false}\n'),
    "iso {square} {relabeled}": (
        "isomorphic=true colors=0,1\n",
        '{"color_map": [0, 1], "isomorphic": true, "vertex_map": [0, 3, 2, 1]}\n'),
    "iso {square} {relabeled} --color-perm": (
        "isomorphic=true colors=0,1\n",
        '{"color_map": [0, 1], "isomorphic": true, "vertex_map": [0, 3, 2, 1]}\n'),
    "iso {square} {two}": ("isomorphic=false\n", '{"isomorphic": false}\n'),
    "canon {square}": (
        "2;4;1,2,0,3,3,0,2,1\n", '{"signature": "2;4;1,2,0,3,3,0,2,1"}\n'),
    "canon {s2xs1} --color-perm": (
        "4;8;1,1,2,3,0,0,4,5,4,6,0,4,6,5,5,0,2,7,1,2,7,3,3,1,3,2,7,7,5,4,6,6\n",
        '{"signature": "4;8;1,1,2,3,0,0,4,5,4,6,0,4,6,5,5,0,2,7,1,2,7,3,3,1,3,'
        '2,7,7,5,4,6,6"}\n'),
    "small-cover classify": (
        "class 1\nclass 2 5\nclass 3 6\nclass 4 7\n",
        '{"classes": [[1], [2, 5], [3, 6], [4, 7]]}\n'),
}


def _moved_hex():
    return run_script(parse_gem(HEX), parse_move_script(FOLD_SCRIPT)).gem


# argv -> (text lines before the document, --json fields besides the
# document, the document's JSON key, the library call that makes the document)
PINNED_DOCUMENTS = {
    "build s2xs1": ("", {"name": "s2xs1", "colors": 4, "vertices": 8},
                    "gem", lambda: render_gem(s2xs1_standard())),
    "build g1prime": ("", {"name": "g1prime", "colors": 5, "vertices": 40},
                      "gem", lambda: render_gem(g1_prime())),
    "build torus-cube --n 3": (
        "", {"name": "torus-cube", "colors": 4, "vertices": 24},
        "gem", lambda: render_gem(torus_gem(3))),
    "build small-cover --lambda 2": (
        "", {"name": "small-cover", "colors": 5, "vertices": 96},
        "gem", lambda: render_gem(small_cover_gem(2))),
    "build product-gem {s2xs1}": (
        "", {"name": "product-gem", "colors": 5, "vertices": 64},
        "gem", lambda: render_gem(product_gem(s2xs1_standard()))),
    "export {square} --format dot": (
        "", {"format": "dot"}, "text",
        lambda: export_dot(parse_gem(SQUARE))),
    "export {square} --format gluings": (
        "", {"format": "gluings"}, "text",
        lambda: export_gluings(parse_gem(SQUARE))),
    "export {square} --format gem": (
        "", {"format": "gem"}, "text", lambda: render_gem(parse_gem(SQUARE))),
    "moves {hex} --script {fold}": (
        "trace 6 4\n", {"trace": [6, 4]}, "gem",
        lambda: render_gem(_moved_hex())),
}

# argv -> (exit code, stderr), the same in both formats, with nothing on
# stdout
PINNED_ERRORS = {
    "build torus-cube": (1, "error: build torus-cube needs --n\n"),
    "cycles {square} --pair 0,7": (1, "error: color 7 not in 0..1\n"),
    "wss {s2xs1} --perm 0,1,2,3 --rank 1": (
        1, "error: weak semi-simplicity check needs 5 colors, got 4\n"),
    "bound --chi 0 --rank -1": (
        1, "error: rank of the fundamental group must be >= 0, got -1\n"),
    "wss {g1} --perm 0,2,4,1,3 --rank -1": (
        1, "error: rank of the fundamental group must be >= 0, got -1\n"),
    "check {bad}": (
        2, "parse error: line 4, column 3: expected '<color>:', got '0'\n"),
    "check {missing}": (
        1, "error: [Errno 2] No such file or directory: '{missing}'\n"),
    "cycles {square} --pair 01": (
        2, "usage: gemkit cycles [-h] [--json] --pair PAIR file\n"
           "gemkit cycles: error: argument --pair: bad color pair '01'\n"),
    "cycles {square} --pair a,b": (
        2, "usage: gemkit cycles [-h] [--json] --pair PAIR file\n"
           "gemkit cycles: error: argument --pair: bad color pair 'a,b'\n"),
    "genus {square} --perm 0,x": (
        2, "usage: gemkit genus [-h] [--json] [--perm PERM] [--all] file\n"
           "gemkit genus: error: argument --perm: bad permutation '0,x'\n"),
    "build product-gem": (1, "error: build product-gem needs a base gem file\n"),
    "build small-cover": (1, "error: build small-cover needs --lambda\n"),
    "build small-cover --lambda 0": (
        1, "error: catalogue index must be 1..7, got 0\n"),
    "build small-cover --lambda 8": (
        1, "error: catalogue index must be 1..7, got 8\n"),
    "build torus-cube --n 8": (
        1, "error: 362880 vertices exceed the budget of 40320\n"),
}


@pytest.fixture()
def pinned_paths(tmp_path):
    paths = {"missing": str(tmp_path / "missing.gem")}
    inputs = dict(PINNED_INPUTS, s2xs1=render_gem(s2xs1_standard()),
                  g1=render_gem(g1_prime()))
    for name, text in inputs.items():
        path = tmp_path / f"{name}.gem"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_pinned(capsys, paths, command, *extra):
    """(exit code, stdout, stderr) of one call; argparse's exit included."""
    argv = [word.format(**paths) for word in command.split()] + list(extra)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPinnedOutput:
    """Every command's exact stdout, stderr and exit code, as text and JSON."""

    def test_every_command_is_pinned(self):
        commands = {argv.split()[0] for table in (
            PINNED_ANSWERS, PINNED_DOCUMENTS, PINNED_ERRORS) for argv in table}
        assert commands == {"build", "check", "genus", "cycles", "chi",
                            "bound", "wss", "moves", "iso", "canon",
                            "export", "small-cover"}

    @pytest.mark.parametrize("command", PINNED_ANSWERS)
    def test_text(self, capsys, pinned_paths, command):
        assert run_pinned(capsys, pinned_paths, command) \
            == (0, PINNED_ANSWERS[command][0], "")

    @pytest.mark.parametrize("command", PINNED_ANSWERS)
    def test_json(self, capsys, pinned_paths, command):
        assert run_pinned(capsys, pinned_paths, command, "--json") \
            == (0, PINNED_ANSWERS[command][1], "")

    @pytest.mark.parametrize("command", PINNED_DOCUMENTS)
    def test_document_text(self, capsys, pinned_paths, command):
        lines, _, _, document = PINNED_DOCUMENTS[command]
        assert run_pinned(capsys, pinned_paths, command) \
            == (0, lines + document(), "")

    @pytest.mark.parametrize("command", PINNED_DOCUMENTS)
    def test_document_json(self, capsys, pinned_paths, command):
        _, fields, key, document = PINNED_DOCUMENTS[command]
        obj = dict(fields, **{key: document()})
        assert run_pinned(capsys, pinned_paths, command, "--json") \
            == (0, json.dumps(obj, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("command", PINNED_DOCUMENTS)
    def test_document_out_file(self, capsys, pinned_paths, tmp_path, command):
        lines, _, _, document = PINNED_DOCUMENTS[command]
        target = tmp_path / "out.txt"
        assert run_pinned(capsys, pinned_paths, command, "--out", str(target)) \
            == (0, lines, "")
        assert target.read_text() == document()

    @pytest.mark.parametrize("command", PINNED_DOCUMENTS)
    def test_document_out_file_under_json(self, capsys, pinned_paths,
                                          tmp_path, command):
        # --out gets the document and stdout the same one JSON object
        _, fields, key, document = PINNED_DOCUMENTS[command]
        obj = dict(fields, **{key: document()})
        target = tmp_path / "out.txt"
        assert run_pinned(capsys, pinned_paths, command, "--json",
                          "--out", str(target)) \
            == (0, json.dumps(obj, sort_keys=True) + "\n", "")
        assert target.read_text() == document()

    @pytest.mark.parametrize("fmt", ["", "--json"])
    @pytest.mark.parametrize("command", PINNED_DOCUMENTS)
    def test_unwritable_out_file(self, capsys, pinned_paths, tmp_path,
                                 command, fmt):
        # a failed write prints no answer, not even the text lines
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_pinned(capsys, pinned_paths, command,
                                    *fmt.split(), "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("fmt", ["", "--json"])
    @pytest.mark.parametrize("command", PINNED_ERRORS)
    def test_error(self, capsys, pinned_paths, command, fmt):
        code, err = PINNED_ERRORS[command]
        assert run_pinned(capsys, pinned_paths, command, *fmt.split()) \
            == (code, "", err.format(**pinned_paths))
