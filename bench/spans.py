"""Spans and counters at gemkit's module boundaries, for the traced rounds.

`install()` wraps the public functions named in LAYERS.  A function is
replaced in every gemkit module that binds it (``from .x import f`` makes
a second binding), and a method is replaced on its class, so every call
path passes through the wrapper.  Each call records a span: name, start,
end and parent span.  A layer's self time is its span durations minus the
parts its child spans cover.  Untraced rounds never call `install()`.
"""

import functools
import sys
import time

# (metric prefix, module, attribute); "Class.method" patches the class.
LAYERS = (
    ("core.components", "gemkit.core", "ColoredGraph.components"),
    ("core.is_bipartite", "gemkit.core", "ColoredGraph.is_bipartite"),
    ("core.ColoredGraph", "gemkit.core", "ColoredGraph.__init__"),
    ("invariants.genus_for", "gemkit.invariants", "genus_for"),
    ("invariants.bicolored_cycles", "gemkit.invariants", "bicolored_cycles"),
    ("iso.isomorphic", "gemkit.iso", "isomorphic"),
    ("iso.canonical_signature", "gemkit.iso", "canonical_signature"),
    ("moves.run_script", "gemkit.moves", "run_script"),
    ("moves.parse_move_script", "gemkit.moves", "parse_move_script"),
    ("moves.cancel_dipole", "gemkit.moves", "cancel_dipole"),
    ("moves.polyhedral_glue", "gemkit.moves", "polyhedral_glue"),
    ("moves.combined_move", "gemkit.moves", "combined_move"),
    ("gemfile.parse_gem", "gemkit.gemfile", "parse_gem"),
    ("gemfile.render_gem", "gemkit.gemfile", "render_gem"),
    ("gemfile.export_dot", "gemkit.gemfile", "export_dot"),
    ("gemfile.export_gluings", "gemkit.gemfile", "export_gluings"),
    ("torus_cube.torus_gem", "gemkit.torus_cube", "torus_gem"),
    ("constructions.product_gem", "gemkit.constructions", "product_gem"),
    ("small_covers.small_cover_gem", "gemkit.small_covers", "small_cover_gem"),
    ("small_covers.reduced_cover", "gemkit.small_covers", "reduced_cover"),
    ("small_covers.classify_covers", "gemkit.small_covers", "classify_covers"),
    ("cli.main", "gemkit.cli", "main"),
)

# The per-layer metrics, (name, unit), in the order BENCHMARK.json lists them.
METRICS = (
    ("core.components.calls", "count"),
    ("core.components.vertices", "count"),
    ("core.components.repeats", "count"),
    ("core.components.self_s", "s"),
    ("core.is_bipartite.self_s", "s"),
    ("core.ColoredGraph.self_s", "s"),
    ("invariants.genus_for.calls", "count"),
    ("invariants.genus_for.self_s", "s"),
    ("invariants.bicolored_cycles.calls", "count"),
    ("invariants.bicolored_cycles.self_s", "s"),
    ("iso.isomorphic.calls", "count"),
    ("iso.isomorphic.self_s", "s"),
    ("iso.canonical_signature.calls", "count"),
    ("iso.canonical_signature.self_s", "s"),
    ("moves.run_script.self_s", "s"),
    ("moves.parse_move_script.self_s", "s"),
    ("moves.cancel_dipole.calls", "count"),
    ("moves.cancel_dipole.self_s", "s"),
    ("moves.polyhedral_glue.calls", "count"),
    ("moves.polyhedral_glue.self_s", "s"),
    ("moves.combined_move.calls", "count"),
    ("moves.combined_move.self_s", "s"),
    ("gemfile.parse_gem.calls", "count"),
    ("gemfile.parse_gem.vertices", "count"),
    ("gemfile.parse_gem.self_s", "s"),
    ("gemfile.render_gem.self_s", "s"),
    ("gemfile.export_dot.self_s", "s"),
    ("gemfile.export_gluings.self_s", "s"),
    ("torus_cube.torus_gem.self_s", "s"),
    ("constructions.product_gem.self_s", "s"),
    ("small_covers.small_cover_gem.self_s", "s"),
    ("small_covers.reduced_cover.self_s", "s"),
    ("small_covers.classify_covers.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span list plus the counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.active = False
        self._graphs = {}  # id -> graph, kept alive so ids are not reused
        self._queries = set()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            self.count(name + ".calls")
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _components_done(self, args, kwargs, result):
        graph = args[0]
        colors = args[1] if len(args) > 1 else kwargs.get("colors")
        self.count("core.components.vertices", graph.num_vertices)
        key = "all" if colors is None else frozenset(colors)
        self._graphs[id(graph)] = graph
        if (id(graph), key) in self._queries:
            self.count("core.components.repeats")
        self._queries.add((id(graph), key))

    def _parse_done(self, args, kwargs, result):
        self.count("gemfile.parse_gem.vertices", result.graph.num_vertices)

    def install(self):
        """Wrap every LAYERS entry in place, in every gemkit module that binds it."""
        after = {"core.components": self._components_done,
                 "gemfile.parse_gem": self._parse_done}
        for name, module_name, attr in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), after.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, after.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "gemkit" and not mod_name.startswith("gemkit."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self):
        """{span name: summed self time}: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def layer_metrics(self):
        """Every per-layer metric except trace.overhead_s, zero where a layer was not called."""
        selfs = self.self_times()
        out = {}
        for name, unit in METRICS:
            if name == "trace.overhead_s":
                continue
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[:-len(".self_s")], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out
