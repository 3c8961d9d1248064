"""Per-layer spans recorded from outside the package.

The tracer replaces a function in every ``cliqueiso`` module namespace that
binds it, because the program calls it through those names: ``find_in_mask``
is reached as ``cliques.find_in_mask``, ``isolation.find_in_mask`` and
``construct.find_in_mask``.  Each wrapper records calls, total seconds and
self seconds (total minus the spans of wrapped functions it called) in
memory; ``metrics()`` reads them out once the traced round is over.

The wrapper's own cost lands in the self time of the nearest wrapped caller,
which is why the traced round is never used for end-to-end numbers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable

# (module, function, label): functions wrapped for calls / s / self_s.
TIMED = (
    ("cliqueiso.edgelist", "read_graph", "edgelist.read_graph"),
    ("cliqueiso.graph", "induced", "graph.induced"),
    ("cliqueiso.graph", "component_masks", "graph.component_masks"),
    ("cliqueiso.graph", "closed_mask", "graph.closed_mask"),
    ("cliqueiso.cliques", "find_in_mask", "cliques.find_in_mask"),
    ("cliqueiso.isolation", "iota_solve", "isolation.iota_solve"),
    ("cliqueiso.isolation", "packing_bound", "isolation.packing_bound"),
    ("cliqueiso.isolation", "greedy_mask", "isolation.greedy_mask"),
    ("cliqueiso.isolation", "verify_isolating", "isolation.verify_isolating"),
    ("cliqueiso.isolation", "iota_oracle", "isolation.iota_oracle"),
    ("cliqueiso.construct", "bounded_isolating_set", "construct.bounded_isolating_set"),
)
GRAPH_INIT = "graph.Graph_init"
ENUMERATE = "generators.enumerate"
CLI_MAIN = "cli.main"

# BranchTag values.  BENCHMARK.json fixes the metric names, so the tags are
# listed here rather than read from the package; unused tags report 0.
TAGS = (
    "BaseSmall", "NoClique", "DominatingVertex", "NoExceptional",
    "Case1_Sub1", "Case1_Sub2", "Case1_Sub3", "Case2",
)


class Tracer:
    """Installs span wrappers into the loaded ``cliqueiso`` modules."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, label: str, fn: Callable, post: Callable | None = None) -> Callable:
        rec = self.spans.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` to ``wrapper`` in every package namespace holding it."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cliqueiso" or name.startswith("cliqueiso.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import cliqueiso.cli as cli
        import cliqueiso.generators as generators
        import cliqueiso.graph as graph

        counts = self.counts

        def edges(g) -> None:
            counts["edgelist.edges_parsed"] += g.edge_count

        def vertices(sub) -> None:
            counts["graph.induced.vertices"] += sub.graph.n

        def hits(mask) -> None:
            if mask is not None:
                counts["cliques.find_in_mask.hits"] += 1

        def nodes(rep) -> None:
            counts["isolation.search_nodes"] += rep.nodes_expanded

        def subsets(rep) -> None:
            counts["isolation.oracle_subsets"] += rep.nodes_expanded

        def steps(res) -> None:
            counts["construct.trace_steps"] += len(res.trace)
            counts.update(f"construct.tag.{st.tag.value}" for st in res.trace)

        posts = {
            "edgelist.read_graph": edges,
            "graph.induced": vertices,
            "cliques.find_in_mask": hits,
            "isolation.iota_solve": nodes,
            "isolation.iota_oracle": subsets,
            "construct.bounded_isolating_set": steps,
        }
        for module, fname, label in TIMED:
            fn = getattr(sys.modules[module], fname)
            self._replace(fn, self.span(label, fn, posts.get(label)))

        self._replace(cli.main, self.span(CLI_MAIN, cli.main))

        post_init = graph.Graph.__post_init__
        self._undo.append((graph.Graph, "__post_init__", post_init))
        graph.Graph.__post_init__ = self.span(GRAPH_INIT, post_init)

        factory = generators.enumerate_connected
        self._replace(factory, self._enumerator(factory))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _enumerator(self, factory: Callable) -> Callable:
        """Wrap the enumeration factory so each ``__next__`` is a span."""
        tracer = self

        class TracedCursor:
            def __init__(self, inner) -> None:
                self._next = tracer.span(ENUMERATE, inner.__next__)

            def __iter__(self):
                return self

            def __next__(self):
                g = self._next()
                tracer.counts["generators.enumerate.graphs"] += 1
                return g

        def enumerate_connected(*args, **kwargs):
            return TracedCursor(factory(*args, **kwargs))

        enumerate_connected.__wrapped__ = factory
        return enumerate_connected

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  Every name is present
        even when its layer never ran in this workload."""
        out: dict[str, tuple[float, str]] = {}
        calls, total, self_s = self.spans.get(CLI_MAIN, (0, 0.0, 0.0))
        out["cli.self_s"] = (self_s, "s")
        for label in [t[2] for t in TIMED] + [GRAPH_INIT]:
            calls, total, self_s = self.spans.get(label, (0, 0.0, 0.0))
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.s"] = (total, "s")
            out[f"{label}.self_s"] = (self_s, "s")
        c = self.counts
        out["edgelist.edges_parsed"] = (c["edgelist.edges_parsed"], "count")
        out["graph.induced.vertices"] = (c["graph.induced.vertices"], "count")
        finds = self.spans.get("cliques.find_in_mask", (0,))[0]
        out["cliques.find_in_mask.hit_ratio"] = (
            c["cliques.find_in_mask.hits"] / finds if finds else 0.0, "ratio"
        )
        nodes = c["isolation.search_nodes"]
        out["isolation.search_nodes"] = (nodes, "count")
        solve_s = self.spans.get("isolation.iota_solve", (0, 0.0))[1]
        out["isolation.s_per_node"] = (solve_s / nodes if nodes else 0.0, "s")
        out["isolation.oracle_subsets"] = (c["isolation.oracle_subsets"], "count")
        out["construct.trace_steps"] = (c["construct.trace_steps"], "count")
        for tag in TAGS:
            out[f"construct.tag.{tag}"] = (c[f"construct.tag.{tag}"], "count")
        out["generators.enumerate.graphs"] = (c["generators.enumerate.graphs"], "count")
        out["generators.enumerate.s"] = (self.spans.get(ENUMERATE, (0, 0.0))[1], "s")
        return out
