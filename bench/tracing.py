"""Spans and counters around boxdim's public functions, installed from outside.

Nothing under src/ changes: `Tracer.install` replaces each traced function on
every boxdim module attribute (and every module-level dict value) that binds
it, so names imported across modules (`dimension` and `cli` import from
`covers`) are traced too.  `Tracer.uninstall` puts the originals back.

Stage functions get spans (name, start, end, parent), kept in memory.  The
high-frequency kernels (BFS, vectorised arithmetic, ball translation, scalar
group operations) get timed counters instead of spans: they run up to
hundreds of thousands of times, and as counters they do not take their time
out of the self time of the stage that calls them.
"""
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  cli.TASK_FUNCS entries share one name.
SPANS = {
    ("cli", "run"): "cli.run",
    ("cli", "verify_witness"): "cli.verify_witness",
    ("cayley", "build_quotient_cayley"): "cayley.build_quotient_cayley",
    ("cayley", "enumerate_ball"): "cayley.enumerate_ball",
    ("boxspace", "build_box_space"): "boxspace.build_box_space",
    ("boxspace", "isometry_radius"): "boxspace.isometry_radius",
    ("covers", "verify_cover"): "covers.verify_cover",
    ("covers", "r_multiplicity"): "covers.r_multiplicity",
    ("covers", "family_violations"): "covers.family_violations",
    ("covers", "cover_prop41"): "covers.cover_prop41",
    ("covers", "doubling_radius"): "covers.doubling_radius",
    ("covers", "maximal_packing"): "covers.maximal_packing",
    ("covers", "packing_count_max"): "covers.packing_count_max",
    ("covers", "families_from_multiplicity_cover"): "covers.families_from_multiplicity_cover",
    ("dimension", "asdim_profile"): "dimension.asdim_profile",
    ("dimension", "box_witness_cover"): "dimension.box_witness_cover",
    ("dimension", "structured_component_families"): "dimension.structured_component_families",
    ("dimension", "rs_dim_greedy"): "dimension.rs_dim_greedy",
    ("dimension", "rs_dim_exact"): "dimension.rs_dim_exact",
}

# (module, attribute) -> timed-counter name; "rows" also counts result rows.
KERNELS = {
    ("cayley", "breadth_first_distances"): ("cayley.bfs", False),
    ("cayley", "coords_multiply"): ("cayley.coords_multiply", True),
    ("cayley", "coords_invert"): ("cayley.coords_multiply", True),
    ("cayley", "CayleyGraph.ball_ids"): ("cayley.ball_ids", False),
}

# (module, attribute) -> plain counter name.
COUNTED = {
    ("groups", "multiply"): "groups.scalar_ops",
    ("groups", "invert"): "groups.scalar_ops",
}

# Per-layer metric -> (kind, source).  "incl": summed duration of the
# outermost spans of that name; "self": span duration minus its direct
# children; "count": a counter; "time": a timed counter's seconds.
LAYER_METRICS = {
    "cli.run_self_s": ("self", "cli.run"),
    "cli.verify_witness_self_s": ("self", "cli.verify_witness"),
    "groups.scalar_ops": ("count", "groups.scalar_ops"),
    "cayley.build_quotient_cayley_s": ("incl", "cayley.build_quotient_cayley"),
    "cayley.vertices_built": ("count", "cayley.vertices_built"),
    "cayley.enumerate_ball_s": ("incl", "cayley.enumerate_ball"),
    "cayley.ball_elements": ("count", "cayley.ball_elements"),
    "cayley.bfs_calls": ("count", "cayley.bfs"),
    "cayley.bfs_s": ("time", "cayley.bfs"),
    "cayley.coords_multiply_calls": ("count", "cayley.coords_multiply"),
    "cayley.coords_multiply_rows": ("count", "cayley.coords_multiply.rows"),
    "cayley.coords_multiply_s": ("time", "cayley.coords_multiply"),
    "cayley.ball_ids_calls": ("count", "cayley.ball_ids"),
    "cayley.ball_ids_s": ("time", "cayley.ball_ids"),
    "boxspace.build_box_space_s": ("incl", "boxspace.build_box_space"),
    "boxspace.isometry_radius_s": ("incl", "boxspace.isometry_radius"),
    "covers.verify_cover_calls": ("count", "covers.verify_cover"),
    "covers.sets_verified": ("count", "covers.sets_verified"),
    "covers.points_verified": ("count", "covers.points_verified"),
    "covers.verify_cover_s": ("incl", "covers.verify_cover"),
    "covers.verify_cover_self_s": ("self", "covers.verify_cover"),
    "covers.r_multiplicity_s": ("incl", "covers.r_multiplicity"),
    "covers.family_violations_s": ("incl", "covers.family_violations"),
    "covers.family_violations_calls": ("count", "covers.family_violations"),
    "covers.cover_prop41_s": ("incl", "covers.cover_prop41"),
    "covers.doubling_radius_s": ("incl", "covers.doubling_radius"),
    "covers.maximal_packing_s": ("incl", "covers.maximal_packing"),
    "covers.packing_count_max_s": ("incl", "covers.packing_count_max"),
    "covers.families_from_multiplicity_cover_s":
        ("incl", "covers.families_from_multiplicity_cover"),
    "dimension.box_witness_cover_calls": ("count", "dimension.box_witness_cover"),
    "dimension.structured_component_families_s":
        ("incl", "dimension.structured_component_families"),
    "dimension.rs_dim_greedy_s": ("incl", "dimension.rs_dim_greedy"),
    "dimension.rs_dim_exact_s": ("incl", "dimension.rs_dim_exact"),
}
# Derived from two counters: S-ladder rungs whose cover became a reported
# profile row, divided by rungs tried (box_witness_cover calls).
RATIO_METRICS = ("dimension.ladder_useful_ratio",)


def _resolve(module, attr):
    """(owner, name, original) for boxdim.<module>.<attr>; raises if absent."""
    owner = importlib.import_module(f"boxdim.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._stack = []
        self._patches = []
        self._rung_covers = set()

    # --- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            counts[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _kernel(self, name, rows, fn):
        counts, seconds = self.counts, self.seconds
        rows_name = name + ".rows"
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            seconds[name] += clock() - t0
            counts[name] += 1
            if rows:
                counts[rows_name] += result.size // max(1, result.shape[-1])
            return result
        return timed

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # --- hooks that read arguments and results --------------------------------

    def _count_cover(self, args, kwargs):
        cover = args[0] if args else kwargs["cover"]
        sets = [s for _, s in cover.all_sets()]
        self.counts["covers.sets_verified"] += len(sets)
        self.counts["covers.points_verified"] += sum(s.n_points() for s in sets)

    def _count_vertices(self, args, graph):
        self.counts["cayley.vertices_built"] += graph.n_vertices

    def _count_ball(self, args, ball):
        self.counts["cayley.ball_elements"] += len(ball)

    def _note_rung(self, args, got):
        if got is not None:
            self._rung_covers.add(id(got[0]))

    def _note_rows(self, args, table):
        for row in table.rows:
            if row.cover is not None and id(row.cover) in self._rung_covers:
                self.counts["dimension.ladder_useful_rungs"] += 1
        self._rung_covers.clear()

    # --- install / uninstall ------------------------------------------------------

    def _patch(self, module, attr, make):
        owner, name, original = _resolve(module, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            targets = [(owner, name)]
        else:
            targets = []
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "boxdim" and not mod_name.startswith("boxdim."):
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        targets.append((mod, key))
                    elif isinstance(value, dict):
                        targets += [(value, k) for k, v in value.items()
                                    if v is original]
        for target, key in targets:
            if isinstance(target, dict):
                target[key] = wrapper
            else:
                setattr(target, key, wrapper)
            self._patches.append((target, key, original))

    def install(self):
        hooks = {
            "covers.verify_cover": (self._count_cover, None),
            "cayley.build_quotient_cayley": (None, self._count_vertices),
            "cayley.enumerate_ball": (None, self._count_ball),
            "dimension.box_witness_cover": (None, self._note_rung),
            "dimension.asdim_profile": (None, self._note_rows),
        }
        for (module, attr), name in SPANS.items():
            before, after = hooks.get(name, (None, None))
            self._patch(module, attr,
                        lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
        cli = importlib.import_module("boxdim.cli")
        for task in sorted(set(cli.TASK_FUNCS.values()), key=lambda f: f.__name__):
            self._patch("cli", task.__name__,
                        lambda fn: self._span("cli.task", fn))
        for (module, attr), (name, rows) in KERNELS.items():
            self._patch(module, attr, lambda fn, n=name, r=rows: self._kernel(n, r, fn))
        for (module, attr), name in COUNTED.items():
            self._patch(module, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # --- derived metrics ------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric of LAYER_METRICS and RATIO_METRICS."""
        incl = defaultdict(float)
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[name] += duration - child_s[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += duration
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "incl":
                out[metric] = incl[source]
            elif kind == "self":
                out[metric] = self_s[source]
            elif kind == "time":
                out[metric] = self.seconds[source]
            else:
                out[metric] = self.counts[source]
        rungs = self.counts["dimension.box_witness_cover"]
        useful = self.counts["dimension.ladder_useful_rungs"]
        out["dimension.ladder_useful_ratio"] = useful / rungs if rungs else 0.0
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
