"""Run-time tracing of the library's public functions, from outside.

``Tracer.install()`` wraps every public function and every public method of
a public class in the library's modules, and re-binds the names that other
modules imported with ``from .x import y``.  Each wrapped call keeps, per
function, a call count, the total time and the self time (duration minus
the time covered by wrapped calls inside it).  A call that crosses from one
module into another (or from the benchmark into the library) is also kept as
a span: name, start, end, parent span, task id.  ``intlinalg`` kernels are
called 10^5-10^6 times per run, so they keep the per-function numbers only.

Nothing under ``src/`` is changed; a name that a later version deletes or
merges is simply not wrapped, and its metrics are reported as absent.
"""

import functools
import importlib
import inspect
import time

MODULES = ("intlinalg", "lattice", "isometry", "cones", "cohomology", "hodge",
           "serialize", "cli")
NO_SPANS = {"intlinalg"}


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "module.qualname"
        self.stats = []  # function id -> [calls, total_s, self_s]
        self.spans = []  # (function id, start, end, parent span, task)
        self.stack = []  # frames: [child time, module, span index]
        self.counts = {}  # extra counters measured from results
        self.originals = {}
        self.plan = []  # (owner, attribute, original, wrapper)
        self.task = None
        self._seen = {}
        self._generators = {}  # group table -> number of generators

    # --- counters ------------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def start_task(self, task_id):
        self.task = task_id
        self._seen = {}

    def repeat(self, name, key):
        """Count a call and whether its argument was already seen in this task."""
        seen = self._seen.setdefault(name, set())
        try:
            hit = key in seen
            seen.add(key)
        except TypeError:
            return
        self.count(name + ".keyed")
        if hit:
            self.count(name + ".repeats")

    # --- wrapping ------------------------------------------------------------

    def install(self):
        """Put the wrappers in place (built on the first call)."""
        if not self.plan:
            self._build_plan()
        for owner, attr, _, wrapper in self.plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self.plan):
            setattr(owner, attr, original)

    def _build_plan(self):
        wrapped = {}
        for mod in MODULES:
            m = importlib.import_module("klein_lattice." + mod)
            for name, obj in list(vars(m).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != m.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(mod, name, obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self.plan.append((obj, attr, fn, self._wrap(mod, f"{name}.{attr}", fn)))
        # every module's name for a wrapped function, `from .x import y` included
        for mod in MODULES:
            m = importlib.import_module("klein_lattice." + mod)
            for name, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self.plan.append((m, name, obj, wrapped[obj]))

    def _wrap(self, mod, qual, fn):
        fid = len(self.names)
        full = f"{mod}.{qual}"
        self.names.append(full)
        self.originals[full] = fn
        stat = [0, 0.0, 0.0]
        self.stats.append(stat)
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        keep_spans = mod not in NO_SPANS
        hook = HOOKS.get(full)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent[2] if parent else -1
            own = keep_spans and (parent is None or parent[1] != mod)
            span = outer
            if own:
                span = len(spans)
                spans.append(None)
            frame = [0.0, mod, span]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if own:
                    spans[span] = (fid, t0, t1, outer, tracer.task)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- export --------------------------------------------------------------

    def export(self):
        """Per-function numbers and counters, keyed by name (JSON-able)."""
        return {
            "functions": {n: s for n, s in zip(self.names, self.stats) if s[0]},
            "counts": dict(self.counts),
            "defined": list(self.names),
        }

    def span_records(self):
        return [
            {"name": self.names[s[0]], "start": s[1], "end": s[2], "parent": s[3], "task": s[4]}
            for s in self.spans
            if s is not None
        ]


# --- counters measured from arguments and results ------------------------------


def _enumeration(tr, args, kwargs, result):
    group = args[0]
    bound = args[1] if len(args) > 1 else kwargs.get("bound")
    if bound is None:
        bound = group.word_bound
    tr.count("isometry.enumeration.elements", len(result[0]))
    tr.repeat("isometry.enumeration", (group, bound))


def _frac_inverse(tr, args, kwargs, result):
    tr.repeat("intlinalg.frac_inverse", args[0])


def _dd_rays(tr, args, kwargs, result):
    tr.count("cones.dd_rays.rays_out", len(result[0]))


def _reduce(tr, args, kwargs, result):
    tr.count("cones.reduce_into_domain.steps", result[2])


def _cocycles(tr, args, kwargs, result):
    """tried = |A|^#generators, the assignments the enumeration visits."""
    gg = args[0] if args else kwargs["gg"]
    key = gg.group.table
    if key not in tr._generators:
        gens = tr.originals.get("cohomology.FiniteGroup.generating_set")
        tr._generators[key] = len(gens(gg.group)) if gens else None
    if tr._generators[key] is None:
        return
    tr.count("cohomology.cocycles.tried", gg.carrier.order ** tr._generators[key])
    tr.count("cohomology.cocycles.accepted", len(result))


HOOKS = {
    "isometry.GeneratedGroup.enumeration": _enumeration,
    "intlinalg.frac_inverse": _frac_inverse,
    "cones.dd_rays": _dd_rays,
    "cones.reduce_into_domain": _reduce,
    "cohomology.enumerate_cocycles": _cocycles,
}


# --- the per-layer metrics ---------------------------------------------------------

# metric prefix -> the traced function it reads
FUNCTIONS = {
    "intlinalg.rank": "intlinalg.rank",
    "intlinalg.frac_inverse": "intlinalg.frac_inverse",
    "intlinalg.mat_mul": "intlinalg.mat_mul",
    "intlinalg.snf": "intlinalg.snf",
    "cones.dd_rays": "cones.dd_rays",
    "cones.reduce_into_domain": "cones.reduce_into_domain",
    "cones.interiors_meet_component": "cones.interiors_meet_component",
    "cones.dirichlet_domain": "cones.dirichlet_domain",
    "isometry.enumeration": "isometry.GeneratedGroup.enumeration",
    "isometry.stabilizer": "isometry.stabilizer",
    "isometry.isometry_group_definite": "isometry.isometry_group_definite",
    "cohomology.finite_subgroup_classes_matrix": "cohomology.finite_subgroup_classes_matrix",
    "cohomology.torsion_elements": "cohomology.torsion_elements",
    "cohomology.enumerate_cocycles": "cohomology.enumerate_cocycles",
    "cohomology.les_of_pointed_sets": "cohomology.les_of_pointed_sets",
    "cohomology.twist_fiber_check": "cohomology.twist_fiber_check",
    "cohomology.subgroups_up_to_conjugacy": "cohomology.FiniteGroup.subgroups_up_to_conjugacy",
    "hodge.classify_finite_subgroups_on_cone": "hodge.classify_finite_subgroups_on_cone",
}

# (metric, unit); the order is the order of BENCHMARK.json
LAYER_METRICS = [
    ("intlinalg.calls", "count"), ("intlinalg.self_s", "s"),
    ("intlinalg.rank.calls", "count"), ("intlinalg.rank.self_s", "s"),
    ("intlinalg.frac_inverse.calls", "count"), ("intlinalg.frac_inverse.self_s", "s"),
    ("intlinalg.frac_inverse.repeat_ratio", "ratio"),
    ("intlinalg.mat_mul.calls", "count"), ("intlinalg.mat_mul.self_s", "s"),
    ("intlinalg.snf.calls", "count"), ("intlinalg.snf.self_s", "s"),
    ("cones.self_s", "s"),
    ("cones.dd_rays.calls", "count"), ("cones.dd_rays.self_s", "s"),
    ("cones.dd_rays.rays_out", "count"),
    ("cones.reduce_into_domain.calls", "count"), ("cones.reduce_into_domain.self_s", "s"),
    ("cones.reduce_into_domain.steps_per_call", "steps/call"),
    ("cones.interiors_meet_component.calls", "count"),
    ("cones.interiors_meet_component.self_s", "s"),
    ("cones.dirichlet_domain.self_s", "s"),
    ("isometry.self_s", "s"),
    ("isometry.enumeration.calls", "count"), ("isometry.enumeration.elements", "count"),
    ("isometry.enumeration.repeat_ratio", "ratio"), ("isometry.enumeration.self_s", "s"),
    ("isometry.stabilizer.calls", "count"), ("isometry.stabilizer.self_s", "s"),
    ("isometry.isometry_group_definite.calls", "count"),
    ("isometry.isometry_group_definite.self_s", "s"),
    ("cohomology.self_s", "s"),
    ("cohomology.finite_subgroup_classes_matrix.self_s", "s"),
    ("cohomology.torsion_elements.self_s", "s"),
    ("cohomology.enumerate_cocycles.calls", "count"),
    ("cohomology.enumerate_cocycles.self_s", "s"),
    ("cohomology.cocycle_yield", "ratio"),
    ("cohomology.les_of_pointed_sets.self_s", "s"),
    ("cohomology.twist_fiber_check.self_s", "s"),
    ("cohomology.subgroups_up_to_conjugacy.self_s", "s"),
    ("hodge.self_s", "s"),
    ("hodge.classify_finite_subgroups_on_cone.self_s", "s"),
    ("lattice.calls", "count"), ("lattice.self_s", "s"),
    ("serialize.calls", "count"), ("serialize.self_s", "s"),
    ("cli.spawn_s", "s"), ("cli.import_s", "s"), ("cli.main_s", "s"),
    ("cli.failed.traceback", "count"), ("cli.failed.accepted_malformed", "count"),
    ("trace.overhead", "ratio"),
]


def merge(into, part):
    """Add one export() into another (cli children into the worker's)."""
    for name, (calls, total, self_s) in part["functions"].items():
        s = into["functions"].setdefault(name, [0, 0.0, 0.0])
        s[0] += calls
        s[1] += total
        s[2] += self_s
    for name, n in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    into["defined"] = sorted(set(into["defined"]) | set(part["defined"]))


def layer_metrics(export, extra):
    """Every per-layer metric: name -> value, or None when the traced
    function no longer exists in the library."""
    fns, counts, defined = export["functions"], export["counts"], set(export["defined"])
    out = {}
    for mod in ("intlinalg", "lattice", "serialize", "cones", "isometry", "cohomology", "hodge"):
        mine = [s for n, s in fns.items() if n.startswith(mod + ".")]
        out[f"{mod}.calls"] = sum(s[0] for s in mine)
        out[f"{mod}.self_s"] = sum(s[2] for s in mine)
    for prefix, fn in FUNCTIONS.items():
        s = fns.get(fn, [0, 0.0, 0.0]) if fn in defined else None
        out[f"{prefix}.calls"] = s[0] if s else None
        out[f"{prefix}.self_s"] = s[2] if s else None

    def ratio(num, den, fn):
        if fn not in defined:
            return None
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out["intlinalg.frac_inverse.repeat_ratio"] = ratio(
        "intlinalg.frac_inverse.repeats", "intlinalg.frac_inverse.keyed", FUNCTIONS["intlinalg.frac_inverse"])
    out["isometry.enumeration.repeat_ratio"] = ratio(
        "isometry.enumeration.repeats", "isometry.enumeration.keyed", FUNCTIONS["isometry.enumeration"])
    out["isometry.enumeration.elements"] = (
        counts.get("isometry.enumeration.elements", 0)
        if FUNCTIONS["isometry.enumeration"] in defined else None)
    out["cones.dd_rays.rays_out"] = (
        counts.get("cones.dd_rays.rays_out", 0) if "cones.dd_rays" in defined else None)
    steps_fn = FUNCTIONS["cones.reduce_into_domain"]
    calls = out["cones.reduce_into_domain.calls"]
    out["cones.reduce_into_domain.steps_per_call"] = (
        counts.get("cones.reduce_into_domain.steps", 0) / calls if calls else
        (0.0 if steps_fn in defined else None))
    out["cohomology.cocycle_yield"] = ratio(
        "cohomology.cocycles.accepted", "cohomology.cocycles.tried",
        FUNCTIONS["cohomology.enumerate_cocycles"])
    out.update(extra)
    return {name: out.get(name) for name, _ in LAYER_METRICS}
