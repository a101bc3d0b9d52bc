"""Span recorder for the traced run, and the per-layer metrics it yields.

``Tracer.install`` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent) around every call.
It patches by identity in every ``sandlab`` module, so names one module
imports from another (``estimators`` and ``epicenter`` import from
``engine``) are traced too.  Nothing under ``src/`` changes; ``uninstall``
puts the originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import types
import weakref
from time import perf_counter

# grid_special is not a traced layer: no CLI command or open item targets
# it, and its calls are cheap.  The engine names it imports are traced.
LAYERS = ("graph_core", "engine", "potentials", "estimators", "epicenter", "cli")
BUILD = {"graph_core.gen_family", "graph_core.grid_sandpile", "graph_core.line_sandpile"}
SEARCH = {
    "engine.flood_count",
    "engine.min_to_topple",
    "engine.min_to_topple_uniform",
    "engine.tcl_single_site",
}
ESTIMATE = {f"estimators.estimate_{p}" for p in ("alpha", "hlc", "mv", "ls", "op")}
STABILIZE = "engine.stabilize"
SOLVE = "potentials.solve_potential"
CLI_MAIN = "cli.main"
LOAD = "graph_core.load_graph"
FIELD_GRAPHS = ("grid64", "grid100")


def _public_functions(layer, module):
    names = getattr(module, "__all__", None) or ["main"]
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield f"{layer}.{name}", obj


def _graph_label(g) -> str:
    side = math.isqrt(g.n_ordinary)
    return f"grid{side}" if side * side == g.n_ordinary and side > 1 else f"m{g.n_ordinary}"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._graph_serial = weakref.WeakKeyDictionary()
        self._serials = itertools.count(1)
        self._returned_fields: dict[int, weakref.ref] = {}
        self._notes = {
            STABILIZE: self._note_stabilize,
            "engine.flood_count": lambda a, k, x: {"answer": x, "placed": x},
            "engine.min_to_topple": lambda a, k, x: {"answer": x, "placed": x},
            "engine.min_to_topple_uniform": self._note_uniform,
            "engine.tcl_single_site": lambda a, k, x: {"answer": x.value, "placed": x.value},
            SOLVE: self._note_solve,
            "epicenter.propagate": lambda a, k, x: {"steps": len(x.steps)},
            **{name: self._note_estimate for name in ESTIMATE},
        }

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn):
        note = self._notes.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        import sandlab
        import sandlab.cli
        from sandlab import graph_core, grid_special

        layers = {layer: getattr(sandlab, layer) for layer in LAYERS}
        originals = {}
        for layer, module in layers.items():
            for name, fn in _public_functions(layer, module):
                originals[id(fn)] = self.wrap(name, fn)
        for module in (sandlab, grid_special, *layers.values()):
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cls = graph_core.SandpileGraph
        self._patches.append((cls, "ordinary_ball", cls.ordinary_ball))
        cls.ordinary_ball = self.wrap("graph_core.ordinary_ball", cls.ordinary_ball)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- span attributes -------------------------------------------------

    @staticmethod
    def _note_stabilize(args, kwargs, res):
        counts = args[1] if len(args) > 1 else kwargs["counts"]
        placed = sum(counts.values()) if isinstance(counts, dict) else sum(counts)
        return {"topplings": int(res.topplings_total), "placed": int(placed)}

    @staticmethod
    def _note_uniform(args, kwargs, res):
        sites = args[1] if len(args) > 1 else kwargs["sites"]
        n_sites = len(set(int(s) for s in sites))
        return {"answer": res.h_topple, "placed": res.h_topple * n_sites}

    @staticmethod
    def _note_estimate(args, kwargs, report):
        return {"samples": len(report.sizes) * report.samples_per_size}

    def _note_solve(self, args, kwargs, fld):
        g = args[0] if args else kwargs["g"]
        serial = self._graph_serial.get(g)
        if serial is None:
            serial = self._graph_serial[g] = next(self._serials)
        ref = self._returned_fields.get(id(fld))
        hit = ref is not None and ref() is fld
        if not hit:
            self._returned_fields[id(fld)] = weakref.ref(fld)
        return {
            "graph": _graph_label(g),
            "serial": serial,
            "hit": hit,
            "residual": float(fld.residual),
        }

    # -- export ----------------------------------------------------------

    def to_json(self):
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e, "attrs": a}
            for i, (n, s, e, p, a) in enumerate(self.spans)
        ]


def batch_spans(spans, lo, hi) -> list[list]:
    """Spans ``lo`` to ``hi - 1`` (one batch), parent links re-based to them."""
    return [[n, s, e, p - lo if p >= 0 else -1, a] for n, s, e, p, a in spans[lo:hi]]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from finished spans (see BENCHMARK.json)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def outer_time(names):
        """Time inside any of ``names``, counting nested calls once."""
        return sum(
            (dur[i]
             for i, s in enumerate(spans)
             if s[0] in names and not any(spans[a][0] in names for a in ancestors(i))),
            0.0,
        )

    def named(names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def attrs(i):
        return spans[i][4] or {}

    def ratio(a, b):
        return a / b if b else 0.0

    stab = named({STABILIZE})
    stabilize_s = sum((dur[i] - child_time[i] for i in stab), 0.0)
    topplings = sum(attrs(i).get("topplings", 0) for i in stab)

    searches = [i for i in named(SEARCH) if "answer" in attrs(i)]
    probes = useful = probe_topplings = 0
    for i in searches:
        kids = [c for c in children[i] if spans[c][0] == STABILIZE]
        probes += len(kids)
        probe_topplings += sum(attrs(c).get("topplings", 0) for c in kids)
        at_answer = [c for c in kids if attrs(c).get("placed") == attrs(i)["placed"]]
        useful += attrs(at_answer[0]).get("topplings", 0) if at_answer else 0

    solves = [i for i in named({SOLVE}) if "graph" in attrs(i)]
    first, later = {}, {}
    seen_graphs = set()
    for i in solves:
        a = attrs(i)
        if a["hit"]:
            continue
        if a["serial"] in seen_graphs:
            later.setdefault(a["graph"], []).append(dur[i])
        else:
            seen_graphs.add(a["serial"])
            first.setdefault(a["graph"], []).append(dur[i])

    estimates = named(ESTIMATE)
    samples = sum(attrs(i).get("samples", 0) for i in estimates)

    prop = named({"epicenter.propagate"})
    steps = sum(attrs(i).get("steps", 0) for i in prop)
    step_probes = sum(
        1
        for i in stab
        if any(spans[a][0] == "epicenter.propagate" for a in ancestors(i))
        and not any(spans[a][0] in SEARCH for a in ancestors(i))
    )

    mains = named({CLI_MAIN})
    cli_self = sum(
        dur[i] - sum(dur[c] for c in children[i] if spans[c][0] != LOAD) for i in mains
    )

    out = {
        "graph_core.build_s": outer_time(BUILD),
        "graph_core.load_graph_s": outer_time({LOAD}),
        "graph_core.ball_calls": len(named({"graph_core.ordinary_ball"})),
        "graph_core.ball_s": outer_time({"graph_core.ordinary_ball"}),
        "engine.stabilize_calls": len(stab),
        "engine.stabilize_s": stabilize_s,
        "engine.topplings": topplings,
        "engine.topplings_per_s": ratio(topplings, stabilize_s),
        "engine.probes_per_answer": ratio(probes, len(searches)),
        "engine.search_useful_ratio": ratio(useful, probe_topplings),
        "engine.search_probe_topplings": probe_topplings,
        "engine.search_s": sum((dur[i] - child_time[i] for i in named(SEARCH)), 0.0),
        "potentials.reff_s": outer_time({"potentials.effective_resistance"}),
        "potentials.cache_hit_ratio": ratio(
            sum(1 for i in solves if attrs(i)["hit"]), len(solves)
        ),
        "potentials.residual_max": max(
            (attrs(i)["residual"] for i in solves), default=0.0
        ),
        "estimators.per_sample_ms": 1000 * ratio(outer_time(ESTIMATE), samples),
        "epicenter.propagate_s": outer_time({"epicenter.propagate"}),
        "epicenter.steps": steps,
        "epicenter.probes_per_step": ratio(step_probes, steps),
        "cli.overhead_ms": 1000 * ratio(cli_self, len(mains)),
    }
    for label in FIELD_GRAPHS:
        out[f"potentials.first_solve_ms.{label}"] = 1000 * (
            statistics.median(first[label]) if label in first else 0.0
        )
        out[f"potentials.solve_p50_ms.{label}"] = 1000 * (
            statistics.median(later[label]) if label in later else 0.0
        )
    return out
