"""The four benchmark workloads.

A workload's batch is ``sets`` draws of ``ops`` on the graphs ``setup``
builds (timed as set-up).  ``ops`` draws inputs from a seeded generator,
and each ``Op.run`` is one answer: one public call or one CLI invocation,
timed on its own.  Every seed gets a batch of the same shape and size; where
an input's size sets the cost, the draws are stratified (one per stratum of
a fixed range), so that seeds differ in the exact sites and counts only.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sandlab import cli, engine, graph_core, potentials

import checks


@dataclass
class Op:
    """One answer: ``run`` is timed; ``check`` and ``fingerprint`` are not."""

    kind: str
    witness: dict
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], bytes]
    failure: Callable[[object], str | None] = field(default=lambda answer: None)


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def stratified(rng, lo, hi, k) -> list[int]:
    """k integers, one uniform draw in each of k equal strata of [lo, hi)."""
    edges = np.linspace(lo, hi, k + 1).astype(int)
    return [int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _near(rng, g, cx, cy, spread):
    dx, dy = (int(d) for d in rng.integers(-spread, spread + 1, size=2))
    return g.vertex_at(cx + dx, cy + dy)


def _text(value) -> bytes:
    return repr(value).encode()


def _certify(predicate):
    return lambda x: checks.check_threshold(predicate, x)


class Drop:
    """Point drops near the center of grid 101, one stabilization each."""

    name = "drop"
    code = 1
    sets = 1
    side = 101
    per_set = 24
    counts = (1000, 4000)

    def setup(self, scratch):
        return {"g": graph_core.grid_sandpile(self.side)}

    def ops(self, ctx, rng):
        g = ctx["g"]
        mid = self.side // 2
        return [
            self._drop(g, _near(rng, g, mid, mid, 3), count)
            for count in stratified(rng, *self.counts, self.per_set)
        ]

    @staticmethod
    def _drop(g, v, count):
        placed = [0] * g.n_ordinary
        placed[v] = count
        return Op(
            kind="stabilize",
            witness={"site": g.coords[v], "count": count},
            run=lambda: engine.stabilize(g, engine.point_config(g, v, count)),
            check=lambda res: checks.check_stabilization(g, placed, res),
            fingerprint=lambda res: json.dumps(res.to_json()).encode(),
        )


class Thresholds:
    """Monotone threshold searches, each a chain of mid-size stabilizations."""

    name = "thresholds"
    code = 2
    sets = 2
    flood_radii = range(1, 13)
    pairs = 2

    def setup(self, scratch):
        return {
            "g51": graph_core.grid_sandpile(51),
            "g32": graph_core.grid_sandpile(32),
            "g48": graph_core.grid_sandpile(48),
            "line60": graph_core.line_sandpile(60),
        }

    def ops(self, ctx, rng):
        out = []
        g = ctx["g51"]
        for r in self.flood_radii:
            out.append(self._flood(g, _near(rng, g, 25, 25, 4), r))
        g = ctx["g32"]
        out.append(self._tcl(g, _near(rng, g, 15, 15, 3)))
        g = ctx["g48"]
        # the source-target distance and the ball radius set the cost:
        # one distance per stratum of [3, 9), ball radii 1, 2, 1, ...
        for i, d in enumerate(stratified(rng, 3, 9, self.pairs)):
            x, y = (23 + int(o) for o in rng.integers(-4, 5, size=2))
            v = g.vertex_at(x, y)
            dx = int(rng.integers(0, d + 1))
            sx, sy = (int(s) for s in rng.choice([-1, 1], size=2))
            w = g.vertex_at(x + sx * dx, y + sy * (d - dx))
            out.append(self._min_to_topple(g, v, w))
            out.append(self._min_to_topple_uniform(g, v, 1 + i % 2, w))
        g = ctx["line60"]
        out.append(self._tcl(g, int(rng.integers(26, 34))))
        return out

    @staticmethod
    def _flood(g, v, r):
        def run():
            return engine.flood_count(g, v, g.ordinary_ball(v, r))

        def check(x):
            ball = g.ordinary_ball(v, r)
            return checks.check_threshold(checks.flood_predicate(g, v, ball), x)

        return Op("flood_count", {"site": g.coords[v], "radius": r}, run, check, _text)

    @staticmethod
    def _tcl(g, v):
        return Op(
            kind="tcl_single_site",
            witness={"n": g.n_ordinary, "site": g.coords[v]},
            run=lambda: engine.tcl_single_site(g, v).value,
            check=_certify(checks.all_topple_predicate(g, v)),
            fingerprint=_text,
        )

    @staticmethod
    def _min_to_topple(g, v, w):
        point = lambda x: engine.point_config(g, v, x)  # noqa: E731
        return Op(
            kind="min_to_topple",
            witness={"source": g.coords[v], "target": g.coords[w]},
            run=lambda: engine.min_to_topple(g, v, w),
            check=_certify(checks.topple_predicate(g, point, w)),
            fingerprint=_text,
        )

    @staticmethod
    def _min_to_topple_uniform(g, v, r, w):
        def run():
            th = engine.min_to_topple_uniform(g, g.ordinary_ball(v, r), w)
            return th.h_topple, th.h_no_topple

        def check(answer):
            h, h_no = answer
            sites = g.ordinary_ball(v, r)
            uniform = lambda x: engine.uniform_config(g, sites, x)  # noqa: E731
            problems = checks.check_threshold(checks.topple_predicate(g, uniform, w), h)
            if h_no != h - 1:
                problems.append(f"h_no_topple {h_no} != h_topple - 1")
            return problems

        witness = {"center": g.coords[v], "radius": r, "target": g.coords[w]}
        return Op("min_to_topple_uniform", witness, run, check, _text)


class Fields:
    """Potential poles and resistances on one graph each side of the LU/CG switch."""

    name = "fields"
    code = 3
    sets = 2
    # (side, poles, resistance pairs); grid 64 has m = 4096 vertices, below
    # potentials.DIRECT_SOLVE_LIMIT, and grid 100 has m = 10 000, above it.
    graphs = ((64, 12, 8), (100, 6, 4))
    symmetric_pairs = 2

    def setup(self, scratch):
        return {side: graph_core.grid_sandpile(side) for side, _, _ in self.graphs}

    def ops(self, ctx, rng):
        out = []
        for side, n_poles, n_pairs in self.graphs:
            g = ctx[side]
            m = g.n_ordinary
            poles = [int(w) for w in rng.choice(m, size=n_poles, replace=False)]
            out += [self._pole(g, w) for w in poles]
            for i in range(n_pairs):
                u, v = (int(x) for x in rng.choice(m, size=2, replace=False))
                out.append(self._resistance(g, u, v, i < self.symmetric_pairs))
            cx, cy = (int(c) for c in rng.integers(4, side - 4, size=2))
            out.append(self._dual(g, g.vertex_at(cx, cy), int(rng.integers(1, 4)), poles[0]))
            out.append(self._laws(g, [(poles[1], poles[2])], [(poles[0], poles[1], poles[3])]))
        return out

    @staticmethod
    def _pole(g, w):
        return Op(
            kind="solve_potential",
            witness={"n": g.n_ordinary, "pole": w},
            run=lambda: potentials.solve_potential(g, w),
            check=lambda fld: checks.check_field(g, fld, w),
            fingerprint=lambda fld: np.asarray(fld.values).tobytes(),
        )

    @staticmethod
    def _resistance(g, u, v, symmetric):
        def check(r_uv):
            r_vu = potentials.effective_resistance(g, v, u) if symmetric else None
            return checks.check_resistance(r_uv, r_vu)

        return Op(
            kind="effective_resistance",
            witness={"n": g.n_ordinary, "u": u, "v": v},
            run=lambda: potentials.effective_resistance(g, u, v),
            check=check,
            fingerprint=_text,
        )

    @staticmethod
    def _dual(g, v, r, w):
        def check(answer):
            cert, bound = answer
            problems = []
            if not (np.isfinite(bound) and bound > 0 and bound == cert.objective):
                problems.append(f"dual bound {bound!r} not a positive objective")
            if cert.max_violation > 1e-9:
                problems.append(f"dual violation {cert.max_violation:.3e}")
            return problems

        return Op(
            kind="dual_threshold_bound",
            witness={"n": g.n_ordinary, "center": v, "radius": r, "pole": w},
            run=lambda: potentials.dual_threshold_bound(g, v, r, w),
            check=check,
            fingerprint=lambda answer: _text(answer[1]),
        )

    @staticmethod
    def _laws(g, pairs, triples):
        def check(rep):
            if (rep.reciprocity_checked, rep.triangle_checked) != (len(pairs), len(triples)):
                return ["potential_checks skipped a pair or triple"]
            return [] if rep.ok else [f"potential laws fail: {rep}"]

        return Op(
            kind="potential_checks",
            witness={"n": g.n_ordinary, "pairs": pairs, "triples": triples},
            run=lambda: potentials.potential_checks(g, pairs, triples),
            check=check,
            fingerprint=lambda rep: _text((rep.reciprocity_worst, rep.triangle_worst)),
        )


class CliMix:
    """In-process ``sandlab`` CLI invocations writing ``-o`` artifacts."""

    name = "cli_mix"
    code = 4
    sets = 4
    side = 16
    inner_radius = 4
    # radii of the flood runs: cheap answers in which the CLI's own parsing,
    # graph loading and artifact writing weigh most; they are most of the
    # batch, so that answer_p50_ms is one of them on every seed
    floods = (2, 3, 4, 5) * 3
    # each estimate pools grid 12 and grid 16, 4 samples each: a fit whose
    # draws all share one radius is refused by design (estimate_alpha), and
    # these 8 draws never did so in 3000 seeds (with 3 samples: 11 times)
    # ls and op, the dearest answers, twice: the tail percentile (the 11th
    # dearest answer) then falls among them on every seed
    estimates = ("hlc", "ls", "op", "ls", "op")
    estimate_sizes = "12,16"
    samples = 4

    def setup(self, scratch):
        g = graph_core.grid_sandpile(self.side)
        path = Path(scratch) / f"grid{self.side}.json"
        graph_core.save_graph(g, path)
        return {"g": g, "path": str(path), "dir": Path(scratch), "artifacts": 0}

    def ops(self, ctx, rng):
        out = []

        def artifact():
            ctx["artifacts"] += 1
            return str(ctx["dir"] / f"op{ctx['artifacts']}.out")

        # the central path runs through the grid center, so its length is
        # set by each endpoint's distance to the center: one pair per
        # combination of inner and outer ring
        for rings in ((0, 0), (0, 1), (1, 0), (1, 1)):
            p, q = (self._in_ring(rng, ring) for ring in rings)
            while q == p:
                q = self._in_ring(rng, rings[1])
            out.append(self._epicenter(ctx, artifact(), p, q))
        for prop in self.estimates:
            out.append(self._estimate(artifact(), prop, int(rng.integers(0, 1 << 16))))
        for r in self.floods:
            x, y = (int(c) for c in rng.integers(0, self.side, size=2))
            out.append(self._flood(ctx, artifact(), (x, y), r))
        return out

    def _in_ring(self, rng, ring):
        """A cell whose Chebyshev distance to the center is below
        ``inner_radius`` (ring 0) or not (ring 1)."""
        mid = (self.side - 1) // 2
        while True:
            x, y = (int(c) for c in rng.integers(0, self.side, size=2))
            if (max(abs(x - mid), abs(y - mid)) >= self.inner_radius) == bool(ring):
                return x, y

    @staticmethod
    def _op(kind, witness, args, artifact, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*args, "-o", artifact])
            return CliRun(code, out.getvalue(), err.getvalue())

        return Op(
            kind=kind,
            witness=witness,
            run=run,
            check=lambda res: check(res, Path(artifact).read_text()),
            fingerprint=lambda res: Path(artifact).read_bytes(),
            failure=lambda res: None if res.code == 0 else f"exit {res.code}: {res.stderr.strip()}",
        )

    def _epicenter(self, ctx, artifact, p, q):
        args = ["epicenter", "--graph", ctx["path"],
                "--source", "%d,%d" % p, "--target", "%d,%d" % q]
        return self._op(
            "epicenter", {"source": p, "target": q}, args, artifact,
            lambda res, text: checks.check_epicenter_trace(json.loads(text)["results"]),
        )

    def _estimate(self, artifact, prop, seed):
        args = ["estimate", prop, "--family", "grid", "--sizes", self.estimate_sizes,
                "--samples", str(self.samples), "--seed", str(seed)]
        sizes = self.estimate_sizes.split(",")

        def check(res, text):
            excluded = re.search(r"excluded=(\d+)", res.stdout)
            if excluded is None:
                return [f"no excluded count in {res.stdout!r}"]
            return checks.check_estimate_csv(text, sizes, self.samples, int(excluded[1]))

        return self._op("estimate", {"prop": prop, "seed": seed}, args, artifact, check)

    def _flood(self, ctx, artifact, site, r):
        g = ctx["g"]
        args = ["flood", "--graph", ctx["path"], "--site", "%d,%d" % site,
                "--radius", str(r)]

        def check(res, text):
            ball = g.ordinary_ball(g.vertex_at(*site), r)
            return checks.check_flood_report(json.loads(text), len(ball))

        return self._op("flood", {"site": site, "radius": r}, args, artifact, check)


WORKLOADS = {wl.name: wl for wl in (Drop(), Thresholds(), Fields(), CliMix())}

# Failures the benchmark counts in ``failed`` but that do not make a run
# incorrect: known program defects, each reported with its witness.
KNOWN_DEFECTS = (("epicenter", "path not (k,l)-central"),)


def is_known_defect(kind: str, error: str) -> bool:
    return any(kind == k and text in error for k, text in KNOWN_DEFECTS)
