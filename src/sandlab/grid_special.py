"""Square-lattice symmetry predicates, capacity formulas, and center drops.

Functions on the lattice (toppling counts, particle configurations) are
handled as finite-support maps with a designated center.  The predicates
check invariance under the dihedral group of the square about the center
and monotone growth toward the four symmetry axes; a function with both
properties has its support wedged between the diamond and the square of
the same radius.

A center drop on an odd grid preserves the dihedral symmetry in both the
toppling counts and the final configuration, but only the toppling counts
stay axis-monotone in general: stabilization hollows the middle out into
rings (dropping 4 particles already leaves an empty center inside a ring
of ones), so the final configuration usually fails the monotone check.
``check_preservation_lemma`` therefore reports the flags of both functions
separately; ``holds`` refers to the toppling counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import point_config, stabilize
from .errors import PreconditionError
from .graph_core import strip_sandpile

__all__ = [
    "LatticeFunction",
    "PreservationCheck",
    "symmetry_flags",
    "check_preservation_lemma",
    "ball_capacities",
    "support_sandwich",
]

_D4 = (
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
)


@dataclass
class LatticeFunction:
    """Finite-support function on lattice points, zero off the support."""

    center: tuple
    support: dict

    def __post_init__(self):
        clean = {}
        for p, val in self.support.items():
            val = int(val)
            if val < 0:
                raise PreconditionError(f"negative value at {p}")
            if val > 0:
                clean[(int(p[0]), int(p[1]))] = val
        self.support = clean
        self.center = (int(self.center[0]), int(self.center[1]))

    @classmethod
    def from_grid(cls, g, values, center_vertex):
        """Lift per-vertex values of a coordinate-carrying graph."""
        if g.coords is None:
            raise PreconditionError("graph carries no coordinates")
        g.check_ordinary(center_vertex, "center")
        support = {
            g.coords[v]: int(val) for v, val in enumerate(values) if int(val) != 0
        }
        return cls(center=g.coords[center_vertex], support=support)

    def value(self, p) -> int:
        return self.support.get((int(p[0]), int(p[1])), 0)

    def relative(self) -> dict:
        cx, cy = self.center
        return {(x - cx, y - cy): val for (x, y), val in self.support.items()}

    def to_json(self) -> dict:
        return {
            "center": list(self.center),
            "support": {f"{x},{y}": val for (x, y), val in sorted(self.support.items())},
        }


@dataclass(frozen=True)
class PreservationCheck:
    """Symmetry flags of a stabilized center drop, both functions."""

    grid_side: int
    particles: int
    toppling: LatticeFunction = field(repr=False)
    final: LatticeFunction = field(repr=False)
    toppling_d4: bool
    toppling_axis: bool
    final_d4: bool
    final_axis: bool

    @property
    def holds(self) -> bool:
        return self.toppling_d4 and self.toppling_axis


def _sgn(a: int) -> int:
    return (a > 0) - (a < 0)


def symmetry_flags(f: LatticeFunction):
    """(dihedral, axis_monotone) flags of ``f`` about its center.

    The dihedral check runs all eight square symmetries over the support.
    Axis monotonicity is checked through its generating single steps: one
    lattice step perpendicular toward the horizontal or vertical axis, or
    one diagonal step toward either diagonal axis from at least two
    off-axis levels away (a single level has no strictly closer point on
    the same side).
    """
    rel = f.relative()
    d4 = all(
        rel.get(t(x, y), 0) == val for (x, y), val in rel.items() for t in _D4
    )
    axis = True
    for (x, y), val in rel.items():
        if y != 0 and val > rel.get((x, y - _sgn(y)), 0):
            axis = False
            break
        if x != 0 and val > rel.get((x - _sgn(x), y), 0):
            axis = False
            break
        d = y - x
        if abs(d) >= 2 and val > rel.get((x + _sgn(d), y - _sgn(d)), 0):
            axis = False
            break
        s = x + y
        if abs(s) >= 2 and val > rel.get((x - _sgn(s), y - _sgn(s)), 0):
            axis = False
            break
    return d4, axis


def check_preservation_lemma(n: int, particles: int) -> PreservationCheck:
    """Drop ``particles`` on the center of an n x n grid and flag symmetry.

    ``n`` must be odd so the center is a lattice point.  The toppling
    counts always come out dihedral and axis-monotone (the starting point
    mass is); the final configuration keeps the dihedral symmetry only,
    see the module notes.
    """
    if n < 1:
        raise PreconditionError("grid side must be positive")
    if n % 2 == 0:
        raise PreconditionError("center undefined")
    if particles < 0:
        raise PreconditionError("particle count must be nonnegative")
    g = strip_sandpile(n, n)
    mid = (n - 1) // 2
    center = g.vertex_at(mid, mid)
    res = stabilize(g, point_config(g, center, particles))
    toppling = LatticeFunction.from_grid(g, res.score, center)
    final = LatticeFunction.from_grid(g, res.stable, center)
    t_d4, t_axis = symmetry_flags(toppling)
    f_d4, f_axis = symmetry_flags(final)
    return PreservationCheck(
        grid_side=int(n),
        particles=int(particles),
        toppling=toppling,
        final=final,
        toppling_d4=t_d4,
        toppling_axis=t_axis,
        final_d4=f_d4,
        final_axis=f_axis,
    )


def ball_capacities(n: int):
    """Stable particle capacity of the radius-n square and diamond.

    Each lattice site holds at most 3 particles in a stable state, so the
    capacities are three times the site counts: (3(2n+1)^2, 6n^2+6n+3).
    By the support sandwich, flooding the radius-n diamond from its centre
    costs at most ``ball_capacities(n - 1)[0] + 1`` particles; the diamond's
    own capacity is no such bound.
    """
    if n < 0:
        raise PreconditionError("radius must be nonnegative")
    return 3 * (2 * n + 1) ** 2, 6 * n * n + 6 * n + 3


def support_sandwich(f: LatticeFunction):
    """Radius and containment of the support between diamond and square.

    Requires both symmetry flags; ``r`` is the largest sup-norm distance
    of a support point from the center and ``ok`` says whether the
    radius-r diamond sits inside the support and the support inside the
    radius-r square.
    """
    d4, axis = symmetry_flags(f)
    if not (d4 and axis):
        raise PreconditionError("function is not symmetric and axis-monotone")
    rel = f.relative()
    if not rel:
        return 0, True
    r = max(max(abs(x), abs(y)) for x, y in rel)
    diamond_inside = all(
        (x, y) in rel
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        if abs(x) + abs(y) <= r
    )
    square_holds = all(max(abs(x), abs(y)) <= r for x, y in rel)
    return r, diamond_inside and square_holds
