"""Verdicts do not depend on the frame: axis swaps, reflections, dyadic shifts.

A drawn 1-D or 2-D window (a bowl, a vee peak or a kinked-linear utility on
a grid of at most 100 points with dyadic bounds and steps) is moved by a map
T x = P S x + t: P swaps the axes or not, S reflects some of them, and t is
a dyadic shift. The moved problem's utility is u(T^-1 x), its grid the
image of the grid, its cone oracle the image of the cones, and its box
sampler has a dyadic radius and step, so every score, displacement and
lattice point maps exactly. `maximal_elements`, `svip_solutions` (with the
ground sample and with the box sampler), `mvip_solutions` and
`zero_maximality_check`, at tol 0 and 1e-9, must then give the image of
the original's answer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (Cone, GroundSet, Point, Relation, gap_from_utility, maximal_elements,
                     mvip_solutions, svip_solutions, zero_maximality_check)
from prefmax.cones import BoxSampler

from exact_reference import window_utility

FRAMES = settings(settings.get_profile("differential"), max_examples=25)
_DYADIC = st.integers(-8, 8).map(lambda k: k / 4.0)


def _oracle(kind, c):
    """The normal cone of the strictly-better set at x, for a bowl (the ray
    of x - c) and a vee peak (the normal of the diamond's face, or the
    wedge of the two at a vertex); the whole space at c."""
    def oracle(p):
        d = np.subtract(p.coords, c)
        if not d.any():
            return Cone.full(len(c))
        if kind == "bowl" or len(c) == 1:
            return Cone.ray(tuple(d.tolist()))
        s = np.sign(d)
        if s.all():
            return Cone.ray(tuple(s.tolist()))
        k = int(np.flatnonzero(s)[0])
        gens = []
        for t in (-1.0, 1.0):
            g = np.full(2, t)
            g[k] = s[k]
            gens.append(tuple(g.tolist()))
        return Cone.generated(gens)

    return oracle


class Frame:
    """x -> P S x + t, with its inverse, on points, coordinate columns and
    grid axes."""

    def __init__(self, swap, signs, shift):
        self.swap, self.signs, self.shift = swap, np.array(signs), np.array(shift)

    def _perm(self, v):
        return v[::-1] if self.swap else v

    def point(self, x):
        return Point(tuple((self._perm(np.array(x.coords) * self.signs) + self.shift).tolist()))

    def back(self, x):
        return Point(tuple((self._perm(np.array(x.coords) - self.shift) * self.signs).tolist()))

    def columns(self, X):
        X = [np.asarray(x, dtype=float) - t for x, t in zip(X, self.shift)]
        return [s * x for s, x in zip(self.signs, self._perm(X))]

    def axes(self, axes):
        moved = [(lo, hi, st) if s > 0 else (-hi, -lo, st)
                 for (lo, hi, st), s in zip(axes, self.signs)]
        return [(lo + t, hi + t, st) for (lo, hi, st), t in zip(self._perm(moved), self.shift)]

    def cone(self, cone):
        if cone.tag != "generated":
            return cone
        return Cone.generated([self._perm(np.array(g.coords) * self.signs).tolist()
                               for g in cone.generators])


@st.composite
def moved_windows(draw):
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("bowl", "vee", "kinked")))
    c = tuple(draw(_DYADIC) for _ in range(dim))
    a = tuple(draw(st.sampled_from((1.0, -2.0, 0.5))) for _ in range(dim))
    step = draw(st.sampled_from((0.25, 0.125)))
    axes = []
    for _ in range(dim):
        lo, n = draw(_DYADIC), draw(st.integers(2, 20 if dim == 1 else 10))
        axes.append((lo, lo + (n - 1) * step, step))
    frame = Frame(dim == 2 and draw(st.booleans()),
                  [draw(st.sampled_from((1.0, -1.0))) for _ in range(dim)],
                  [draw(_DYADIC) for _ in range(dim)])
    box = draw(st.sampled_from(((0.0625, 0.0625), (0.0625, 0.03125), (0.25, 0.0625),
                                (0.5, 0.125))))
    return kind, c, a, axes, frame, box


def _answers(rel, u, ground, oracle, box, tol):
    sampler = BoxSampler(rel, *box)
    return {
        "maximal": maximal_elements(rel, ground),
        "svip": svip_solutions(rel, ground, oracle, tol=tol),
        "svip-box": svip_solutions(rel, ground, tol=tol, contour_sampler=sampler),
        "mvip": mvip_solutions(oracle, ground, tol) if oracle is not None else [],
        "zero-maximality": zero_maximality_check(gap_from_utility(u, 1.0), rel, ground,
                                                 tol).holds,
    }


@FRAMES
@given(moved_windows(), st.sampled_from((0.0, 1e-9)))
def test_verdicts_map_to_the_moved_frame(case, tol):
    kind, c, a, axes, frame, box = case
    u, cols = window_utility(kind, c, a)
    rel = Relation.from_utility(kind, len(c), u, columns=cols)
    oracle = _oracle(kind, c) if kind != "kinked" else None
    moved_u = lambda x: u(frame.back(Point(tuple(x))).coords)
    moved = Relation.from_utility(kind, len(c), moved_u, columns=lambda X: cols(frame.columns(X)))
    moved_oracle = (lambda p: frame.cone(oracle(frame.back(p)))) if oracle is not None else None
    ground = GroundSet.grid(axes)
    moved_ground = GroundSet.grid(frame.axes(axes))
    assert {frame.point(x) for x in ground} == set(moved_ground)
    want = _answers(rel, u, ground, oracle, box, tol)
    got = _answers(moved, moved_u, moved_ground, moved_oracle, box, tol)
    for check, listing in want.items():
        if isinstance(listing, list):
            assert {frame.back(x) for x in got[check]} == set(listing), check
        else:
            assert got[check] == listing, check
