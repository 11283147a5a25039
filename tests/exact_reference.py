"""Exact references for 1-D and 2-D cone shapes and tol-0 Stampacchia listings.

Every coordinate is read exactly: the floats of a set of vectors are scaled
by one power of two into Python ints, so that every product, cross product
and sign below is exact, as `fractions.Fraction` arithmetic would be, and
fast enough for a whole ground.

`cone_shape_ref` reads the shape of the cone of a set of directions by
signs against its first direction d: the directions strictly on either side
of d, each side's outermost one (by cross-product signs within the side),
and whether -d is present. That is another route than the library's, which
reads the signs of float products exactly and finds each side's end by a
pairwise tournament (`cones._shapes`). A sample's displacements are its
points less its base, as floats, the vectors every membership test reads.

A sampled base's cone is read from its sample plus its strictly-better
ground neighbours (`strictly_better_neighbours_ref`): on each axis the
ground's sorted distinct coordinates, and a neighbour that has, on every
axis, the base's own coordinate or the next one below or above it, found
by ground coordinates in a set of tuples, as another route than the
library's rank keys (`points.ground_neighbours`).

`svip_listing_ref` is the tol-0 Stampacchia decision of each base x with
the normal cone N at x: zero is a witness when N holds a line, there is
none when N = {0}, and otherwise N is a ray or a wedge with edges e1, e2
and x is a solution iff some w = (1 - t) e1 + t e2, t in [0, 1], has
<w, h - x> >= 0 at every hull vertex h of the ground: a linear form takes
its minimum over a finite set at a vertex of its hull (Facchinei and Pang,
2003, ch. 1), and a grid's hull vertices are its corners. In 1-D that is a
sign test at the two ends.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from prefmax.cones import FULL, HALF, LINE, RAY, WEDGE, ZERO, ContourSample


def exact_ints(rows) -> list[tuple[int, ...]]:
    """The rows (sequences of finite floats) times one common power of two,
    as tuples of ints: exact, and every sign of a polynomial in them is the
    sign of the same polynomial in the floats."""
    if not len(rows):
        return []
    A = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    m, e = np.frexp(A)
    # m * 2^53 is an int for every float; shifting it by e - low keeps it one
    low = int(e[m != 0].min()) if m.any() else 0
    M, E = (m * 2.0 ** 53).astype(np.int64).tolist(), (e - low).tolist()
    return [tuple(a << b if a else 0 for a, b in zip(ra, rb)) for ra, rb in zip(M, E)]


def unit_ref(v) -> tuple[float, ...]:
    """The unit vector along an int vector, to within an ulp or two."""
    m = max(map(abs, v))
    w = [float(Fraction(c, m)) for c in v]
    n = math.hypot(*w)
    return tuple(c / n for c in w)


def cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def cone_shape_ref(directions) -> tuple:
    """(shape, first, last) of the cone of a set of int directions (zero
    ones add nothing): the cone runs counterclockwise from `first` to
    `last`, which are members of the set; None where the shape has no
    edges. Shapes are the library's constants."""
    D = [d for d in directions if any(d)]
    if not D:
        return ZERO, None, None
    d = D[0]
    if len(d) == 1:
        pos, neg = any(e[0] > 0 for e in D), any(e[0] < 0 for e in D)
        if pos and neg:
            return FULL, None, None
        return RAY, d, d
    left, right, opposite = [], [], []
    for e in D:
        turn = cross(d, e)
        (left if turn > 0 else right if turn < 0 else opposite if dot(d, e) < 0 else []).append(e)
    lmax = lmin = None
    for e in left:  # the most counterclockwise of the left side
        lmax = e if lmax is None or cross(lmax, e) > 0 else lmax
    for e in right:  # the most clockwise of the right side
        lmin = e if lmin is None or cross(e, lmin) > 0 else lmin
    if opposite:
        if left and right:
            return FULL, None, None
        if left:
            return HALF, d, opposite[0]
        if right:
            return HALF, opposite[0], d
        return LINE, d, opposite[0]
    if not left and not right:
        return RAY, d, d
    if not right:
        return WEDGE, d, lmax
    if not left:
        return WEDGE, lmin, d
    turn = cross(lmin, lmax)
    if turn > 0:
        return WEDGE, lmin, lmax
    return (HALF, lmin, lmax) if turn == 0 else (FULL, None, None)


def polar_ref(shape: tuple) -> tuple:
    """The polar's (shape, first, last): in 2-D a cone from f to l has the
    polar from l turned counterclockwise to f turned clockwise; in 1-D a
    ray's polar is the opposite ray."""
    kind, f, l = shape
    if kind in (ZERO, FULL):
        return (FULL if kind == ZERO else ZERO), None, None
    if len(f) == 1:
        return (ZERO, None, None) if kind == FULL else (RAY, (-f[0],), (-l[0],))
    polar = {RAY: HALF, WEDGE: WEDGE, HALF: RAY, LINE: LINE}[kind]
    return polar, (-l[1], l[0]), (f[1], -f[0])


def holds_line(shape: tuple) -> bool:
    kind, f, _ = shape
    return kind == FULL or (kind in (HALF, LINE) and f is not None and len(f) == 2)


def corners(ground) -> list[tuple[float, ...]]:
    """The corners of a grid ground's bounding box: its hull vertices."""
    cols = list(zip(*[tuple(p) for p in ground]))
    return [tuple(c) for c in product(*[(min(col), max(col)) for col in cols])]


def stampacchia_ref(shape: tuple, xhat, hull) -> bool:
    """The tol-0 Stampacchia decision at xhat with normal cone `shape` (ints,
    on the scale of `exact_ints`), against the ground hull vertices `hull`
    (floats), whose displacements h - xhat are the float differences."""
    kind, e1, e2 = shape
    if holds_line(shape):
        return True
    if kind == ZERO:
        return False
    V = exact_ints([tuple(h - x for h, x in zip(p, xhat)) for p in hull])
    lo, hi = Fraction(0), Fraction(1)
    for v in V:
        a, b = dot(e1, v), dot(e2, v)  # a + t (b - a) >= 0
        if a == b:
            if a < 0:
                return False
        elif b > a:
            lo = max(lo, Fraction(-a, b - a))
        else:
            hi = min(hi, Fraction(-a, b - a))
    return lo <= hi


def sample_normal_cone_ref(sample) -> tuple:
    """The polar of the cone of a sample's float displacements y - x (each
    coordinate one float subtraction), exactly."""
    D = exact_ints(sample.points - np.array(sample.base.coords))
    return polar_ref(cone_shape_ref(D))


def strictly_better_neighbours_ref(better, ground) -> dict:
    """coordinates -> the coordinates of the ground points one lattice step
    from that point (on each axis its own coordinate or the ground's next
    distinct one below or above, not all its own) that `better(y, x)` ranks
    strictly above it, in the order of `itertools.product` over (-1, 0, 1)
    per axis."""
    pts = [tuple(p) for p in ground]
    axes = [sorted(set(col)) for col in zip(*pts)]
    rank = [{c: i for i, c in enumerate(a)} for a in axes]
    have = set(pts)
    out = {}
    for x in pts:
        near = []
        for o in product((-1, 0, 1), repeat=len(x)):
            at = [rank[k][c] + o[k] for k, c in enumerate(x)]
            if any(o) and all(0 <= i < len(a) for i, a in zip(at, axes)):
                y = tuple(a[i] for i, a in zip(at, axes))
                if y in have and better(y, x):
                    near.append(y)
        out[x] = near
    return out


def with_neighbours(sample, near) -> ContourSample:
    """The sample with the points `near` added after its own."""
    return ContourSample(sample.base, sample.points.tolist() + [list(y) for y in near])


def oracle_cone_ref(cone) -> tuple:
    """The shape of a `Cone` of an oracle, from its generators exactly."""
    if cone.tag != "generated":
        return (FULL if cone.tag == "full" else ZERO), None, None
    return cone_shape_ref(exact_ints([g.coords for g in cone.generators]))


def svip_listing_ref(cones: dict, ground) -> list:
    """The points of the ground, in order, that solve the tol-0 Stampacchia
    problem with the normal cones `cones` (coordinates -> shape)."""
    hull = corners(ground)
    return [x for x in ground if stampacchia_ref(cones[x.coords], x.coords, hull)]


def assert_body_is_the_shape(body, shape) -> None:
    """A library body against an exact (shape, first, last): {0} gives no
    vertex; a ray or a wedge its unit edges, each within a few eps of its
    direction; a cone that holds a line a body that holds zero exactly,
    whose vertices are unit vectors."""
    kind, f, l = shape
    V = body.vertices.tolist()
    if kind == ZERO:
        assert V == []
    elif holds_line(shape):
        assert getattr(body, "_holds_zero") is True
        assert all(abs(math.hypot(*v) - 1.0) <= 1e-15 for v in V)
    else:
        assert len(V) == (1 if kind == RAY else 2)
        for v, e in zip((V[0], V[-1]), (f, l)):
            assert all(abs(a - b) <= 1e-15 for a, b in zip(v, unit_ref(e)))


def window_utility(kind: str, c, a) -> tuple:
    """A utility and its column form for drawn windows, in the dimension of
    c: a bowl -|x - c|^2, a vee peak -|x - c|_1, or a kinked-linear
    min(<a, x>, -<a, x - c>). With dyadic c, a and points, every score is
    exact."""
    def cols(X):
        X = [np.asarray(x, dtype=float) for x in X]
        if kind == "bowl":
            return -sum((x - ci) ** 2 for x, ci in zip(X, c))
        if kind == "vee":
            return -sum(np.abs(x - ci) for x, ci in zip(X, c))
        return np.minimum(sum(ai * x for ai, x in zip(a, X)),
                          -sum(ai * (x - ci) for ai, x, ci in zip(a, X, c)))

    return (lambda x: float(cols([np.array([xi]) for xi in x])[0])), cols
