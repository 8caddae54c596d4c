"""Plane lattice cones, their hull polygons, and the supplementary duality.

A strictly convex rational cone is reduced to a *normal form* pair
``(p, q)`` with ``0 <= q < p`` and ``gcd(p, q) = 1``: a unimodular change
of basis puts its first edge ray on ``(1, 0)`` and its second on
``(-q, p)``.  The pair ``(1, 0)`` encodes a regular (unimodular) cone.

For a non-regular cone, the boundary of the convex hull of the nonzero
lattice points inside it is a polygonal chain ``A_0, ..., A_{r+1}`` from
one edge to the other.  Consecutive triangles ``O A_n A_{n+1}`` are
elementary, which forces relations ``A_{n+1} + A_{n-1} = w_n * A_n`` with
integer weights ``w_n >= 2``; the weight sequence is exactly the
subtractive continued-fraction expansion of ``p/q``.  :func:`polygon`
builds the chain from that expansion, while :func:`hull_oracle` rebuilds
it by a direct convex-hull computation and is used to cross-check.

Orientation conventions, fixed once for the whole module:

* the plane is oriented so that turning from the first edge towards the
  second inside the cone is the positive (counterclockwise) sense; in
  normal-form coordinates this is the standard orientation;
* the volume form used to identify the lattice with its dual takes the
  value 1 on bases of the *opposite* orientation, i.e.
  ``omega(u)(z) = cross(z, u)``; with this convention the supplementary
  cone maps isomorphically onto the dual cone (:func:`dual_cone`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._values import Value, _set
from .cf import hj_terms
from .errors import DegenerateCone, DomainError, InternalError, RegularCone, ZeroVector

Vec = tuple[int, int]


def cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def primitive(v: Vec) -> Vec:
    """The primitive lattice vector on the ray of v."""
    if v == (0, 0):
        raise ZeroVector("the zero vector spans no ray")
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def integral_length(a: Vec, b: Vec) -> int:
    """Number of unit lattice steps on the segment [a, b]."""
    if a == b:
        raise ZeroVector("integral length needs two distinct points")
    return math.gcd(b[0] - a[0], b[1] - a[1])


class Mat2(Value):
    """A 2x2 integer matrix acting on column vectors; unimodular when |det| = 1."""

    __slots__ = ("a", "b", "c", "d")
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def apply(self, v: Vec) -> Vec:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        det = self.det()
        if det not in (1, -1):
            raise DomainError(f"matrix with det {det} has no integer inverse")
        return Mat2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def compose(self, other: "Mat2") -> "Mat2":
        """self applied after other."""
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = Mat2(1, 0, 0, 1)

#: Frame change between a cone in normal form and its supplementary cone:
#: the supplementary frame is (-A_0, A_1 - A_0), so coordinates transform by
#: (x, y) -> (-x - y, y).  The map is an involution.
SUPPLEMENTARY_MAP = Mat2(-1, -1, 0, 1)


class ConeNF(Value):
    """Normal form (p, q) of a strictly convex rational cone."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        if not (0 <= q < p) or math.gcd(p, q) != 1:
            raise DomainError(f"({p}, {q}) is not a cone normal form")
        _set(self, "p", p)
        _set(self, "q", q)

    @property
    def is_regular(self) -> bool:
        return self.p == 1

    def value(self) -> Fraction:
        """The type p/q of the cone, as an exact rational."""
        if self.is_regular:
            raise RegularCone("a regular cone has no type")
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class ConePolygon(Value):
    """The compact hull chain of a cone, in normal-form coordinates.

    ``points`` runs from A_0 = (1, 0) to A_{r+1} = (-q, p); ``weights`` are
    the r interior relations; ``vertex_indices`` marks the endpoints and
    every interior point of weight >= 3.
    """

    __slots__ = ("points", "weights", "vertex_indices")
    points: tuple[Vec, ...]
    weights: tuple[int, ...]
    vertex_indices: tuple[int, ...]

    def __init__(self, points: tuple[Vec, ...], weights: tuple[int, ...],
                 vertex_indices: tuple[int, ...]):
        _set(self, "points", points)
        _set(self, "weights", weights)
        _set(self, "vertex_indices", vertex_indices)

    @property
    def r(self) -> int:
        return len(self.weights)

    def compact_edges(self) -> tuple[tuple[int, int], ...]:
        """Consecutive vertex index pairs, one per compact edge of the chain."""
        v = self.vertex_indices
        return tuple(zip(v, v[1:]))


def cone_normal_form(u_minus: Vec, u_plus: Vec) -> tuple[ConeNF, Mat2]:
    """Normal form of the cone spanned by two rays, with the basis change.

    The returned map sends ``primitive(u_minus)`` to (1, 0) and
    ``primitive(u_plus)`` to (-q, p).  Swapping the rays replaces q by its
    inverse mod p.
    """
    u = primitive(u_minus)
    v = primitive(u_plus)
    if cross(u, v) == 0:
        raise DegenerateCone(f"rays through {u} and {v} do not span a cone")
    # complete u to a basis (u, w) with cross(u, w) = 1, flipping w so that
    # v = alpha*u + beta*w has beta > 0; the final shear makes the map the
    # same whichever such w is taken
    if u[1]:
        x = pow(u[0], -1, abs(u[1]))  # u[0]*x = 1 mod u[1]: the division is exact
        w = ((u[0] * x - 1) // u[1], x)
    else:  # u = (+-1, 0)
        w = (0, u[0])
    if cross(u, v) < 0:
        w = (-w[0], -w[1])
    d = cross(u, w)
    alpha = cross(v, w) * d
    beta = cross(u, v) * d
    p, q = beta, (-alpha) % beta
    # basis-coordinate map followed by the shear fixing u and moving v to (-q, p)
    basis = Mat2(w[1] * d, -w[0] * d, -u[1] * d, u[0] * d)
    k = (-q - alpha) // beta
    to_nf = Mat2(1, k, 0, 1).compose(basis)
    return ConeNF(p, q), to_nf


def polygon(cone: ConeNF) -> ConePolygon:
    """Hull chain of a non-regular cone, generated from the weight recursion.

    Seeds A_0 = (1, 0), A_1 = (0, 1) and applies
    ``A_{n+1} = w_n * A_n - A_{n-1}`` with the weights given by the
    subtractive expansion of p/q; the chain closes at (-q, p).
    """
    if cone.is_regular:
        raise RegularCone("a regular cone has no hull polygon data")
    weights = hj_terms(cone.p, cone.q)
    pts = [(1, 0), (0, 1)]
    for w in weights:
        a, b = pts[-1], pts[-2]
        pts.append((w * a[0] - b[0], w * a[1] - b[1]))
    if pts[-1] != (-cone.q, cone.p):
        raise InternalError(f"chain for {cone} did not close at (-q, p)")
    vertices = (0,) + tuple(n for n, w in enumerate(weights, 1) if w >= 3) + (len(pts) - 1,)
    return ConePolygon(tuple(pts), weights, vertices)


def hull_oracle(cone: ConeNF) -> ConePolygon:
    """Hull chain recomputed by direct convex-hull geometry.

    In normal-form coordinates the cone is {y >= 0, p*x + q*y >= 0}.  Every
    chain point is the extreme cone point of its row y (any lattice point
    further left in the same row would push it inside the hull), so the
    chain is the left convex hull of the row-extremal candidates
    (ceil(-q*y/p), y) for y = 0..p.  Weights and vertices are then read off
    the chain, independently of any continued-fraction computation.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone has no hull polygon data")
    p, q = cone.p, cone.q
    cand = [(1, 0)]
    cand += [(-((q * y) // p), y) for y in range(1, p + 1)]
    hull: list[Vec] = [cand[0]]
    for pt in cand[1:]:
        while len(hull) >= 2:
            u, v = hull[-2], hull[-1]
            if cross((v[0] - u[0], v[1] - u[1]), (pt[0] - v[0], pt[1] - v[1])) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    # reinstate the lattice points interior to each hull edge
    pts: list[Vec] = [hull[0]]
    vertices = [0]
    for a, b in zip(hull, hull[1:]):
        g = math.gcd(b[0] - a[0], b[1] - a[1])
        sx, sy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
        for k in range(1, g + 1):
            pts.append((a[0] + k * sx, a[1] + k * sy))
        vertices.append(len(pts) - 1)
    weights = []
    for n in range(1, len(pts) - 1):
        sx = pts[n - 1][0] + pts[n + 1][0]
        sy = pts[n - 1][1] + pts[n + 1][1]
        ax, ay = pts[n]
        w = sx // ax if ax else sy // ay
        if (w * ax, w * ay) != (sx, sy):
            raise InternalError(f"chain relation fails at index {n} for {cone}")
        weights.append(w)
    return ConePolygon(tuple(pts), tuple(weights), tuple(vertices))


def supplementary(cone: ConeNF) -> ConeNF:
    """Normal form (p, p-q) of the supplementary cone.

    The two cones share the second edge and their union is a half-plane;
    coordinates change between the two normal frames by
    :data:`SUPPLEMENTARY_MAP`.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone is excluded from typed duality")
    return ConeNF(cone.p, cone.p - cone.q)


class EdgeImage(Value):
    """One edge of the hull chain together with its direction point.

    ``kind`` is "ray-" (the half-line inside the first cone edge),
    "compact", or "ray+".  ``image`` is the primitive vector positively
    parallel to the oriented edge; ``image_index`` is its position along
    the supplementary chain, or None if it does not lie on it.
    """

    __slots__ = ("kind", "start", "end", "length", "image", "image_index")
    kind: str
    start: int | None
    end: int | None
    length: int | None
    image: Vec
    image_index: int | None

    def __init__(self, kind: str, start: int | None, end: int | None, length: int | None,
                 image: Vec, image_index: int | None):
        _set(self, "kind", kind)
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "length", length)
        _set(self, "image", image)
        _set(self, "image_index", image_index)


class ExceptionalPoint(Value):
    """Image of the first or last compact edge, with its vertex status.

    ``expected_vertex`` applies the weight rule: the image is a vertex iff
    its weight, the edge length plus the number of edge endpoints that are
    not on the cone edges, reaches 3.  For an edge touching only one cone
    edge this is the plain condition length >= 2; when the chain is a
    single edge touching both (type (2, 1) only), it sharpens to >= 3.
    """

    __slots__ = ("edge_start", "edge_end", "length", "image", "is_vertex", "expected_vertex")
    edge_start: int
    edge_end: int
    length: int
    image: Vec
    is_vertex: bool
    expected_vertex: bool

    def __init__(self, edge_start: int, edge_end: int, length: int, image: Vec,
                 is_vertex: bool, expected_vertex: bool):
        _set(self, "edge_start", edge_start)
        _set(self, "edge_end", edge_end)
        _set(self, "length", length)
        _set(self, "image", image)
        _set(self, "is_vertex", is_vertex)
        _set(self, "expected_vertex", expected_vertex)


class DualityReport(Value):
    """Edge-to-point matching between a hull chain and its supplementary one.

    All coordinates are in the normal frame of ``cone``; the supplementary
    chain is mapped there through :data:`SUPPLEMENTARY_MAP`.
    """

    __slots__ = (
        "cone", "dual", "chain", "dual_points", "dual_vertex_indices", "images", "exceptional",
        "images_on_dual", "vertices_covered", "orientation_respected", "exceptional_rule_ok",
    )
    cone: ConeNF
    dual: ConeNF
    chain: ConePolygon
    dual_points: tuple[Vec, ...]
    dual_vertex_indices: tuple[int, ...]
    images: tuple[EdgeImage, ...]
    exceptional: tuple[ExceptionalPoint, ...]
    images_on_dual: bool
    vertices_covered: bool
    orientation_respected: bool
    exceptional_rule_ok: bool

    def __init__(self, cone: ConeNF, dual: ConeNF, chain: ConePolygon,
                 dual_points: tuple[Vec, ...], dual_vertex_indices: tuple[int, ...],
                 images: tuple[EdgeImage, ...], exceptional: tuple[ExceptionalPoint, ...],
                 images_on_dual: bool, vertices_covered: bool, orientation_respected: bool,
                 exceptional_rule_ok: bool):
        _set(self, "cone", cone)
        _set(self, "dual", dual)
        _set(self, "chain", chain)
        _set(self, "dual_points", dual_points)
        _set(self, "dual_vertex_indices", dual_vertex_indices)
        _set(self, "images", images)
        _set(self, "exceptional", exceptional)
        _set(self, "images_on_dual", images_on_dual)
        _set(self, "vertices_covered", vertices_covered)
        _set(self, "orientation_respected", orientation_respected)
        _set(self, "exceptional_rule_ok", exceptional_rule_ok)


def duality_map(cone: ConeNF) -> DualityReport:
    """Match every edge of the hull chain to a lattice point of the dual chain.

    Each oriented edge of the chain (the two half-line ends included) maps
    to the primitive vector parallel to it.  The images all lie on the
    supplementary chain and cover its vertices; only the images of the
    first and last compact edges may fail to be vertices, and each is a
    vertex exactly when its edge has integral length >= 2.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone is excluded from typed duality")
    chain = polygon(cone)
    dual = supplementary(cone)
    dual_chain = polygon(dual)
    dual_pts = tuple(SUPPLEMENTARY_MAP.apply(pt) for pt in dual_chain.points)
    where = {pt: i for i, pt in enumerate(dual_pts)}

    images = [EdgeImage("ray-", None, None, None, (-1, 0), where.get((-1, 0)))]
    for a, b in chain.compact_edges():
        pa, pb = chain.points[a], chain.points[b]
        direction = primitive((pb[0] - pa[0], pb[1] - pa[1]))
        images.append(
            EdgeImage("compact", a, b, integral_length(pa, pb), direction, where.get(direction))
        )
    apex = (-cone.q, cone.p)
    images.append(EdgeImage("ray+", None, None, None, apex, where.get(apex)))

    dual_vertex_set = set(dual_chain.vertex_indices)
    compact = [im for im in images if im.kind == "compact"]
    extremes = [compact[0]] if len(compact) == 1 else [compact[0], compact[-1]]
    last = len(chain.points) - 1
    exceptional = []
    for im in extremes:
        free_ends = (im.start != 0) + (im.end != last)
        exceptional.append(
            ExceptionalPoint(
                im.start, im.end, im.length, im.image,
                im.image_index is not None and im.image_index in dual_vertex_set,
                im.length + free_ends >= 3,
            )
        )

    indices = [im.image_index for im in images]
    images_on_dual = all(i is not None for i in indices)
    covered = images_on_dual and dual_vertex_set <= set(indices)
    ordered = images_on_dual and all(i < j for i, j in zip(indices, indices[1:]))
    return DualityReport(
        cone=cone,
        dual=dual,
        chain=chain,
        dual_points=dual_pts,
        dual_vertex_indices=dual_chain.vertex_indices,
        images=tuple(images),
        exceptional=tuple(exceptional),
        images_on_dual=images_on_dual,
        vertices_covered=covered,
        orientation_respected=ordered,
        exceptional_rule_ok=all(
            ex.is_vertex == ex.expected_vertex for ex in exceptional
        ),
    )


def dual_cone(cone: ConeNF) -> ConeNF:
    """Normal form of the dual cone, computed from inward edge normals.

    The dual cone lives in the dual lattice; the orientation convention of
    the module identifies it with the supplementary cone, so the result
    always equals :func:`supplementary`.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone is self-dual and excluded here")
    u: Vec = (1, 0)
    v: Vec = (-cone.q, cone.p)
    n_u = _inward_normal(u, v)
    n_v = _inward_normal(v, u)
    nf, _ = cone_normal_form(n_u, n_v)
    return nf


def _inward_normal(edge: Vec, other: Vec) -> Vec:
    n = (-edge[1], edge[0])
    if n[0] * other[0] + n[1] * other[1] < 0:
        n = (-n[0], -n[1])
    return primitive(n)


def klein_quotients(p: int, q: int) -> tuple[int, ...]:
    """Additive partial quotients of p/q read off two hull chains.

    The ray of slope p/q splits the first quadrant into a cone adjacent to
    the x-axis and one adjacent to the y-axis.  The partial quotients are
    the integral lengths of the compact hull edges of the two cones, taken
    alternately starting from the x-side, whose first edge runs from (1, 0)
    to (1, a_1).  One final edge of length 1 is always left unread.
    """
    if not (1 <= q < p) or math.gcd(p, q) != 1:
        raise DomainError(f"need 1 <= q < p coprime, got ({p}, {q})")
    ex = _compact_edge_lengths((1, 0), (q, p))
    ey = _compact_edge_lengths((0, 1), (q, p))
    if len(ex) not in (len(ey), len(ey) + 1):
        raise InternalError(f"unexpected hull edge counts {len(ex)}, {len(ey)}")
    merged = [0] * (len(ex) + len(ey))  # alternately, from the x-side
    merged[::2], merged[1::2] = ex, ey
    if merged[-1:] != [1]:
        raise InternalError(f"expected one unread edge of length 1, got {merged[-1:]}")
    return tuple(merged[:-1])


def _compact_edge_lengths(u_minus: Vec, u_plus: Vec) -> list[int]:
    """Integral lengths of the compact hull edges, ordered from u_minus."""
    nf, _ = cone_normal_form(u_minus, u_plus)
    if nf.is_regular:
        return [1]
    chain = polygon(nf)
    return [
        integral_length(chain.points[a], chain.points[b])
        for a, b in chain.compact_edges()
    ]
