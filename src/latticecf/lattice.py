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
it by a direct convex-hull computation and is used to cross-check.  The
oracle hulls only the dominant rows: a row's leftmost cone point lies on
no compact edge when an earlier row's is no farther from either cone
edge, since it is then that point plus a nonzero cone point.

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

from ._values import Value, _check_pq, _pq_ints
from .cf import _involute_runs, _unary, block_form, hj_terms
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
        self._a = a
        self._b = b
        self._c = c
        self._d = d

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
        p, q = _pq_ints(p, q, "a cone normal form")
        if not (0 <= q < p) or math.gcd(p, q) != 1:
            raise DomainError(f"({p}, {q}) is not a cone normal form")
        self._p = p
        self._q = q

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
        self._points = points
        self._weights = weights
        self._vertex_indices = vertex_indices

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
    p, q, entries = _normal_pair(u_minus, u_plus)
    return ConeNF(p, q), Mat2(*entries)


def _normal_pair(u_minus: Vec, u_plus: Vec) -> tuple[int, int, tuple[int, int, int, int]]:
    """The pair (p, q) of :func:`cone_normal_form` and the entries of its map."""
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
    # the basis-coordinate map (w[1], -w[0]; -u[1], u[0]) * d followed by the
    # shear (1, k; 0, 1) that fixes u and moves v to (-q, p)
    k = (-q - alpha) // beta
    return p, q, ((w[1] - k * u[1]) * d, (k * u[0] - w[0]) * d, -u[1] * d, u[0] * d)


def polygon(cone: ConeNF) -> ConePolygon:
    """Hull chain of a non-regular cone, generated from the weight recursion.

    Seeds A_0 = (1, 0), A_1 = (0, 1) and applies
    ``A_{n+1} = w_n * A_n - A_{n-1}`` with the weights given by the
    subtractive expansion of p/q; the chain closes at (-q, p).
    """
    if cone.is_regular:
        raise RegularCone("a regular cone has no hull polygon data")
    return ConePolygon(*_chain(hj_terms(cone.p, cone.q), (1, 0), (0, 1), (-cone.q, cone.p)))


def _chain(weights: tuple[int, ...], a0: Vec, a1: Vec,
           end: Vec) -> tuple[tuple[Vec, ...], tuple[int, ...], tuple[int, ...]]:
    """Points, weights and vertex indices (the ends and each weight >= 3) of the
    chain ``A_0 = a0, A_1 = a1, A_{n+1} = w_n * A_n - A_{n-1}``, checked to
    close at ``end``.

    The recursion is linear, so seeds moved by a matrix give the chain moved
    by that matrix.  Fed Hirzebruch's involution of a cone's blocks, the
    closure check confirms that they give the supplementary chain.
    """
    (x0, y0), (x1, y1) = a0, a1
    pts = [a0, a1]
    for w in weights:
        x0, y0, x1, y1 = x1, y1, w * x1 - x0, w * y1 - y0
        pts.append((x1, y1))
    if pts[-1] != end:
        raise InternalError(f"chain for {end} closed at {pts[-1]}")
    return tuple(pts), weights, (0, *[n for n, w in enumerate(weights, 1) if w >= 3], len(pts) - 1)


def _dominant_rows(p: int, q: int) -> list[Vec]:
    """Row candidates (x_y, y), y = 1..p, of slack below every earlier row's.

    Row y's candidate is its leftmost cone point, x_y = ceil(-q*y/p), of
    slack s_y = p*x_y + q*y = q*y mod p: its distance from the second edge
    in units of 1/p.  Row 0 gives (1, 0), of slack p.  One O(p) pass keeps
    the running minimum.
    """
    rows = []
    low, s = p, 0  # the slack of (1, 0), and s_0
    for y in range(1, p + 1):
        s += q  # s_y = s_{y-1} + q mod p
        if s >= p:
            s -= p
        if s < low:
            low = s
            rows.append(((s - q * y) // p, y))
    return rows


def hull_oracle(cone: ConeNF) -> ConePolygon:
    """Hull chain recomputed by direct convex-hull geometry.

    In normal-form coordinates the cone is {y >= 0, p*x + q*y >= 0}.  Every
    chain point is the extreme cone point of its row y (any lattice point
    further left in the same row would push it inside the hull), so the
    chain lies among the row-extremal candidates (ceil(-q*y/p), y).  A
    candidate is dominated when an earlier row's candidate has no larger
    slack (:func:`_dominant_rows`): that one is no farther from either
    edge, so the difference is a nonzero cone point and the candidate is a
    sum of two nonzero cone points.  A compact hull edge lies on a line
    l = c with c > 0 and l >= c at every nonzero cone point, so such a sum,
    where l >= 2c, is on no compact edge.  The chain is the left convex
    hull of the surviving rows alone: one O(p) pass, then an O(r)
    monotone chain.  Weights and vertices are then read off the chain,
    independently of any continued-fraction computation.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone has no hull polygon data")
    pts: list[Vec] = [(1, 0)]
    for x, y in _dominant_rows(cone.p, cone.q):
        # pop while pts[-2] -> pts[-1] -> (x, y) turns counterclockwise; a
        # collinear candidate stays, so each hull edge keeps its lattice points
        while len(pts) >= 2:
            (ux, uy), (vx, vy) = pts[-2], pts[-1]
            if (vx - ux) * (y - vy) - (vy - uy) * (x - vx) > 0:
                pts.pop()
            else:
                break
        pts.append((x, y))
    weights = []
    vertices = [0]
    for n, ((lx, ly), (ax, ay), (rx, ry)) in enumerate(zip(pts, pts[1:], pts[2:]), 1):
        sx, sy = lx + rx, ly + ry
        w = sx // ax if ax else sy // ay
        if w * ax != sx or w * ay != sy:
            raise InternalError(f"chain relation fails at index {n} for {cone}")
        weights.append(w)
        # consecutive points are unit steps apart; a vertex is where the step turns
        if (ax - lx) * (ry - ay) != (ay - ly) * (rx - ax):
            vertices.append(n)
    vertices.append(len(pts) - 1)
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
        self._kind = kind
        self._start = start
        self._end = end
        self._length = length
        self._image = image
        self._image_index = image_index


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
        self._edge_start = edge_start
        self._edge_end = edge_end
        self._length = length
        self._image = image
        self._is_vertex = is_vertex
        self._expected_vertex = expected_vertex


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
        self._cone = cone
        self._dual = dual
        self._chain = chain
        self._dual_points = dual_points
        self._dual_vertex_indices = dual_vertex_indices
        self._images = images
        self._exceptional = exceptional
        self._images_on_dual = images_on_dual
        self._vertices_covered = vertices_covered
        self._orientation_respected = orientation_respected
        self._exceptional_rule_ok = exceptional_rule_ok


def duality_map(cone: ConeNF) -> DualityReport:
    """Match every edge of the hull chain to a lattice point of the dual chain.

    Each oriented edge of the chain (the two half-line ends included) maps
    to the primitive vector parallel to it.  The images all lie on the
    supplementary chain and cover its vertices; only the images of the
    first and last compact edges may fail to be vertices, and each is a
    vertex exactly when its edge has integral length >= 2.

    One Euclid gives both chains: the block form of p/q, and Hirzebruch's
    involution of it for the supplementary chain, which its closure checks.
    """
    if cone.is_regular:
        raise RegularCone("a regular cone is excluded from typed duality")
    ms, ns = block_form(cone.p, cone.q)
    apex = (-cone.q, cone.p)
    chain = ConePolygon(*_chain(_unary(ms, ns), (1, 0), (0, 1), apex))
    dual = supplementary(cone)
    # the supplementary chain in this frame: its recursion from the seeds
    # (1, 0) and (0, 1) moved by SUPPLEMENTARY_MAP
    dual_pts, _, dual_vertices = _chain(_unary(*_involute_runs(ms, ns)), (-1, 0), (-1, 1), apex)
    where = dict(zip(dual_pts, range(len(dual_pts))))
    vertex_set = set(dual_vertices)

    pts, ends = chain.points, chain.vertex_indices
    indices = [where.get((-1, 0))]
    images = [EdgeImage("ray-", None, None, None, (-1, 0), indices[0])]
    exceptional = []
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        (ax, ay), (bx, by) = pts[a], pts[b]
        dx, dy = bx - ax, by - ay
        length = math.gcd(dx, dy)  # one gcd for both the image and the length
        image = (dx // length, dy // length)
        indices.append(where.get(image))
        images.append(EdgeImage("compact", a, b, length, image, indices[-1]))
        if k == 0 or b == ends[-1]:  # the first and the last compact edge
            exceptional.append(ExceptionalPoint(a, b, length, image, indices[-1] in vertex_set,
                                                length + (a != 0) + (b != ends[-1]) >= 3))
    indices.append(where.get(apex))
    images.append(EdgeImage("ray+", None, None, None, apex, indices[-1]))

    on_dual = None not in indices
    seen = set(indices)
    return DualityReport(
        cone, dual, chain, dual_pts, dual_vertices, tuple(images), tuple(exceptional),
        on_dual, on_dual and vertex_set <= seen,
        on_dual and indices == sorted(seen),  # strictly increasing
        all(ex.is_vertex == ex.expected_vertex for ex in exceptional),
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
    p, q, _ = _normal_pair(_inward_normal(u, v), _inward_normal(v, u))
    return ConeNF(p, q)


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
    p, q = _check_pq(p, q, "Klein's reading")
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
    """Integral lengths of the compact hull edges, ordered from u_minus: the
    edge over a run of m weights 2 in the block form has length m + 1."""
    nf, _ = cone_normal_form(u_minus, u_plus)
    if nf.is_regular:
        return [1]
    return [m + 1 for m in block_form(nf.p, nf.q)[0]]
