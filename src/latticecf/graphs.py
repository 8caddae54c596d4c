"""Weighted dual graphs of resolutions and their intersection theory.

A graph holds the combinatorics of an exceptional divisor: one vertex per
irreducible component with its genus and self-intersection weight, one
edge per intersection point (loops mark self-crossings of a single
component), and arrowheads marking strict transforms.

The intersection matrix has the weights on the diagonal and the edge
multiplicities off it.  Loops contribute to nothing there: a loop records
a self-crossing whose effect is already part of the stated
self-intersection weight.  They do count twice towards the valency, which
is what the normalized Euler number ``weight - valency`` uses; the
contractibility criterion is true for the raw weights and false for the
normalized ones, which forces this convention.
"""

from __future__ import annotations

import json
from operator import attrgetter

from ._values import Value
from .errors import Disconnected, DomainError, NotContractible, UnknownVertex


class Vertex(Value):
    __slots__ = ("genus", "weight", "label")
    genus: int
    weight: int
    label: str | None

    def __init__(self, genus: int = 0, weight: int = 0, label: str | None = None):
        if genus < 0:
            raise DomainError(f"genus must be >= 0, got {genus}")
        self._genus = genus
        self._weight = weight
        self._label = label


class Cycle(Value):
    """A divisor supported on the exceptional components: one integer each."""

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]):
        self._coefficients = coefficients


_label = attrgetter("label")


class WeightedDualGraph(Value):
    """Finite multigraph with loops, weighted vertices and arrow markers.

    Edges are stored as a sorted multiset of index pairs (i <= j); an edge
    (i, i) is a loop.  Arrows are vertex indices, one per arrowhead.
    """

    __slots__ = ("vertices", "edges", "arrows")
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    arrows: tuple[int, ...]

    def __init__(self, vertices: tuple[Vertex, ...], edges: tuple[tuple[int, int], ...],
                 arrows: tuple[int, ...] = ()):
        verts = tuple(vertices)
        n = len(verts)
        edges = tuple(sorted([(i, j) if i <= j else (j, i) for i, j in edges]))
        arrows = tuple(sorted(arrows))
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownVertex(f"edge ({i}, {j}) leaves the vertex range")
        for i in arrows:
            if not (0 <= i < n):
                raise UnknownVertex(f"arrow at {i} leaves the vertex range")
        # one set over all labels passes when every label is distinct; when
        # one repeats, even None, the labels that are present are compared
        if len(set(map(_label, verts))) < n:
            labels = [v.label for v in verts if v.label is not None]
            if len(labels) != len(set(labels)):
                raise DomainError("vertex labels must be unique when present")
        self._vertices = verts
        self._edges = edges
        self._arrows = arrows

    def __len__(self) -> int:
        return len(self.vertices)


def chain(weights, genus=0) -> WeightedDualGraph:
    """Path-shaped graph with the given self-intersection weights.

    Vertices are immutable, so equal weights share one, built (and its
    genus checked) by the public constructor; the path's edges are already
    sorted and in range, so the graph itself is built trusted.
    """
    weights = tuple(weights)
    made = {w: Vertex(genus, w) for w in set(weights)}
    n = len(weights)
    edges = tuple(zip(range(n - 1), range(1, n)))
    return WeightedDualGraph._trusted(tuple(map(made.__getitem__, weights)), edges, ())


def cycle_graph(weights, genus=0) -> WeightedDualGraph:
    """Cyclic graph; a single weight yields one vertex with a loop."""
    weights = tuple(weights)
    verts = tuple(Vertex(genus, w) for w in weights)
    n = len(weights)
    if n == 0:
        return WeightedDualGraph((), ())
    if n == 1:
        return WeightedDualGraph(verts, ((0, 0),))
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return WeightedDualGraph(verts, edges)


def intersection_matrix(g: WeightedDualGraph) -> tuple[tuple[int, ...], ...]:
    """Matrix (E_i . E_j): weights on the diagonal, edge counts off it."""
    n = len(g)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(g.vertices):
        m[i][i] = v.weight
    for i, j in g.edges:
        if i != j:
            m[i][j] += 1
            m[j][i] += 1
    return tuple(tuple(row) for row in m)


def valency(g: WeightedDualGraph, i: int) -> int:
    """Number of edge ends at vertex i; a loop counts twice."""
    _check_vertex(g, i)
    return sum((a == i) + (b == i) for a, b in g.edges)


def euler_normalized(g: WeightedDualGraph, i: int) -> int:
    """Euler number of the normalized component: weight minus valency."""
    _check_vertex(g, i)
    return g.vertices[i].weight - valency(g, i)


def _check_vertex(g: WeightedDualGraph, i: int):
    if not (0 <= i < len(g)):
        raise UnknownVertex(f"no vertex {i} in a graph on {len(g)} vertices")


def _minors(g: WeightedDualGraph):
    """Yield the leading principal minors M_1, M_2, ... of the intersection matrix.

    On a chain, whose edges are exactly the path (0, 1), ..., (n-2, n-1),
    the matrix is tridiagonal with ones beside the diagonal, so the minors
    are continuants: ``M_k = w_k * M_{k-1} - M_{k-2}`` from M_0 = 1 and
    M_{-1} = 0, one multiply-add per vertex, and all n of them are yielded,
    zero minors included.

    Any other graph takes one sparse symmetric Bareiss pass in vertex
    order, whose pivots are the minors.  Step t sets
    ``a_ij = (M_t * a_ij - a_it * a_tj) / M_{t-1}`` for pairs in pivot row t
    only; other entries keep the step s they were last set at and are
    rescaled on use by M_t / M_s, exactly.  That pass stops after the first
    zero minor.  O(n) multiply-adds on trees, fill-bound otherwise.
    """
    n = len(g.vertices)
    if g.edges == tuple(zip(range(n - 1), range(1, n))):
        before, minor = 0, 1
        for v in g.vertices:
            before, minor = minor, v.weight * minor - before
            yield minor
        return
    rows = [{i: (v.weight, 0)} for i, v in enumerate(g.vertices)]  # j -> (a_ij, step), j >= i
    for i, j in g.edges:  # a loop (i, i) adds nothing to the matrix
        rows[i][j] = (rows[i].get(j, (0, 0))[0] + (i != j), 0)
    minors = [1]
    for t, row in enumerate(rows):
        prev = minors[t]
        a, s = row.pop(t)
        pivot = a if s == t else a * prev // minors[s]
        yield pivot
        if not pivot:
            return
        minors.append(pivot)
        # fill-in can append a key out of order, so each pair is ordered as it is met
        tail = list(row.items())
        for k, (x, (left, sx)) in enumerate(tail):
            if sx != t:
                left = left * prev // minors[sx]
            for y, (right, sy) in tail[k:]:
                if sy != t:
                    right = right * prev // minors[sy]
                i, j = (x, y) if x <= y else (y, x)
                a, s = rows[i].get(j, (0, t))
                rows[i][j] = ((pivot * a * prev // minors[s] - left * right) // prev, t + 1)


def is_contractible(g: WeightedDualGraph) -> bool:
    """Whether the intersection matrix is negative definite.

    Sylvester's criterion sign(M_k) = (-1)^k, read off the minors up to the
    first wrong sign: O(n) on chains and trees, fill-bound otherwise.
    """
    sign = -1
    for minor in _minors(g):
        if minor * sign <= 0:
            return False
        sign = -sign
    return True


def is_contractible_minors(g: WeightedDualGraph) -> bool:
    """Minor-sign form of the contractibility test: the same minors pass."""
    return is_contractible(g)


def leading_principal_minors(g: WeightedDualGraph) -> tuple[int, ...]:
    """Exact determinants of the top-left k x k blocks, k = 1..n.

    The minors of :func:`_minors`: all n of them on a chain, by the
    continuant recursion in O(n).  On any other graph the Bareiss pass stops
    at a zero minor, and each later k x k block costs O(k^3) in ``_det``:
    O(n^4) in all, about 0.04 s, 0.5 s and 7 s for trees of 40, 80 and 160
    vertices whose second minor is 0.  :func:`is_contractible` stops at the
    first wrong sign, so only this function reaches ``_det``.
    """
    minors = list(_minors(g))
    if len(minors) < len(g):
        m = intersection_matrix(g)
        minors += [_det([row[:k] for row in m[:k]]) for k in range(len(minors) + 1, len(g) + 1)]
    return tuple(minors)


def _det(m) -> int:
    """Integer determinant by fraction-free elimination with row swaps.

    Reached only from :func:`leading_principal_minors` on a graph that is
    not a chain and has a zero leading minor; the one dense matrix the
    module still builds is its input.
    """
    m = [list(row) for row in m]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _neighbours(g: WeightedDualGraph) -> list[list[int]]:
    """Each vertex's neighbours: one entry per end of a non-loop edge.

    A doubled edge lists its neighbour twice and a loop adds nothing, so
    row i of the intersection matrix is the weight at i plus one per entry.
    """
    nbrs: list[list[int]] = [[] for _ in g.vertices]
    for i, j in g.edges:
        if i != j:
            nbrs[i].append(j)
            nbrs[j].append(i)
    return nbrs


def fundamental_cycle(g: WeightedDualGraph) -> Cycle:
    """Minimal positive cycle meeting every component non-positively.

    Laufer's loop seeded at the reduced cycle sum(E_k), which the minimal
    cycle always dominates: while some component has positive intersection
    with the current cycle, add it in.  Any order of additions reaches the
    same minimal cycle, so a worklist holds the components whose score
    Z.E_i may have risen, and each addition costs O(valency).  Termination
    is guaranteed by negative definiteness.
    """
    nbrs = _neighbours(g)
    seen, todo = {0}, [0]
    while todo and nbrs:
        fresh = set(nbrs[todo.pop()]) - seen
        seen |= fresh
        todo += fresh
    if not nbrs or len(seen) < len(nbrs):
        raise Disconnected("the fundamental cycle needs a nonempty connected graph")
    if not is_contractible(g):
        raise NotContractible("the intersection matrix is not negative definite")
    weights = [v.weight for v in g.vertices]
    z = [1] * len(nbrs)
    score = [w + len(row) for w, row in zip(weights, nbrs)]
    todo = list(range(len(nbrs)))
    while todo:
        i = todo.pop()
        if score[i] > 0:
            z[i] += 1
            score[i] += weights[i]
            for j in nbrs[i]:
                score[j] += 1
            todo += nbrs[i]
            todo.append(i)  # E_i may still meet the new cycle positively
    return Cycle(tuple(z))


def _vertex_id(i: int) -> str:
    return f"v{i}"


def to_json(g: WeightedDualGraph) -> str:
    """Deterministic JSON form (schema lattice-cf/1)."""
    doc = {
        "schema": "lattice-cf/1",
        "type": "graph",
        "vertices": [
            {"id": _vertex_id(i), "genus": v.genus, "weight": v.weight, "label": v.label}
            for i, v in enumerate(g.vertices)
        ],
        "edges": [[_vertex_id(i), _vertex_id(j)] for i, j in g.edges],
        "arrows": [_vertex_id(i) for i in g.arrows],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def from_json(text: str) -> WeightedDualGraph:
    """Parse the JSON form back; vertex order follows the listing."""
    doc = json.loads(text)
    ids = {rec["id"]: i for i, rec in enumerate(doc["vertices"])}
    verts = tuple(
        Vertex(rec["genus"], rec["weight"], rec.get("label"))
        for rec in doc["vertices"]
    )
    edges = tuple((ids[a], ids[b]) for a, b in doc["edges"])
    arrows = tuple(ids[a] for a in doc["arrows"])
    return WeightedDualGraph(verts, edges, arrows)


def to_dot(g: WeightedDualGraph) -> str:
    """Deterministic DOT text; arrows appear as arrow-shaped leaf nodes."""
    lines = ["graph dual {", "  node [shape=circle];"]
    for i, v in enumerate(g.vertices):
        name = _vertex_id(i)
        text = f"{v.label}\\n{v.weight}" if v.label else str(v.weight)
        lines.append(f'  {name} [label="{text}", weight={v.weight}, genus={v.genus}];')
    for k, i in enumerate(g.arrows):
        lines.append(f'  arrow{k} [shape=rarrow, label=""];')
    for i, j in g.edges:
        lines.append(f"  {_vertex_id(i)} -- {_vertex_id(j)};")
    for k, i in enumerate(g.arrows):
        lines.append(f"  {_vertex_id(i)} -- arrow{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"
