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
from dataclasses import dataclass

from .errors import Disconnected, DomainError, NotContractible, UnknownVertex


@dataclass(frozen=True)
class Vertex:
    genus: int = 0
    weight: int = 0
    label: str | None = None

    def __post_init__(self):
        if self.genus < 0:
            raise DomainError(f"genus must be >= 0, got {self.genus}")


@dataclass(frozen=True)
class Cycle:
    """A divisor supported on the exceptional components: one integer each."""

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class WeightedDualGraph:
    """Finite multigraph with loops, weighted vertices and arrow markers.

    Edges are stored as a sorted multiset of index pairs (i <= j); an edge
    (i, i) is a loop.  Arrows are vertex indices, one per arrowhead.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    arrows: tuple[int, ...] = ()

    def __post_init__(self):
        verts = tuple(self.vertices)
        n = len(verts)
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        arrows = tuple(sorted(self.arrows))
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownVertex(f"edge ({i}, {j}) leaves the vertex range")
        for i in arrows:
            if not (0 <= i < n):
                raise UnknownVertex(f"arrow at {i} leaves the vertex range")
        labels = [v.label for v in verts if v.label is not None]
        if len(labels) != len(set(labels)):
            raise DomainError("vertex labels must be unique when present")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "arrows", arrows)

    def __len__(self) -> int:
        return len(self.vertices)


def chain(weights, genus=0) -> WeightedDualGraph:
    """Path-shaped graph with the given self-intersection weights."""
    weights = tuple(weights)
    verts = tuple(Vertex(genus, w) for w in weights)
    edges = tuple((i, i + 1) for i in range(len(weights) - 1))
    return WeightedDualGraph(verts, edges)


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

    They are the pivots of one sparse symmetric Bareiss pass in vertex order.
    Step t sets ``a_ij = (M_t * a_ij - a_it * a_tj) / M_{t-1}`` for pairs in
    pivot row t only; other entries keep the step s they were last set at and
    are rescaled on use by M_t / M_s, exactly.  Stops after the first zero
    minor.  O(n) multiply-adds on chains and trees, fill-bound otherwise.
    """
    rows = [{i: (v.weight, 0)} for i, v in enumerate(g.vertices)]  # j -> (a_ij, step), j >= i
    for i, j in g.edges:  # a loop (i, i) adds nothing to the matrix
        rows[i][j] = (rows[i].get(j, (0, 0))[0] + (i != j), 0)
    minors = [1]
    for t, row in enumerate(rows):
        tail = {j: a if s == t else a * minors[t] // minors[s] for j, (a, s) in row.items()}
        pivot = tail.pop(t)
        yield pivot
        if not pivot:
            return
        minors.append(pivot)
        tail = sorted(tail.items())
        for k, (i, left) in enumerate(tail):
            for j, right in tail[k:]:
                a, s = rows[i].get(j, (0, t))
                rows[i][j] = ((pivot * a * minors[t] // minors[s] - left * right) // minors[t], t + 1)


def is_contractible(g: WeightedDualGraph) -> bool:
    """Whether the intersection matrix is negative definite.

    Sylvester's criterion sign(M_k) = (-1)^k, read off the minors pass up
    to the first wrong sign: O(n) on chains and trees, fill-bound otherwise.
    """
    return all(minor * (-1) ** k > 0 for k, minor in enumerate(_minors(g), 1))


def is_contractible_minors(g: WeightedDualGraph) -> bool:
    """Minor-sign form of the contractibility test: the same minors pass."""
    return is_contractible(g)


def leading_principal_minors(g: WeightedDualGraph) -> tuple[int, ...]:
    """Exact determinants of the top-left k x k blocks, k = 1..n.

    The pivots of the minors pass (O(n) on chains); after a zero minor,
    where that pass stops, each later k x k block costs O(k^3) in ``_det``.
    """
    minors = list(_minors(g))
    if len(minors) < len(g):
        m = intersection_matrix(g)
        minors += [_det([row[:k] for row in m[:k]]) for k in range(len(minors) + 1, len(g) + 1)]
    return tuple(minors)


def _det(m) -> int:
    """Integer determinant by fraction-free elimination with row swaps."""
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


def _components(g: WeightedDualGraph) -> int:
    n = len(g)
    seen = [False] * n
    adj = [[] for _ in range(n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    parts = 0
    for start in range(n):
        if seen[start]:
            continue
        parts += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return parts


def fundamental_cycle(g: WeightedDualGraph) -> Cycle:
    """Minimal positive cycle meeting every component non-positively.

    Laufer's loop seeded at the reduced cycle sum(E_k), which the minimal
    cycle always dominates: while some component has positive intersection
    with the current cycle, add it in.  Termination is guaranteed by
    negative definiteness.
    """
    n = len(g)
    if n == 0 or _components(g) != 1:
        raise Disconnected("the fundamental cycle needs a nonempty connected graph")
    if not is_contractible(g):
        raise NotContractible("the intersection matrix is not negative definite")
    m = intersection_matrix(g)
    z = [1] * n
    score = [sum(row) for row in m]
    while True:
        for i in range(n):
            if score[i] > 0:
                z[i] += 1
                for j in range(n):
                    score[j] += m[j][i]
                break
        else:
            return Cycle(tuple(z))


def pairing(g: WeightedDualGraph, z: Cycle, i: int) -> int:
    """Intersection number of the cycle with the i-th component."""
    _check_vertex(g, i)
    m = intersection_matrix(g)
    return sum(m[i][j] * c for j, c in enumerate(z.coefficients))


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
