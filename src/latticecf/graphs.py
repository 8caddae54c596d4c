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
from operator import attrgetter, index

from ._values import Value
from .errors import Disconnected, DomainError, NotContractible, UnknownVertex


class Vertex(Value):
    __slots__ = ("genus", "weight", "label")
    genus: int
    weight: int
    label: str | None

    def __init__(self, genus: int = 0, weight: int = 0, label: str | None = None):
        try:
            genus, weight = index(genus), index(weight)
        except TypeError:
            raise DomainError(f"genus and weight must be integers, got {type(genus).__name__} "
                              f"and {type(weight).__name__}") from None
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


class _NotAnIndex(DomainError, TypeError, ValueError):
    """An edge or arrow that is no integer vertex index.  It is also the
    TypeError or ValueError that such an edge raised before indices were
    checked, so code catching those still catches it."""


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
        pairs = []
        for e in edges:
            try:
                i, j = e
                i, j = index(i), index(j)
            except (TypeError, ValueError):
                raise _NotAnIndex(f"edge {e!r} is not a pair of integer vertex indices") from None
            pairs.append((i, j) if i <= j else (j, i))
        edges = tuple(sorted(pairs))
        heads = []
        for a in arrows:
            try:
                heads.append(index(a))
            except TypeError:
                raise _NotAnIndex(f"arrow {a!r} is not an integer vertex index") from None
        arrows = tuple(sorted(heads))
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
    n = len(weights)
    edges = tuple((i, (i + 1) % n) for i in range(n))  # (0, 0) when n = 1
    return WeightedDualGraph(tuple(Vertex(genus, w) for w in weights), edges)


def intersection_matrix(g: WeightedDualGraph) -> tuple[tuple[int, ...], ...]:
    """Matrix (E_i . E_j): weights on the diagonal, edge counts off it; dense,
    and called by no library function."""
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
    """Yield the leading principal minors M_1, ..., M_n of the intersection matrix.

    On a chain, whose edges are exactly (0, 1), ..., (n-2, n-1), they are
    continuants: ``M_k = w_k * M_{k-1} - M_{k-2}`` from M_0 = 1, M_{-1} = 0.
    Any other graph takes one sparse symmetric Bareiss pass in vertex order
    over ``B_ij = det A[S+i, S+j]``, S the rows eliminated, D = det A[S, S].
    Row t goes alone, ``B'_ij = (B_tt * B_ij - B_it * B_tj) / D``, or is
    deferred if B_tt = 0, unless it meets a deferred row d: then the two go
    as the pivot [[0, x], [x, B_tt]], x = B_dt, of determinant -x^2, and
    ``B'_ij = det B[{d,t,i}, {d,t,j}] / D^2`` by Sylvester's identity
    (Bareiss 1968).  Deferred rows keep a zero diagonal and meet each other
    in 0, so M_k is 0 while a row is deferred and D otherwise.  An entry
    keeps the index s of the D_s it was set under, and is rescaled on use
    by D / D_s.  O(n + fill) plus one check per deferred row per row; no
    dense matrix.
    """
    n = len(g.vertices)
    if g.edges == tuple(zip(range(n - 1), range(1, n))):
        before, minor = 0, 1
        for v in g.vertices:
            before, minor = minor, v.weight * minor - before
            yield minor
        return
    rows = [{i: (v.weight, 0)} for i, v in enumerate(g.vertices)]  # j -> (B_ij, s), j >= i
    for i, j in g.edges:  # a loop (i, i) adds nothing to the matrix
        rows[i][j] = (rows[i].get(j, (0, 0))[0] + (i != j), 0)
    dets, deferred = [1], []  # D after each row; the rows waiting for a partner
    for t, row in enumerate(rows):
        prev = dets[t]
        b, s = row.pop(t)
        c = b if s == t else b * prev // dets[s]
        met = deferred and _met(rows, deferred, t, dets)
        if met:
            (d, x), *others = met  # row t pairs with the first deferred row it meets
            deferred.remove(d)
            pair = {i: [0, b] for i, b in others}  # i -> [B_id, B_it]
            for k, r in (0, rows[d]), (1, row):
                for i, (b, s) in r.items():
                    if i > t:  # a column before t is eliminated, or deferred and met in 0
                        pair.setdefault(i, [0, 0])[k] = b if s == t else b * prev // dets[s]
            dets.append(-x * x // prev)
            cols = list(pair.items())
            for k, (i, (di, ti)) in enumerate(cols):
                for j, (dj, tj) in cols[k:]:  # det B[{d,t,i}, {d,t,j}] / D^2
                    lo, hi = (i, j) if i <= j else (j, i)
                    b, s = rows[lo].get(hi, (0, t))
                    b = x * (di * tj + ti * dj - x * b * prev // dets[s]) - c * di * dj
                    rows[lo][hi] = (b // (prev * prev), t + 1)
            yield 0 if deferred else dets[-1]
            continue
        dets.append(c or prev)
        if not c:
            deferred.append(t)
            yield 0
            continue
        # fill-in can append a key out of order, so each pair is ordered as it is met
        tail = list(row.items())
        for k, (x, (left, sx)) in enumerate(tail):
            if sx != t:
                left = left * prev // dets[sx]
            for y, (right, sy) in tail[k:]:
                if sy != t:
                    right = right * prev // dets[sy]
                i, j = (x, y) if x <= y else (y, x)
                b, s = rows[i].get(j, (0, t))
                rows[i][j] = ((c * b * prev // dets[s] - left * right) // prev, t + 1)
        yield 0 if deferred else c


def _met(rows, deferred, t, dets) -> list[tuple[int, int]]:
    """(d, B_dt) for each deferred row d that row t meets, popped from row d; apart
    from :func:`_minors`, where a comprehension would turn its locals into cells."""
    met = [(d, e) for d in deferred if (e := rows[d].pop(t, None)) and e[0]]
    return [(d, b if s == t else b * dets[t] // dets[s]) for d, (b, s) in met]


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

    All n minors of :func:`_minors`, zero ones included, from one sparse
    pass that defers a zero pivot and eliminates it in a 2 x 2 one: O(n +
    fill) plus one check per deferred row per row; no dense matrix.
    """
    return tuple(_minors(g))


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


def _field(obj, key: str, *kinds: type):
    """The value at ``key`` of a JSON object if its type is one of ``kinds``,
    a missing key reading as null; else DomainError naming the key."""
    if type(obj) is not dict or type(obj.get(key)) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"{key!r} must be {names} in {obj!r:.60}")
    return obj.get(key)


def from_json(text: str) -> WeightedDualGraph:
    """Parse the JSON form back; vertex order follows the listing.

    Anything but a ``lattice-cf/1`` graph with int genus and weight and
    edges ``[id, id]`` raises DomainError naming the key, and an id no
    vertex has UnknownVertex.
    """
    try:
        doc = json.loads(text)
    except (TypeError, ValueError, RecursionError) as e:
        raise DomainError(f"not a JSON document: {e}") from None
    for key, want in (("schema", "lattice-cf/1"), ("type", "graph")):
        if _field(doc, key, str) != want:
            raise DomainError(f"{key!r} must be {want!r}, got {doc[key]!r:.60}")
    recs = _field(doc, "vertices", list)
    ids = {_field(rec, "id", str): i for i, rec in enumerate(recs)}
    if len(ids) < len(recs):
        raise DomainError("'id' must differ between vertices")
    verts = tuple(Vertex(_field(rec, "genus", int), _field(rec, "weight", int),
                         _field(rec, "label", str, type(None))) for rec in recs)
    pairs = _field(doc, "edges", list)
    if any(type(e) is not list or len(e) != 2 for e in pairs):
        raise DomainError(f"'edges' must hold pairs [id, id], got {pairs!r:.60}")
    try:
        edges = tuple((ids[a], ids[b]) for a, b in pairs)
        arrows = tuple(ids[a] for a in _field(doc, "arrows", list))
    except KeyError as e:
        raise UnknownVertex(f"no vertex with id {e.args[0]!r}") from None
    except TypeError:  # an unhashable id
        raise DomainError("'edges' and 'arrows' must hold vertex ids") from None
    return WeightedDualGraph(verts, edges, arrows)


def to_dot(g: WeightedDualGraph) -> str:
    """Deterministic DOT text (labels escaped); arrows are arrow-shaped leaf nodes."""
    lines = ["graph dual {", "  node [shape=circle];"]
    for i, v in enumerate(g.vertices):
        name = _vertex_id(i)
        label = v.label and v.label.replace("\\", "\\\\").replace('"', '\\"')
        text = f"{label}\\n{v.weight}" if label else str(v.weight)
        lines.append(f'  {name} [label="{text}", weight={v.weight}, genus={v.genus}];')
    for k, i in enumerate(g.arrows):
        lines.append(f'  arrow{k} [shape=rarrow, label=""];')
    for i, j in g.edges:
        lines.append(f"  {_vertex_id(i)} -- {_vertex_id(j)};")
    for k, i in enumerate(g.arrows):
        lines.append(f"  {_vertex_id(i)} -- arrow{k};")
    lines.append("}")
    return "\n".join(lines) + "\n"
