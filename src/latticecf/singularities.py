"""Invariants of Hirzebruch-Jung and cusp singularities and monomial curves.

Everything here is a consumer of the continued-fraction and cone modules:

* the minimal resolution of the cyclic quotient singularity of type
  ``(p, q)`` is a chain of rational curves whose self-intersections are
  the negated subtractive partial quotients of ``p/q``;
* its embedding dimension is ``3 + sum(a_i - 2)``, cross-checked by a
  brute-force minimal generating set of the dual-cone semigroup;
* blowing up the singular point extracts the first chain curve, the last
  one and every curve of weight <= -3, leaving one cyclic quotient
  singularity per gap of the remaining chain;
* lens spaces ``L(p, q)`` are classified by ``p`` and ``{q, q^-1 mod p}``,
  with orientation reversal sending ``q`` to ``p - q``;
* cusp boundaries are encoded by cyclic weight sequences; the monodromy is
  the ordered product of the matrices ``[[0, -1], [1, a]]`` and its trace
  has a closed continuant expression; the supplementary-cone duality acts
  on cycles by the same block rule as the subtractive involution, read
  cyclically;
* the minimal embedded resolution of ``x^p = y^q`` is assembled from the
  diagram data of ``p/(p-q)`` and verified against an independent
  blow-up-by-blow-up simulator.
"""

from __future__ import annotations

from itertools import repeat

from ._values import Value, _check_pq, _pq_ints
from .cf import MINUS, _continuants, _hj_blocks, _ints, _involute_runs, _quotients, _unary
from .cf import block_form, continuant, hj_terms
from .errors import CycleTooShort, DomainError, InvalidCycle
from .graphs import Vertex, WeightedDualGraph, chain
from .lattice import Mat2


class HJType(Value):
    """Cyclic quotient (Hirzebruch-Jung) singularity of type (p, q)."""

    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        p, q = _check_pq(p, q, "a singularity type")
        self._p = p
        self._q = q

    def __str__(self) -> str:
        if self.q == self.p - 1:
            return f"A_{self.q}"
        return f"A({self.p},{self.q})"


class LensSpace(Value):
    __slots__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        p, q = _check_pq(p, q, "a lens space")
        self._p = p
        self._q = q

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def hj_resolution(t: HJType) -> WeightedDualGraph:
    """Minimal-resolution chain: weights -a_1, ..., -a_r for p/q = [a_1..a_r]-."""
    return chain([-a for a in hj_terms(t.p, t.q)])


def embdim(t: HJType) -> int:
    """Embedding dimension by the closed formula 3 + sum(a_i - 2).

    Only the large terms ``n_i + 3`` of the block form contribute, so this
    is ``3 + sum(n_i + 1)``: O(log p) divmods on integers of the bit length
    of p, however long the chain.
    """
    return 3 + sum(n + 1 for n in block_form(t.p, t.q)[1])


def embdim_oracle(t: HJType) -> int:
    """Embedding dimension by brute force over the dual-cone semigroup.

    The dual cone is {(x, y): x >= 0, p*y >= q*x}; minimal generators of
    its semigroup of lattice points are the points not expressible as a sum
    of two others.  Any point strictly above the staircase floor
    y = c_x = ceil(q*x/p) sheds a (0, 1), and any point with x > p sheds
    (p, q), so the survivors are (0, 1) together with the floor points
    (x, c_x), x = 1..p, that admit no splitting x = u + (x - u) with
    c_u + c_{x-u} <= c_x.

    Those are read off the slack r_x = p*c_x - q*x = (-q*x) mod p:
    r_u + r_{x-u} is r_x mod p and lies in [0, 2p), so it is r_x, and
    c_u + c_{x-u} = c_x, exactly when r_u <= r_x; otherwise it is r_x + p.
    Hence x is a generator iff r_x is below every earlier slack: one pass
    over x = 1..p, O(p) integer steps, no list.
    """
    p, q = t.p, t.q
    count = 1  # the generator (0, 1)
    low = p  # above every slack, so x = 1 is a generator
    r = 0
    for _ in range(p):
        r -= q  # r_x = r_{x-1} - q mod p
        if r < 0:
            r += p
        if r < low:
            low = r
            count += 1
    return count


def blowup_types(t: HJType) -> tuple[HJType | None, ...]:
    """Singularities left after one blow-up of the singular point.

    Blowing up extracts the chain ends and every curve of weight <= -3;
    each straight gap of integral length l between consecutive extracted
    rays leaves a cyclic quotient point of type (l, l-1), reported as None
    (smooth) when l = 1.  A chain of length one is resolved outright.

    The gaps are the runs of the block form: ``m1``, then ``m + 1`` for
    each interior run, then ``m_{s+1}``, or ``m1 - 1`` with no large term;
    a gap of length 0 (an extracted end that is also a large term) leaves
    nothing.  This costs O(log p) divmods on integers of the bit length of
    p plus one entry per gap, not one step per chain curve.
    """
    ms, ns = block_form(t.p, t.q)
    gaps = [ms[0], *(m + 1 for m in ms[1:-1]), ms[-1]] if ns else [ms[0] - 1]
    return tuple(None if gap == 1 else HJType(gap, gap - 1) for gap in gaps if gap)


def lens_reverse(a: LensSpace) -> LensSpace:
    """The same lens space with reversed orientation: L(p, p-q)."""
    return LensSpace(a.p, a.p - a.q)


def lens_oriented_equal(a: LensSpace, b: LensSpace) -> bool:
    """Orientation-preserving diffeomorphism test: p = p' and q' in {q, q^-1 mod p}."""
    if a.p != b.p:
        return False
    return b.q == a.q or b.q == pow(a.q, -1, a.p)


def lens_reversed_equal(a: LensSpace, b: LensSpace) -> bool:
    """Orientation-reversing diffeomorphism test."""
    return lens_oriented_equal(lens_reverse(a), b)


def _least_rotation(w: tuple[int, ...]) -> int:
    """Start of the lexicographically least rotation of ``w``.

    Booth's algorithm (1980): a Knuth-Morris-Pratt failure function over
    ``w + w`` that moves the candidate start whenever a smaller letter
    breaks a match.  O(n) comparisons where ``min`` over all rotations
    costs O(n^2).
    """
    ww = w + w
    fail = [-1] * len(ww)
    k = 0
    for j in range(1, len(ww)):
        x = ww[j]
        i = fail[j - k - 1]
        while i != -1 and x != ww[k + i + 1]:
            if x < ww[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != ww[k + i + 1]:  # here i == -1
            if x < ww[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


class CuspCycle(Value):
    """Cyclic weight sequence of a cusp boundary, >= 2 with some entry >= 3.

    Stored in canonical rotation (lexicographically least), so equality of
    values is equality of cyclic words.
    """

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: tuple[int, ...]):
        w = _ints(weights, InvalidCycle)
        if not w or any(x < 2 for x in w):
            raise InvalidCycle(f"cycle weights must all be >= 2, got {w}")
        if all(x == 2 for x in w):
            raise InvalidCycle("a cusp cycle needs at least one weight >= 3")
        k = _least_rotation(w)
        self._weights = w[k:] + w[:k]

    def __len__(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.weights) + ")"


def cusp_monodromy(c: CuspCycle) -> Mat2:
    """Monodromy of the boundary torus fibration over one period.

    The ordered product of [[0, -1], [1, a]] over the cycle a_1..a_r, which
    is ``[[-Z(a_2..a_{r-1}), -Z(a_2..a_r)], [Z(a_1..a_{r-1}), Z(a_1..a_r)]]``
    in subtractive continuants (the rows follow the tail recursion); two
    integer folds, no matrix per weight.  Determinant 1 and trace >= 3.
    """
    w = c.weights
    head, inner, _ = _continuants(-1, w[:-1])  # Z(a_1..a_{r-1}), Z(a_2..a_{r-1})
    full, tail, _ = _continuants(-1, w)  # Z(a_1..a_r), Z(a_2..a_r)
    return Mat2(-inner, -tail, head, full)


def cusp_trace_formula(c: CuspCycle) -> int:
    """Monodromy trace by continuants: Z-(a_1..a_r) - Z-(a_2..a_{r-1})."""
    if len(c) < 2:
        raise CycleTooShort("the trace formula needs cycle length >= 2")
    w = c.weights
    return continuant(MINUS, w) - continuant(MINUS, w[1:-1])


def cusp_dual(c: CuspCycle) -> CuspCycle:
    """Cycle of the supplementary cone: the involution block rule read cyclically.

    Cut open so that the word ends in a weight >= 3 (its last run is
    empty), the cycle maps by the block rule of
    :func:`latticecf.cf.involute_hj` to a word ``m1+2, ..., 2``; closing it
    up merges those two end terms into ``m1+3``.  The map is an involution
    on cyclic words and preserves the monodromy trace.
    """
    w = c.weights
    pivot = max(i for i, x in enumerate(w) if x >= 3)
    t = _unary(*_involute_runs(*_hj_blocks(w[pivot + 1:] + w[:pivot + 1])))
    return CuspCycle((t[0] + 1,) + t[1:-1])


def _labels(n: int) -> list[str]:
    """The labels E_1, ..., E_n of a curve resolution's vertices, in order."""
    return [f"E_{k}" for k in range(1, n + 1)]


class CurveResolution(Value):
    """Dual graph of the total transform of a monomial plane curve.

    Vertices are the exceptional curves in order of appearance (vertex k
    is labelled E_{k+1}); exactly one vertex has weight -1 and carries the
    single arrowhead, which represents the strict transform.
    """

    __slots__ = ("graph",)
    graph: WeightedDualGraph

    def __init__(self, graph: WeightedDualGraph):
        if len(graph.arrows) != 1:
            raise DomainError("a curve resolution carries exactly one arrowhead")
        minus_one = [i for i, v in enumerate(graph.vertices) if v.weight == -1]
        if len(minus_one) != 1 or graph.arrows[0] != minus_one[0]:
            raise DomainError("the arrowhead must sit on the unique -1 vertex")
        for k, v in enumerate(graph.vertices):
            if v.label != f"E_{k + 1}":
                raise DomainError(f"vertex {k} must be labelled E_{k + 1}, got {v.label!r}")
        self._graph = graph

    def __len__(self) -> int:
        return len(self.graph)


def _curve_pq(p, q) -> tuple[int, int]:
    """p and q of a singular monomial curve x^p = y^q as ints: 2 <= q < p coprime."""
    p, q = _pq_ints(p, q, "a monomial curve")
    if q < 2:
        raise DomainError("x^p = y^q is singular only for q >= 2")
    return _check_pq(p, q, "a monomial curve")


def resolve_monomial(p: int, q: int) -> CurveResolution:
    """Dual graph of the minimal embedded resolution of  x^p = y^q.

    Built out of the zigzag data of p/(p - q): the chain of that cone
    carries the weights, the supplementary chain minus its first point
    hangs off the -1 apex, and labels follow the alternating traversal
    (down the first run of one chain, across, down the other, and so on)
    which is exactly the order of appearance under blow-up.  Smooth curves
    (q = 1) are rejected: there is nothing to resolve.
    """
    p, q = _curve_pq(p, q)
    ms, ns = block_form(p, p - q)  # ns is nonempty: p/(p-q) = [(2)^m] would mean q = 1
    _, big = _involute_runs(ms, ns)
    # Labels follow the order of appearance: block i gives ms[i] + 1 chain
    # curves (weights -2, then the large term -(ns[i] + 3)), then ns[i] + 1
    # curves of the supplementary chain, the block form of the involute
    # without its first large term: (2)^ns[i], then big[i + 1] + 3.  The
    # last run of the chain ends at the -1 apex.
    weights: list[int] = []
    ends: list[int] = []  # the last curve of each run, alternately of the chain and its dual
    for m, n, b in zip(ms, ns, big[1:]):
        weights += [-2] * m + [-(n + 3)]
        ends.append(len(weights) - 1)
        weights += [-2] * n + [-(b + 3)]
        ends.append(len(weights) - 1)
    weights += [-2] * ms[-1] + [-1]
    apex = len(weights) - 1
    # each curve but the apex meets one later curve: the next one, except at
    # the end of a run, which skips the other chain's next run to its own
    later = list(range(1, apex + 1))
    for k, end in enumerate(ends[:-1]):
        later[end] = ends[k + 1] + 1
    later[ends[-1]] = apex
    edges = tuple(zip(range(apex), later))
    verts = tuple(map(Vertex, repeat(0), weights, _labels(len(weights))))
    return CurveResolution._trusted(WeightedDualGraph._trusted(verts, edges, (apex,)))


def blowup_oracle(p: int, q: int) -> CurveResolution:
    """The same dual graph by simulating the blow-ups one at a time.

    The state is the local picture at the point to blow up: the strict
    transform looks like (t^a, t^b) in coordinates whose axes may be
    exceptional curves.  Each blow-up decrements the weight of every curve
    through the point, separates those curves from each other, attaches
    them to the new -1 curve, and performs one subtractive Euclid step on
    (a, b); when a = b the strict transform finally meets only the new
    curve, transversally, and the total transform has normal crossings.
    """
    p, q = _curve_pq(p, q)
    a, b = q, p
    curve_a: int | None = None  # exceptional curve on the t^a axis, if any
    curve_b: int | None = None
    weights: list[int] = []
    edges: set[tuple[int, int]] = set()
    while True:
        new = len(weights)
        weights.append(-1)
        if curve_a is not None:
            weights[curve_a] -= 1
            edges.add((curve_a, new))
        if curve_b is not None:
            weights[curve_b] -= 1
            edges.add((curve_b, new))
            if curve_a is not None:  # the blow-up separates the two curves
                edges.discard((curve_a, curve_b) if curve_a < curve_b else (curve_b, curve_a))
        if a == b:
            break
        if a < b:
            b -= a
            curve_a = new
        else:
            a -= b
            curve_b = new
    verts = tuple(map(Vertex, repeat(0), weights, _labels(len(weights))))
    arrow = len(weights) - 1
    return CurveResolution(WeightedDualGraph(verts, tuple(edges), (arrow,)))


def blowup_count(p: int, q: int) -> int:
    """Number of blow-ups resolving x^p = y^q: the sum of the additive
    partial quotients of p/q, for 1 <= q < p coprime."""
    return sum(_quotients(*_check_pq(p, q, "a monomial curve")))
