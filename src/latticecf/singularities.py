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

import math
from dataclasses import dataclass
from fractions import Fraction

from .cf import MINUS, continuant, expand_e, expand_hj, hj_blocks, involute_hj
from .errors import CycleTooShort, DomainError, InvalidCycle
from .graphs import Vertex, WeightedDualGraph, chain
from .lattice import Mat2


def _check_pq(p: int, q: int, what: str):
    if not (1 <= q < p) or math.gcd(p, q) != 1:
        raise DomainError(f"{what} needs 1 <= q < p coprime, got ({p}, {q})")


@dataclass(frozen=True)
class HJType:
    """Cyclic quotient (Hirzebruch-Jung) singularity of type (p, q)."""

    p: int
    q: int

    def __post_init__(self):
        _check_pq(self.p, self.q, "a singularity type")

    def __str__(self) -> str:
        if self.q == self.p - 1:
            return f"A_{self.q}"
        return f"A({self.p},{self.q})"


@dataclass(frozen=True)
class LensSpace:
    p: int
    q: int

    def __post_init__(self):
        _check_pq(self.p, self.q, "a lens space")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def hj_resolution(t: HJType) -> WeightedDualGraph:
    """Minimal-resolution chain: weights -a_1, ..., -a_r for p/q = [a_1..a_r]-."""
    return chain(-a for a in expand_hj(Fraction(t.p, t.q)).terms)


def embdim(t: HJType) -> int:
    """Embedding dimension by the closed formula 3 + sum(a_i - 2)."""
    return 3 + sum(a - 2 for a in expand_hj(Fraction(t.p, t.q)).terms)


def embdim_oracle(t: HJType) -> int:
    """Embedding dimension by brute force over the dual-cone semigroup.

    The dual cone is {(x, y): x >= 0, p*y >= q*x}; minimal generators of
    its semigroup of lattice points are the points not expressible as a sum
    of two others.  Any point strictly above the staircase floor
    y = ceil(q*x/p) sheds a (0, 1), and any point with x > p sheds (p, q),
    so within a box of side 2p the survivors are (0, 1) together with the
    floor points (x, ceil(q*x/p)), x = 1..p, that admit no splitting
    x = u + (x - u) with ceil(q*u/p) + ceil(q*(x-u)/p) <= ceil(q*x/p).
    """
    p, q = t.p, t.q
    c = [0] + [-((-q * x) // p) for x in range(1, p + 1)]
    count = 1  # the generator (0, 1)
    for x in range(1, p + 1):
        if all(c[u] + c[x - u] > c[x] for u in range(1, x)):
            count += 1
    return count


def blowup_types(t: HJType) -> tuple[HJType | None, ...]:
    """Singularities left after one blow-up of the singular point.

    Blowing up extracts the chain ends and every curve of weight <= -3;
    each straight gap of integral length l between consecutive extracted
    rays leaves a cyclic quotient point of type (l, l-1), reported as None
    (smooth) when l = 1.  A chain of length one is resolved outright.
    """
    weights = expand_hj(Fraction(t.p, t.q)).terms
    r = len(weights)
    if r == 1:
        return ()
    drawn = sorted({1, r} | {n for n, w in enumerate(weights, 1) if w >= 3})
    out: list[HJType | None] = []
    for a, b in zip(drawn, drawn[1:]):
        gap = b - a
        out.append(None if gap == 1 else HJType(gap, gap - 1))
    return tuple(out)


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


@dataclass(frozen=True)
class CuspCycle:
    """Cyclic weight sequence of a cusp boundary, >= 2 with some entry >= 3.

    Stored in canonical rotation (lexicographically least), so equality of
    values is equality of cyclic words.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(x) for x in self.weights)
        if not w or any(x < 2 for x in w):
            raise InvalidCycle(f"cycle weights must all be >= 2, got {w}")
        if all(x == 2 for x in w):
            raise InvalidCycle("a cusp cycle needs at least one weight >= 3")
        k = _least_rotation(w)
        object.__setattr__(self, "weights", w[k:] + w[:k])

    def __len__(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.weights) + ")"


def cusp_monodromy(c: CuspCycle) -> Mat2:
    """Monodromy of the boundary torus fibration over one period.

    The ordered product of [[0, -1], [1, a]] over the cycle; determinant 1
    and trace >= 3.
    """
    m = Mat2(1, 0, 0, 1)
    for a in c.weights:
        m = m.compose(Mat2(0, -1, 1, a))
    return m


def cusp_trace_formula(c: CuspCycle) -> int:
    """Monodromy trace by continuants: Z-(a_1..a_r) - Z-(a_2..a_{r-1})."""
    if len(c) < 2:
        raise CycleTooShort("the trace formula needs cycle length >= 2")
    w = c.weights
    return continuant(MINUS, w) - continuant(MINUS, w[1:-1])


def cusp_dual(c: CuspCycle) -> CuspCycle:
    """Cycle of the supplementary cone: the block rule read cyclically.

    Rotating so that the word ends just after a weight >= 3, each block
    (2)^m, n+3 contributes m+3, (2)^n to the dual.  The map is an
    involution on cyclic words and preserves the monodromy trace.
    """
    w = c.weights
    pivot = max(i for i, x in enumerate(w) if x >= 3)
    rotated = w[pivot + 1:] + w[:pivot + 1]
    out: list[int] = []
    run = 0
    for x in rotated:
        if x == 2:
            run += 1
        else:
            out.append(run + 3)
            out.extend([2] * (x - 3))
            run = 0
    return CuspCycle(tuple(out))


@dataclass(frozen=True)
class CurveResolution:
    """Dual graph of the total transform of a monomial plane curve.

    Vertices are the exceptional curves in order of appearance (vertex k
    is labelled E_{k+1}); exactly one vertex has weight -1 and carries the
    single arrowhead, which represents the strict transform.
    """

    graph: WeightedDualGraph

    def __post_init__(self):
        g = self.graph
        if len(g.arrows) != 1:
            raise DomainError("a curve resolution carries exactly one arrowhead")
        minus_one = [i for i, v in enumerate(g.vertices) if v.weight == -1]
        if len(minus_one) != 1 or g.arrows[0] != minus_one[0]:
            raise DomainError("the arrowhead must sit on the unique -1 vertex")
        want = {f"E_{k + 1}" for k in range(len(g))}
        if {v.label for v in g.vertices} != want:
            raise DomainError("vertex labels must be E_1..E_N")

    def __len__(self) -> int:
        return len(self.graph)


def resolve_monomial(p: int, q: int) -> CurveResolution:
    """Dual graph of the minimal embedded resolution of  x^p = y^q.

    Built out of the zigzag data of p/(p - q): the chain of that cone
    carries the weights, the supplementary chain minus its first point
    hangs off the -1 apex, and labels follow the alternating traversal
    (down the first run of one chain, across, down the other, and so on)
    which is exactly the order of appearance under blow-up.  Smooth curves
    (q = 1) are rejected: there is nothing to resolve.
    """
    if q < 2:
        raise DomainError("x^p = y^q is singular only for q >= 2")
    _check_pq(p, q, "a monomial curve")
    side = expand_hj(Fraction(p, p - q)).terms
    blocks, m_last = hj_blocks(side)
    ms = [m for m, _ in blocks] + [m_last]
    ns = [n for _, n in blocks]
    s = len(ns)
    dual_side = involute_hj(side)
    r, rp = len(side), len(dual_side)

    label = [0] * (r + 1)  # chain positions A_1..A_r then the apex
    dual_label = [0] * (rp - 1)  # kept supplementary positions
    counter, ri, li = 1, 0, 0
    for i in range(s + 1):
        for _ in range(ms[i] + 1):
            label[ri] = counter
            counter += 1
            ri += 1
        if i < s:
            for _ in range(ns[i] + 1):
                dual_label[li] = counter
                counter += 1
                li += 1

    n = r + rp
    weights = [0] * n
    for k in range(r):
        weights[label[k] - 1] = -side[k]
    weights[label[r] - 1] = -1
    for j in range(rp - 1):
        weights[dual_label[j] - 1] = -dual_side[j + 1]
    edges = [(label[k] - 1, label[k + 1] - 1) for k in range(r)]
    edges += [(dual_label[j] - 1, dual_label[j + 1] - 1) for j in range(rp - 2)]
    edges.append((dual_label[rp - 2] - 1, label[r] - 1))
    verts = tuple(Vertex(0, weights[k], f"E_{k + 1}") for k in range(n))
    return CurveResolution(WeightedDualGraph(verts, tuple(edges), (label[r] - 1,)))


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
    if q < 2:
        raise DomainError("x^p = y^q is singular only for q >= 2")
    _check_pq(p, q, "a monomial curve")
    a, b = q, p
    curve_a: int | None = None  # exceptional curve on the t^a axis, if any
    curve_b: int | None = None
    weights: list[int] = []
    edges: set[tuple[int, int]] = set()
    while True:
        through = [c for c in (curve_a, curve_b) if c is not None]
        new = len(weights)
        weights.append(-1)
        for c in through:
            weights[c] -= 1
        if len(through) == 2:
            edges.discard((min(through), max(through)))
        for c in through:
            edges.add((c, new))
        if a == b:
            break
        if a < b:
            b -= a
            curve_a = new
        else:
            a -= b
            curve_b = new
    verts = tuple(Vertex(0, w, f"E_{i + 1}") for i, w in enumerate(weights))
    arrow = len(weights) - 1
    return CurveResolution(WeightedDualGraph(verts, tuple(edges), (arrow,)))


def blowup_count(p: int, q: int) -> int:
    """Number of blow-ups: the sum of the additive partial quotients of p/q."""
    return sum(expand_e(Fraction(p, q)).terms)
