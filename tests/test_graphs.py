import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticecf import graphs as G
from latticecf import singularities as S
from latticecf.errors import (
    Disconnected, DomainError, LatticeCFError, NotContractible, UnknownVertex,
)

GOLDEN_DOT = """\
graph dual {
  node [shape=circle];
  v0 [label="-2", weight=-2, genus=0];
  v1 [label="-3", weight=-3, genus=0];
  v0 -- v1;
}
"""


def random_graph(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    verts = tuple(G.Vertex(rng.randint(0, 1), rng.randint(-5, 2)) for _ in range(n))
    edges = []
    for _ in range(rng.randint(0, n + 2)):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        edges.append((i, j))
    return G.WeightedDualGraph(verts, tuple(edges))


def fraction_elimination_contractible(g):
    """Reference: sparse symmetric ``Fraction`` elimination without reordering.

    The k-th pivot is minor_k / minor_{k-1}, so the matrix is negative
    definite iff every pivot is negative.  This was the library's test
    before the integer minors pass replaced it.
    """
    n = len(g)
    rows = [{} for _ in range(n)]
    for i, v in enumerate(g.vertices):
        if v.weight:
            rows[i][i] = Fraction(v.weight)
    for i, j in g.edges:
        if i != j:
            rows[i][j] = rows[i].get(j, Fraction(0)) + 1
            rows[j][i] = rows[j].get(i, Fraction(0)) + 1
    for k in range(n):
        pivot = rows[k].get(k, Fraction(0))
        if pivot >= 0:
            return False
        tail = [(j, val) for j, val in rows[k].items() if j > k]
        for i, left in tail:
            for j, right in tail:
                if j < i:
                    continue
                delta = left * right / pivot
                rows[i][j] = rows[i].get(j, Fraction(0)) - delta
                if i != j:
                    rows[j][i] = rows[j].get(i, Fraction(0)) - delta
    return True


def laplace_det(m):
    """Reference determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def block_minors(g, det=laplace_det):
    m = [list(row) for row in G.intersection_matrix(g)]
    return tuple(det([row[:k] for row in m[:k]]) for k in range(1, len(g) + 1))


def dense_det(m):
    """Reference determinant by fraction-free elimination with row swaps:
    the dense routine ``leading_principal_minors`` called after a zero minor
    before the sparse pass ran through zero minors.  O(n^3) per matrix."""
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


def is_path(g):
    return g.edges == tuple((i, i + 1) for i in range(len(g) - 1))


def _near_chain(weights, edges):
    return G.WeightedDualGraph(tuple(G.Vertex(0, w) for w in weights), edges)


# graphs one step away from a chain, each with a zero leading minor
NEAR_CHAINS = {
    # the path 1 - 0 - 2 listed in another vertex order
    "reordered path": _near_chain((-1, -1, -1, -2), ((0, 1), (0, 2), (2, 3))),
    "doubled edge": _near_chain((-1, -1, -2, -3), ((0, 1), (1, 2), (1, 2), (2, 3))),
    "loop": _near_chain((-1, -1, -2, -2), ((0, 1), (1, 1), (1, 2), (2, 3))),
    "isolated vertex": _near_chain((-1, -1, -2, -3), ((0, 1), (1, 2))),
}


def minimal_cycles_brute(g, bound=4):
    """All componentwise-minimal cycles with Z.E_i <= 0, coefficients <= bound."""
    m = G.intersection_matrix(g)
    n = len(g)
    good = [
        z
        for z in itertools.product(range(1, bound + 1), repeat=n)
        if all(sum(m[i][j] * z[j] for j in range(n)) <= 0 for i in range(n))
    ]
    return [
        z
        for z in good
        if not any(w != z and all(a <= b for a, b in zip(w, z)) for w in good)
    ]


def fundamental_cycle_dense(g):
    """The body ``fundamental_cycle`` had before Laufer's worklist, kept as a
    reference: a separate walk for connectivity, the dense intersection
    matrix, and a rescan for the first positive score after each addition."""

    def components(g):
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

    n = len(g)
    if n == 0 or components(g) != 1:
        raise Disconnected("the fundamental cycle needs a nonempty connected graph")
    if not G.is_contractible(g):
        raise NotContractible("the intersection matrix is not negative definite")
    m = G.intersection_matrix(g)
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
            return G.Cycle(tuple(z))


def pairing(g, z, i):
    """Intersection number Z.E_i of the cycle with the i-th component, read
    off the edge list: the weight times the own coefficient, plus the
    coefficient at the other end of each non-loop edge at i.  No matrix,
    so it also serves graphs of thousands of vertices."""
    c = z.coefficients
    return g.vertices[i].weight * c[i] + sum(
        c[b] if a == i else c[a] for a, b in g.edges if a != b and i in (a, b)
    )


def cycle_or_error(f, g):
    try:
        return f(g).coefficients
    except (Disconnected, NotContractible) as e:
        return type(e)


class TestConstruction:
    def test_chain_and_cycle(self):
        c = G.chain((-2, -3))
        assert len(c) == 2 and c.edges == ((0, 1),)
        assert G.chain(()).vertices == ()

    def test_chain_builds_like_the_public_constructor(self):
        weights = (-2, -3, -2, -2, -5, -3)
        g = G.chain(iter(weights), genus=1)
        assert g == G.WeightedDualGraph(tuple(G.Vertex(1, w) for w in weights),
                                        tuple((i, i + 1) for i in range(5)))
        assert g.vertices[0] is g.vertices[2]  # one vertex per distinct weight
        assert G.chain((), genus=-1) == G.WeightedDualGraph((), ())  # no vertex to check
        with pytest.raises(DomainError):
            G.chain((-2,), genus=-1)
        loop = G.cycle_graph((-3,))
        assert loop.edges == ((0, 0),)
        two = G.cycle_graph((-2, -3))
        assert two.edges == ((0, 1), (0, 1))

    def test_validation(self):
        with pytest.raises(UnknownVertex):
            G.WeightedDualGraph((G.Vertex(),), ((0, 1),))
        with pytest.raises(UnknownVertex):
            G.WeightedDualGraph((G.Vertex(),), (), (2,))
        with pytest.raises(DomainError):
            G.WeightedDualGraph((G.Vertex(0, -1, "a"), G.Vertex(0, -2, "a")), ())
        with pytest.raises(DomainError):
            G.Vertex(genus=-1)

    def test_genus_weight_and_indices_are_integers(self):
        v = G.Vertex(False, -2)
        assert v == G.Vertex(0, -2) and type(v.genus) is int
        for genus, weight in ((0.5, "x"), (0, 2.0), (None, -2), ("0", -2)):
            with pytest.raises(DomainError, match="genus and weight must be integers"):
                G.Vertex(genus, weight)
        two = (G.Vertex(0, -2), G.Vertex(0, -2))
        # once constructed, took the chain path of the minors, and its JSON did not read back
        with pytest.raises(DomainError, match=re.escape("edge (0.0, 1) is not a pair")):
            G.WeightedDualGraph(two, ((0.0, 1),))
        for arrow in (1.0, "1", None):
            with pytest.raises(DomainError, match=f"^arrow {re.escape(repr(arrow))} is not"):
                G.WeightedDualGraph(two, ((0, 1),), (arrow,))
        g = G.WeightedDualGraph(two, ((True, False),), (True,))
        assert g.edges == ((0, 1),) and g.arrows == (1,)
        assert {type(i) for i in g.edges[0] + g.arrows} == {int}
        assert G.from_json(G.to_json(g)) == g

    def test_edges_normalized(self):
        g = G.WeightedDualGraph((G.Vertex(), G.Vertex()), ((1, 0), (0, 1)))
        assert g.edges == ((0, 1), (0, 1))
        g = G.WeightedDualGraph((G.Vertex(), G.Vertex()), ([1, 0], (1, 1)))
        assert g.edges == ((0, 1), (1, 1))

    # the exception types the constructor raised when it normalised each edge
    # with tuple(sorted(e)); the messages may differ
    @pytest.mark.parametrize("edge, error", [
        ((0, 1, 2), ValueError),
        ((1,), ValueError),
        ((), ValueError),
        ((0, "1"), TypeError),
        (("1", 0), TypeError),
        ((None, 1), TypeError),
        (5, TypeError),
        ("01", TypeError),
        ((0, 3), UnknownVertex),
        ((-1, 0), UnknownVertex),
    ])
    def test_malformed_edges_raise_as_before(self, edge, error):
        verts = (G.Vertex(), G.Vertex(), G.Vertex())
        with pytest.raises(error):
            G.WeightedDualGraph(verts, ((0, 1), edge))

    # each check raises its typed error naming the first offender; the label
    # check takes one set over all labels first, and words the error as before
    @pytest.mark.parametrize("edges, arrows, labels, error, message", [
        (((0, 1), (-1, 2)), (), (), UnknownVertex, "edge (-1, 2) leaves the vertex range"),
        (((0, 1), (3, 1)), (), (), UnknownVertex, "edge (1, 3) leaves the vertex range"),
        (((0, 5), (-1, 2)), (), (), UnknownVertex, "edge (-1, 2) leaves the vertex range"),
        (((4, 3), (0, 1)), (), (), UnknownVertex, "edge (3, 4) leaves the vertex range"),
        (((0, 3),), (3,), (), UnknownVertex, "edge (0, 3) leaves the vertex range"),
        (((0, 1),), (3,), (), UnknownVertex, "arrow at 3 leaves the vertex range"),
        (((0, 1),), (2, -1), (), UnknownVertex, "arrow at -1 leaves the vertex range"),
        (((0, 1),), (7, -2), (), UnknownVertex, "arrow at -2 leaves the vertex range"),
        ((), (), ("a", None, "a"), DomainError, "vertex labels must be unique when present"),
        ((), (), ("", ""), DomainError, "vertex labels must be unique when present"),
    ])
    def test_checks_raise_their_messages(self, edges, arrows, labels, error, message):
        verts = tuple(G.Vertex(0, -2, label) for label in labels or (None,) * 3)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            G.WeightedDualGraph(verts, edges, arrows)

    def test_repeated_none_labels_loops_and_double_arrows_pass(self):
        verts = (G.Vertex(0, -2), G.Vertex(0, -2), G.Vertex(0, -2, "a"))  # None repeats
        g = G.WeightedDualGraph(verts, ((2, 0), (0, 0), (2, 2)), (2, 0, 2))
        assert g.edges == ((0, 0), (0, 2), (2, 2)) and g.arrows == (0, 2, 2)
        assert len(G.WeightedDualGraph((), (), ())) == 0


class TestIntersectionMatrix:
    def test_chain(self):
        assert G.intersection_matrix(G.chain((-2, -3, -2, -2))) == (
            (-2, 1, 0, 0),
            (1, -3, 1, 0),
            (0, 1, -2, 1),
            (0, 0, 1, -2),
        )

    def test_single_vertex(self):
        assert G.intersection_matrix(G.chain((-1,))) == ((-1,),)

    def test_two_vertex_cycle(self):
        assert G.intersection_matrix(G.cycle_graph((-2, -3))) == ((-2, 2), (2, -3))

    def test_loops_do_not_enter_matrix(self):
        g = G.WeightedDualGraph((G.Vertex(0, 1),), ((0, 0),))
        assert G.intersection_matrix(g) == ((1,),)
        assert G.valency(g, 0) == 2
        assert G.euler_normalized(g, 0) == -1


class TestContractibility:
    def test_examples(self):
        assert G.is_contractible(G.chain((-2, -3, -2, -2)))
        assert not G.is_contractible(G.chain((0,)))
        assert not G.is_contractible(G.WeightedDualGraph((G.Vertex(0, 1),), ((0, 0),)))

    def test_minors_of_chain(self):
        assert G.leading_principal_minors(G.chain((-2, -3, -2, -2))) == (-2, 5, -8, 11)

    def test_zero_minor_not_definite(self):
        # (-1)-chain of two curves meeting once: minors -1, 0
        g = G.chain((-1, -1))
        assert G.leading_principal_minors(g) == (-1, 0)
        assert not G.is_contractible(g)
        assert not G.is_contractible_minors(g)

    def test_two_procedures_agree_randomized(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            g = random_graph(rng)
            assert G.is_contractible(g) == G.is_contractible_minors(g)

    def test_empty_graph(self):
        assert G.is_contractible(G.chain(()))
        assert G.leading_principal_minors(G.chain(())) == ()

    def test_singular_leading_block(self):
        # on a chain the continuant recursion runs through minor_2 = 0; on the
        # hexagon the Bareiss pass defers row 0 at minor_1 = 0 and runs on
        g = G.chain((-1, -1, -2))
        assert G.leading_principal_minors(g) == (-1, 0, 1) == block_minors(g)
        assert not G.is_contractible(g) and not G.is_contractible_minors(g)
        hexagon = G.cycle_graph((0, 0, -2, 0, 0, -1))  # zero first minor
        assert G.leading_principal_minors(hexagon) == block_minors(hexagon)

    def test_against_references_randomized(self):
        rng = random.Random(20261018)
        singular = 0
        for _ in range(1500):
            g = random_graph(rng)  # loops, multi-edges and zero weights
            expected = fraction_elimination_contractible(g)
            assert G.is_contractible(g) == expected
            assert G.is_contractible_minors(g) == expected
            minors = G.leading_principal_minors(g)
            assert minors == block_minors(g)
            singular += 0 in minors[:-1] and not is_path(g)
        assert singular > 100  # the Bareiss pass through a zero minor is exercised

    def test_long_chains_against_fraction_elimination(self):
        rng = random.Random(3)
        for n in (30, 60, 200):
            weights = [-rng.randint(2, 5) for _ in range(n)]
            g = G.chain(weights)
            assert G.is_contractible(g) and fraction_elimination_contractible(g)
            weights[n // 2] = -1  # a (-1)-curve between two (-2)-curves breaks definiteness
            weights[n // 2 - 1] = weights[n // 2 + 1] = -2
            g = G.chain(weights)
            assert not G.is_contractible(g) and not fraction_elimination_contractible(g)


class TestChainMinors:
    """Chains take their minors from the continuant recursion; every other
    graph, however close to a chain, takes the Bareiss pass."""

    @given(st.lists(st.integers(-4, 3), max_size=14))
    def test_chain_minors_match_the_references(self, weights):
        g = G.chain(weights)
        assert G.leading_principal_minors(g) == block_minors(g)
        assert G.is_contractible(g) == fraction_elimination_contractible(g)

    def test_runs_through_zero_minors(self):
        for n in range(2, 13):
            g = G.chain((-1, -1) + (-2,) * (n - 2))
            assert G.leading_principal_minors(g) == block_minors(g)
            assert len(list(G._minors(g))) == n

    def test_long_singular_chain_is_linear(self):
        # the zero minor M_2 sent every later block to _det: 9.4 s at n = 160
        g = G.chain((-1, -1) + (-2,) * 158)
        start = time.perf_counter()
        minors = G.leading_principal_minors(g)
        assert time.perf_counter() - start < 0.05
        assert minors == tuple((-1) ** (k + 1) * (k - 2) for k in range(1, 161))

    @pytest.mark.parametrize("name", sorted(NEAR_CHAINS))
    def test_near_chains_take_the_bareiss_pass(self, name):
        g = NEAR_CHAINS[name]
        assert not is_path(g)
        minors = G.leading_principal_minors(g)
        assert minors == block_minors(g)
        assert G.is_contractible(g) == fraction_elimination_contractible(g)
        # the Bareiss pass runs through a zero minor, as the continuant recursion does
        assert 0 in minors[:-1]
        assert len(list(G._minors(g))) == len(g)


def zero_graph(n, edges):
    return G.WeightedDualGraph(tuple(G.Vertex(0, 0) for _ in range(n)), edges)


# weight-0 vertices whose leading minors run through 2..n zeros
ZERO_FAMILIES = {
    "no edges": lambda n: zero_graph(n, ()),
    "edges (i, i+2)": lambda n: zero_graph(n, tuple((i, i + 2) for i in range(n - 2))),
    "star from 0": lambda n: zero_graph(n, tuple((0, i) for i in range(1, n))),
}


def tree_with_zero_minor(n):
    """The chain (-1, -1, -2, ..., -2) on n - 1 vertices plus a (-2)-leaf on
    vertex 2: a tree, not a path, whose second minor is 0."""
    weights = (-1, -1) + (-2,) * (n - 2)
    edges = tuple((i, i + 1) for i in range(n - 2)) + ((2, n - 1),)
    return G.WeightedDualGraph(tuple(G.Vertex(0, w) for w in weights), edges)


class TestMinorsThroughZeros:
    """The Bareiss pass yields all n minors: a row with a zero pivot is
    deferred and eliminated with the first later row it meets."""

    @pytest.mark.parametrize("family", sorted(ZERO_FAMILIES))
    def test_runs_of_zero_minors(self, family):
        for n in range(3, 31):
            g = ZERO_FAMILIES[family](n)
            minors = G.leading_principal_minors(g)
            assert minors == block_minors(g, laplace_det if n <= 9 else dense_det), n
            assert minors == tuple(G._minors(g))
            assert minors.count(0) >= 2 and not G.is_contractible(g)

    def test_interleaved_deferrals(self):
        # rows 0 and 1 are both deferred; row 2 meets both and pairs with 0,
        # row 3 meets 1, and row 4 is deferred until row 5 meets it
        g = zero_graph(6, ((0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 2)))
        assert G.leading_principal_minors(g) == block_minors(g) == (0, 0, 0, 1, 0, -1)

    def test_against_dense_reference_randomized(self):
        rng = random.Random(20261020)
        runs = 0
        for _ in range(800):
            g = random_graph(rng, max_vertices=14)
            minors = G.leading_principal_minors(g)
            assert minors == block_minors(g, dense_det)
            assert G.is_contractible(g) == fraction_elimination_contractible(g)
            runs += any(a == b == 0 for a, b in zip(minors, minors[1:]))
        assert runs > 50  # runs of two or more zero minors are exercised

    def test_no_dense_matrix(self, monkeypatch):
        def refuse(g):
            raise AssertionError("intersection_matrix built")

        hexagon = G.cycle_graph((0, 0, -2, 0, 0, -1))
        graphs = [tree_with_zero_minor(40), hexagon, zero_graph(5, ((0, 4),))]
        want = [block_minors(g, dense_det) for g in graphs]
        monkeypatch.setattr(G, "intersection_matrix", refuse)
        for g, minors in zip(graphs, want):
            assert G.leading_principal_minors(g) == minors
            assert not G.is_contractible(g)

    def test_tree_with_a_zero_minor_is_linear(self):
        # a dense O(k^3) determinant per block after M_2 = 0 took 5 s at n = 160
        g = tree_with_zero_minor(1000)
        start = time.perf_counter()
        minors = G.leading_principal_minors(g)
        assert time.perf_counter() - start < 0.05
        path = tuple((-1) ** (k + 1) * (k - 2) for k in range(1, 1000))  # as on the chain
        assert minors == path + (-2 * path[-1],)
        small = tuple((-1) ** (k + 1) * (k - 2) for k in range(1, 40))
        assert block_minors(tree_with_zero_minor(40), dense_det) == small + (-2 * small[-1],)


class TestEulerNormalized:
    def test_isolated(self):
        assert G.euler_normalized(G.chain((-2,)), 0) == -2

    def test_high_valency(self):
        star = G.WeightedDualGraph(
            tuple(G.Vertex(0, -4) for _ in range(10)),
            tuple((0, i) for i in range(1, 10)),
        )
        assert G.valency(star, 0) == 9
        assert G.euler_normalized(star, 0) == -4 - 9

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            G.euler_normalized(G.chain((-2,)), 1)


class TestFundamentalCycle:
    def test_examples(self):
        assert G.fundamental_cycle(G.chain((-2, -3, -2, -2))).coefficients == (1, 1, 1, 1)
        assert G.fundamental_cycle(G.chain((-2,))).coefficients == (1,)
        d4 = G.WeightedDualGraph(
            tuple(G.Vertex(0, -2) for _ in range(4)), ((0, 1), (0, 2), (0, 3))
        )
        assert G.fundamental_cycle(d4).coefficients == (2, 1, 1, 1)

    def test_against_brute_force(self):
        cases = [
            G.chain((-2, -3, -2, -2)),
            G.chain((-3, -2)),
            G.WeightedDualGraph(tuple(G.Vertex(0, -2) for _ in range(4)), ((0, 1), (0, 2), (0, 3))),
            G.WeightedDualGraph((G.Vertex(0, -2), G.Vertex(0, -3)), ((0, 1), (0, 1))),
            G.WeightedDualGraph(
                (G.Vertex(0, -3), G.Vertex(0, -2), G.Vertex(0, -4)), ((0, 1), (1, 2))
            ),
        ]
        for g in cases:
            minima = minimal_cycles_brute(g)
            assert len(minima) == 1
            assert G.fundamental_cycle(g).coefficients == minima[0]

    def test_dominates_reduced_cycle_and_meets_nonpositively(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 5)
            weights = [rng.randint(-5, -2) for _ in range(n)]
            g = G.chain(weights)
            z = G.fundamental_cycle(g)
            assert all(c >= 1 for c in z.coefficients)
            assert all(pairing(g, z, i) <= 0 for i in range(n))
            if all(w <= -2 for w in weights):
                assert z.coefficients == (1,) * n

    def test_pairing_is_the_matrix_row(self):
        rng = random.Random(20261018)
        for _ in range(500):
            g = random_graph(rng, max_vertices=8)  # loops, multi-edges and zero weights
            m = G.intersection_matrix(g)
            z = G.Cycle(tuple(rng.randint(-3, 5) for _ in range(len(g))))
            for i in range(len(g)):
                assert pairing(g, z, i) == sum(a * c for a, c in zip(m[i], z.coefficients))

    def test_errors(self):
        with pytest.raises(NotContractible):
            G.fundamental_cycle(G.chain((0,)))
        with pytest.raises(Disconnected):
            G.fundamental_cycle(G.WeightedDualGraph((G.Vertex(0, -2), G.Vertex(0, -2)), ()))
        with pytest.raises(Disconnected):
            G.fundamental_cycle(G.chain(()))


class TestLauferWorklist:
    """``fundamental_cycle`` on neighbour lists against the dense reference."""

    def test_matches_dense_reference_randomized(self):
        rng = random.Random(20261019)
        seen = {"loop": 0, "multi-edge": 0, "weight >= 0": 0}
        outcomes = {}
        for _ in range(10_000):
            g = random_graph(rng)
            want = cycle_or_error(fundamental_cycle_dense, g)
            assert cycle_or_error(G.fundamental_cycle, g) == want, g
            kind = want if isinstance(want, type) else tuple
            outcomes[kind] = outcomes.get(kind, 0) + 1
            seen["loop"] += any(i == j for i, j in g.edges)
            seen["multi-edge"] += len(set(g.edges)) < len(g.edges)
            seen["weight >= 0"] += any(v.weight >= 0 for v in g.vertices)
        assert min(seen.values()) > 1000, seen
        assert min(outcomes.get(k, 0) for k in (tuple, Disconnected, NotContractible)) > 1000, outcomes

    def test_matches_dense_reference_on_curve_resolutions(self):
        for p in range(3, 61):
            for q in range(2, p):
                if math.gcd(p, q) == 1:
                    g = S.resolve_monomial(p, q).graph
                    assert G.fundamental_cycle(g) == fundamental_cycle_dense(g), (p, q)

    def test_adds_a_component_again_while_it_meets_positively(self):
        # a (-1)-curve meeting three (-4)-curves: E_0 goes in twice in a row
        star = G.WeightedDualGraph(
            (G.Vertex(0, -1),) + tuple(G.Vertex(0, -4) for _ in range(3)), ((0, 1), (0, 2), (0, 3))
        )
        assert G.fundamental_cycle(star).coefficients == (3, 1, 1, 1)
        assert fundamental_cycle_dense(star).coefficients == (3, 1, 1, 1)
        assert minimal_cycles_brute(star) == [(3, 1, 1, 1)]

    def test_no_dense_matrix(self, monkeypatch):
        def refuse(g):
            raise AssertionError("intersection_matrix built")

        graphs = [S.resolve_monomial(97, 35).graph, G.cycle_graph((-3, -2, -4)), G.cycle_graph((-3,))]
        want = [fundamental_cycle_dense(g) for g in graphs]
        monkeypatch.setattr(G, "intersection_matrix", refuse)
        for g, z in zip(graphs, want):
            assert G.fundamental_cycle(g) == z
        with pytest.raises(Disconnected):
            G.fundamental_cycle(G.WeightedDualGraph((G.Vertex(0, -2), G.Vertex(0, -2)), ()))
        with pytest.raises(NotContractible):
            G.fundamental_cycle(G.chain((-1, -1)))

    def test_memory_is_linear_in_the_graph(self):
        # the dense body peaked at 382 MiB on this 5002-vertex resolution
        g = S.resolve_monomial(10001, 2).graph
        assert len(g) == 5002
        tracemalloc.start()
        try:
            z = G.fundamental_cycle(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert all(pairing(g, z, i) <= 0 for i in range(0, len(g), 500))


class TestSerialization:
    def test_dot_golden(self):
        assert G.to_dot(G.chain((-2, -3))) == GOLDEN_DOT

    def test_dot_arrows_and_labels(self):
        g = G.WeightedDualGraph(
            (G.Vertex(0, -1, "E_1"), G.Vertex(1, -2, "E_2")), ((0, 1),), (0,)
        )
        text = G.to_dot(g)
        assert 'v0 [label="E_1\\n-1", weight=-1, genus=0];' in text
        assert "arrow0 [shape=rarrow" in text
        assert "v0 -- arrow0;" in text
        assert "genus=1" in text

    def test_dot_escapes_labels(self):
        # a quote would end the DOT string early; a final backslash would
        # join the \n that puts the weight on its own line
        g = G.WeightedDualGraph((G.Vertex(0, -2, 'a"b'), G.Vertex(0, -2, "x\\")), ())
        text = G.to_dot(g)
        assert 'v0 [label="a\\"b\\n-2", weight=-2, genus=0];' in text
        assert 'v1 [label="x\\\\\\n-2", weight=-2, genus=0];' in text

    def test_json_roundtrip_examples(self):
        for g in (
            G.chain(()),
            G.chain((-2, -3, -2)),
            G.cycle_graph((-2, -3)),
            G.WeightedDualGraph((G.Vertex(2, -1, "E_1"),), ((0, 0),), (0,)),
        ):
            assert G.from_json(G.to_json(g)) == g

    @given(st.integers(0, 10**6))
    def test_json_roundtrip_randomized(self, seed):
        g = random_graph(random.Random(seed))
        assert G.from_json(G.to_json(g)) == g

    def test_json_deterministic(self):
        g = G.cycle_graph((-2, -3, -4))
        assert G.to_json(g) == G.to_json(g)


def graph_doc(**fields):
    """The JSON form of a two-vertex chain with the given top-level fields replaced."""
    doc = json.loads(G.to_json(G.chain((-2, -3))))
    return json.dumps({**doc, **fields})


def vertex_doc(**fields):
    """The same document with the given fields of its first vertex replaced."""
    doc = json.loads(G.to_json(G.chain((-2, -3))))
    doc["vertices"][0].update(fields)
    return json.dumps(doc)


def lettered_doc(edge):
    """The same chain with vertex ids "a" and "b" and the one edge given."""
    doc = json.loads(G.to_json(G.chain((-2, -3))))
    doc["vertices"][0]["id"], doc["vertices"][1]["id"] = "a", "b"
    doc["edges"] = [edge]
    return json.dumps(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.sampled_from(
        ["v0", "v1", "v9", "", "graph", "cone", "lattice-cf/1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "genus", "weight", "label", "schema", "type"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def malformed_documents(draw):
    """A document of ``to_json`` with one to three places deleted or replaced."""
    doc = json.loads(G.to_json(random_graph(random.Random(draw(st.integers(0, 10**6))))))
    for _ in range(draw(st.integers(1, 3))):
        places = [()]
        for path in places:  # grows as it is walked: every place in the document
            node = doc
            for key in path:
                node = node[key]
            if isinstance(node, (dict, list)):
                keys = node if isinstance(node, dict) else range(len(node))
                places += [path + (key,) for key in keys]
        path = draw(st.sampled_from(places))
        value = draw(json_values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc)


class TestJsonReader:
    """``from_json`` reads a ``lattice-cf/1`` graph document and raises only
    typed errors, naming the key or id at fault, on anything else."""

    @pytest.mark.parametrize("text, error, named", [
        pytest.param("{}", DomainError, "'schema'", id="empty object"),
        pytest.param("[]", DomainError, "'schema'", id="array"),
        pytest.param("not json", DomainError, "not a JSON document", id="not json"),
        pytest.param("[" * 100000, DomainError, "not a JSON document", id="deep nesting"),
        pytest.param(graph_doc(schema="x", type="cone"), DomainError, "'schema'", id="other schema"),
        pytest.param(graph_doc(type="cone"), DomainError, "'type'", id="other type"),
        pytest.param(graph_doc(vertices={}), DomainError, "'vertices'", id="vertices not a list"),
        pytest.param(graph_doc(vertices=["v0"]), DomainError, "'id'", id="vertex not an object"),
        pytest.param(graph_doc(edges=[["v0", "v9"]]), UnknownVertex, "'v9'", id="edge to unknown id"),
        pytest.param(graph_doc(edges=[["v0"]]), DomainError, "'edges'", id="edge not a pair"),
        pytest.param(graph_doc(edges=[["v0", ["v1"]]]), DomainError, "'edges'", id="unhashable id"),
        pytest.param(graph_doc(edges=[{"v0": 0, "v1": 0}]), DomainError, "'edges'", id="edge an object"),
        pytest.param(lettered_doc("ab"), DomainError, "'edges'", id="edge a string"),
        pytest.param(graph_doc(arrows=[["v0"]]), DomainError, "'arrows'", id="unhashable arrow"),
        pytest.param(graph_doc(arrows=["v2"]), UnknownVertex, "'v2'", id="arrow at unknown id"),
        pytest.param(graph_doc(arrows=None), DomainError, "'arrows'", id="arrows null"),
        pytest.param(vertex_doc(genus=0.5), DomainError, "'genus'", id="fractional genus"),
        pytest.param(vertex_doc(genus=True), DomainError, "'genus'", id="boolean genus"),
        pytest.param(vertex_doc(genus=-1), DomainError, "genus", id="negative genus"),
        pytest.param(vertex_doc(weight="-2"), DomainError, "'weight'", id="string weight"),
        pytest.param(vertex_doc(label=7), DomainError, "'label'", id="integer label"),
        pytest.param(vertex_doc(id="v1"), DomainError, "'id'", id="repeated id"),
    ])
    def test_malformed_examples_name_their_fault(self, text, error, named):
        with pytest.raises(error) as info:
            G.from_json(text)
        assert type(info.value) is error and named in str(info.value)

    def test_other_ids(self):
        assert G.from_json(lettered_doc(["a", "b"])) == G.chain((-2, -3))

    def test_optional_label(self):
        doc = json.loads(G.to_json(G.chain((-2,))))
        del doc["vertices"][0]["label"]
        assert G.from_json(json.dumps(doc)) == G.chain((-2,))

    @given(malformed_documents() | st.text(max_size=20))
    def test_only_typed_errors(self, text):
        try:
            g = G.from_json(text)
        except LatticeCFError:
            return
        assert G.from_json(G.to_json(g)) == g
