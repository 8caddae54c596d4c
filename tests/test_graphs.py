import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticecf import graphs as G
from latticecf.errors import Disconnected, DomainError, NotContractible, UnknownVertex

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


def block_minors(g):
    m = [list(row) for row in G.intersection_matrix(g)]
    return tuple(laplace_det([row[:k] for row in m[:k]]) for k in range(1, len(g) + 1))


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


class TestConstruction:
    def test_chain_and_cycle(self):
        c = G.chain((-2, -3))
        assert len(c) == 2 and c.edges == ((0, 1),)
        assert G.chain(()).vertices == ()
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

    def test_edges_normalized(self):
        g = G.WeightedDualGraph((G.Vertex(), G.Vertex()), ((1, 0), (0, 1)))
        assert g.edges == ((0, 1), (0, 1))


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
        # minor_2 = 0 stops the minors pass; minor_3 comes from the 3 x 3 block
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
            singular += 0 in minors[:-1]
        assert singular > 100  # the _det fallback after a zero minor is exercised

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
            assert all(G.pairing(g, z, i) <= 0 for i in range(n))
            if all(w <= -2 for w in weights):
                assert z.coefficients == (1,) * n

    def test_errors(self):
        with pytest.raises(NotContractible):
            G.fundamental_cycle(G.chain((0,)))
        with pytest.raises(Disconnected):
            G.fundamental_cycle(G.WeightedDualGraph((G.Vertex(0, -2), G.Vertex(0, -2)), ()))
        with pytest.raises(Disconnected):
            G.fundamental_cycle(G.chain(()))


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
