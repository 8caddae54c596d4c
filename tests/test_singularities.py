import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from latticecf import cf, graphs as G, lattice, singularities as S, zigzag as Z
from latticecf.errors import CycleTooShort, DomainError, InvalidCycle


def coprime_pairs(limit, q_min=1):
    for p in range(q_min + 1, limit + 1):
        for q in range(q_min, p):
            if math.gcd(p, q) == 1:
                yield p, q


class Quad:
    """Exact (a + b*sqrt(d))/c, test-only, for expanding quadratic slopes."""

    def __init__(self, a, b, c, d):
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    def key(self):
        return (self.a, self.b, self.c, self.d)

    def _int_le(self, k):
        # k <= (a + b*sqrt(d))/c with sqrt(d) irrational
        t = k * self.c - self.a
        lhs = self.b * self.b * self.d
        if self.b >= 0:
            return t <= 0 or t * t <= lhs
        return t < 0 and t * t >= lhs

    def ceil(self):
        # least integer > x (x is irrational); the seed is off by at most one
        s = math.isqrt(self.b * self.b * self.d)
        if self.b < 0:
            s = -s - 1
        k = (self.a + s) // self.c + 1
        while self._int_le(k):
            k += 1
        while not self._int_le(k - 1):
            k -= 1
        return k

    def hj_step(self):
        """Return (ceil(x), 1/(ceil(x) - x))."""
        k = self.ceil()
        e, f, g = k * self.c - self.a, -self.b, self.c
        return k, Quad(g * e, -g * f, e * e - f * f * self.d, self.d)

    def involute(self):
        """x / (x - 1), exact."""
        # 1 + 1/(x-1); 1/(x-1) = c*(a-c - b*sqrt(d)) / ((a-c)^2 - b^2 d)
        e = self.a - self.c
        den = e * e - self.b * self.b * self.d
        return Quad(self.c * e + den, -self.c * self.b, den, self.d)


def quad_hj_period(x: Quad):
    """(preperiod, period) of the subtractive expansion of a quadratic x."""
    seen = {}
    terms = []
    while x.key() not in seen:
        seen[x.key()] = len(terms)
        a, x = x.hj_step()
        terms.append(a)
    start = seen[x.key()]
    return tuple(terms[:start]), tuple(terms[start:])


def periodic_fixed_point(cycle) -> Quad:
    """The value with purely periodic subtractive expansion given by the cycle."""
    t = ((1, 0), (0, 1))
    for a in cycle:
        t = (
            (t[0][0] * a + t[0][1], -t[0][0]),
            (t[1][0] * a + t[1][1], -t[1][0]),
        )
    trace = t[0][0] + t[1][1]
    return Quad(t[0][0] - t[1][1], 1, 2 * t[1][0], trace * trace - 4)


class TestHJResolution:
    def test_examples(self):
        assert [v.weight for v in S.hj_resolution(S.HJType(11, 7)).vertices] == [-2, -3, -2, -2]
        assert [v.weight for v in S.hj_resolution(S.HJType(2, 1)).vertices] == [-2]
        for n in range(1, 9):
            g = S.hj_resolution(S.HJType(n + 1, n))
            assert [v.weight for v in g.vertices] == [-2] * n

    def test_contractible_sweep(self):
        for p, q in coprime_pairs(80):
            assert G.is_contractible(S.hj_resolution(S.HJType(p, q)))

    def test_type_validation(self):
        with pytest.raises(DomainError):
            S.HJType(4, 2)
        with pytest.raises(DomainError):
            S.HJType(3, 0)


class TestEmbdim:
    def test_examples(self):
        assert S.embdim(S.HJType(11, 7)) == 4
        assert S.embdim(S.HJType(11, 4)) == 6
        for n in range(1, 20):
            assert S.embdim(S.HJType(n + 1, n)) == 3

    def test_oracle_and_dual_length_sweep(self):
        for p, q in coprime_pairs(50):
            t = S.HJType(p, q)
            d = S.embdim(t)
            assert d == S.embdim_oracle(t)
            assert d == 2 + len(cf.expand_hj(Fraction(p, p - q)).terms)


class TestBlowup:
    def test_examples(self):
        assert S.blowup_types(S.HJType(11, 7)) == (None, S.HJType(2, 1))
        assert S.blowup_types(S.HJType(2, 1)) == ()
        for n in range(3, 12):
            assert S.blowup_types(S.HJType(n + 1, n)) == (S.HJType(n - 1, n - 2),)
        assert S.blowup_types(S.HJType(3, 2)) == (None,)

    def test_splice_reconstitutes_chain(self):
        for p, q in coprime_pairs(80):
            weights = cf.expand_hj(Fraction(p, q)).terms
            r = len(weights)
            parts = S.blowup_types(S.HJType(p, q))
            if r == 1:
                assert parts == ()
                continue
            drawn = sorted({1, r} | {n for n, w in enumerate(weights, 1) if w >= 3})
            assert len(parts) == len(drawn) - 1
            spliced = [-weights[drawn[0] - 1]]
            for part, stop in zip(parts, drawn[1:]):
                if part is not None:
                    spliced.extend(v.weight for v in S.hj_resolution(part).vertices)
                spliced.append(-weights[stop - 1])
            assert spliced == [-w for w in weights]

    def test_blowup_types_verified_by_hull_oracle(self):
        for p, q in list(coprime_pairs(40)):
            chain_pts = lattice.hull_oracle(lattice.ConeNF(p, q))
            drawn = sorted(
                {1, chain_pts.r} | {n + 1 for n, w in enumerate(chain_pts.weights) if w >= 3}
            )
            expected = []
            for a, b in zip(drawn, drawn[1:]):
                gap = lattice.integral_length(chain_pts.points[a], chain_pts.points[b])
                expected.append(None if gap == 1 else S.HJType(gap, gap - 1))
            if chain_pts.r == 1:
                expected = []
            assert S.blowup_types(S.HJType(p, q)) == tuple(expected)


class TestLens:
    def test_examples(self):
        assert S.lens_oriented_equal(S.LensSpace(11, 7), S.LensSpace(11, 8))
        assert S.lens_reverse(S.LensSpace(11, 7)) == S.LensSpace(11, 4)
        assert S.lens_oriented_equal(S.LensSpace(7, 2), S.LensSpace(7, 2))
        assert not S.lens_oriented_equal(S.LensSpace(7, 2), S.LensSpace(7, 3))
        assert not S.lens_oriented_equal(S.LensSpace(7, 2), S.LensSpace(5, 2))

    def test_reversal_consistency(self):
        a = S.LensSpace(11, 7)
        assert S.lens_reversed_equal(a, S.LensSpace(11, 4))
        assert S.lens_reversed_equal(a, S.LensSpace(11, 3))  # 4 * 3 = 12 = 1 mod 11
        assert not S.lens_reversed_equal(a, S.LensSpace(11, 7))

    def test_equivalence_relation_small(self):
        spaces = [S.LensSpace(p, q) for p, q in coprime_pairs(20)]
        for a in spaces:
            assert S.lens_oriented_equal(a, a)
            for b in spaces:
                assert S.lens_oriented_equal(a, b) == S.lens_oriented_equal(b, a)


class TestCusp:
    def test_cycle_canonical_rotation(self):
        assert S.CuspCycle((3, 2, 2)).weights == (2, 2, 3)
        assert S.CuspCycle((5,)).weights == (5,)
        assert S.CuspCycle((2, 3, 2, 2)) == S.CuspCycle((2, 2, 2, 3))
        assert S.CuspCycle((3, 2, 3, 2)).weights == (2, 3, 2, 3)

    @given(
        st.lists(st.integers(2, 5), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(0, 30),
    )
    def test_least_rotation_matches_min(self, base, repeats, shift):
        # repeated bases give periodic words such as (2, 3, 2, 3)
        w = tuple(base) * repeats
        shift %= len(w)
        w = w[shift:] + w[:shift]
        k = S._least_rotation(w)
        assert w[k:] + w[:k] == min(w[i:] + w[:i] for i in range(len(w)))

    def test_cycle_validation(self):
        with pytest.raises(InvalidCycle):
            S.CuspCycle((2, 2, 2))
        with pytest.raises(InvalidCycle):
            S.CuspCycle((3, 1))
        with pytest.raises(InvalidCycle):
            S.CuspCycle(())

    def test_monodromy_examples(self):
        m = S.cusp_monodromy(S.CuspCycle((4,)))
        assert m.rows() == ((0, -1), (1, 4))
        assert m.det() == 1
        assert S.cusp_monodromy(S.CuspCycle((3,))).a + S.cusp_monodromy(S.CuspCycle((3,))).d == 3
        m = S.cusp_monodromy(S.CuspCycle((2, 3, 2, 2)))
        assert m.a + m.d == 6 and m.det() == 1

    def test_trace_formula_examples(self):
        assert S.cusp_trace_formula(S.CuspCycle((2, 3))) == 4
        assert S.cusp_trace_formula(S.CuspCycle((2, 3, 2, 2))) == 6
        assert S.cusp_trace_formula(S.CuspCycle((3, 3))) == 7
        with pytest.raises(CycleTooShort):
            S.cusp_trace_formula(S.CuspCycle((4,)))

    def test_trace_formula_randomized(self):
        rng = random.Random(99)
        for _ in range(800):
            n = rng.randint(2, 10)
            w = [rng.randint(2, 9) for _ in range(n)]
            w[rng.randrange(n)] = rng.randint(3, 9)
            c = S.CuspCycle(tuple(w))
            m = S.cusp_monodromy(c)
            assert m.a + m.d == S.cusp_trace_formula(c) >= 3
            assert m.det() == 1

    def test_dual_examples(self):
        assert S.cusp_dual(S.CuspCycle((3,))) == S.CuspCycle((3,))
        assert S.cusp_dual(S.CuspCycle((4,))) == S.CuspCycle((2, 3))
        assert S.cusp_dual(S.CuspCycle((2, 3, 2, 2))) == S.CuspCycle((6,))

    def test_dual_involution_and_trace(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 9)
            w = [rng.randint(2, 8) for _ in range(n)]
            w[rng.randrange(n)] = rng.randint(3, 8)
            c = S.CuspCycle(tuple(w))
            d = S.cusp_dual(c)
            assert S.cusp_dual(d) == c
            if len(c) >= 2 and len(d) >= 2:
                assert S.cusp_trace_formula(c) == S.cusp_trace_formula(d)
            mc, md = S.cusp_monodromy(c), S.cusp_monodromy(d)
            assert mc.a + mc.d == md.a + md.d

    def test_fixed_points_are_purely_periodic(self):
        for cycle in ((4,), (3,), (2, 2, 2, 3), (2, 3), (2, 4, 3)):
            pre, per = quad_hj_period(periodic_fixed_point(cycle))
            assert pre == ()
            assert per == cycle

    def test_dual_matches_supplementary_eigen_slope(self):
        # the expanding slope of the (4)-cycle is 2 + sqrt(3); its involute
        # (1 + sqrt(3))/2 expands with eventual period (2, 3) = dual cycle
        x = periodic_fixed_point((4,))
        assert quad_hj_period(x) == ((), (4,))
        pre, per = quad_hj_period(x.involute())
        assert (pre, per) == ((2,), (2, 3))
        assert S.CuspCycle(per) == S.cusp_dual(S.CuspCycle((4,)))

    def test_dual_matches_eigen_slope_more_cycles(self):
        for cycle in ((2, 2, 2, 3), (2, 4), (3, 5, 2), (2, 2, 3, 4)):
            c = S.CuspCycle(cycle)
            _, per = quad_hj_period(periodic_fixed_point(c.weights).involute())
            assert S.CuspCycle(per) == S.cusp_dual(c)


def cusp_dual_walk(c):
    """The body ``cusp_dual`` had before it called ``involute_hj``, with the
    former ``hj_blocks`` loop inlined.  Kept as an oracle."""
    w = c.weights
    pivot = max(i for i, x in enumerate(w) if x >= 3)
    out = []
    run = 0
    for x in w[pivot + 1:] + w[:pivot + 1]:  # ends in a weight >= 3
        if x == 2:
            run += 1
        else:
            out.append(run + 3)
            out.extend([2] * (x - 3))
            run = 0
    return S.CuspCycle(tuple(out))


class TestCuspDualOracle:
    @given(st.lists(st.integers(2, 9), min_size=1, max_size=40), st.integers(0, 39), st.integers(3, 9))
    def test_matches_walk(self, w, at, big):
        w[at % len(w)] = big  # a cusp cycle needs a weight >= 3
        c = S.CuspCycle(w)
        assert S.cusp_dual(c) == cusp_dual_walk(c)

    def test_long_runs_match_walk(self):
        n = 10**5
        for w in ((2,) * n + (3,), (4,) + (2,) * n + (3, 2, 2), (n,), (3, n, 2)):
            c = S.CuspCycle(w)
            assert S.cusp_dual(c) == cusp_dual_walk(c)


def monodromy_product(c):
    """The body ``cusp_monodromy`` had before the continuant fold: one
    ``Mat2`` per weight, multiplied in order.  Kept as an oracle."""
    m = lattice.Mat2(1, 0, 0, 1)
    for a in c.weights:
        m = m.compose(lattice.Mat2(0, -1, 1, a))
    return m


class TestMonodromyOracle:
    def test_matches_product_on_random_cycles(self):
        rng = random.Random(2024)
        for n in [1, 2, 3] * 20 + [rng.randint(4, 60) for _ in range(200)] + [500, 1000, 2999, 3000]:
            w = [rng.choice((2, 2, 2, 3, 4, rng.randint(2, 10**6))) for _ in range(n)]
            w[rng.randrange(n)] = rng.randint(3, 12)
            c = S.CuspCycle(tuple(w))
            assert S.cusp_monodromy(c) == monodromy_product(c)

    def test_matches_product_on_long_runs_of_twos(self):
        for w in ((3,), (2,) * 3000 + (3,), (2,) * 1500 + (5,) + (2,) * 1499):
            c = S.CuspCycle(w)
            assert S.cusp_monodromy(c) == monodromy_product(c)


class TestMonomialCurves:
    def test_dual_graph_example(self):
        res = S.resolve_monomial(11, 4)
        assert len(res) == 6
        g = res.graph
        assert [v.weight for v in g.vertices] == [-2, -3, -4, -2, -2, -1]
        assert g.edges == ((0, 1), (1, 3), (2, 5), (3, 4), (4, 5))
        assert g.arrows == (5,)
        assert g.vertices[5].label == "E_6"

    def test_ordinary_cusp(self):
        res = S.resolve_monomial(3, 2)
        assert sorted(v.weight for v in res.graph.vertices) == [-3, -2, -1]
        assert res.graph.arrows == (2,)

    def test_oracle_equality_examples(self):
        for p, q in ((11, 4), (3, 2), (5, 2), (7, 3), (9, 5)):
            assert S.resolve_monomial(p, q) == S.blowup_oracle(p, q)

    def test_oracle_equality_sweep(self):
        for p, q in coprime_pairs(45, q_min=2):
            assert S.resolve_monomial(p, q) == S.blowup_oracle(p, q)

    def test_vertex_count_law(self):
        for p, q in coprime_pairs(45, q_min=2):
            assert len(S.resolve_monomial(p, q)) == S.blowup_count(p, q)
        assert S.blowup_count(11, 4) == 6
        assert S.blowup_count(5, 2) == 4

    @pytest.mark.parametrize("p, q", [(3, 0), (5, -2), (4, 2), (2, 5), (3, 3)])
    def test_vertex_count_rejects_what_resolve_rejects(self, p, q):
        with pytest.raises(DomainError, match="a monomial curve"):
            S.blowup_count(p, q)

    def test_exceptional_part_contractible(self):
        for p, q in coprime_pairs(30, q_min=2):
            g = S.resolve_monomial(p, q).graph
            assert G.is_contractible(G.WeightedDualGraph(g.vertices, g.edges))

    @pytest.mark.parametrize("weights, labels, arrows, message", [
        ((-1, -1), ("E_1", "E_2"), (1,), "the arrowhead must sit on the unique -1 vertex"),
        ((-1, -2), ("E_1", "E_2"), (1,), "the arrowhead must sit on the unique -1 vertex"),
        ((-2, -2), ("E_1", "E_2"), (1,), "the arrowhead must sit on the unique -1 vertex"),
        ((-2, -1), ("E_1", "E_2"), (), "a curve resolution carries exactly one arrowhead"),
        ((-2, -1), ("E_1", "E_2"), (1, 1), "a curve resolution carries exactly one arrowhead"),
        ((-3, -2, -1), ("E_1", "E_3", "E_2"), (2,), "vertex 1 must be labelled E_2, got 'E_3'"),
        ((-3, -2, -1), ("E_1", None, "E_3"), (2,), "vertex 1 must be labelled E_2, got None"),
        ((-3, -2, -1), ("E_2", "E_3", "E_1"), (2,), "vertex 0 must be labelled E_1, got 'E_2'"),
    ])
    def test_checks_raise_their_messages(self, weights, labels, arrows, message):
        verts = tuple(map(G.Vertex, (0,) * len(weights), weights, labels))
        path = tuple(zip(range(len(verts) - 1), range(1, len(verts))))
        graph = G.WeightedDualGraph(verts, path, arrows)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            S.CurveResolution(graph)

    def test_labels_must_follow_vertex_order(self):
        g = S.resolve_monomial(11, 4).graph
        swapped = (G.Vertex(0, -2, "E_2"), G.Vertex(0, -1, "E_1"))
        for graph in (
            G.WeightedDualGraph(swapped, ((0, 1),), (1,)),
            G.WeightedDualGraph(g.vertices[::-1], tuple((5 - j, 5 - i) for i, j in g.edges), (0,)),
            G.WeightedDualGraph(g.vertices[:2] + (G.Vertex(0, -4, "E_4"), G.Vertex(0, -2, "E_3"))
                                + g.vertices[4:], g.edges, g.arrows),
        ):
            with pytest.raises(DomainError, match="must be labelled"):
                S.CurveResolution(graph)
        assert S.CurveResolution(g) == S.resolve_monomial(11, 4)

    def test_smooth_curves_rejected(self):
        with pytest.raises(DomainError):
            S.resolve_monomial(5, 1)
        with pytest.raises(DomainError):
            S.blowup_oracle(5, 1)
        with pytest.raises(DomainError):
            S.resolve_monomial(6, 4)


# The unary bodies that embdim, blowup_types and resolve_monomial had before
# they read the block form off the Euclidean quotients, kept as oracles.


def embdim_unary(t):
    return 3 + sum(a - 2 for a in cf.expand_hj(Fraction(t.p, t.q)).terms)


def blowup_types_unary(t):
    weights = cf.expand_hj(Fraction(t.p, t.q)).terms
    r = len(weights)
    if r == 1:
        return ()
    drawn = sorted({1, r} | {n for n, w in enumerate(weights, 1) if w >= 3})
    out = []
    for a, b in zip(drawn, drawn[1:]):
        gap = b - a
        out.append(None if gap == 1 else S.HJType(gap, gap - 1))
    return tuple(out)


def resolve_monomial_unary(p, q):
    side = cf.expand_hj(Fraction(p, p - q)).terms
    ms, ns = cf.hj_blocks(side)
    s = len(ns)
    dual_side = cf.involute_hj(side)
    r, rp = len(side), len(dual_side)
    label = [0] * (r + 1)
    dual_label = [0] * (rp - 1)
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
    verts = tuple(G.Vertex(0, weights[k], f"E_{k + 1}") for k in range(n))
    return S.CurveResolution(G.WeightedDualGraph(verts, tuple(edges), (label[r] - 1,)))


@st.composite
def random_type(draw, max_bits=2000, max_unary=10**5):
    """A coprime pair p > q >= 1 of up to ``max_bits`` bits, drawn uniformly
    through a seeded ``Random`` (see ``test_cf.random_above_one``)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.getrandbits(draw(st.integers(1, max_bits))) + 2
    q = rng.randrange(1, p)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    assume(p > 1 and sum(cf.expand_e(Fraction(p, q)).terms) <= max_unary)
    return p, q


class TestBlockFormConsumers:
    def test_sweep_matches_unary_bodies(self):
        for p, q in coprime_pairs(120):
            t = S.HJType(p, q)
            assert S.embdim(t) == embdim_unary(t), (p, q)
            assert S.blowup_types(t) == blowup_types_unary(t), (p, q)
            if q >= 2:
                assert S.resolve_monomial(p, q) == resolve_monomial_unary(p, q), (p, q)

    @given(random_type())
    def test_random_matches_unary_bodies(self, pq):
        t = S.HJType(*pq)
        assert S.embdim(t) == embdim_unary(t)
        assert S.blowup_types(t) == blowup_types_unary(t)

    @given(random_type(max_bits=200, max_unary=3000))
    def test_random_curves_match_unary_body(self, pq):
        p, q = pq
        assume(q >= 2)
        assert S.resolve_monomial(p, q) == resolve_monomial_unary(p, q)

    def test_no_unary_expansion_on_thousand_digit_inputs(self, monkeypatch):
        rng = random.Random(1000)
        p = rng.randrange(10**999, 10**1000)
        q = rng.randrange(1, p)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        t = S.HJType(p, q)
        want = (embdim_unary(t), blowup_types_unary(t), Z.build(Fraction(p, q)))

        def refuse(*args):
            raise AssertionError("unary expansion requested")

        for module in (cf, lattice, S, Z):
            for name in ("expand_hj", "hj_terms"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert (S.embdim(t), S.blowup_types(t), Z.build(Fraction(p, q))) == want
        # (n+1)/n = [(2)^n]-: a chain of 10^999 curves, drawn only at its ends
        n = 10**999
        t = S.HJType(n + 1, n)
        assert S.embdim(t) == 3
        assert S.blowup_types(t) == (S.HJType(n - 1, n - 2),)
        d = Z.build(Fraction(n + 1, n))
        assert d.right_edge_lengths == (n + 1,) and d.left_vertex_weights == (n + 1,)


# The bodies embdim_oracle and blowup_oracle had before they were rewritten,
# kept as oracles of the oracles: the semigroup count by its definition, every
# splitting of every floor point tried, O(p^2) (embdim_oracle now keeps the
# running minimum of the floor slack); a list of the curves through the point
# per blow-up.


def embdim_oracle_parent(t):
    p, q = t.p, t.q
    c = [0] + [-((-q * x) // p) for x in range(1, p + 1)]
    count = 1
    for x in range(1, p + 1):
        if all(c[u] + c[x - u] > c[x] for u in range(1, x)):
            count += 1
    return count


def blowup_oracle_parent(p, q):
    if q < 2:
        raise DomainError("x^p = y^q is singular only for q >= 2")
    S._check_pq(p, q, "a monomial curve")
    a, b = q, p
    curve_a = curve_b = None
    weights = []
    edges = set()
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
    verts = tuple(G.Vertex(0, w, f"E_{i + 1}") for i, w in enumerate(weights))
    return S.CurveResolution(G.WeightedDualGraph(verts, tuple(edges), (len(weights) - 1,)))


def assert_same_blowup(p, q):
    got, want = S.blowup_oracle(p, q).graph, blowup_oracle_parent(p, q).graph
    assert got.vertices == want.vertices, (p, q)
    assert got.edges == want.edges, (p, q)
    assert got.arrows == want.arrows, (p, q)


def random_coprime_pair(max_p, min_q=1):
    return st.integers(min_q + 1, max_p).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(min_q, p - 1))).filter(lambda pq: math.gcd(*pq) == 1)


class TestOraclesMatchParentBodies:
    def test_embdim_sweep(self):
        for p, q in coprime_pairs(200):
            t = S.HJType(p, q)
            assert S.embdim_oracle(t) == embdim_oracle_parent(t), (p, q)

    def test_blowup_sweep(self):
        for p, q in coprime_pairs(200, q_min=2):
            assert_same_blowup(p, q)

    @given(random_coprime_pair(400))
    def test_embdim_random(self, pq):
        t = S.HJType(*pq)
        assert S.embdim_oracle(t) == embdim_oracle_parent(t)

    @given(random_coprime_pair(3000, min_q=2))
    def test_blowup_random(self, pq):
        assert_same_blowup(*pq)

    @pytest.mark.parametrize("p, q", [(5, 1), (2, 1), (6, 4), (9, 6), (2, 5), (5, 5), (-5, 3), (5, 0), (5, -2)])
    def test_invalid_curves_raise_as_parent(self, p, q):
        for f in (S.blowup_oracle, blowup_oracle_parent):
            with pytest.raises(DomainError):
                f(p, q)


class TestSemigroupOracleAtScale:
    """embdim_oracle is one pass over the p floor points, so it checks the
    formula at sizes the splitting scan of ``embdim_oracle_parent`` cannot reach."""

    @pytest.mark.parametrize("p", [10**4 + 1, 10**5 + 1])
    def test_extreme_q(self, p):
        for q in (1, 2, p - 2, p - 1):
            t = S.HJType(p, q)
            assert S.embdim_oracle(t) == S.embdim(t), (p, q)

    def test_random_pairs(self):
        rng = random.Random(12)
        for _ in range(20):
            p = rng.randrange(10**4, 10**5)
            q = rng.randrange(1, p)
            while math.gcd(p, q) != 1:
                q = rng.randrange(1, p)
            t = S.HJType(p, q)
            assert S.embdim_oracle(t) == S.embdim(t), (p, q)


class TestOracleIndependence:
    """The oracles are the check on cf, so none of them may reach it."""

    CASES = [(2, 1), (3, 2), (5, 2), (7, 3), (11, 4), (11, 7), (35, 13), (97, 35),
             (144, 89), (128, 127), (331, 3), (499, 2), (500, 499), (500, 123), (10001, 2)]

    def answers(self):
        out = []
        for p, q in self.CASES:
            curve = S.blowup_oracle(p, q) if q >= 2 else None
            out.append((lattice.hull_oracle(lattice.ConeNF(p, q)), S.embdim_oracle(S.HJType(p, q)), curve))
        return out

    def test_oracles_call_nothing_in_cf(self, monkeypatch):
        want = self.answers()
        for (p, q), (hull, dim, curve) in zip(self.CASES, want):
            assert hull == lattice.polygon(lattice.ConeNF(p, q))
            assert dim == S.embdim(S.HJType(p, q))
            assert curve == (S.resolve_monomial(p, q) if q >= 2 else None)

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle called into cf")

        patched = set()
        for module in (cf, lattice, S):
            for name, obj in list(vars(module).items()):
                if callable(obj) and getattr(obj, "__module__", None) == cf.__name__:
                    monkeypatch.setattr(module, name, refuse)
                    patched.add(name)
        assert {"hj_terms", "block_form", "hj_blocks", "expand_e", "expand_hj",
                "_quotients", "_continuants", "continuant", "_ints", "_unary",
                "_involute_runs"} <= patched
        with pytest.raises(AssertionError, match="called into cf"):
            lattice.polygon(lattice.ConeNF(11, 4))
        assert self.answers() == want


class TestSingularityProperties:
    @given(st.integers(3, 300).flatmap(lambda p: st.tuples(st.just(p), st.integers(2, p - 1))))
    def test_resolve_monomial_matches_blowup_oracle(self, pq):
        p, q = pq
        assume(math.gcd(p, q) == 1)
        assert S.resolve_monomial(p, q) == S.blowup_oracle(p, q)

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=40), st.integers(0, 39), st.integers(3, 9))
    def test_cusp_dual_involutive_and_trace_preserving(self, w, at, big):
        w[at % len(w)] = big  # a cusp cycle needs a weight >= 3
        c = S.CuspCycle(w)
        d = S.cusp_dual(c)
        assert S.cusp_dual(d) == c
        mc, md = S.cusp_monodromy(c), S.cusp_monodromy(d)
        assert mc.a + mc.d == md.a + md.d
