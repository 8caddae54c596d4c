import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticecf import cf, graphs as G, lattice, singularities as S
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

    def test_exceptional_part_contractible(self):
        for p, q in coprime_pairs(30, q_min=2):
            g = S.resolve_monomial(p, q).graph
            assert G.is_contractible(G.WeightedDualGraph(g.vertices, g.edges))

    def test_smooth_curves_rejected(self):
        with pytest.raises(DomainError):
            S.resolve_monomial(5, 1)
        with pytest.raises(DomainError):
            S.blowup_oracle(5, 1)
        with pytest.raises(DomainError):
            S.resolve_monomial(6, 4)
