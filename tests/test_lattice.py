import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from latticecf import cf, lattice
from latticecf.errors import DegenerateCone, DomainError, InternalError, RegularCone, ZeroVector


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


class TestBasics:
    def test_primitive(self):
        assert lattice.primitive((4, 11)) == (4, 11)
        assert lattice.primitive((6, -9)) == (2, -3)
        with pytest.raises(ZeroVector):
            lattice.primitive((0, 0))

    def test_integral_length(self):
        assert lattice.integral_length((1, 2), (3, 8)) == 2
        assert lattice.integral_length((1, 0), (1, 1)) == 1
        with pytest.raises(ZeroVector):
            lattice.integral_length((2, 2), (2, 2))

    def test_mat2(self):
        m = lattice.Mat2(1, -1, 0, 1)
        assert m.apply((4, 11)) == (-7, 11)
        assert m.inverse().apply((-7, 11)) == (4, 11)
        assert m.compose(m.inverse()) == lattice.IDENTITY
        with pytest.raises(DomainError):
            lattice.Mat2(2, 0, 0, 2).inverse()


class TestNormalForm:
    def test_figure_cone(self):
        nf, m = lattice.cone_normal_form((1, 0), (4, 11))
        assert (nf.p, nf.q) == (11, 7)
        assert m.apply((1, 0)) == (1, 0)
        assert m.apply((4, 11)) == (-7, 11)
        assert m.det() in (1, -1)

    def test_regular(self):
        nf, _ = lattice.cone_normal_form((1, 0), (0, 1))
        assert (nf.p, nf.q) == (1, 0) and nf.is_regular

    def test_swap_gives_inverse_mod_p(self):
        nf, _ = lattice.cone_normal_form((4, 11), (1, 0))
        assert (nf.p, nf.q) == (11, 8)  # 7 * 8 = 56 = 1 mod 11

    def test_degenerate(self):
        with pytest.raises(DegenerateCone):
            lattice.cone_normal_form((2, 4), (-1, -2))

    def test_invalid_pairs_rejected(self):
        with pytest.raises(DomainError):
            lattice.ConeNF(4, 2)
        with pytest.raises(DomainError):
            lattice.ConeNF(3, 3)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    def test_map_is_unimodular_and_exact(self, ux, uy, vx, vy):
        u, v = (ux, uy), (vx, vy)
        if u == (0, 0) or v == (0, 0) or ux * vy - uy * vx == 0:
            return
        nf, m = lattice.cone_normal_form(u, v)
        assert m.det() in (1, -1)
        assert m.apply(lattice.primitive(u)) == (1, 0)
        assert m.apply(lattice.primitive(v)) == (-nf.q, nf.p)

    def test_ordering_covariance_sweep(self):
        for p, q in coprime_pairs(40):
            a, _ = lattice.cone_normal_form((1, 0), (q, p))
            b, _ = lattice.cone_normal_form((q, p), (1, 0))
            assert a.p == b.p
            assert (a.q * b.q) % a.p == 1 % a.p

    def test_x_adjacent_quadrant_cone_type(self):
        # the cone between the x-axis and the ray of slope p/q has type p/(p-q)
        for p, q in coprime_pairs(40):
            nf, _ = lattice.cone_normal_form((1, 0), (q, p))
            assert (nf.p, nf.q) == (p, p - q)


class TestPolygon:
    def test_example_in_original_frame(self):
        nf, m = lattice.cone_normal_form((1, 0), (4, 11))
        chain = lattice.polygon(nf)
        back = m.inverse()
        assert [back.apply(pt) for pt in chain.points] == [
            (1, 0), (1, 1), (1, 2), (2, 5), (3, 8), (4, 11),
        ]
        assert chain.weights == (2, 3, 2, 2)
        assert chain.vertex_indices == (0, 2, 5)

    def test_a1_cone(self):
        chain = lattice.polygon(lattice.ConeNF(2, 1))
        assert chain.points == ((1, 0), (0, 1), (-1, 2))
        assert chain.weights == (2,)
        assert chain.vertex_indices == (0, 2)

    def test_11_4(self):
        chain = lattice.polygon(lattice.ConeNF(11, 4))
        assert chain.weights == (3, 4)
        assert chain.r == 2
        assert chain.vertex_indices == (0, 1, 2, 3)

    def test_regular_rejected(self):
        with pytest.raises(RegularCone):
            lattice.polygon(lattice.ConeNF(1, 0))
        with pytest.raises(RegularCone):
            lattice.hull_oracle(lattice.ConeNF(1, 0))

    def test_chain_invariants_sweep(self):
        for p, q in coprime_pairs(60):
            chain = lattice.polygon(lattice.ConeNF(p, q))
            pts = chain.points
            for a, b in zip(pts, pts[1:]):
                assert abs(a[0] * b[1] - a[1] * b[0]) == 1
            for n, w in enumerate(chain.weights, 1):
                assert w >= 2
                assert (
                    pts[n - 1][0] + pts[n + 1][0] == w * pts[n][0]
                    and pts[n - 1][1] + pts[n + 1][1] == w * pts[n][1]
                )

    def test_matches_oracle_sweep(self):
        for p, q in coprime_pairs(97):
            c = lattice.ConeNF(p, q)
            hull = lattice.hull_oracle(c)
            assert lattice.polygon(c) == hull
            # the edge lengths Klein's reading takes off the block form, measured on the hull
            lengths = [lattice.integral_length(hull.points[a], hull.points[b])
                       for a, b in hull.compact_edges()]
            assert lengths == [m + 1 for m in cf.block_form(p, q)[0]], (p, q)


class TestSupplementaryAndDual:
    def test_examples(self):
        assert lattice.supplementary(lattice.ConeNF(11, 7)) == lattice.ConeNF(11, 4)
        assert lattice.supplementary(lattice.ConeNF(2, 1)) == lattice.ConeNF(2, 1)
        assert lattice.supplementary(lattice.ConeNF(11, 4)) == lattice.ConeNF(11, 7)
        assert lattice.dual_cone(lattice.ConeNF(11, 7)) == lattice.ConeNF(11, 4)
        assert lattice.dual_cone(lattice.ConeNF(2, 1)) == lattice.ConeNF(2, 1)

    def test_supplementary_map_involution(self):
        m = lattice.SUPPLEMENTARY_MAP
        assert m.apply((1, 0)) == (-1, 0)
        assert m.apply((0, 1)) == (-1, 1)
        assert m.compose(m) == lattice.IDENTITY

    def test_dual_equals_supplementary_sweep(self):
        for p, q in coprime_pairs(80):
            c = lattice.ConeNF(p, q)
            assert lattice.dual_cone(c) == lattice.supplementary(c)

    def test_regular_rejected(self):
        for op in (lattice.supplementary, lattice.dual_cone, lattice.duality_map):
            with pytest.raises(RegularCone):
                op(lattice.ConeNF(1, 0))


class TestDuality:
    def test_11_7_all_images_are_vertices(self):
        rep = lattice.duality_map(lattice.ConeNF(11, 7))
        assert rep.images_on_dual and rep.vertices_covered and rep.orientation_respected
        assert [(e.length, e.is_vertex) for e in rep.exceptional] == [(2, True), (3, True)]
        assert rep.exceptional_rule_ok
        image_set = {im.image_index for im in rep.images}
        assert image_set == set(rep.dual_vertex_indices)

    def test_11_4_extremes_not_vertices(self):
        rep = lattice.duality_map(lattice.ConeNF(11, 4))
        assert [(e.length, e.is_vertex) for e in rep.exceptional] == [(1, False), (1, False)]
        assert rep.images_on_dual and rep.vertices_covered and rep.exceptional_rule_ok

    def test_2_1_single_edge(self):
        rep = lattice.duality_map(lattice.ConeNF(2, 1))
        assert len(rep.exceptional) == 1
        ex = rep.exceptional[0]
        # the unique doubly-extreme edge: length 2 yet its image is interior
        assert ex.length == 2 and not ex.is_vertex and not ex.expected_vertex
        assert rep.exceptional_rule_ok and rep.vertices_covered

    def test_all_clauses_sweep(self):
        for p, q in coprime_pairs(70):
            rep = lattice.duality_map(lattice.ConeNF(p, q))
            assert rep.images_on_dual
            assert rep.vertices_covered
            assert rep.orientation_respected
            assert rep.exceptional_rule_ok
            # the plain length >= 2 form of the classification holds whenever
            # the chain has more than one compact edge
            if len(rep.chain.vertex_indices) > 2:
                for ex in rep.exceptional:
                    assert ex.is_vertex == (ex.length >= 2)
            # non-extreme compact edges always map to vertices
            extremes = {(e.edge_start, e.edge_end) for e in rep.exceptional}
            for im in rep.images:
                if im.kind == "compact" and (im.start, im.end) not in extremes:
                    assert im.image_index in set(rep.dual_vertex_indices)


class TestKlein:
    def test_paper_examples(self):
        assert lattice.klein_quotients(11, 7) == (1, 1, 1, 3)
        assert lattice.klein_quotients(11, 4) == (2, 1, 3)
        for p in (2, 5, 9):
            assert lattice.klein_quotients(p, 1) == (p,)

    def test_domain(self):
        with pytest.raises(DomainError):
            lattice.klein_quotients(4, 2)
        with pytest.raises(DomainError):
            lattice.klein_quotients(3, 3)

    def test_matches_expansion_sweep(self):
        for p, q in coprime_pairs(200):
            assert lattice.klein_quotients(p, q) == cf.expand_e(Fraction(p, q)).terms

    def test_builds_no_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Klein's reading built a hull chain")

        monkeypatch.setattr(lattice, "polygon", refuse)
        monkeypatch.setattr(lattice, "hj_terms", refuse)
        assert lattice.klein_quotients(11, 7) == (1, 1, 1, 3)
        assert lattice.klein_quotients(11, 4) == (2, 1, 3)

    def test_large_inputs_in_milliseconds(self):
        # a chain of 10**6 points, and a 1000-digit pair, read in O(log p)
        rng = random.Random("klein:1000-digit")
        p = rng.randrange(10**999, 10**1000)
        q = next(q for q in iter(lambda: rng.randrange(2, p), None) if math.gcd(p, q) == 1)
        for p, q in ((10**6 + 1, 10**6), (p, q)):
            start = time.perf_counter()
            terms = lattice.klein_quotients(p, q)
            elapsed = time.perf_counter() - start
            assert terms == cf.expand_e(Fraction(p, q)).terms
            assert elapsed < 0.05, f"{elapsed * 1e3:.1f} ms for a {p.bit_length()}-bit p"


def hull_oracle_parent(cone):
    """The body ``hull_oracle`` had before its loops were rewritten: a
    prebuilt candidate list, ``cross`` per candidate and one point per
    ``append``.  Kept as an oracle of the oracle."""
    if cone.is_regular:
        raise RegularCone("a regular cone has no hull polygon data")
    p, q = cone.p, cone.q
    cand = [(1, 0)]
    cand += [(-((q * y) // p), y) for y in range(1, p + 1)]
    hull = [cand[0]]
    for pt in cand[1:]:
        while len(hull) >= 2:
            u, v = hull[-2], hull[-1]
            if lattice.cross((v[0] - u[0], v[1] - u[1]), (pt[0] - v[0], pt[1] - v[1])) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    pts = [hull[0]]
    vertices = [0]
    for a, b in zip(hull, hull[1:]):
        g = math.gcd(b[0] - a[0], b[1] - a[1])
        sx, sy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
        for k in range(1, g + 1):
            pts.append((a[0] + k * sx, a[1] + k * sy))
        vertices.append(len(pts) - 1)
    weights = []
    for n in range(1, len(pts) - 1):
        sx = pts[n - 1][0] + pts[n + 1][0]
        sy = pts[n - 1][1] + pts[n + 1][1]
        ax, ay = pts[n]
        w = sx // ax if ax else sy // ay
        if (w * ax, w * ay) != (sx, sy):
            raise InternalError(f"chain relation fails at index {n} for {cone}")
        weights.append(w)
    return lattice.ConePolygon(tuple(pts), tuple(weights), tuple(vertices))


def assert_same_hull(c):
    got, want = lattice.hull_oracle(c), hull_oracle_parent(c)
    assert got.points == want.points, c
    assert got.weights == want.weights, c
    assert got.vertex_indices == want.vertex_indices, c
    assert got == want


class TestHullOracleDominance:
    def test_surviving_rows_are_the_chain(self):
        # every row whose slack is not below all earlier ones is dominated,
        # and no chain point is: the survivors are A_1, ..., A_{r+1}
        for p, q in coprime_pairs(500):
            rows = lattice._dominant_rows(p, q)
            points = lattice.polygon(lattice.ConeNF(p, q)).points
            assert len(rows) == len(points) - 1 and rows == list(points[1:]), (p, q)

    def test_survivors_are_row_extremal_cone_points(self):
        for p, q in coprime_pairs(60):
            for x, y in lattice._dominant_rows(p, q):
                assert p * x + q * y >= 0 > p * (x - 1) + q * y, (p, q, x, y)


class TestHullOracleParent:
    def test_sweep(self):
        for p, q in coprime_pairs(200):
            assert_same_hull(lattice.ConeNF(p, q))

    @given(st.integers(2, 3000).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
    def test_random(self, pq):
        assume(math.gcd(*pq) == 1)
        assert_same_hull(lattice.ConeNF(*pq))

    def test_regular_cone_raises_as_parent(self):
        for f in (lattice.hull_oracle, hull_oracle_parent):
            with pytest.raises(RegularCone):
                f(lattice.ConeNF(1, 0))
