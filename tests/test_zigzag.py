import math
import random
import xml.dom.minidom
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from latticecf import cf, zigzag
from latticecf.errors import DomainError

ZZ_11_7_ASCII = """\
ZZ(11/7)
             A+
          1 / \\
           /   \\
      (4) *     |
          |\\    |
          | \\   |
          |  \\  | 3
          |   \\ |
          |    \\|
        1 |     * (3)
          |    /|
          |   / |
          |  /  |
          | /   |
          |/    |
      (3) *     | 2
          |\\    |
          | \\   |
        1 |  \\  |
          |   \\ |
          |    \\|
          *--O--*
         V0'    V0
"""

ZZ_2_ASCII = """\
ZZ(2)
             A+
          1 / \\
           /   \\
      (2) *     |
          |\\    |
          | \\   |
        1 |  \\  | 2
          |   \\ |
          |    \\|
          *--O--*
         V0'    V0
"""


def build_unary(value):
    """The body ``build`` had before it read the block form off Euclid:
    ``hj_blocks`` over the unary expansion.  Kept as an oracle."""
    value = Fraction(value)
    blocks, m_last = cf.hj_blocks(cf.expand_hj(value).terms)
    ms = [m for m, _ in blocks] + [m_last]
    ns = [n for _, n in blocks]
    s = len(ns)
    right_edges = tuple(m + 1 for m in ms)
    right_weights = tuple(n + 3 for n in ns)
    left_edges = (1,) + tuple(n + 1 for n in ns) + (1,)
    if s == 0:
        left_weights = (ms[0] + 1,)
    else:
        left_weights = (ms[0] + 2,) + tuple(m + 3 for m in ms[1:-1]) + (ms[-1] + 2,)
    flags = (left_weights[0] >= 3, left_weights[-1] >= 3)
    return zigzag.ZigzagDiagram(value, right_edges, right_weights, left_edges, left_weights, flags)


class TestBuild:
    def test_sweep_matches_unary_body(self):
        for p in range(2, 120):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert zigzag.build(Fraction(p, q)) == build_unary(Fraction(p, q))

    @given(st.integers(0, 2**32), st.integers(1, 2000))
    def test_random_matches_unary_body(self, seed, bits):
        # uniform draws through a seeded Random: Hypothesis's own boundary
        # values would favour q = p - 1, whose unary expansion has p - 1 terms
        rng = random.Random(seed)
        p = rng.getrandbits(bits) + 2
        x = Fraction(p, rng.randrange(1, p))
        assume(x > 1 and sum(cf.expand_e(x).terms) <= 10**5)
        assert zigzag.build(x) == build_unary(x)

    def test_11_7(self):
        d = zigzag.build(Fraction(11, 7))
        assert d.right_edge_lengths == (2, 3)
        assert d.right_vertex_weights == (3,)
        assert d.left_edge_lengths == (1, 1, 1)
        assert d.left_vertex_weights == (3, 4)
        assert d.extreme_is_vertex == (True, True)

    def test_11_4_extremes_not_vertices(self):
        d = zigzag.build(Fraction(11, 4))
        assert d.left_vertex_weights == (2, 3, 2)
        assert d.extreme_is_vertex == (False, False)

    def test_single_edge_case(self):
        d = zigzag.build(2)
        assert d.s == 0
        assert d.right_edge_lengths == (2,)
        assert d.left_vertex_weights == (2,)
        assert d.extreme_is_vertex == (False, False)

    def test_domain(self):
        with pytest.raises(DomainError):
            zigzag.build(1)
        with pytest.raises(DomainError):
            zigzag.build(Fraction(3, 4))


class TestRead:
    def test_paper_examples(self):
        d = zigzag.build(Fraction(11, 7))
        assert zigzag.read(d, "hj_lambda") == (2, 3, 2, 2)
        assert zigzag.read(d, "hj_involute") == (3, 4)
        assert zigzag.read(d, "e_involute") == (2, 1, 3)
        assert zigzag.read(d, "e_lambda") == (1, 1, 1, 3)

    def test_trivial(self):
        d = zigzag.build(2)
        for which in zigzag.READINGS:
            assert zigzag.read(d, which) == (2,)

    def test_unknown_reading(self):
        with pytest.raises(DomainError):
            zigzag.read(zigzag.build(2), "e_dual")

    def test_agreement_sweep(self):
        for p in range(2, 301):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                x = Fraction(p, q)
                d = zigzag.build(x)
                image = cf.involute(x)
                assert zigzag.read(d, "hj_lambda") == cf.expand_hj(x).terms
                assert zigzag.read(d, "e_lambda") == cf.expand_e(x).terms
                assert zigzag.read(d, "hj_involute") == cf.expand_hj(image).terms
                assert zigzag.read(d, "e_involute") == cf.expand_e(image).terms

    def test_rule_sweep(self):
        for p in range(2, 120):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert zigzag.rule_ok(zigzag.build(Fraction(p, q)))


class TestRender:
    def test_ascii_golden_11_7(self):
        assert zigzag.render(zigzag.build(Fraction(11, 7)), "ascii") == ZZ_11_7_ASCII

    def test_ascii_golden_2(self):
        assert zigzag.render(zigzag.build(2), "ascii") == ZZ_2_ASCII

    def test_deterministic(self):
        d = zigzag.build(Fraction(97, 35))
        for fmt in ("ascii", "svg"):
            assert zigzag.render(d, fmt) == zigzag.render(d, fmt)

    def test_svg_well_formed(self):
        for value in (Fraction(11, 4), Fraction(11, 7), 2, Fraction(97, 35)):
            text = zigzag.render(zigzag.build(value), "svg")
            doc = xml.dom.minidom.parseString(text)
            names = {node.nodeName for node in doc.documentElement.childNodes if node.nodeType == 1}
            assert names <= {"path", "circle", "text"}

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            zigzag.render(zigzag.build(2), "png")

    def test_json_dict(self):
        doc = zigzag.to_json_dict(zigzag.build(Fraction(11, 7)))
        assert doc["schema"] == "lattice-cf/1"
        assert doc["lambda"] == "11/7" and doc["involute"] == "11/4"
        assert doc["readings"]["hj_lambda"] == [2, 3, 2, 2]
        assert doc["readings"]["e_involute"] == [2, 1, 3]
