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
    ms, ns = cf.hj_blocks(cf.expand_hj(value).terms)
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

    @pytest.mark.parametrize("value", [Fraction(11, 7), Fraction(11, 4), Fraction(97, 35), Fraction(3, 2), 5])
    def test_rule_fails_on_any_entry_off_by_one(self, value):
        d = zigzag.build(value)
        # the two unit end edges of the left chain face no vertex, but must be 1
        checked = {
            "right_edge_lengths": range(d.s + 1),
            "right_vertex_weights": range(d.s),
            "left_edge_lengths": range(d.s + 2),
            "left_vertex_weights": range(d.s + 1),
        }
        for name, indices in checked.items():
            for i in indices:
                for delta in (-1, 1):
                    assert not zigzag.rule_ok(altered(d, name, i, delta)), (name, i, delta)

    def test_rule_checks_the_left_end_edges(self):
        d = zigzag.build(Fraction(11, 7))
        assert d.left_edge_lengths == (1, 1, 1) and zigzag.rule_ok(d)
        wrong = reshaped(d, left_edge_lengths=(5, 1, 7))
        assert not zigzag.rule_ok(wrong)
        assert zigzag.read(wrong, "hj_involute") != zigzag.read(d, "hj_involute")

    @pytest.mark.parametrize("fields", [
        {"left_vertex_weights": (3,)},  # one left weight: indexing past it raised IndexError
        {"left_vertex_weights": ()},
        {"left_edge_lengths": (1, 1)},
        {"right_edge_lengths": (2, 3, 1)},
        {"right_vertex_weights": ()},
        {"right_vertex_weights": (3, 3)},
        {"left_edge_lengths": None},
        {"left_vertex_weights": "34"},
        {"right_edge_lengths": (2.0, 3)},
        {"right_vertex_weights": ("3",)},
    ])
    def test_rule_is_false_on_a_malformed_diagram(self, fields):
        d = zigzag.build(Fraction(11, 7))
        assert zigzag.rule_ok(reshaped(d, **fields)) is False

    def test_rule_takes_any_integer_sequences(self):
        d = zigzag.build(Fraction(97, 35))
        as_lists = reshaped(d, **{f: list(getattr(d, f)) for f in zigzag.ZigzagDiagram.__slots__[1:5]})
        assert zigzag.rule_ok(as_lists)

    def test_rule_checks_the_value_and_the_extreme_flags(self):
        d = zigzag.build(Fraction(11, 7))
        assert d.extreme_is_vertex == (True, True) and zigzag.rule_ok(d)
        assert not zigzag.rule_ok(reshaped(d, value=Fraction(13, 7)))
        assert not zigzag.rule_ok(reshaped(d, extreme_is_vertex=(False, True)))
        assert zigzag.rule_ok(reshaped(d, value=Fraction(22, 14)))  # the same number

    @pytest.mark.parametrize("fields", [
        {"value": "junk"},
        {"value": None},
        {"value": 1.5},
        {"value": Fraction(1, 2)},
        {"value": 1},
        {"value": 5},
        {"extreme_is_vertex": None},
        {"extreme_is_vertex": (True,)},
    ])
    def test_rule_is_false_on_a_wrong_value_or_flags(self, fields):
        assert zigzag.rule_ok(reshaped(zigzag.build(Fraction(11, 7)), **fields)) is False

    @given(st.integers(2, 400).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))),
           st.sampled_from(zigzag.ZigzagDiagram.__slots__), st.integers(0, 10**6), st.integers(-2, 2))
    def test_rule_holds_exactly_on_the_diagram_of_its_value(self, pq, name, at, delta):
        assume(math.gcd(*pq) == 1)
        d = zigzag.build(Fraction(*pq))
        if name == "value":
            other = reshaped(d, value=d.value + delta)
        elif name == "extreme_is_vertex":
            other = reshaped(d, extreme_is_vertex=(delta > 0, delta < 0))
        else:
            assume(getattr(d, name))  # 2 = [2]- has no right vertex
            other = altered(d, name, at % len(getattr(d, name)), delta)
        assert zigzag.rule_ok(other) == (other.value > 1 and other == zigzag.build(other.value))

    @pytest.mark.parametrize("value", [Fraction(11, 7), Fraction(11, 4), Fraction(97, 35), 5])
    def test_readings_follow_the_left_chain(self, value):
        d = zigzag.build(value)

        def changed(other):
            return {w for w in zigzag.READINGS if zigzag.read(other, w) != zigzag.read(d, w)}

        for i in range(1, d.s + 1):
            assert changed(altered(d, "left_edge_lengths", i, 1)) == {"hj_involute", "e_involute", "e_lambda"}
        for i in range(d.s + 1):
            assert changed(altered(d, "left_vertex_weights", i, 1)) == {"hj_involute"}


def reshaped(d, **fields):
    """The diagram ``d`` with the given fields replaced, unchecked."""
    return zigzag.ZigzagDiagram(**{**{f: getattr(d, f) for f in zigzag.ZigzagDiagram.__slots__}, **fields})


def altered(d, name, i, delta):
    """The diagram ``d`` with entry ``i`` of the chain field ``name`` moved by ``delta``."""
    fields = {f: getattr(d, f) for f in zigzag.ZigzagDiagram.__slots__}
    chain = list(fields[name])
    chain[i] += delta
    return zigzag.ZigzagDiagram(**{**fields, name: tuple(chain)})


class TestRender:
    def test_ascii_golden_11_7(self):
        assert zigzag.render(zigzag.build(Fraction(11, 7)), "ascii") == ZZ_11_7_ASCII

    def test_ascii_golden_2(self):
        assert zigzag.render(zigzag.build(2), "ascii") == ZZ_2_ASCII

    @pytest.mark.parametrize(
        "value, line",
        [(Fraction(1001, 1000), "     (1001)*     |"), (1003, "       1001|     * (1003)")],
    )
    def test_ascii_long_left_labels_leave_the_chain_whole(self, value, line):
        lines = zigzag.render(zigzag.build(value), "ascii").splitlines()
        col = lines[-2].index("*")
        assert lines[-2][col:] == "*--O--*"
        assert all(row[col] in "*|" for row in lines[4:-1])  # the left chain, apex to baseline
        assert line in lines

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


def read_walk(d, which):
    """The body ``read`` had before it called the block rules of ``cf``.
    Kept as an oracle."""
    ms = [e - 1 for e in d.right_edge_lengths]
    ns = [w - 3 for w in d.right_vertex_weights]
    s = d.s
    if which == "hj_lambda":
        out = []
        for i in range(s):
            out.extend([2] * ms[i])
            out.append(ns[i] + 3)
        out.extend([2] * ms[-1])
        return tuple(out)
    if which == "hj_involute":
        if s == 0:
            return (ms[0] + 1,)
        out = [ms[0] + 2]
        for i in range(s):
            out.extend([2] * ns[i])
            out.append(ms[i + 1] + (2 if i == s - 1 else 3))
        return tuple(out)
    if which == "e_involute":
        out = [ms[0] + 1]
        for i in range(s):
            out.extend([ns[i] + 1, ms[i + 1] + 1])
        return cf.canonical_e(out)
    if which == "e_lambda":
        inv = list(read_walk(d, "e_involute"))
        if inv[0] == 1:
            return cf.canonical_e([1 + inv[1]] + inv[2:])
        return cf.canonical_e([1, inv[0] - 1] + inv[1:])
    raise DomainError(f"unknown reading {which!r}; choose one of {zigzag.READINGS}")


class TestReadOracle:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10), st.integers(0, 7))
    def test_matches_walk(self, blocks, m_last):
        # every diagram is the one of [(2)^m1, n1+3, ..., ns+3, (2)^m_{s+1}]-
        assume(blocks or m_last)
        terms = cf._unary(tuple(m for m, _ in blocks) + (m_last,), tuple(n for _, n in blocks))
        d = zigzag.build(cf.eval_terms(cf.HJ, terms))
        for which in zigzag.READINGS:
            assert zigzag.read(d, which) == read_walk(d, which), which
        with pytest.raises(DomainError):
            zigzag.read(d, "e_dual")

    def test_long_runs_match_walk(self):
        n = 10**5
        for x in (Fraction(n + 1, n), cf.eval_terms(cf.E, (1, n, 3, n)), cf.eval_terms(cf.E, (n, n, 1, 2))):
            d = zigzag.build(x)
            for which in zigzag.READINGS:
                assert zigzag.read(d, which) == read_walk(d, which), (x, which)
