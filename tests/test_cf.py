import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticecf import cf
from latticecf.errors import DomainError, InvalidSequence


def nested_value(kind, terms):
    """Independent oracle: build the nested fraction from the definition."""
    if len(terms) == 1:
        return Fraction(terms[0])
    sign = 1 if kind == cf.E else -1
    return terms[0] + sign * Fraction(1) / nested_value(kind, terms[1:])


def fraction_fold(kind, terms):
    """Reference: the right-to-left ``Fraction`` fold ``eval_terms`` once used."""
    s = 1 if kind == cf.E else -1
    terms = tuple(terms)
    acc = Fraction(terms[-1])
    for x in reversed(terms[:-1]):
        if acc == 0:
            raise cf.DivisionByZero(f"zero tail while evaluating {list(terms)}")
        acc = x + s / acc
    return acc


def outcome(fn, *args):
    """Return value, or the type and message of the library error raised."""
    try:
        return fn(*args)
    except cf.DivisionByZero as exc:
        return (type(exc), str(exc))


short_pos = st.lists(st.integers(1, 9), min_size=0, max_size=12)


class TestContinuant:
    def test_empty_is_one(self):
        assert cf.continuant("-", ()) == 1
        assert cf.continuant("+", ()) == 1

    def test_paper_values(self):
        assert cf.continuant("-", (2, 3, 2, 2)) == 11
        assert cf.continuant("+", (1, 1, 1, 3)) == 11

    def test_single(self):
        assert cf.continuant("+", (7,)) == 7
        assert cf.continuant("-", (-4,)) == -4

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            cf.continuant("*", (1, 2))

    @given(short_pos)
    def test_head_recursion(self, xs):
        for sign, s in (("+", 1), ("-", -1)):
            if len(xs) >= 2:
                lhs = cf.continuant(sign, xs)
                rhs = xs[0] * cf.continuant(sign, xs[1:]) + s * cf.continuant(sign, xs[2:])
                assert lhs == rhs

    @given(short_pos)
    def test_tail_recursion_twin(self, xs):
        for sign, s in (("+", 1), ("-", -1)):
            if len(xs) >= 2:
                lhs = cf.continuant(sign, xs)
                rhs = cf.continuant(sign, xs[:-1]) * xs[-1] + s * cf.continuant(sign, xs[:-2])
                assert lhs == rhs

    @given(short_pos)
    def test_palindrome_symmetry(self, xs):
        for sign in ("+", "-"):
            assert cf.continuant(sign, xs) == cf.continuant(sign, xs[::-1])


class TestEvaluate:
    def test_paper_examples(self):
        assert cf.eval_terms(cf.HJ, (2, 3, 2, 2)) == Fraction(11, 7)
        assert cf.eval_terms(cf.E, (1, 1, 1, 3)) == Fraction(11, 7)
        assert cf.eval_terms(cf.E, (5,)) == 5
        assert cf.eval_terms(cf.E, (2, 1, 3)) == Fraction(11, 4)

    def test_expansion_value_method(self):
        assert cf.CFExpansion(cf.HJ, (3, 4)).value() == Fraction(11, 4)

    @given(st.sampled_from([cf.E, cf.HJ]), st.lists(st.integers(2, 9), min_size=1, max_size=10))
    def test_matches_nested_fraction_and_continuants(self, kind, terms):
        value = cf.eval_terms(kind, terms)
        assert value == nested_value(kind, terms)
        sign = "+" if kind == cf.E else "-"
        assert value == Fraction(cf.continuant(sign, terms), cf.continuant(sign, terms[1:]))

    def test_division_by_zero_detected(self):
        with pytest.raises(cf.DivisionByZero):
            cf.eval_terms(cf.E, (3, 1, -1))

    @given(
        st.sampled_from([cf.E, cf.HJ]),
        st.lists(st.integers(-4, 5), min_size=1, max_size=14),
    )
    def test_matches_fraction_fold(self, kind, terms):
        # small terms of both signs: non-admissible sequences and zero tails
        assert outcome(cf.eval_terms, kind, terms) == outcome(fraction_fold, kind, terms)

    def test_matches_fraction_fold_on_zero_tails_and_large_terms(self):
        cases = [
            (cf.E, (3, 1, -1)),  # tail [1, -1]+ = 0
            (cf.E, (0,)),
            (cf.E, (5, 0)),  # last term 0
            (cf.E, (2, 0, 7)),  # 0 + 1/7 is no zero tail
            (cf.HJ, (1, 1, 1)),  # tail [1, 1]- = 0
            (cf.HJ, (2, 1, 1, 1)),
            (cf.HJ, (0, 2, 1, 1, 3)),
            (cf.E, (-3, -2, 4, -1)),
            (cf.HJ, (10**40, -(10**30), 3, 2)),
        ]
        for kind, terms in cases:
            assert outcome(cf.eval_terms, kind, terms) == outcome(fraction_fold, kind, terms)
        assert outcome(cf.eval_terms, cf.HJ, (1, 1, 1))[0] is cf.DivisionByZero

    def test_restrictions_enforced(self):
        with pytest.raises(InvalidSequence):
            cf.CFExpansion(cf.E, (2, 0, 3))
        with pytest.raises(InvalidSequence):
            cf.CFExpansion(cf.HJ, (2, 1))
        with pytest.raises(InvalidSequence):
            cf.CFExpansion(cf.E, ())
        # first term is unrestricted
        assert cf.CFExpansion(cf.E, (-3, 1, 2)).value() == Fraction(-7, 3)


class TestExpand:
    def test_paper_examples(self):
        assert cf.expand_e(Fraction(11, 7)).terms == (1, 1, 1, 3)
        assert cf.expand_e(2).terms == (2,)
        assert cf.expand_e(Fraction(11, 4)).terms == (2, 1, 3)
        assert cf.expand_hj(Fraction(11, 7)).terms == (2, 3, 2, 2)
        assert cf.expand_hj(Fraction(11, 4)).terms == (3, 4)
        assert cf.expand_hj(3).terms == (3,)

    def test_one(self):
        assert cf.expand_e(1).terms == (1,)
        assert cf.expand_hj(1).terms == (1,)

    def test_canonical_no_trailing_one(self):
        for p in range(2, 80):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    terms = cf.expand_e(Fraction(p, q)).terms
                    assert len(terms) == 1 or terms[-1] != 1

    @given(st.integers(-50, 50), st.integers(1, 60))
    def test_roundtrip(self, a, b):
        x = Fraction(a, b)
        assert cf.expand_e(x).value() == x
        assert cf.expand_hj(x).value() == x

    def test_final_continuant_is_numerator_and_increasing(self):
        for p in range(2, 100):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                terms = cf.expand_hj(Fraction(p, q)).terms
                nums = [cf.continuant("-", terms[:k]) for k in range(1, len(terms) + 1)]
                assert nums[-1] == p
                assert all(a < b for a, b in zip(nums, nums[1:]))


class TestConversions:
    def test_paper_examples(self):
        assert cf.e_to_hj((1, 1, 1, 3)) == (2, 3, 2, 2)
        assert cf.e_to_hj((7,)) == (7,)
        assert cf.e_to_hj((2, 1, 3)) == (3, 4)
        assert cf.hj_to_e((2, 3, 2, 2)) == (1, 1, 1, 3)
        assert cf.hj_to_e((7,)) == (7,)
        assert cf.hj_to_e((3, 4)) == (2, 1, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidSequence):
            cf.e_to_hj((2, 0, 1))
        with pytest.raises(InvalidSequence):
            cf.e_to_hj(())
        with pytest.raises(InvalidSequence):
            cf.hj_to_e((1, 3))

    def test_roundtrip_exhaustive(self):
        for p in range(2, 120):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                e = cf.expand_e(Fraction(p, q)).terms
                h = cf.expand_hj(Fraction(p, q)).terms
                assert cf.e_to_hj(e) == h
                assert cf.hj_to_e(h) == e

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=9))
    def test_value_preserved(self, terms):
        assert cf.eval_terms(cf.HJ, cf.e_to_hj(terms)) == cf.eval_terms(cf.E, terms)


class TestPeriodic:
    def test_golden_ratio_like_stream(self):
        ones = cf.PeriodicCF(cf.E, (), (1,))
        out = cf.e_to_hj_periodic(ones)
        assert (out.preperiod, out.period) == ((2,), (3,))

    def test_period_normalization(self):
        assert cf.PeriodicCF(cf.E, (), (1, 1)).period == (1,)
        assert cf.PeriodicCF(cf.E, (), (1, 2, 1, 2)).period == (1, 2)

    def test_imprimitive_period_same_image(self):
        # (1,1) repeated is the stream of 1s, so the image is the same
        out = cf.e_to_hj_periodic(cf.PeriodicCF(cf.E, (), (1, 1)))
        assert out == cf.PeriodicCF(cf.HJ, (2,), (3,))

    def test_preperiod_normalization(self):
        a = cf.PeriodicCF(cf.HJ, (3, 2), (3, 2))
        assert (a.preperiod, a.period) == ((), (3, 2))
        b = cf.PeriodicCF(cf.HJ, (5, 3), (2, 3))
        assert (b.preperiod, b.period) == ((5,), (3, 2))
        assert b.prefix(6) == (5, 3, 2, 3, 2, 3)

    def test_truncation_cross_check(self):
        cases = [
            cf.PeriodicCF(cf.E, (2,), (2,)),
            cf.PeriodicCF(cf.E, (), (1, 2)),
            cf.PeriodicCF(cf.E, (3, 1), (2, 1, 1)),
            cf.PeriodicCF(cf.E, (1,), (4,)),
        ]
        for stream in cases:
            out = cf.e_to_hj_periodic(stream)
            finite = cf.e_to_hj(stream.prefix(40))
            # ignore the last couple of tokens, which depend on the cut point
            assert out.prefix(len(finite) - 2) == finite[:-2]

    def test_kind_checked(self):
        with pytest.raises(InvalidSequence):
            cf.e_to_hj_periodic(cf.PeriodicCF(cf.HJ, (), (3,)))

    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=4),
        st.lists(st.integers(1, 5), min_size=1, max_size=4),
    )
    def test_truncation_cross_check_randomized(self, pre, per):
        stream = cf.PeriodicCF(cf.E, tuple(pre), tuple(per))
        out = cf.e_to_hj_periodic(stream)
        finite = cf.e_to_hj(stream.prefix(50))
        # only the very last token of the finite rewriting depends on the cut
        assert out.prefix(len(finite) - 1) == finite[:-1]

    @given(
        st.lists(st.integers(1, 4), min_size=0, max_size=4),
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
    )
    def test_normal_form_represents_same_stream(self, pre, per):
        x = cf.PeriodicCF(cf.E, tuple(pre), tuple(per))
        raw = tuple(pre) + tuple(per) * 10
        assert x.prefix(len(pre) + 4 * len(per)) == raw[: len(pre) + 4 * len(per)]


class TestInvolution:
    def test_paper_examples(self):
        assert cf.involute(Fraction(11, 7)) == Fraction(11, 4)
        assert cf.involute(2) == 2
        assert cf.involute(Fraction(11, 4)) == Fraction(11, 7)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.involute(1)
        with pytest.raises(DomainError):
            cf.involute(Fraction(1, 2))

    def test_terms_examples(self):
        assert cf.involute_e((1, 1, 1, 3)) == (2, 1, 3)
        assert cf.involute_e((2,)) == (2,)
        assert cf.involute_e((2, 1, 3)) == (1, 1, 1, 3)
        assert cf.involute_hj((2, 3, 2, 2)) == (3, 4)
        assert cf.involute_hj((3, 4)) == (2, 3, 2, 2)
        assert cf.involute_hj((2,)) == (2,)

    def test_tail_contribution_of_empty_run(self):
        # [3] = 3 maps to 3/2 = [2,2]: the empty trailing run still adds a 2
        assert cf.involute_hj((3,)) == (2, 2)
        assert cf.involute_hj((2, 2)) == (3,)

    def test_rejects_expansions_of_small_numbers(self):
        with pytest.raises(InvalidSequence):
            cf.involute_e((1,))
        with pytest.raises(InvalidSequence):
            cf.involute_e((0, 2))
        with pytest.raises(InvalidSequence):
            cf.involute_hj((1,))

    def test_agrees_with_value_involution(self):
        for p in range(2, 120):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                x = Fraction(p, q)
                image = cf.involute(x)
                assert cf.involute_e(cf.expand_e(x).terms) == cf.expand_e(image).terms
                assert cf.involute_hj(cf.expand_hj(x).terms) == cf.expand_hj(image).terms


class TestStaircase:
    def test_paper_diagram(self):
        s = cf.staircase((2, 3, 2, 2))
        assert s.rows == (1, 2, 1, 1)
        assert s.column_offsets() == (0, 0, 1, 1)
        assert cf.staircase_dual(s) == (3, 4)

    def test_trivial_and_transpose(self):
        assert cf.staircase_dual(cf.staircase((2,))) == (2,)
        assert cf.staircase((3, 4)).rows == (2, 3)
        assert cf.staircase_dual(cf.staircase((3, 4))) == (2, 3, 2, 2)

    def test_rejects_terms_below_two(self):
        with pytest.raises(InvalidSequence):
            cf.staircase((2, 1))
        with pytest.raises(InvalidSequence):
            cf.staircase(())

    def test_transpose_is_involute(self):
        for p in range(2, 90):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    h = cf.expand_hj(Fraction(p, q)).terms
                    assert cf.staircase_dual(cf.staircase(h)) == cf.involute_hj(h)


class TestReverse:
    def test_examples(self):
        terms, value = cf.reverse_hj(11, 7)
        assert terms == (2, 2, 3, 2) and value == Fraction(11, 8)
        terms, value = cf.reverse_hj(11, 4)
        assert terms == (4, 3) and value == Fraction(11, 3)

    def test_palindrome_family(self):
        for n in range(1, 12):
            terms, value = cf.reverse_hj(n + 1, n)
            assert terms == (2,) * n and value == Fraction(n + 1, n)

    def test_modular_inverse_law(self):
        for p in range(2, 150):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    _, value = cf.reverse_hj(p, q)
                    assert value.denominator == pow(q, -1, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.reverse_hj(4, 2)
        with pytest.raises(DomainError):
            cf.reverse_hj(3, 3)


class TestIdentityRules:
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    def test_trailing_one_fold(self, xs):
        # appending a 1 equals bumping the last term
        lhs = cf.eval_terms(cf.E, tuple(xs) + (1,))
        rhs = cf.eval_terms(cf.E, tuple(xs[:-1]) + (xs[-1] + 1,))
        assert lhs == rhs

    def test_canonical_e_helper(self):
        assert cf.canonical_e((2, 1, 1)) == (2, 2)
        assert cf.canonical_e((5,)) == (5,)

    def test_hj_blocks(self):
        assert cf.hj_blocks((2, 3, 2, 2)) == ([(1, 0)], 2)
        assert cf.hj_blocks((3, 4)) == ([(0, 0), (0, 1)], 0)
        assert cf.hj_blocks((2, 2)) == ([], 2)
