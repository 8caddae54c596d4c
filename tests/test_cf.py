import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from latticecf import cf, lattice, singularities as S
from latticecf.errors import DomainError, InvalidCycle, InvalidSequence


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

    def test_restriction_message_names_the_first_offender(self):
        # the check takes the minimum; the message still names the first bad term
        with pytest.raises(InvalidSequence) as exc:
            cf.CFExpansion(cf.HJ, (3, 1, 0))
        assert str(exc.value) == "term 1 < 2 in 'hj' expansion (3, 1, 0)"
        with pytest.raises(InvalidSequence) as exc:
            cf.hj_to_e((5, 3, 0, 2, 1))
        assert str(exc.value) == "term 0 < 2 in 'hj' expansion (5, 3, 0, 2, 1)"
        with pytest.raises(InvalidSequence) as exc:
            cf.involute_e((4, 2, -1, 0))
        assert str(exc.value) == "term -1 < 1 in 'e' expansion (4, 2, -1, 0)"


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


def surd_floor(p, d, q):
    """floor((p + sqrt(d))/q) for a non-square d > 0 and q != 0."""
    r = math.isqrt(d)  # p + sqrt(d) lies strictly between p + r and p + r + 1
    return (p + r) // q if q > 0 else (p + r + 1) // q


def surd_hj_terms(p, d, q, n):
    """The first n subtractive terms of (p + sqrt(d))/q, d not a square.

    Ceiling recursion b = ceil(x), x -> 1/(b - x) on x = (p + sqrt(d))/q,
    kept exact by the invariant q | d - p^2: then 1/(b - x) is
    (p' + sqrt(d))/q' with p' = b*q - p and q' = (p'^2 - d)/q.
    """
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    out = []
    for _ in range(n):
        b = surd_floor(p, d, q) + 1  # x is irrational, so ceil(x) = floor(x) + 1
        out.append(b)
        p = b * q - p
        q = (p * p - d) // q
    return tuple(out)


def e_to_hj_periodic_walk(x):
    """Reference: the body ``e_to_hj_periodic`` had before it read the output
    period off one aligned stretch, walking the stream pair by pair until
    the alignment state repeats."""
    if x.kind != cf.E:
        raise InvalidSequence("input must be of additive kind")
    mu, pi = len(x.preperiod), len(x.period)
    if any(x.term(i) < 1 for i in range(mu + pi)):
        raise InvalidSequence("all streamed terms must be >= 1")

    def emitted(i):
        return [2] * (x.term(i) - 1) + [x.term(i + 1) + 2]

    out = [x.term(0) + 1]
    seen = {}
    i = 1
    while True:
        if i >= mu:
            state = (i - mu) % pi
            if state in seen:
                start = seen[state]
                return cf.PeriodicCF(cf.HJ, tuple(out[:start]), tuple(out[start:]))
            seen[state] = len(out)
        out.extend(emitted(i))
        i += 2


class TestPeriodic:
    @given(
        st.lists(st.integers(1, 9), min_size=0, max_size=6),
        st.lists(st.integers(1, 9), min_size=1, max_size=6),
    )
    def test_matches_walk(self, pre, per):
        stream = cf.PeriodicCF(cf.E, tuple(pre), tuple(per))
        assert cf.e_to_hj_periodic(stream) == e_to_hj_periodic_walk(stream)

    @pytest.mark.parametrize("pre, per", [((0,), (1,)), ((-3, 2), (1, 4)), ((0, 5), (7, 7))])
    def test_nonpositive_terms_rejected_as_by_walk(self, pre, per):
        stream = cf.PeriodicCF(cf.E, pre, per)
        for rewrite in (cf.e_to_hj_periodic, e_to_hj_periodic_walk):
            with pytest.raises(InvalidSequence, match="all streamed terms must be >= 1"):
                rewrite(stream)

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

    def test_quadratic_surds_match_sympy_and_ceiling_recursion(self):
        # (P + sqrt(D))/Q > 1: SymPy's additive period, rewritten, against the
        # exact subtractive recursion on the surd itself
        cfp = pytest.importorskip("sympy").ntheory.continued_fraction_periodic
        shapes = ((0, 1), (1, 2), (-20, -2), (5, 4), (-1, 3), (-30, -7))
        checked = 0
        for d in range(2, 201, 4):  # SymPy takes ~30 ms a surd
            p, q = shapes[d // 4 % 6]
            if math.isqrt(d) ** 2 == d or surd_floor(p, d, q) < 1:
                continue
            *pre, per = cfp(p, q, d)
            stream = cf.PeriodicCF(cf.E, tuple(pre), tuple(per))
            assert cf.e_to_hj_periodic(stream).prefix(60) == surd_hj_terms(p, d, q, 60), (p, d, q)
            checked += 1
        assert checked > 40

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


def staircase_dual_points(s):
    """The former body of ``staircase_dual``, one step per point; kept as an oracle."""
    offs = s.column_offsets()
    counts = [0] * (offs[-1] + s.rows[-1])
    for off, r in zip(offs, s.rows):
        for c in range(off, off + r):
            counts[c] += 1
    return tuple(c + 1 for c in counts)


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

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=40))
    def test_dual_matches_point_count(self, rows):
        s = cf.Staircase(tuple(rows))
        assert cf.staircase_dual(s) == staircase_dual_points(s)

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
        assert cf.hj_blocks((2, 3, 2, 2)) == ((1, 2), (0,))
        assert cf.hj_blocks((3, 4)) == ((0, 0, 0), (0, 1))
        assert cf.hj_blocks((2, 2)) == ((2,), ())


def unary_blocks(p, q):
    """Reference: the block form read by ``hj_blocks`` off the unary expansion."""
    return cf.hj_blocks(cf.expand_hj(Fraction(p, q)).terms)


@st.composite
def random_above_one(draw, max_bits=2000, max_unary=10**5):
    """A pair p > q >= 1 (not always coprime) of up to ``max_bits`` bits.

    Drawn uniformly through a seeded ``Random`` rather than by Hypothesis's
    boundary-seeking integers, whose favourite q = p - 1 has a unary
    expansion of p - 1 terms; the rare uniform draw with more than
    ``max_unary`` unary terms is discarded.  The unary reference costs
    about 0.6 us a term, so the cap keeps it well inside Hypothesis's
    200 ms deadline (a draw of 7 * 10**5 terms took 0.41 s).
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.getrandbits(draw(st.integers(1, max_bits))) + 2
    q = rng.randrange(1, p)
    assume(sum(cf._quotients(p, q)) <= max_unary)
    return p, q


class TestBlockForm:
    def test_paper_examples(self):
        assert cf.block_form(11, 7) == ((1, 2), (0,))  # [2,3,2,2]
        assert cf.block_form(11, 4) == ((0, 0, 0), (0, 1))  # [3,4]
        assert cf.block_form(2, 1) == ((1,), ())  # [2]
        assert cf.block_form(7, 1) == ((0, 0), (4,))  # [7]
        assert cf.block_form(5, 4) == ((4,), ())  # [2,2,2,2]

    def test_sweep_matches_unary_reading(self):
        for p in range(2, 150):
            for q in range(1, p):
                assert cf.block_form(p, q) == unary_blocks(p, q), (p, q)

    @given(random_above_one())
    def test_random_matches_unary_reading(self, pq):
        assert cf.block_form(*pq) == unary_blocks(*pq)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=400))
    @example([1, 1])  # a1 = 1, even length: [(2)^a2]
    @example([1, 3, 2])  # a1 = 1, odd length
    @example([5, 2])  # even length: a trailing run
    @example([4, 1, 3])  # odd length: the last large term is a_n + 1
    @example([9])  # an integer: one term
    def test_quotients_match_unary_reading(self, a):
        # any additive sequence, made canonical and > 1
        if a[-1] == 1:
            a[-1] = 2
        x = cf.eval_terms(cf.E, a)
        assert cf.expand_e(x).terms == tuple(a)
        assert cf.block_form(x.numerator, x.denominator) == unary_blocks(x.numerator, x.denominator)

    def test_huge_quotients_stay_blocks(self):
        # [3, 10^500, 4, 10^400, 5]+ = [4, (2)^(10^500-1), 6, (2)^(10^400-1), 6]-
        x = cf.eval_terms(cf.E, (3, 10**500, 4, 10**400, 5))
        ms, ns = cf.block_form(x.numerator, x.denominator)
        assert ms == (0, 10**500 - 1, 10**400 - 1, 0)
        assert ns == (1, 3, 3)
        n = 10**1000
        assert cf.block_form(n + 1, n) == ((n,), ())

    def test_domain(self):
        for p, q in ((3, 3), (2, 0), (1, 2), (5, -1)):
            with pytest.raises(DomainError):
                cf.block_form(p, q)


def ceiling_terms(p, q, limit):
    """The ceiling recursion on ints, q > 0: the loop ``hj_terms`` once ran.

    None once it passes ``limit`` terms, so a draw whose unary expansion is
    too long to build is skipped instead of built.
    """
    terms = []
    while len(terms) < limit:
        a = -(-p // q)
        terms.append(a)
        p, q = q, a * q - p
        if q == 0:
            return tuple(terms)
    return None


class TestHJTerms:
    def test_matches_ceiling_recursion(self):
        for num in range(-30, 60):
            for den in range(1, 25):
                x, want = Fraction(num, den), []
                while True:
                    a = math.ceil(x)
                    want.append(a)
                    if a == x:
                        break
                    x = 1 / (a - x)
                assert cf.hj_terms(num, den) == tuple(want), (num, den)

    @given(st.integers(-10**40, 10**40), st.integers(1, 10**30))
    @example(-7 * 10**29, 3 * 10**29)  # not reduced
    @example(10**40, 10**30 - 1)
    def test_matches_ceiling_recursion_on_big_pairs(self, p, q):
        want = ceiling_terms(p, q, 10**4)
        assume(want is not None)
        assert cf.hj_terms(p, q) == want

    def test_expand_hj_wraps_it(self):
        assert cf.expand_hj(Fraction(-7, 3)).terms == cf.hj_terms(-7, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            cf.hj_terms(5, 0)
        with pytest.raises(DomainError):
            cf.hj_terms(5, -2)


class TestOneEuclid:
    """Every unary chain is one Euclid's block pair, rendered at the end."""

    @pytest.mark.parametrize("build", [
        pytest.param(cf.hj_terms, id="hj_terms"),
        pytest.param(lambda p, q: cf.expand_hj(Fraction(p, q)), id="expand_hj"),
        pytest.param(lambda p, q: lattice.polygon(lattice.ConeNF(p, q)), id="polygon"),
        pytest.param(lambda p, q: S.hj_resolution(S.HJType(p, q)), id="hj_resolution"),
        pytest.param(lambda p, q: lattice.duality_map(lattice.ConeNF(p, q)), id="duality_map"),
    ])
    def test_one_euclid_per_answer(self, monkeypatch, build):
        calls = []
        quotients = cf._quotients

        def counted(num, den):
            calls.append((num, den))
            return quotients(num, den)

        monkeypatch.setattr(cf, "_quotients", counted)
        for p, q in ((2, 1), (11, 7), (97, 35), (1001, 1000), (1001, 2)):
            calls.clear()
            build(p, q)
            assert len(calls) == 1, (p, q, calls)


class TestIntegralTerms:
    """Terms are integers: other numbers and text are refused, never truncated."""

    @pytest.mark.parametrize("bad", [2.0, 2.9, Fraction(5, 2), Fraction(4, 2), "3", None])
    def test_non_integers_rejected(self, bad):
        for build in (
            lambda: cf.CFExpansion(cf.E, (1, bad)),
            lambda: cf.CFExpansion(cf.HJ, (bad, 2)),
            lambda: cf.PeriodicCF(cf.E, (bad,), (2,)),
            lambda: cf.PeriodicCF(cf.HJ, (), (3, bad)),
            lambda: cf.Staircase((bad, 1)),
            lambda: cf.e_to_hj((bad, 2)),
            lambda: cf.hj_to_e((3, bad)),
            lambda: cf.involute_e((bad, 2)),
            lambda: cf.involute_hj((2, bad)),
            lambda: cf.hj_blocks((bad, 3)),
            lambda: cf.staircase((3, bad)),
        ):
            with pytest.raises(InvalidSequence, match="terms must be integers"):
                build()
        with pytest.raises(InvalidCycle, match="terms must be integers"):
            S.CuspCycle((3, bad))

    def test_seed_examples_no_longer_truncated(self):
        with pytest.raises(InvalidSequence):
            cf.CFExpansion(cf.E, (Fraction(5, 2), 2.9))
        with pytest.raises(InvalidSequence):
            cf.CFExpansion(cf.HJ, ("3", 2))
        with pytest.raises(InvalidCycle):
            S.CuspCycle((3.5, 2))

    def test_ints_and_bools_accepted(self):
        x = cf.CFExpansion(cf.E, (True, 2, 10**40))
        assert x.terms == (1, 2, 10**40) and all(type(t) is int for t in x.terms)
        assert cf.CFExpansion(cf.HJ, [False, 2]).terms == (0, 2)
        assert cf.PeriodicCF(cf.E, (True,), (2,)).preperiod == (1,)
        assert cf.Staircase((True, 2)).rows == (1, 2)
        assert cf.e_to_hj((True, True, 3)) == (2, 4)
        assert cf.hj_blocks((2, True + 2)) == ((1, 0), (0,))
        assert S.CuspCycle((True + 2,)).weights == (3,)
        assert type(S.CuspCycle((True + 2,)).weights[0]) is int


# The bodies ``e_to_hj``, ``hj_to_e``, ``hj_blocks`` and ``involute_hj`` had
# before the block rules were written once on the ``(ms, ns)`` pair; kept
# as oracles.


def e_to_hj_walk(terms):
    terms = cf._ints(terms)
    if not terms or any(t < 1 for t in terms):
        raise InvalidSequence(f"need a nonempty sequence of terms >= 1, got {terms}")
    if len(terms) == 1:
        return terms
    out = [terms[0] + 1]
    for i in range(1, len(terms), 2):
        out.extend([2] * (terms[i] - 1))
        if i + 1 < len(terms):
            last = i + 1 == len(terms) - 1
            out.append(terms[i + 1] + (1 if last else 2))
    return tuple(out)


def hj_to_e_walk(terms):
    terms = cf._check_terms(cf.HJ, terms)
    if len(terms) == 1:
        return terms
    if terms[0] < 2:
        raise InvalidSequence(f"first term must be >= 2 to invert, got {terms[0]}")
    out = [terms[0] - 1]
    i = 1
    while i < len(terms):
        run = 0
        while i < len(terms) and terms[i] == 2:
            run += 1
            i += 1
        if i == len(terms):
            out.append(run + 1)
        elif i == len(terms) - 1:
            out.extend([run + 1, terms[i] - 1])
            i += 1
        else:
            if terms[i] < 3:
                raise InvalidSequence(f"interior term {terms[i]} < 3 at position {i}")
            out.extend([run + 1, terms[i] - 2])
            i += 1
    return tuple(out)


def pair_list_blocks(terms):
    """``([(m1, n1), ..., (ms, ns)], m_{s+1})``: the former shape of ``hj_blocks``."""
    terms = cf._ints(terms)
    if any(t < 2 for t in terms):
        raise InvalidSequence(f"block form needs all terms >= 2, got {terms}")
    blocks = []
    run = 0
    for t in terms:
        if t == 2:
            run += 1
        else:
            blocks.append((run, t - 3))
            run = 0
    return blocks, run


def involute_hj_walk(terms):
    terms = cf._check_terms(cf.HJ, terms)
    if terms[0] < 2:
        raise InvalidSequence(f"need the canonical expansion of some t > 1, got {terms}")
    blocks, m_last = pair_list_blocks(terms)
    if not blocks:
        return (m_last + 1,)
    out = []
    for i, (m, n) in enumerate(blocks):
        out.append(m + 2 if i == 0 else m + 3)
        out.extend([2] * n)
    out.append(m_last + 2)
    return tuple(out)


def result_or_error(fn, *args):
    """Return value, or the type of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


# any integers, so trailing 1s, single terms and invalid terms all occur;
# now and then a long run
raw_terms = st.lists(
    st.one_of(st.integers(-3, 12), st.sampled_from([2, 2, 1, 500, 10**20])), max_size=14
)
long_runs = [(2,) * 10**5, (2,) * 10**5 + (3,), (3,) + (2,) * 10**5 + (5, 2)]


class TestBlockRuleOracles:
    @given(raw_terms)
    @example([1])
    @example([2])
    @example([-3])
    @example([4, 1])  # a trailing 1
    @example([1, 1, 1])
    @example([1, 10**5])  # a run of 10^5 2s
    @example([3, 10**5, 1])
    @example([])
    @example([2, "x"])
    def test_e_to_hj_matches_walk(self, terms):
        assert result_or_error(cf.e_to_hj, terms) == result_or_error(e_to_hj_walk, terms)

    @given(raw_terms)
    @example([1])
    @example([2])
    @example([-3])
    @example([3, 1])
    @example([1, 3])
    @example([2, 2])
    @example([])
    @example([2, 2.5])
    def test_hj_to_e_and_involute_hj_match_walks(self, terms):
        for new, old in ((cf.hj_to_e, hj_to_e_walk), (cf.involute_hj, involute_hj_walk)):
            assert result_or_error(new, terms) == result_or_error(old, terms), new.__name__

    @given(raw_terms)
    @example([])
    @example([2, 2])
    def test_hj_blocks_matches_pair_list_reading(self, terms):
        old = result_or_error(pair_list_blocks, terms)
        if isinstance(old, type):
            assert result_or_error(cf.hj_blocks, terms) is old
        else:
            blocks, m_last = old
            assert cf.hj_blocks(terms) == (
                tuple(m for m, _ in blocks) + (m_last,),
                tuple(n for _, n in blocks),
            )

    def test_long_runs_match_walks(self):
        for terms in long_runs:
            assert cf.hj_to_e(terms) == hj_to_e_walk(terms)
            assert cf.involute_hj(terms) == involute_hj_walk(terms)
            e = cf.hj_to_e(terms)
            assert cf.e_to_hj(e) == e_to_hj_walk(e) == terms
