"""Exact algebra of the two continued-fraction calculi.

Two expansions of a number are in play throughout this package:

* the *additive* (Euclidean) form  ``[a1,...,an]+ = a1 + 1/(a2 + 1/(...))``,
  whose partial quotients are the quotients of the Euclidean algorithm, and
* the *subtractive* (Hirzebruch-Jung) form
  ``[b1,...,bn]- = b1 - 1/(b2 - 1/(...))``,
  whose partial quotients after the first are all >= 2.

Both are governed by the continuant polynomials ``Z`` defined by
``Z(empty) = 1``, ``Z(x) = x`` and
``Z(x1..xn) = x1*Z(x2..xn) +/- Z(x3..xn)``; the fraction
``[x1..xn]+/- = Z(x1..xn)/Z(x2..xn)`` is always in lowest terms for
canonical expansions.

The module also implements the involution ``t -> t/(t-1)`` of ``(1, oo)``
on values and on both kinds of expansions, the conversion between the two
calculi (for finite data and for eventually periodic data), the block form
of a subtractive expansion read straight off the Euclidean quotients, the
staircase point diagram whose transpose realises the subtractive
involution, and the reversal law ``p/q -> p/qbar`` with
``q*qbar = 1 mod p``.

Everything is exact: values are ``fractions.Fraction``, terms are Python
integers of arbitrary size.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._values import Value, _check_pq
from .errors import DivisionByZero, DomainError, InvalidSequence

E = "e"
HJ = "hj"
KINDS = (E, HJ)

PLUS = "+"
MINUS = "-"


def _ints(values, error=InvalidSequence) -> tuple[int, ...]:
    """The values as a tuple of Python ints, or ``error`` for anything else.

    Integers and bools (and other types with ``__index__``) are accepted;
    floats, ``Fraction``s and strings are rejected, not truncated or parsed.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"terms must be integers: {exc}") from None


def _check_terms(kind: str, terms) -> tuple[int, ...]:
    """Validate the admissibility restrictions for the given calculus.

    The first term may be any integer; later terms must be >= 1 in the
    additive calculus and >= 2 in the subtractive one.
    """
    terms = _ints(terms)
    if kind not in KINDS:
        raise InvalidSequence(f"unknown kind {kind!r}")
    if not terms:
        raise InvalidSequence("empty expansion")
    low = 1 if kind == E else 2
    if min(terms) < low and min(terms[1:], default=low) < low:  # the first term may be low
        t = next(t for t in terms[1:] if t < low)  # the first offender names the error
        raise InvalidSequence(f"term {t} < {low} in {kind!r} expansion {terms}")
    return terms


class CFExpansion(Value):
    """A finite continued fraction of either kind.

    ``kind`` is ``"e"`` (additive) or ``"hj"`` (subtractive); ``terms`` is
    the tuple of partial quotients, validated on construction.
    """

    __slots__ = ("kind", "terms")
    kind: str
    terms: tuple[int, ...]

    def __init__(self, kind: str, terms: tuple[int, ...]):
        self._kind = kind
        self._terms = _check_terms(kind, terms)

    def value(self) -> Fraction:
        return evaluate(self)

    def __str__(self) -> str:
        sign = "+" if self.kind == E else "-"
        return "[" + ",".join(str(t) for t in self.terms) + "]" + sign


class PeriodicCF(Value):
    """An eventually periodic expansion, stored in normal form.

    The stream of partial quotients is ``preperiod`` followed by ``period``
    repeated forever.  Normal form: the period is primitive (not a power of
    a shorter word) and the preperiod is shortest (its last term differs
    from the period's last term).  Two streams are equal as sequences iff
    their normal forms are equal componentwise.
    """

    __slots__ = ("kind", "preperiod", "period")
    kind: str
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, kind: str, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if kind not in KINDS:
            raise InvalidSequence(f"unknown kind {kind!r}")
        pre = _ints(preperiod)
        per = _ints(period)
        if not per:
            raise InvalidSequence("empty period")
        # two copies of the period so its first term is checked in stream position
        _check_terms(kind, pre + per + per)
        per = _primitive_word(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        self._kind = kind
        self._preperiod = pre
        self._period = per

    def term(self, i: int) -> int:
        """i-th term of the stream, 0-based."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.term(i) for i in range(n))

    def __str__(self) -> str:
        sign = "+" if self.kind == E else "-"
        pre = ",".join(str(t) for t in self.preperiod)
        per = ",".join(str(t) for t in self.period)
        return "[" + pre + ("," if pre else "") + "(" + per + ")*]" + sign


def _primitive_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest word of which ``word`` is a repetition."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


class Staircase(Value):
    """Riemenschneider point diagram: row ``k`` holds ``rows[k]`` points.

    Row counts are the subtractive partial quotients minus one; the first
    point of each row sits under the last point of the previous row, so
    reading column counts gives the dual expansion.
    """

    __slots__ = ("rows",)
    rows: tuple[int, ...]

    def __init__(self, rows: tuple[int, ...]):
        rows = _ints(rows)
        if not rows or any(r < 1 for r in rows):
            raise InvalidSequence(f"every staircase row needs >= 1 point: {rows}")
        self._rows = rows

    def column_offsets(self) -> tuple[int, ...]:
        """Starting column of each row (row k+1 starts under row k's last point)."""
        offs = [0]
        for r in self.rows[:-1]:
            offs.append(offs[-1] + r - 1)
        return tuple(offs)


def _continuants(s: int, terms: tuple) -> tuple[int, int, bool]:
    """The pair ``(Z(terms), Z(terms[1:]))`` for the sign ``s = +/-1``.

    Folded from the right by the tail recursion: one integer multiply-add
    per term, on operands no longer than the result when the terms are
    admissible (their continuants then grow).  The flag says whether some
    proper tail ``terms[k:]``, k >= 1, has continuant 0.
    """
    z2, z1 = 0, 1  # Z of the two tails beyond the current suffix
    zero_tail = False
    for x in reversed(terms):
        if not z1:
            zero_tail = True
        z2, z1 = z1, x * z1 + s * z2
    return z1, z2, zero_tail


def continuant(sign: str, terms) -> int:
    """Continuant Z^+(terms) or Z^-(terms), with Z(empty) = 1.

    Satisfies the head recursion ``Z(x1..xn) = x1*Z(x2..xn) +/- Z(x3..xn)``,
    its tail twin, and the palindrome symmetry ``Z(x1..xn) = Z(xn..x1)``.
    Costs n integer multiply-adds, on operands of at most the result's bit
    length for admissible terms.
    """
    if sign not in (PLUS, MINUS):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    return _continuants(1 if sign == PLUS else -1, tuple(terms))[0]


def evaluate(cf: CFExpansion) -> Fraction:
    """Exact value of a finite expansion, folded from the right."""
    return eval_terms(cf.kind, cf.terms)


def eval_terms(kind: str, terms) -> Fraction:
    """Value of raw terms in the given calculus (no admissibility check).

    The value is the continuant ratio ``Z(x1..xn)/Z(x2..xn)``: n integer
    multiply-adds, on operands of at most the output's bit length for
    admissible terms, then one ``Fraction``.  Raises DivisionByZero if some
    proper tail evaluates to 0, i.e. has continuant 0; admissible sequences
    never trip this.
    """
    terms = tuple(terms)
    if not terms:
        raise InvalidSequence("cannot evaluate an empty expansion")
    num, den, zero_tail = _continuants(1 if kind == E else -1, terms)
    if zero_tail:
        raise DivisionByZero(f"zero tail while evaluating {list(terms)}")
    return Fraction(num, den)


def _quotients(num: int, den: int) -> tuple[int, ...]:
    """Quotients of the floor-based Euclidean algorithm on num/den, den > 0.

    O(log den) divmods; the last quotient is never 1 unless it is the only
    one (the remainders satisfy 1/(x - a) > 1 strictly).
    """
    terms = []
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            return tuple(terms)
        num, den = den, rem


def expand_e(x) -> CFExpansion:
    """Canonical additive expansion (floor-based Euclidean algorithm).

    The last term is never 1, except for the expansion ``[1]`` of 1 itself.

    >>> expand_e(Fraction(11, 7)).terms
    (1, 1, 1, 3)
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    return CFExpansion._trusted(E, _quotients(x.numerator, x.denominator))


def hj_terms(p: int, q: int) -> tuple[int, ...]:
    """Subtractive partial quotients of p/q, q > 0: the block pair of its
    Euclidean quotients (:func:`_quotient_blocks`) rendered in unary.

    No ``Fraction`` and no admissibility re-check.  Cost: O(log p) divmods
    on integers of the bit length of p, plus an output of up to p - 1 terms
    (for p/(p-1)) built by list repetition; :func:`block_form` stops at the
    blocks.
    """
    if q <= 0:
        raise DomainError(f"need a positive denominator, got {q}")
    return _unary(*_quotient_blocks(_quotients(p, q)))


def expand_hj(x) -> CFExpansion:
    """Canonical subtractive expansion, from :func:`hj_terms`.

    >>> expand_hj(Fraction(11, 7)).terms
    (2, 3, 2, 2)
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    return CFExpansion._trusted(HJ, hj_terms(x.numerator, x.denominator))


def block_form(p: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Block form of the subtractive expansion of p/q > 1, read off Euclid.

    Returns ``(ms, ns)`` with ``p/q = [(2)^m1, n1+3, (2)^m2, ..., ns+3,
    (2)^m_{s+1}]-``: the pair :func:`hj_blocks` reads from
    ``hj_terms(p, q)``, here read off the additive quotients by the rule of
    :func:`e_to_hj`.  Cost: O(log p) divmods on integers of at most the bit
    length of p, and s <= n/2 + 1 blocks for n quotients, however long the
    unary expansion.
    """
    if not 0 < q < p:
        raise DomainError(f"block form needs p/q > 1 with q > 0, got ({p}, {q})")
    return _quotient_blocks(_quotients(p, q))


def hj_blocks(terms) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy block form of a subtractive sequence, all terms >= 2.

    Writes ``terms = (2)^m1, n1+3, (2)^m2, n2+3, ..., ns+3, (2)^m_{s+1}``
    and returns the pair ``((m1, ..., m_{s+1}), (n1, ..., ns))``, the one
    :func:`block_form` returns for the value.  Empty runs of 2 are kept:
    they carry positional information.
    """
    terms = _ints(terms)
    if terms and min(terms) < 2:
        raise InvalidSequence(f"block form needs all terms >= 2, got {terms}")
    return _hj_blocks(terms)


def _hj_blocks(terms: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair of :func:`hj_blocks`, for int terms already known to be >= 2."""
    ms: list[int] = []
    ns: list[int] = []
    run = 0
    for t in terms:
        if t == 2:
            run += 1
        else:
            ms.append(run)
            ns.append(t - 3)
            run = 0
    ms.append(run)
    return tuple(ms), tuple(ns)


def _quotient_blocks(a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Block pair of ``[a1..an]+``, terms >= 1, by the rule of :func:`e_to_hj`.

    The terms are ``a1+1, (2)^(a2-1), a3+2, (2)^(a4-1), ...``: the head and
    the last term of odd n each lose one, so a single term stays ``a1``.
    One pass over the quotients: a run of 2s grows until a large term closes
    it, and a large term of 2 (from ``a1 = 1``, a single ``a1 = 2`` or a
    last odd term 1) joins the runs beside it.  The head may be any integer:
    a head term below 2 is kept as a large one, which :func:`_unary` renders.
    """
    runs: list[int] = []
    big: list[int] = []
    run = 0
    last = len(a) - 1
    for k in range(0, last + 1, 2):
        t = a[k] + 2 - (k == 0) - (k == last)
        if t == 2:
            run += 1
        else:
            runs.append(run)
            big.append(t - 3)
            run = 0
        if k < last:
            run += a[k + 1] - 1
    runs.append(run)
    return tuple(runs), tuple(big)


def _unary(ms, ns) -> tuple[int, ...]:
    """The terms ``(2)^m1, n1+3, ..., ns+3, (2)^m_{s+1}`` of a block pair, or
    of runs whose end terms of 2 were not joined: both render the same."""
    out: list[int] = []
    for m, n in zip(ms, ns):
        out += [2] * m
        out.append(n + 3)
    out += [2] * ms[-1]
    return tuple(out)


def _involute_runs(ms, ns) -> tuple[list[int], list[int]]:
    """Runs of 2s and large terms of t/(t-1) from the block pair of t > 1,
    by the rule of :func:`involute_hj`: runs and large terms swap roles, and
    each end of the chain loses one (a single large term loses two).  An
    end term ``big+3 = 2`` is kept in place.  O(s) steps, however long the runs."""
    big = list(ms)
    big[0] -= 1
    big[-1] -= 1
    return [0, *ns, 0], big


def _edge_lengths(ms, ns) -> tuple[int, ...]:
    """Additive expansion ``[m1+1, n1+1, ..., ns+1, m_{s+1}+1]+`` of t/(t-1)
    from the block pair of t > 1: the zigzag edge lengths, alternated."""
    out = [ms[0] + 1]
    for n, m in zip(ns, ms[1:]):
        out += (n + 1, m + 1)
    return canonical_e(out)


def canonical_e(terms) -> tuple[int, ...]:
    """Fold a trailing 1 so the additive sequence is canonical."""
    terms = tuple(terms)
    if len(terms) >= 2 and terms[-1] == 1:
        terms = terms[:-2] + (terms[-2] + 1,)
    return terms


def e_to_hj(terms) -> tuple[int, ...]:
    """Rewrite additive partial quotients as subtractive ones.

    ``[a1,...,an]+`` becomes ``[a1+1, (2)^(a2-1), a3+2, (2)^(a4-1), ...]``
    ending with ``(2)^(a_{2k}-1)`` for even length and with ``a_{2k+1}+1``
    for odd length >= 3; a single term is returned unchanged.  All terms
    must be >= 1.
    """
    terms = _ints(terms)
    if not terms or min(terms) < 1:
        raise InvalidSequence(f"need a nonempty sequence of terms >= 1, got {terms}")
    return _unary(*_quotient_blocks(terms))


def hj_to_e(terms) -> tuple[int, ...]:
    """Inverse of :func:`e_to_hj` on canonical sequences.

    The blocks of t (:func:`hj_blocks`) give the additive expansion of
    t/(t-1), ``[m1+1, n1+1, ..., ns+1, m_{s+1}+1]+``, and the rule of
    :func:`involute_e` turns it into the one of t.
    """
    terms = _check_terms(HJ, terms)
    if len(terms) == 1:
        return terms
    if terms[0] < 2:
        raise InvalidSequence(f"first term must be >= 2 to invert, got {terms[0]}")
    return _involute_e(_edge_lengths(*_hj_blocks(terms)))


def e_to_hj_periodic(x: PeriodicCF) -> PeriodicCF:
    """Apply the additive-to-subtractive rewriting to a periodic stream.

    After the first term the rewriting turns each pair ``a_i, a_{i+1}``
    (i odd) into ``(2)^(a_i - 1), a_{i+1} + 2``.  From the first odd index
    past the preperiod, pairs repeat once the pair parity and the position
    in the period both return: after the period length if it is even and
    twice that if it is odd.  That stretch gives the output period, and
    :class:`PeriodicCF` normalises the result.
    """
    if x.kind != E:
        raise InvalidSequence("input must be of additive kind")
    mu, pi = len(x.preperiod), len(x.period)
    start = mu | 1  # the first odd index >= mu
    a = x.prefix(start + (pi if pi % 2 == 0 else 2 * pi))  # holds every distinct term
    if min(a) < 1:
        raise InvalidSequence("all streamed terms must be >= 1")
    # a closing quotient 1 ends the last pair a_i, a_{i+1} with no 2s
    out = e_to_hj(a + (1,))
    cut = 1 + sum(a[1:start:2])  # the head, then a_i terms from each pair
    return PeriodicCF(HJ, out[:cut], out[cut:])


def involute(x) -> Fraction:
    """The involution ``x -> x/(x-1)`` of the interval (1, oo)."""
    x = Fraction(x)
    if x <= 1:
        raise DomainError(f"involution needs x > 1, got {x}")
    return x / (x - 1)


def involute_e(terms) -> tuple[int, ...]:
    """Additive expansion of ``t/(t-1)`` from the one of ``t > 1``.

    Two cases: ``[1, a2, a3, ...] -> [1+a2, a3, ...]`` and
    ``[a1, a2, ...] -> [1, a1-1, a2, ...]`` for ``a1 >= 2``.
    """
    terms = _check_terms(E, terms)
    if terms == (1,) or terms[0] < 1:
        raise InvalidSequence(f"need the canonical expansion of some t > 1, got {terms}")
    return _involute_e(terms)


def _involute_e(terms: tuple[int, ...]) -> tuple[int, ...]:
    """The rule of :func:`involute_e`, on terms already checked."""
    if terms[0] == 1:
        out = (1 + terms[1],) + terms[2:]
    else:
        out = (1, terms[0] - 1) + terms[1:]
    return canonical_e(out)


def involute_hj(terms) -> tuple[int, ...]:
    """Subtractive expansion of ``t/(t-1)`` from the one of ``t > 1``.

    In block form ``[(2)^m1, n1+3, ..., ns+3, (2)^m_{s+1}]`` the image is
    ``[m1+2, (2)^n1, m2+3, ..., (2)^ns, m_{s+1}+2]``; a trailing empty run
    still contributes its ``m+2 = 2``.  The blockless case ``[(2)^m]``
    (the value (m+1)/m) maps to ``[m+1]``.
    """
    terms = _check_terms(HJ, terms)
    if terms[0] < 2:
        raise InvalidSequence(f"need the canonical expansion of some t > 1, got {terms}")
    return _unary(*_involute_runs(*_hj_blocks(terms)))


def staircase(terms) -> Staircase:
    """Point diagram of a subtractive sequence: row k holds terms[k]-1 points."""
    terms = _ints(terms)
    if not terms or any(t < 2 for t in terms):
        raise InvalidSequence(f"staircase needs all terms >= 2, got {terms}")
    return Staircase._trusted(tuple([t - 1 for t in terms]))


def staircase_dual(s: Staircase) -> tuple[int, ...]:
    """Read the diagram by columns: column k holds (dual term k) - 1 points.

    Row k+1 starts in the column where row k ends, so a column holds the
    point of one row plus one for every later row that starts in it:
    O(rows + columns) steps, not one per point.
    """
    offs = s.column_offsets()
    terms = [2] * (offs[-1] + s.rows[-1])
    for off in offs[1:]:
        terms[off] += 1
    return tuple(terms)


def reverse_hj(p: int, q: int) -> tuple[tuple[int, ...], Fraction]:
    """Reversed subtractive expansion of p/q and its value p/qbar.

    Here ``qbar`` is the inverse of q modulo p with 0 < qbar < p: reversing
    ``p/q = [b1,...,br]-`` gives ``[br,...,b1]- = p/qbar``.
    """
    p, q = _check_pq(p, q, "the reversal")
    rev = hj_terms(p, q)[::-1]
    return rev, eval_terms(HJ, rev)
