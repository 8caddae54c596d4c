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
calculi (for finite data and for eventually periodic data), the staircase
point diagram whose transpose realises the subtractive involution, and the
reversal law ``p/q -> p/qbar`` with ``q*qbar = 1 mod p``.

Everything is exact: values are ``fractions.Fraction``, terms are Python
integers of arbitrary size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, DomainError, InvalidSequence

E = "e"
HJ = "hj"
KINDS = (E, HJ)

PLUS = "+"
MINUS = "-"


def _check_terms(kind: str, terms) -> tuple[int, ...]:
    """Validate the admissibility restrictions for the given calculus.

    The first term may be any integer; later terms must be >= 1 in the
    additive calculus and >= 2 in the subtractive one.
    """
    terms = tuple(int(t) for t in terms)
    if kind not in KINDS:
        raise InvalidSequence(f"unknown kind {kind!r}")
    if not terms:
        raise InvalidSequence("empty expansion")
    low = 1 if kind == E else 2
    for t in terms[1:]:
        if t < low:
            raise InvalidSequence(f"term {t} < {low} in {kind!r} expansion {terms}")
    return terms


@dataclass(frozen=True)
class CFExpansion:
    """A finite continued fraction of either kind.

    ``kind`` is ``"e"`` (additive) or ``"hj"`` (subtractive); ``terms`` is
    the tuple of partial quotients, validated on construction.
    """

    kind: str
    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", _check_terms(self.kind, self.terms))

    def value(self) -> Fraction:
        return evaluate(self)

    def __str__(self) -> str:
        sign = "+" if self.kind == E else "-"
        return "[" + ",".join(str(t) for t in self.terms) + "]" + sign


@dataclass(frozen=True)
class PeriodicCF:
    """An eventually periodic expansion, stored in normal form.

    The stream of partial quotients is ``preperiod`` followed by ``period``
    repeated forever.  Normal form: the period is primitive (not a power of
    a shorter word) and the preperiod is shortest (its last term differs
    from the period's last term).  Two streams are equal as sequences iff
    their normal forms are equal componentwise.
    """

    kind: str
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSequence(f"unknown kind {self.kind!r}")
        pre = tuple(int(t) for t in self.preperiod)
        per = tuple(int(t) for t in self.period)
        if not per:
            raise InvalidSequence("empty period")
        # two copies of the period so its first term is checked in stream position
        _check_terms(self.kind, pre + per + per)
        per = _primitive_word(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

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


@dataclass(frozen=True)
class Staircase:
    """Riemenschneider point diagram: row ``k`` holds ``rows[k]`` points.

    Row counts are the subtractive partial quotients minus one; the first
    point of each row sits under the last point of the previous row, so
    reading column counts gives the dual expansion.
    """

    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if not rows or any(r < 1 for r in rows):
            raise InvalidSequence(f"every staircase row needs >= 1 point: {rows}")
        object.__setattr__(self, "rows", rows)

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


def expand_e(x) -> CFExpansion:
    """Canonical additive expansion (floor-based Euclidean algorithm).

    The last term is never 1, except for the expansion ``[1]`` of 1 itself.

    >>> expand_e(Fraction(11, 7)).terms
    (1, 1, 1, 3)
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    terms = []
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            break
        num, den = den, rem
    # the remainders satisfy 1/(x - a) > 1 strictly, so a trailing 1 cannot occur
    return CFExpansion(E, tuple(terms))


def expand_hj(x) -> CFExpansion:
    """Canonical subtractive expansion (ceiling recursion).

    >>> expand_hj(Fraction(11, 7)).terms
    (2, 3, 2, 2)
    """
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    terms = []
    while True:
        a = -((-num) // den)
        terms.append(a)
        rem = a * den - num
        if rem == 0:
            break
        num, den = den, rem
    return CFExpansion(HJ, tuple(terms))


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
    terms = tuple(int(t) for t in terms)
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


def hj_to_e(terms) -> tuple[int, ...]:
    """Inverse of :func:`e_to_hj` on canonical sequences."""
    terms = _check_terms(HJ, terms)
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


def e_to_hj_periodic(x: PeriodicCF) -> PeriodicCF:
    """Apply the additive-to-subtractive rewriting to a periodic stream.

    The rewriting consumes the stream in pairs after the first term, so the
    alignment state (position within the period, pair parity) eventually
    repeats; the emitted block between two visits of the same state is the
    output period.
    """
    if x.kind != E:
        raise InvalidSequence("input must be of additive kind")
    mu, pi = len(x.preperiod), len(x.period)
    if any(x.term(i) < 1 for i in range(mu + pi)):
        raise InvalidSequence("all streamed terms must be >= 1")

    def emitted(i: int) -> list[int]:
        # block contributed by the pair (term i, term i+1), i >= 1 odd offset
        return [2] * (x.term(i) - 1) + [x.term(i + 1) + 2]

    out = [x.term(0) + 1]
    seen: dict[int, int] = {}  # alignment state -> output length at first visit
    i = 1
    while True:
        if i >= mu:
            state = (i - mu) % pi
            if state in seen:
                start = seen[state]
                return PeriodicCF(HJ, tuple(out[:start]), tuple(out[start:]))
            seen[state] = len(out)
        out.extend(emitted(i))
        i += 2


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
    if terms[0] == 1:
        out = (1 + terms[1],) + terms[2:]
    else:
        out = (1, terms[0] - 1) + terms[1:]
    return canonical_e(out)


def hj_blocks(terms) -> tuple[list[tuple[int, int]], int]:
    """Greedy block form of a subtractive sequence.

    Writes ``terms = (2)^m1, n1+3, (2)^m2, n2+3, ..., ns+3, (2)^m_{s+1}``
    and returns ``([(m1, n1), ..., (ms, ns)], m_{s+1})``.  Empty runs of 2
    are kept: they carry positional information.
    """
    terms = tuple(int(t) for t in terms)
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
    blocks, m_last = hj_blocks(terms)
    if not blocks:
        return (m_last + 1,)
    out = []
    for i, (m, n) in enumerate(blocks):
        out.append(m + 2 if i == 0 else m + 3)
        out.extend([2] * n)
    out.append(m_last + 2)
    return tuple(out)


def staircase(terms) -> Staircase:
    """Point diagram of a subtractive sequence: row k holds terms[k]-1 points."""
    terms = tuple(int(t) for t in terms)
    if not terms or any(t < 2 for t in terms):
        raise InvalidSequence(f"staircase needs all terms >= 2, got {terms}")
    return Staircase(tuple(t - 1 for t in terms))


def staircase_dual(s: Staircase) -> tuple[int, ...]:
    """Read the diagram by columns: column k holds (dual term k) - 1 points."""
    offs = s.column_offsets()
    ncols = offs[-1] + s.rows[-1]
    counts = [0] * ncols
    for off, r in zip(offs, s.rows):
        for c in range(off, off + r):
            counts[c] += 1
    return tuple(c + 1 for c in counts)


def reverse_hj(p: int, q: int) -> tuple[tuple[int, ...], Fraction]:
    """Reversed subtractive expansion of p/q and its value p/qbar.

    Here ``qbar`` is the inverse of q modulo p with 0 < qbar < p: reversing
    ``p/q = [b1,...,br]-`` gives ``[br,...,b1]- = p/qbar``.
    """
    if not (0 < q < p) or math.gcd(p, q) != 1:
        raise DomainError(f"need 0 < q < p coprime, got ({p}, {q})")
    rev = tuple(reversed(expand_hj(Fraction(p, q)).terms))
    return rev, eval_terms(HJ, rev)
