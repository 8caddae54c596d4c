"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines,
or directly as ``python tests/test_acceptance.py``.
"""

import math
import random
import time
from fractions import Fraction

from latticecf import cf, graphs as G, lattice, singularities as S, zigzag


def _verdict(name, failures, note=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"{status}  {name}{suffix}")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[:3]}"


def _elapsed(start):
    """Wall time since ``start``, for the verdict line (not a gate)."""
    return f"{time.perf_counter() - start:.2f} s"


def _coprime(limit, q_min=1):
    for p in range(q_min + 1, limit + 1):
        for q in range(q_min, p):
            if math.gcd(p, q) == 1:
                yield p, q


def test_criterion_1_paper_examples():
    start = time.perf_counter()
    bad = []

    def check(label, got, want):
        if got != want:
            bad.append((label, got, want))

    x = Fraction(11, 7)
    check("e(11/7)", cf.expand_e(x).terms, (1, 1, 1, 3))
    check("hj(11/7)", cf.expand_hj(x).terms, (2, 3, 2, 2))
    check("eval e", cf.eval_terms(cf.E, (1, 1, 1, 3)), x)
    check("eval hj", cf.eval_terms(cf.HJ, (2, 3, 2, 2)), x)
    check("involute", cf.involute(x), Fraction(11, 4))
    check("e(11/4)", cf.expand_e(Fraction(11, 4)).terms, (2, 1, 3))
    check("hj(11/4)", cf.expand_hj(Fraction(11, 4)).terms, (3, 4))
    check("staircase", cf.staircase_dual(cf.staircase((2, 3, 2, 2))), (3, 4))
    d = zigzag.build(x)
    check("zz hj", zigzag.read(d, "hj_lambda"), (2, 3, 2, 2))
    check("zz hj dual", zigzag.read(d, "hj_involute"), (3, 4))
    check("zz e dual", zigzag.read(d, "e_involute"), (2, 1, 3))
    check("zz e", zigzag.read(d, "e_lambda"), (1, 1, 1, 3))
    check("curve vertices", len(S.resolve_monomial(11, 4)), 6)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        bad.append(("runtime", elapsed, "< 1 s"))
    _verdict("criterion 1: paper example suite", bad, f"{elapsed:.3f} s")


def test_criterion_2_hull_oracle_equivalence():
    start = time.perf_counter()
    bad = []
    for p, q in _coprime(200):
        c = lattice.ConeNF(p, q)
        if lattice.polygon(c) != lattice.hull_oracle(c):
            bad.append((p, q))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        bad.append(("runtime", elapsed, "< 60 s"))
    _verdict("criterion 2: hull-oracle equivalence p <= 200", bad, f"{elapsed:.1f} s")


def test_criterion_3_duality():
    start = time.perf_counter()
    bad = []
    for p, q in _coprime(200):
        c = lattice.ConeNF(p, q)
        rep = lattice.duality_map(c)
        if not (rep.images_on_dual and rep.vertices_covered):
            bad.append(("inclusion", p, q))
        if not rep.orientation_respected:
            bad.append(("orientation", p, q))
        if not rep.exceptional_rule_ok:
            bad.append(("classification", p, q))
        if (p, q) != (2, 1):
            # away from the single doubly-degenerate cone the classification
            # and the vertex-set equality hold in their plain length >= 2 form
            for ex in rep.exceptional:
                if ex.is_vertex != (ex.length >= 2):
                    bad.append(("plain classification", p, q))
            images = {im.image_index for im in rep.images}
            equality = images == set(rep.dual_vertex_indices)
            if equality != all(ex.length >= 2 for ex in rep.exceptional):
                bad.append(("vertex-set equality", p, q))
        if lattice.dual_cone(c) != lattice.supplementary(c):
            bad.append(("dual vs supplementary", p, q))
    _verdict("criterion 3: supplementary duality p <= 200", bad, _elapsed(start))


def test_criterion_4_cf_identities():
    start = time.perf_counter()
    rng = random.Random(20260809)
    bad = []
    for k in range(10_000):
        xs = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 12)))
        for sign, s in (("+", 1), ("-", -1)):
            z = cf.continuant(sign, xs)
            if z != xs[0] * cf.continuant(sign, xs[1:]) + s * cf.continuant(sign, xs[2:]):
                bad.append(("recrel", sign, xs))
            if z != cf.continuant(sign, xs[:-1]) * xs[-1] + s * cf.continuant(sign, xs[:-2]):
                bad.append(("twin", sign, xs))
            if z != cf.continuant(sign, xs[::-1]):
                bad.append(("sym", sign, xs))
        p = rng.randint(2, 2000)
        q = rng.randint(1, p - 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p == 1:
            continue
        x = Fraction(p, q)
        e, h = cf.expand_e(x).terms, cf.expand_hj(x).terms
        if cf.e_to_hj(e) != h or cf.hj_to_e(h) != e:
            bad.append(("roundtrip", p, q))
        if cf.involute_e(cf.involute_e(e)) != e or cf.involute_hj(cf.involute_hj(h)) != h:
            bad.append(("involutivity", p, q))
        if cf.staircase_dual(cf.staircase(h)) != cf.involute_hj(h):
            bad.append(("staircase", p, q))
    for p, q in _coprime(500):
        x = Fraction(p, q)
        e, h = cf.expand_e(x), cf.expand_hj(x)
        if e.value() != x or h.value() != x:
            bad.append(("eval-expand", p, q))
        if cf.e_to_hj(e.terms) != h.terms or cf.hj_to_e(h.terms) != e.terms:
            bad.append(("sweep roundtrip", p, q))
        image = cf.involute(x)
        if cf.involute_e(e.terms) != cf.expand_e(image).terms:
            bad.append(("sweep involute e", p, q))
        hj_image = cf.involute_hj(h.terms)
        if hj_image != cf.expand_hj(image).terms:
            bad.append(("sweep involute hj", p, q))
        if cf.staircase_dual(cf.staircase(h.terms)) != hj_image:
            bad.append(("sweep staircase", p, q))
    _verdict("criterion 4: cf identities, 10^4 random + p <= 500 sweep", bad, _elapsed(start))


def test_criterion_5_cusp_suite():
    start = time.perf_counter()
    rng = random.Random(97)
    bad = []
    for _ in range(10_000):
        n = rng.randint(2, 10)
        w = [rng.randint(2, 9) for _ in range(n)]
        w[rng.randrange(n)] = rng.randint(3, 9)
        c = S.CuspCycle(tuple(w))
        m = S.cusp_monodromy(c)
        trace = m.a + m.d
        if m.det() != 1 or trace < 3:
            bad.append(("matrix", w))
        if trace != S.cusp_trace_formula(c):
            bad.append(("trace formula", w))
        d = S.cusp_dual(c)
        if S.cusp_dual(d) != c:
            bad.append(("involution", w))
        md = S.cusp_monodromy(d)
        if md.a + md.d != trace:
            bad.append(("trace preserved", w))
    if S.cusp_dual(S.CuspCycle((4,))) != S.CuspCycle((2, 3)):
        bad.append(("spot (4)", None))
    if S.cusp_dual(S.CuspCycle((2, 3, 2, 2))) != S.CuspCycle((6,)):
        bad.append(("spot (2,3,2,2)", None))
    m4 = S.cusp_monodromy(S.CuspCycle((4,)))
    m6 = S.cusp_monodromy(S.CuspCycle((2, 3, 2, 2)))
    if m4.a + m4.d != 4 or m6.a + m6.d != 6:
        bad.append(("spot traces", None))
    _verdict("criterion 5: cusp monodromy suite, 10^4 random cycles", bad, _elapsed(start))


def test_criterion_6_curve_resolution():
    start = time.perf_counter()
    bad = []
    for p, q in _coprime(60, q_min=2):
        res = S.resolve_monomial(p, q)
        if res != S.blowup_oracle(p, q):
            bad.append(("oracle", p, q))
        if len(res) != S.blowup_count(p, q):
            bad.append(("vertex count", p, q))
        g = res.graph
        minus_one = [i for i, v in enumerate(g.vertices) if v.weight == -1]
        if len(minus_one) != 1 or g.arrows != (minus_one[0],):
            bad.append(("arrow", p, q))
        if not G.is_contractible(G.WeightedDualGraph(g.vertices, g.edges)):
            bad.append(("contractible", p, q))
    _verdict("criterion 6: curve resolution vs blow-up oracle, p <= 60", bad, _elapsed(start))


def test_criterion_7_embedding_dimension():
    start = time.perf_counter()
    bad = []
    for p, q in _coprime(100):
        t = S.HJType(p, q)
        d = S.embdim(t)
        if d != S.embdim_oracle(t):
            bad.append(("oracle", p, q))
        if d != 2 + len(cf.expand_hj(Fraction(p, p - q)).terms):
            bad.append(("dual length", p, q))
    for n in range(1, 51):
        if S.embdim(S.HJType(n + 1, n)) != 3:
            bad.append(("A_n", n))
    _verdict("criterion 7: embedding dimension p <= 100", bad, _elapsed(start))


def test_criterion_8_lens_classification():
    start = time.perf_counter()
    bad = []
    if not S.lens_oriented_equal(S.LensSpace(11, 7), S.LensSpace(11, 8)):
        bad.append(("L(11,7) = L(11,8)", None))
    if S.lens_reverse(S.LensSpace(11, 7)) != S.LensSpace(11, 4):
        bad.append(("reverse L(11,7)", None))
    spaces = [(p, q) for p, q in _coprime(50)]
    for p, q in spaces:
        a = S.LensSpace(p, q)
        if not S.lens_oriented_equal(a, a):
            bad.append(("reflexive", p, q))
        qbar = pow(q, -1, p)
        for p2, q2 in spaces:
            b = S.LensSpace(p2, q2)
            same = S.lens_oriented_equal(a, b)
            if same != (p == p2 and q2 in (q, qbar)):
                bad.append(("qbar closure", (p, q), (p2, q2)))
            if same != S.lens_oriented_equal(b, a):
                bad.append(("symmetric", (p, q), (p2, q2)))
            reversed_same = S.lens_reversed_equal(a, b)
            if reversed_same != (p == p2 and q2 in ((p - q) % p, (p - qbar) % p)):
                bad.append(("reversal", (p, q), (p2, q2)))
    _verdict("criterion 8: lens classification p <= 50", bad, _elapsed(start))


def test_criterion_9_negative_definiteness():
    start = time.perf_counter()
    bad = []
    for p, q in _coprime(300):
        if not G.is_contractible(S.hj_resolution(S.HJType(p, q))):
            bad.append(("hj chain", p, q))
    for p, q in _coprime(60, q_min=2):
        g = S.resolve_monomial(p, q).graph
        if not G.is_contractible(G.WeightedDualGraph(g.vertices, g.edges)):
            bad.append(("curve part", p, q))
    counterexample = G.WeightedDualGraph((G.Vertex(0, 1),), ((0, 0),))
    if G.is_contractible(counterexample):
        bad.append(("loop counterexample passed", None))
    if G.euler_normalized(counterexample, 0) != -1:
        bad.append(("normalized euler", None))
    _verdict("criterion 9: negative definiteness", bad, _elapsed(start))


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
