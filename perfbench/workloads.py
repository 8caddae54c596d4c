"""Inputs, task pipelines and output checks of the three workloads.

A workload is a *deck*: a list of tasks made from the seed alone, run in
whole passes.  A task calls the library only through ``tr.call(layer, fn,
*args)``, so the tracer can time each call from outside; its outputs are
checked after its timer stops.

* ``sweep``: every coprime (p, q) with 1 <= q < p <= SWEEP_P, each through
  the full verification pipeline with the brute-force oracles.
* ``deep``: few, large inputs (long rationals, long unary runs, long cusp
  cycles, negative-definite chains); no oracles, which are exponential in
  the bit length.
* ``cli``: one ``python -m latticecf`` process per task, compared byte for
  byte with the in-process ``cli.main`` result.
"""

from __future__ import annotations

import compileall
import io
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from latticecf import cf, cli, graphs as G, lattice, singularities as S, zigzag as Z

from spans import LayerFailure

CF, LAT, GR, SING, ZZ, CLI = "cf", "lattice", "graphs", "singularities", "zigzag", "cli"
LIBRARY = (CF, LAT, GR, SING, ZZ)  # the layers called in-process

SWEEP_P = 70

# Every deck holds at least 100 tasks, so that a p90 over one latency per
# task has ten samples beyond it.

# deep deck: number of tasks per family and the size range each spans
DEEP_RATIONALS, RATIONAL_BITS = 14, (256, 4096)
DEEP_LONG_RUNS, LONG_RUN_TERMS = 2, (10_000, 40_000)
DEEP_CUSPS, CUSP_LENGTH = 28, (500, 3000)
DEEP_MINORS, MINORS_VERTICES = 28, (30, 60)
DEEP_FUNDAMENTAL, FUNDAMENTAL_VERTICES = 28, (500, 2000)

CLI_VARIANTS = 15  # inputs per command in one cli pass
SPAWN_TIMEOUT_S = 60


@dataclass(frozen=True)
class Task:
    family: str
    bits: int  # bit length of p, 0 for inputs that are not rationals
    args: tuple


@dataclass
class Context:
    """What the tasks of one run share besides their inputs."""

    root: str
    env: dict = field(default_factory=dict)  # environment of cli children
    reference: dict = field(default_factory=dict)  # cli argv -> (exit code, stdout)


class Checks:
    """Failures per layer and oracle agreement, filled outside the timers."""

    def __init__(self):
        self.failed = Counter()  # layer -> failed checks
        self.oracle = {LAT: [0, 0], SING: [0, 0]}  # layer -> [agreed, compared]
        self.task_failures: list[str] = []
        self.first: list[str] = []  # descriptions of the first failures

    def expect(self, layer: str, ok: bool, what: str):
        if not ok:
            self.failed[layer] += 1
            self.task_failures.append(layer)
            if len(self.first) < 5:
                self.first.append(f"{layer}: {what}")

    def compare(self, layer: str, ok: bool, what: str):
        """An oracle comparison: counted for the agreement ratio, then checked."""
        self.oracle[layer][0] += ok
        self.oracle[layer][1] += 1
        self.expect(layer, ok, what)


def sizes(args: tuple, result) -> tuple[int, int, int]:
    """(terms, vertices, bytes) attributes of a call span.

    They measure what the call returned; a call that answers a question
    about a graph (is it contractible?) is given the size of that graph.
    """
    if isinstance(result, cf.CFExpansion):
        return len(result.terms), 0, 0
    if isinstance(result, tuple) and result and isinstance(result[0], int):
        return len(result), 0, 0
    if isinstance(result, cf.Staircase):
        return len(result.rows), 0, 0
    if isinstance(result, lattice.ConePolygon):
        return len(result.weights), len(result.points), 0
    if isinstance(result, lattice.DualityReport):
        return len(result.chain.weights), len(result.chain.points) + len(result.dual_points), 0
    if isinstance(result, Z.ZigzagDiagram):
        return len(result.right_vertex_weights), 0, 0
    if isinstance(result, (G.WeightedDualGraph, S.CurveResolution, S.CuspCycle)):
        return 0, len(result), 0
    if isinstance(result, G.Cycle):
        return 0, len(result.coefficients), 0
    if isinstance(result, str):
        return 0, 0, len(result.encode())
    if args and isinstance(args[0], G.WeightedDualGraph):
        return 0, len(args[0]), 0
    return 0, 0, 0


# decks ------------------------------------------------------------------


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False,
            spread: float = 0.2) -> list[float]:
    """One value from each of n equal strata of [lo, hi].

    Each is drawn uniformly from the middle ``spread`` share of its stratum,
    so every seed gets nearly the same size profile and mostly the contents
    vary: a deck's cost then barely depends on the seed.
    """
    out = []
    for i in range(n):
        u = (i + 0.5 + spread * (rng.random() - 0.5)) / n
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    return out


def _rational_task(family: str, p: int, q: int) -> Task:
    return Task(family, p.bit_length(), (p, q, Fraction(p, q), lattice.ConeNF(p, q), S.HJType(p, q)))


def sweep_deck(seed: int) -> list[Task]:
    rng = random.Random(f"sweep:{seed}")
    pairs = [(p, q) for p in range(2, SWEEP_P + 1) for q in range(1, p) if math.gcd(p, q) == 1]
    rng.shuffle(pairs)
    deck = []
    for p, q in pairs:
        kind = rng.choice((cf.E, cf.HJ))
        low = 1 if kind == cf.E else 2
        seq = tuple(rng.randint(low, 9) for _ in range(rng.randint(2, 40)))
        base = _rational_task("pair", p, q)
        deck.append(Task("pair", base.bits, base.args + (kind, seq)))
    return deck


def _quotient_sums(p: int, q: int) -> tuple[int, int]:
    """Sums of the odd- and of the even-position additive quotients of p/q."""
    sums = [0, 0]
    k = 0
    while q:
        a, r = divmod(p, q)
        sums[k] += a
        k ^= 1
        p, q = q, r
    return sums[0], sums[1]


def _random_rational(rng: random.Random, bits: int) -> tuple[int, int]:
    """Random p of the given bit length over a random q, with a typical unary size.

    The sums of the odd- and of the even-position additive quotients set
    the unary sizes (of p/(p-q) and of p/q), and they vary widely from one
    draw to the next.  A draw is kept only when both sums lie within 8% of
    0.45 * bits * ln(bits), close to their medians, so that the cost of a
    rational depends on its bit length and hardly on the seed.
    """
    target = 0.45 * bits * math.log(bits)
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1))
        q = rng.randrange(2, p)
        if math.gcd(p, q) == 1 and all(abs(s / target - 1) <= 0.08 for s in _quotient_sums(p, q)):
            return p, q


def _long_run(rng: random.Random, unary: int) -> tuple[int, int]:
    """A rational whose subtractive expansion has about ``unary`` terms.

    Its additive expansion is 20-60 small quotients with one to three
    even-position quotients of 10^3..10^5 that carry the unary length.
    """
    terms = [rng.randint(1, 9) for _ in range(rng.randint(20, 60))]
    terms[-1] = rng.randint(2, 9)  # canonical: no trailing 1
    big = rng.sample(range(1, len(terms) - 1, 2), rng.randint(1, 3))
    shares = [rng.uniform(1, 2) for _ in big]
    for i, s in zip(big, shares):
        terms[i] = max(1000, round(unary * s / sum(shares)))
    x = cf.eval_terms(cf.E, terms)
    return x.numerator, x.denominator


def _cycle_weights(rng: random.Random, n: int) -> tuple[int, ...]:
    w = [rng.randint(2, 5) for _ in range(n)]
    w[rng.randrange(n)] = rng.randint(3, 5)
    return tuple(w)


def _chain_weights(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(-rng.randint(2, 4) for _ in range(n))


def deep_deck(seed: int) -> list[Task]:
    """Families in turn, sizes ascending within each.

    The order is fixed, not seeded, so that the sequence of allocations,
    and with it the peak RSS, is the same for every seed.
    """
    rng = random.Random(f"deep:{seed}")
    deck = []
    for b in _strata(rng, DEEP_RATIONALS, *RATIONAL_BITS, log=True):
        deck.append(_rational_task("rational", *_random_rational(rng, round(b))))
    for n in _strata(rng, DEEP_LONG_RUNS, *LONG_RUN_TERMS, log=True):
        deck.append(_rational_task("long_run", *_long_run(rng, round(n))))
    for n in _strata(rng, DEEP_CUSPS, *CUSP_LENGTH):
        deck.append(Task("cusp", 0, (_cycle_weights(rng, round(n)),)))
    for n in _strata(rng, DEEP_MINORS, *MINORS_VERTICES):
        deck.append(Task("minors", 0, (_chain_weights(rng, round(n)),)))
    for n in _strata(rng, DEEP_FUNDAMENTAL, *FUNDAMENTAL_VERTICES):
        deck.append(Task("fundamental", 0, (_chain_weights(rng, round(n)),)))
    return deck


def cli_deck(seed: int) -> list[Task]:
    """One command per README group, CLI_VARIANTS small inputs each."""
    rng = random.Random(f"cli:{seed}")
    deck = []
    for _ in range(CLI_VARIANTS):
        while True:
            p = rng.randint(5, 60)
            q = rng.randint(2, p - 1)
            if math.gcd(p, q) == 1:
                break
        q2 = rng.choice([k for k in range(1, p) if math.gcd(p, k) == 1])
        cycle = _cycle_weights(rng, rng.randint(3, 12))
        x = f"{p}/{q}"
        for argv in (
            ("cf", "expand", "--kind", rng.choice(("e", "hj")), x),
            ("cone", "polygon", x, "--oracle"),
            ("zigzag", x, "--format", rng.choice(("ascii", "svg", "json"))),
            ("sing", "embdim", x, "--oracle"),
            ("lens", "compare", str(p), str(q), str(p), str(q2)),
            ("cusp", "trace", ",".join(map(str, cycle))),
            ("curve", "resolve", str(p), str(q), "--format", "json", "--oracle"),
        ):
            deck.append(Task("cli", 0, argv))
    rng.shuffle(deck)
    return deck


DECKS = {"sweep": sweep_deck, "deep": deep_deck, "cli": cli_deck}


# pipelines and checks -----------------------------------------------------


def _run_core(tr, a) -> dict:
    """The pipeline shared by sweep pairs and deep rationals."""
    p, q, x, cone, t = a[:5]
    c = tr.call
    o = {}
    o["e"] = e = c(CF, cf.expand_e, x).terms
    o["h"] = h = c(CF, cf.expand_hj, x).terms
    o["eval_e"] = c(CF, cf.eval_terms, cf.E, e)
    o["eval_h"] = c(CF, cf.eval_terms, cf.HJ, h)
    o["e_to_hj"] = c(CF, cf.e_to_hj, e)
    o["hj_to_e"] = c(CF, cf.hj_to_e, h)
    o["inv_e"] = c(CF, cf.involute_e, e)
    o["inv_h"] = c(CF, cf.involute_hj, h)
    o["polygon"] = c(LAT, lattice.polygon, cone)
    o["duality"] = c(LAT, lattice.duality_map, cone)
    o["embdim"] = c(SING, S.embdim, t)
    o["blowup"] = c(SING, S.blowup_types, t)
    if q >= 2:
        o["curve"] = c(SING, S.resolve_monomial, p, q)
    o["contractible"] = c(GR, G.is_contractible, c(SING, S.hj_resolution, t))
    o["zigzag"] = c(ZZ, Z.build, x)
    return o


def _check_core(a, o, chk: Checks):
    p, q, x = a[:3]
    e, h = o["e"], o["h"]
    image = x / (x - 1)
    chk.expect(CF, o["eval_e"] == x and o["eval_h"] == x, f"eval(expand({x})) != {x}")
    chk.expect(CF, o["e_to_hj"] == h and o["hj_to_e"] == e, f"e_to_hj/hj_to_e of {x}")
    chk.expect(CF, o["inv_e"] == cf.expand_e(image).terms, f"involute_e of {x}")
    chk.expect(CF, o["inv_h"] == cf.expand_hj(image).terms, f"involute_hj of {x}")
    chk.expect(CF, cf.involute_e(o["inv_e"]) == e and cf.involute_hj(o["inv_h"]) == h,
               f"involutions of {x} are not involutive")
    chk.expect(LAT, o["polygon"].weights == h, f"polygon weights of {x}")
    rep = o["duality"]
    chk.expect(LAT, rep.images_on_dual and rep.vertices_covered and rep.orientation_respected
               and rep.exceptional_rule_ok, f"duality clauses of {x}")
    chk.expect(GR, o["contractible"] is True, f"resolution of {x} not contractible")
    chk.expect(SING, o["embdim"] == 2 + len(o["inv_h"]), f"embdim of {x}")
    gaps = sum(1 if b is None else b.p for b in o["blowup"])
    chk.expect(SING, gaps == max(len(h) - 1, 0), f"blow-up gaps of {x}")
    if "curve" in o:
        chk.expect(SING, len(o["curve"]) == sum(e), f"curve resolution size of {x}")


def _check_readings(o, readings: dict, chk: Checks):
    want = {"hj_lambda": o["h"], "e_lambda": o["e"], "hj_involute": o["inv_h"], "e_involute": o["inv_e"]}
    for name, terms in want.items():
        chk.expect(ZZ, tuple(readings[name]) == tuple(terms), f"zigzag reading {name}")


def run_pair(tr, a, ctx) -> dict:
    p, q, x, cone, t, kind, seq = a
    c = tr.call
    o = _run_core(tr, a)
    o["stair"] = c(CF, cf.staircase_dual, c(CF, cf.staircase, o["h"]))
    o["seq"] = c(CF, cf.eval_terms, kind, seq)
    sign = cf.PLUS if kind == cf.E else cf.MINUS
    o["seq_z"] = (c(CF, cf.continuant, sign, seq), c(CF, cf.continuant, sign, seq[1:]))
    o["hull"] = c(LAT, lattice.hull_oracle, cone)
    o["dual"] = c(LAT, lattice.dual_cone, cone)
    o["embdim_oracle"] = c(SING, S.embdim_oracle, t)
    if q >= 2:
        o["curve_oracle"] = c(SING, S.blowup_oracle, p, q)
    d = o["zigzag"]
    o["readings"] = {name: c(ZZ, Z.read, d, name) for name in Z.READINGS}
    return o


def check_pair(a, o, chk: Checks, ctx):
    p, q, x, cone, t, kind, seq = a
    _check_core(a, o, chk)
    _check_readings(o, o["readings"], chk)
    chk.expect(CF, o["stair"] == o["inv_h"], f"staircase dual of {x}")
    chk.expect(CF, o["seq"] == Fraction(*o["seq_z"]), f"eval vs continuants of {seq}")
    chk.compare(LAT, o["polygon"] == o["hull"], f"polygon of {x} vs hull oracle")
    chk.expect(LAT, o["dual"] == lattice.ConeNF(p, p - q), f"dual cone of {x}")
    chk.compare(SING, o["embdim"] == o["embdim_oracle"], f"embdim of {x} vs semigroup oracle")
    if q >= 2:
        chk.compare(SING, o["curve"] == o["curve_oracle"], f"curve {p},{q} vs blow-up oracle")


def run_rational(tr, a, ctx) -> dict:
    o = _run_core(tr, a)
    d = o["zigzag"]
    o["json"] = tr.call(ZZ, Z.to_json_dict, d)
    o["ascii"] = tr.call(ZZ, Z.render, d, "ascii")
    o["svg"] = tr.call(ZZ, Z.render, d, "svg")
    return o


def check_rational(a, o, chk: Checks, ctx):
    x = a[2]
    _check_core(a, o, chk)
    _check_readings(o, o["json"]["readings"], chk)
    chk.expect(ZZ, o["ascii"].startswith(f"ZZ({x})\n"), "ascii rendering header")
    chk.expect(ZZ, o["svg"].endswith("</svg>\n"), "svg rendering trailer")


def run_cusp(tr, a, ctx) -> dict:
    c = tr.call
    cycle = c(SING, S.CuspCycle, a[0])
    return {
        "cycle": cycle,
        "monodromy": c(SING, S.cusp_monodromy, cycle),
        "trace": c(SING, S.cusp_trace_formula, cycle),
        "dual": c(SING, S.cusp_dual, cycle),
    }


def check_cusp(a, o, chk: Checks, ctx):
    m = o["monodromy"]
    n = len(a[0])
    chk.expect(SING, m.det() == 1 and m.a + m.d == o["trace"], f"trace formula, cycle length {n}")
    chk.expect(SING, S.cusp_dual(o["dual"]) == o["cycle"], f"cusp_dual twice, cycle length {n}")


def run_minors(tr, a, ctx) -> dict:
    g = tr.call(GR, G.chain, a[0])
    return {"graph": g, "ok": tr.call(GR, G.is_contractible_minors, g)}


def check_minors(a, o, chk: Checks, ctx):
    n = len(a[0])
    chk.expect(GR, o["ok"] is True and G.is_contractible(o["graph"]), f"minors on chain of {n}")


def run_fundamental(tr, a, ctx) -> dict:
    return {"cycle": tr.call(GR, G.fundamental_cycle, tr.call(GR, G.chain, a[0]))}


def check_fundamental(a, o, chk: Checks, ctx):
    """Positive, and meets every component non-positively (O(n) on a chain)."""
    w, z = a[0], o["cycle"].coefficients
    n = len(w)
    ok = len(z) == n and min(z) >= 1
    for i in range(n if ok else 0):
        pair = w[i] * z[i] + (z[i - 1] if i else 0) + (z[i + 1] if i + 1 < n else 0)
        ok = ok and pair <= 0
    chk.expect(GR, ok, f"fundamental cycle on chain of {n}")


def spawn(ctx: Context, argv: tuple) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ctx.root, env=ctx.env,
        capture_output=True, timeout=SPAWN_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_cli(tr, a, ctx) -> dict:
    span = tr.begin(a[0], CLI)
    try:
        code, out = spawn(ctx, ("-m", "latticecf") + a)
    except (OSError, subprocess.SubprocessError) as exc:
        tr.end(span)
        raise LayerFailure(CLI, a[0]) from exc
    tr.end(span, len(out))
    return {"code": code, "out": out}


def check_cli(a, o, chk: Checks, ctx):
    code, out = ctx.reference[a]
    chk.expect(CLI, o["code"] == code, f"exit code of {' '.join(a)}")
    chk.expect(CLI, o["out"] == out, f"stdout of {' '.join(a)}")


def calibrate(tr, ctx: Context):
    """Spawn a bare interpreter and an import-only one, outside any task."""
    for name, argv in (("interp", ("-c", "pass")), ("import", ("-c", "import latticecf.cli"))):
        span = tr.begin(name, CLI)
        spawn(ctx, argv)
        tr.end(span)


FAMILIES = {
    "pair": (run_pair, check_pair),
    "rational": (run_rational, check_rational),
    "long_run": (run_rational, check_rational),
    "cusp": (run_cusp, check_cusp),
    "minors": (run_minors, check_minors),
    "fundamental": (run_fundamental, check_fundamental),
    "cli": (run_cli, check_cli),
}


def cli_reference(argv: tuple) -> tuple[int, bytes]:
    """Exit code and stdout of ``cli.main`` run in this process."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def warm_up_deck(workload: str, deck: list[Task]) -> list[Task]:
    """Tasks run untimed during set-up: small ones of every family the workload has."""
    if workload == "sweep":
        return deck[:200]
    if workload == "deep":
        rng = random.Random("deep:warm-up")
        return [
            _rational_task("rational", *_random_rational(rng, 64)),
            _rational_task("long_run", *_long_run(rng, 2000)),
            Task("cusp", 0, (_cycle_weights(rng, 50),)),
            Task("minors", 0, (_chain_weights(rng, 10),)),
            Task("fundamental", 0, (_chain_weights(rng, 50),)),
        ]
    return []


def setup(workload: str, seed: int, root: str) -> tuple[list[Task], Context]:
    """Generate the deck and prepare everything the timed tasks need.

    For ``cli`` this also writes the package's .pyc files, captures the
    in-process reference outputs and spawns one command, so timed spawns
    neither compile nor meet a cold file cache.
    """
    deck = DECKS[workload](seed)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    ctx = Context(root, env)
    if workload == "cli":
        compileall.compile_dir(os.path.join(root, "src", "latticecf"), quiet=1)
        ctx.reference = {t.args: cli_reference(t.args) for t in deck}
        spawn(ctx, ("-m", "latticecf") + deck[0].args)
    return deck, ctx
