"""Deterministic command-line front end for the library.

Every subcommand prints exact integers/rationals or canonical JSON/DOT/SVG
text: no floats, no timestamps, keys sorted, so output is byte-identical
across runs and platforms.  Exit codes: 0 success, 1 usage error, 2 domain
error, 3 oracle mismatch (commands with --oracle recompute through the
independent brute-force path and fail loudly on disagreement), failed
internal invariant or any other exception, reported on one line.
Integers of any length are read and printed: CPython's int/str digit
limit is lifted while ``main`` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from . import cf, graphs, lattice, singularities as sing, zigzag
from .errors import DomainError, InternalError, LatticeCFError

# The --oracle recomputations are brute force, linear in p (hull rows, floor
# points, blow-ups): the largest p they are run for.
ORACLE_MAX_P = 10**5


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A minus and a digit start a value (-5/3, -3,2), never an option: no
        # option is spelled like a number.  argparse alone passes only -N and -N.N.
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        if any(c in text for c in ".eE"):  # Fraction reads "1e10000000" as 10^10000000
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_usage_error(f"cannot parse rational {text!r}; use P/Q or an integer"))


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _terms(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise SystemExit(_usage_error(f"cannot parse terms {text!r}; use comma-separated integers"))


def _bracket(terms) -> str:
    return "[" + ",".join(str(t) for t in terms) + "]"


def _cone(text: str) -> lattice.ConeNF:
    if text == "1/0":  # the regular cone, as `cone type` prints it
        return lattice.ConeNF(1, 0)
    return lattice.ConeNF(*_rational(text).as_integer_ratio())


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _chain_doc(chain: lattice.ConePolygon) -> dict:
    return {
        "points": [list(pt) for pt in chain.points],
        "weights": list(chain.weights),
        "vertices": list(chain.vertex_indices),
    }


def _report_doc(rep: lattice.DualityReport) -> dict:
    return {
        "schema": "lattice-cf/1",
        "type": "duality-report",
        "p": rep.cone.p,
        "q": rep.cone.q,
        "dual_p": rep.dual.p,
        "dual_q": rep.dual.q,
        "chain": _chain_doc(rep.chain),
        "dual_chain": {
            "points": [list(pt) for pt in rep.dual_points],
            "vertices": list(rep.dual_vertex_indices),
        },
        "images": [
            {
                "kind": im.kind,
                "start": im.start,
                "end": im.end,
                "length": im.length,
                "image": list(im.image),
                "image_index": im.image_index,
            }
            for im in rep.images
        ],
        "exceptional": [
            {
                "edge": [ex.edge_start, ex.edge_end],
                "length": ex.length,
                "image": list(ex.image),
                "is_vertex": ex.is_vertex,
                "expected_vertex": ex.expected_vertex,
            }
            for ex in rep.exceptional
        ],
        "images_on_dual": rep.images_on_dual,
        "vertices_covered": rep.vertices_covered,
        "orientation_respected": rep.orientation_respected,
        "exceptional_rule_ok": rep.exceptional_rule_ok,
    }


class _OracleMismatch(Exception):
    """An --oracle recomputation disagrees with the answer; ``main`` exits 3."""


def _checked(args, fast, oracle, *inputs, p: int, what: str):
    """``fast(*inputs)``, once ``oracle(*inputs)`` agrees with it if --oracle is given.

    With --oracle, a ``p`` above ``ORACLE_MAX_P`` is refused before either runs.
    """
    if args.oracle and p > ORACLE_MAX_P:
        raise DomainError(f"--oracle is brute force in p: p = {p} exceeds the bound {ORACLE_MAX_P}")
    answer = fast(*inputs)
    if args.oracle and answer != oracle(*inputs):
        raise _OracleMismatch(what)
    return answer


def _graph_text(args, graph: graphs.WeightedDualGraph) -> str:
    return graphs.to_dot(graph) if args.format == "dot" else graphs.to_json(graph) + "\n"


def _matrix(m: lattice.Mat2) -> str:
    (a, b), (c, d) = m.rows()
    return f"[[{a},{b}],[{c},{d}]]"


def _hj_type(text: str) -> sing.HJType:
    return sing.HJType(*_rational(text).as_integer_ratio())


def _cycle(text: str) -> sing.CuspCycle:
    return sing.CuspCycle(_terms(text))


# Handlers take the parsed arguments and return stdout text; one-liners live in _build_parser.
def _expand(args) -> str:
    expand = cf.expand_e if args.kind == "e" else cf.expand_hj
    return _bracket(expand(_rational(args.value)).terms) + "\n"


def _convert(args) -> str:
    terms = _terms(args.terms)
    return _bracket(cf.e_to_hj(terms) if args.target == "hj" else cf.hj_to_e(terms)) + "\n"


def _involute(args) -> str:
    value = cf.involute(_rational(args.value))
    if not args.terms:
        return f"{value}\n"
    e, hj = cf.expand_e(value).terms, cf.expand_hj(value).terms
    return f"{value}\ne: {_bracket(e)}\nhj: {_bracket(hj)}\n"


def _staircase(args) -> str:
    diagram = cf.staircase(_terms(args.terms))
    rows = zip(diagram.column_offsets(), diagram.rows)
    picture = "".join(" " * off + "*" * count + "\n" for off, count in rows)
    return picture + "dual: " + _bracket(cf.staircase_dual(diagram)) + "\n"


def _cone_type(args) -> str:
    nf, mat = lattice.cone_normal_form((args.ux, args.uy), (args.vx, args.vy))
    return f"{nf}\nmap: {_matrix(mat)}\n"


def _polygon(args) -> str:
    cone = _cone(args.value)
    chain = _checked(args, lattice.polygon, lattice.hull_oracle, cone, p=cone.p,
                     what="hull differs from the recursion chain")
    doc = {"schema": "lattice-cf/1", "type": "polygon", "p": cone.p, "q": cone.q}
    return _dump(doc | _chain_doc(chain))


_READINGS = {"hj": "hj_lambda", "hj-dual": "hj_involute", "e": "e_lambda", "e-dual": "e_involute"}


def _zigzag(args) -> str:
    diagram = zigzag.build(_rational(args.value))
    if args.read:
        return _bracket(zigzag.read(diagram, _READINGS[args.read])) + "\n"
    if args.format == "json":
        return _dump(zigzag.to_json_dict(diagram))
    return zigzag.render(diagram, args.format)


def _embdim(args) -> str:
    t = _hj_type(args.value)
    dim = _checked(args, sing.embdim, sing.embdim_oracle, t, p=t.p,
                   what="semigroup count differs from the formula")
    return f"{dim}\n"


def _blowup(args) -> str:
    types = sing.blowup_types(_hj_type(args.value))
    return "".join(("smooth" if t is None else str(t)) + "\n" for t in types)


def _lens_compare(args) -> str:
    a, b = sing.LensSpace(args.p, args.q), sing.LensSpace(args.p2, args.q2)
    same = (sing.lens_reversed_equal if args.reverse else sing.lens_oriented_equal)(a, b)
    relation = "orientation-reversing-diffeomorphic" if args.reverse else "oriented-diffeomorphic"
    return ("" if same else "not-") + relation + "\n"


def _trace(args) -> str:
    m = sing.cusp_monodromy(_cycle(args.terms))
    return f"{m.a + m.d}\n"


def _curve_resolve(args) -> str:
    resolution = _checked(args, sing.resolve_monomial, sing.blowup_oracle, args.p, args.q,
                          p=args.p, what="blow-up simulation differs from the diagram")
    return _graph_text(args, resolution.graph)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process and reused by every ``main``.

    Each command is declared once, here: its arguments and, as the ``run``
    default, its handler.  Handlers look up library functions when called.
    Parsing leaves no state on the tree, and usage errors and help text
    look up ``sys.stderr``/``sys.stdout`` when written, so redirected
    streams still receive them.
    """
    top = _Parser(prog="latticecf", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    def command(parent, name, help_text, run, *positionals, type=None, flag=None):
        parser = parent.add_parser(name, help=help_text)
        parser.set_defaults(run=run)
        for positional in positionals:
            parser.add_argument(positional, type=type)
        if flag:
            parser.add_argument(flag, action="store_true")
        return parser

    def group(name, help_text):
        parser = groups.add_parser(name, help=help_text)
        return functools.partial(command, parser.add_subparsers(dest="command", required=True))

    cf_cmd = group("cf", "continued-fraction algebra")
    p = cf_cmd("expand", "canonical expansion of a rational", _expand, "value")
    p.add_argument("--kind", choices=("e", "hj"), required=True)
    p = cf_cmd("convert", "rewrite terms in the other calculus", _convert, "terms")
    p.add_argument("--to", choices=("e", "hj"), required=True, dest="target")
    cf_cmd("involute", "value and expansions of x/(x-1)", _involute, "value", flag="--terms")
    cf_cmd("staircase", "point diagram of subtractive terms", _staircase, "terms")

    cone_cmd = group("cone", "lattice cone geometry")
    cone_cmd("type", "normal form of the cone on two rays", _cone_type,
             "ux", "uy", "vx", "vy", type=int)
    cone_cmd("polygon", "hull chain of a cone type", _polygon, "value", flag="--oracle")
    cone_cmd("dual", "normal form of the dual cone",
             lambda a: f"{lattice.dual_cone(_cone(a.value))}\n", "value")
    cone_cmd("duality-report", "edge-to-point duality data",
             lambda a: _dump(_report_doc(lattice.duality_map(_cone(a.value)))), "value")

    p = command(groups, "zigzag", "zigzag diagram of a rational > 1", _zigzag, "value")
    p.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p.add_argument("--read", choices=("hj", "hj-dual", "e", "e-dual"))

    sing_cmd = group("sing", "cyclic quotient singularities")
    p = sing_cmd("resolve", "minimal resolution chain",
                 lambda a: _graph_text(a, sing.hj_resolution(_hj_type(a.value))), "value")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    sing_cmd("embdim", "embedding dimension", _embdim, "value", flag="--oracle")
    sing_cmd("blowup", "singularities after one blow-up", _blowup, "value")

    lens_cmd = group("lens", "lens space classification")
    lens_cmd("compare", "diffeomorphism test", _lens_compare,
             "p", "q", "p2", "q2", type=int, flag="--reverse")
    lens_cmd("reverse", "orientation reversal",
             lambda a: f"{sing.lens_reverse(sing.LensSpace(a.p, a.q))}\n", "p", "q", type=int)

    cusp_cmd = group("cusp", "cusp cycles and monodromy")
    cusp_cmd("monodromy", "monodromy matrix of a cycle",
             lambda a: _matrix(sing.cusp_monodromy(_cycle(a.terms))) + "\n", "terms")
    cusp_cmd("trace", "monodromy trace", _trace, "terms")
    cusp_cmd("dual", "cycle of the supplementary cone",
             lambda a: f"{sing.cusp_dual(_cycle(a.terms))}\n", "terms")

    curve_cmd = group("curve", "monomial plane curves")
    p = curve_cmd("resolve", "embedded resolution dual graph", _curve_resolve, "p", "q", type=int)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--oracle", action="store_true")

    return top


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's int/str conversion digit limit, restoring it on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before CPython 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    with _unlimited_int_digits():
        args = _build_parser().parse_args(argv)
        try:
            text = args.run(args)
        except _OracleMismatch as exc:
            sys.stderr.write(f"oracle mismatch: {exc}\n")
            return 3
        except InternalError as exc:
            sys.stderr.write(f"internal error: {exc}\n")
            return 3
        except LatticeCFError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        except Exception as exc:  # a fault of the program: one line, never a traceback
            message = " ".join(str(exc).splitlines())
            sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
            return 3
        sys.stdout.write(text)
        return 0


if __name__ == "__main__":
    sys.exit(main())
