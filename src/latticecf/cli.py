"""Deterministic command-line front end for the library.

Every subcommand prints exact integers/rationals or canonical JSON/DOT/SVG
text: no floats, no timestamps, keys sorted, so output is byte-identical
across runs and platforms.  Exit codes: 0 success, 1 usage error, 2 domain
error, 3 oracle mismatch (commands with --oracle recompute through the
independent brute-force path and fail loudly on disagreement) or failed
internal invariant.  Integers of any length are read and printed: CPython's
int/str digit limit is lifted while ``main`` runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from . import cf, graphs, lattice, singularities as sing, zigzag
from .errors import InternalError, LatticeCFError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_usage_error(f"cannot parse rational {text!r}; use P/Q or an integer"))
    return value


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
    value = _rational(text)
    return lattice.ConeNF(value.numerator, value.denominator)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _polygon_doc(cone: lattice.ConeNF, chain: lattice.ConePolygon) -> dict:
    return {
        "schema": "lattice-cf/1",
        "type": "polygon",
        "p": cone.p,
        "q": cone.q,
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
        "chain": {
            "points": [list(pt) for pt in rep.chain.points],
            "weights": list(rep.chain.weights),
            "vertices": list(rep.chain.vertex_indices),
        },
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


def _build_parser() -> _Parser:
    top = _Parser(prog="latticecf", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    p_cf = sub.add_parser("cf", help="continued-fraction algebra")
    cf_sub = p_cf.add_subparsers(dest="command", required=True)
    p = cf_sub.add_parser("expand", help="canonical expansion of a rational")
    p.add_argument("--kind", choices=("e", "hj"), required=True)
    p.add_argument("value")
    p = cf_sub.add_parser("convert", help="rewrite terms in the other calculus")
    p.add_argument("--to", choices=("e", "hj"), required=True, dest="target")
    p.add_argument("terms")
    p = cf_sub.add_parser("involute", help="value and expansions of x/(x-1)")
    p.add_argument("value")
    p.add_argument("--terms", action="store_true")
    p = cf_sub.add_parser("staircase", help="point diagram of subtractive terms")
    p.add_argument("terms")

    p_cone = sub.add_parser("cone", help="lattice cone geometry")
    cone_sub = p_cone.add_subparsers(dest="command", required=True)
    p = cone_sub.add_parser("type", help="normal form of the cone on two rays")
    for name in ("ux", "uy", "vx", "vy"):
        p.add_argument(name, type=int)
    p = cone_sub.add_parser("polygon", help="hull chain of a cone type")
    p.add_argument("value")
    p.add_argument("--oracle", action="store_true")
    p = cone_sub.add_parser("dual", help="normal form of the dual cone")
    p.add_argument("value")
    p = cone_sub.add_parser("duality-report", help="edge-to-point duality data")
    p.add_argument("value")

    p = sub.add_parser("zigzag", help="zigzag diagram of a rational > 1")
    p.add_argument("value")
    p.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p.add_argument("--read", choices=("hj", "hj-dual", "e", "e-dual"))

    p_sing = sub.add_parser("sing", help="cyclic quotient singularities")
    sing_sub = p_sing.add_subparsers(dest="command", required=True)
    p = sing_sub.add_parser("resolve", help="minimal resolution chain")
    p.add_argument("value")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p = sing_sub.add_parser("embdim", help="embedding dimension")
    p.add_argument("value")
    p.add_argument("--oracle", action="store_true")
    p = sing_sub.add_parser("blowup", help="singularities after one blow-up")
    p.add_argument("value")

    p_lens = sub.add_parser("lens", help="lens space classification")
    lens_sub = p_lens.add_subparsers(dest="command", required=True)
    p = lens_sub.add_parser("compare", help="diffeomorphism test")
    for name in ("p", "q", "p2", "q2"):
        p.add_argument(name, type=int)
    p.add_argument("--reverse", action="store_true")
    p = lens_sub.add_parser("reverse", help="orientation reversal")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p_cusp = sub.add_parser("cusp", help="cusp cycles and monodromy")
    cusp_sub = p_cusp.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("monodromy", "monodromy matrix of a cycle"),
        ("trace", "monodromy trace"),
        ("dual", "cycle of the supplementary cone"),
    ):
        p = cusp_sub.add_parser(name, help=help_text)
        p.add_argument("terms")

    p_curve = sub.add_parser("curve", help="monomial plane curves")
    curve_sub = p_curve.add_subparsers(dest="command", required=True)
    p = curve_sub.add_parser("resolve", help="embedded resolution dual graph")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--oracle", action="store_true")

    return top


def _run(args) -> int:
    out = sys.stdout
    if args.group == "cf":
        if args.command == "expand":
            expand = cf.expand_e if args.kind == "e" else cf.expand_hj
            out.write(_bracket(expand(_rational(args.value)).terms) + "\n")
        elif args.command == "convert":
            terms = _terms(args.terms)
            result = cf.e_to_hj(terms) if args.target == "hj" else cf.hj_to_e(terms)
            out.write(_bracket(result) + "\n")
        elif args.command == "involute":
            value = cf.involute(_rational(args.value))
            out.write(f"{value}\n")
            if args.terms:
                out.write("e: " + _bracket(cf.expand_e(value).terms) + "\n")
                out.write("hj: " + _bracket(cf.expand_hj(value).terms) + "\n")
        elif args.command == "staircase":
            diagram = cf.staircase(_terms(args.terms))
            for off, count in zip(diagram.column_offsets(), diagram.rows):
                out.write(" " * off + "*" * count + "\n")
            out.write("dual: " + _bracket(cf.staircase_dual(diagram)) + "\n")
    elif args.group == "cone":
        if args.command == "type":
            nf, mat = lattice.cone_normal_form((args.ux, args.uy), (args.vx, args.vy))
            out.write(f"{nf}\n")
            (a, b), (c, d) = mat.rows()
            out.write(f"map: [[{a},{b}],[{c},{d}]]\n")
        elif args.command == "polygon":
            cone = _cone(args.value)
            chain = lattice.polygon(cone)
            if args.oracle and chain != lattice.hull_oracle(cone):
                sys.stderr.write("oracle mismatch: hull differs from the recursion chain\n")
                return 3
            out.write(_dump(_polygon_doc(cone, chain)) + "\n")
        elif args.command == "dual":
            out.write(f"{lattice.dual_cone(_cone(args.value))}\n")
        elif args.command == "duality-report":
            out.write(_dump(_report_doc(lattice.duality_map(_cone(args.value)))) + "\n")
    elif args.group == "zigzag":
        diagram = zigzag.build(_rational(args.value))
        if args.read:
            key = {
                "hj": "hj_lambda",
                "hj-dual": "hj_involute",
                "e": "e_lambda",
                "e-dual": "e_involute",
            }[args.read]
            out.write(_bracket(zigzag.read(diagram, key)) + "\n")
        elif args.format == "json":
            out.write(_dump(zigzag.to_json_dict(diagram)) + "\n")
        else:
            out.write(zigzag.render(diagram, args.format))
    elif args.group == "sing":
        value = _rational(args.value)
        t = sing.HJType(value.numerator, value.denominator)
        if args.command == "resolve":
            graph = sing.hj_resolution(t)
            text = graphs.to_dot(graph) if args.format == "dot" else graphs.to_json(graph) + "\n"
            out.write(text)
        elif args.command == "embdim":
            dim = sing.embdim(t)
            if args.oracle and dim != sing.embdim_oracle(t):
                sys.stderr.write("oracle mismatch: semigroup count differs from the formula\n")
                return 3
            out.write(f"{dim}\n")
        elif args.command == "blowup":
            for entry in sing.blowup_types(t):
                out.write(("smooth" if entry is None else str(entry)) + "\n")
    elif args.group == "lens":
        if args.command == "compare":
            a = sing.LensSpace(args.p, args.q)
            b = sing.LensSpace(args.p2, args.q2)
            if args.reverse:
                same = sing.lens_reversed_equal(a, b)
                out.write(("" if same else "not-") + "orientation-reversing-diffeomorphic\n")
            else:
                same = sing.lens_oriented_equal(a, b)
                out.write(("" if same else "not-") + "oriented-diffeomorphic\n")
        elif args.command == "reverse":
            out.write(f"{sing.lens_reverse(sing.LensSpace(args.p, args.q))}\n")
    elif args.group == "cusp":
        cycle = sing.CuspCycle(_terms(args.terms))
        if args.command == "monodromy":
            (a, b), (c, d) = sing.cusp_monodromy(cycle).rows()
            out.write(f"[[{a},{b}],[{c},{d}]]\n")
        elif args.command == "trace":
            m = sing.cusp_monodromy(cycle)
            out.write(f"{m.a + m.d}\n")
        elif args.command == "dual":
            out.write(f"{sing.cusp_dual(cycle)}\n")
    elif args.group == "curve":
        resolution = sing.resolve_monomial(args.p, args.q)
        if args.oracle and resolution != sing.blowup_oracle(args.p, args.q):
            sys.stderr.write("oracle mismatch: blow-up simulation differs from the diagram\n")
            return 3
        graph = resolution.graph
        text = graphs.to_dot(graph) if args.format == "dot" else graphs.to_json(graph) + "\n"
        out.write(text)
    return 0


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
            return _run(args)
        except InternalError as exc:
            sys.stderr.write(f"internal error: {exc}\n")
            return 3
        except LatticeCFError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
