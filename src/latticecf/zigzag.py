"""Zigzag diagrams: both hull chains of a number drawn around one cone.

For a rational ``t > 1`` written in subtractive block form
``t = [(2)^m1, n1+3, (2)^m2, ..., ns+3, (2)^m_{s+1}]-``, the diagram holds
the chain of the cone of type ``t`` on the right (edge lengths ``m_i + 1``,
vertex weights ``n_i + 3``) and the supplementary chain on the left (edge
lengths ``1, n_1+1, ..., n_s+1, 1``, vertex weights ``m_1+2, m_2+3, ...,
m_{s+1}+2``), the two joined at the apex.  A zigzag line connects each
right vertex with the two opposite left vertices; the governing rule is
that a vertex weight equals the length of its opposite edge plus the
number of that edge's vertices away from the three base points.

All four expansions of the pair ``t, t/(t-1)`` can be read off the
diagram; :func:`read` exposes them and they agree with the algebraic
computations of :mod:`latticecf.cf`.
"""

from __future__ import annotations

from fractions import Fraction

from ._values import Value
from .cf import _edge_lengths, _involute_e, _involute_runs, _unary, block_form
from .errors import DomainError

READINGS = ("hj_lambda", "hj_involute", "e_involute", "e_lambda")


class ZigzagDiagram(Value):
    """Decorated double chain of a rational number > 1.

    ``right_edge_lengths``/``right_vertex_weights`` describe the chain of
    the cone itself, ``left_*`` the supplementary chain including its two
    unit end edges.  ``extreme_is_vertex`` tells whether the first and last
    left points are genuine vertices (weight >= 3) of their chain.
    """

    __slots__ = (
        "value", "right_edge_lengths", "right_vertex_weights", "left_edge_lengths",
        "left_vertex_weights", "extreme_is_vertex",
    )
    value: Fraction
    right_edge_lengths: tuple[int, ...]
    right_vertex_weights: tuple[int, ...]
    left_edge_lengths: tuple[int, ...]
    left_vertex_weights: tuple[int, ...]
    extreme_is_vertex: tuple[bool, bool]

    def __init__(self, value: Fraction, right_edge_lengths: tuple[int, ...],
                 right_vertex_weights: tuple[int, ...], left_edge_lengths: tuple[int, ...],
                 left_vertex_weights: tuple[int, ...], extreme_is_vertex: tuple[bool, bool]):
        self._value = value
        self._right_edge_lengths = right_edge_lengths
        self._right_vertex_weights = right_vertex_weights
        self._left_edge_lengths = left_edge_lengths
        self._left_vertex_weights = left_vertex_weights
        self._extreme_is_vertex = extreme_is_vertex

    @property
    def s(self) -> int:
        """Number of interior vertices of the right chain."""
        return len(self.right_vertex_weights)


def build(value) -> ZigzagDiagram:
    """Construct the diagram of a rational number > 1 from its block form.

    The block form comes straight from the Euclidean quotients
    (:func:`latticecf.cf.block_form`), so this costs O(log p) divmods on
    integers of the bit length of p and O(s) further steps, however long
    the unary expansion of the value is.  The left chain is the block form
    of t/(t-1) from Hirzebruch's involution (:func:`latticecf.cf.involute_hj`),
    runs as edges and large terms as weights, so :func:`rule_ok` checks the
    paper's weight rule against that involution.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    p, q = value.numerator, value.denominator
    if p <= q:
        raise DomainError(f"zigzag diagrams need a value > 1, got {value}")
    ms, ns = block_form(p, q)
    runs, big = _involute_runs(ms, ns)
    right_edges = tuple([m + 1 for m in ms])
    right_weights = tuple([n + 3 for n in ns])
    left_edges = tuple([r + 1 for r in runs])
    left_weights = tuple([b + 3 for b in big])
    flags = (left_weights[0] >= 3, left_weights[-1] >= 3)
    return ZigzagDiagram(value, right_edges, right_weights, left_edges, left_weights, flags)


def read(d: ZigzagDiagram, which: str) -> tuple[int, ...]:
    """One of the four expansions encoded by the diagram.

    ``hj_lambda`` reads the right chain, ``hj_involute`` the left one,
    ``e_involute`` alternates the right edge lengths with the inner left
    ones, and ``e_lambda`` applies the two-case involution rule to the
    latter.  All four are read off the diagram's own chains; on a built
    diagram they agree with expanding the value and its involute directly.
    """
    right_runs = [e - 1 for e in d.right_edge_lengths]
    if which == "hj_lambda":
        return _unary(right_runs, [w - 3 for w in d.right_vertex_weights])
    if which == "hj_involute":
        return _unary([e - 1 for e in d.left_edge_lengths], [w - 3 for w in d.left_vertex_weights])
    edges = _edge_lengths(right_runs, [e - 1 for e in d.left_edge_lengths[1:-1]])
    if which == "e_involute":
        return edges
    if which == "e_lambda":
        return _involute_e(edges)
    raise DomainError(f"unknown reading {which!r}; choose one of {READINGS}")


def rule_ok(d: ZigzagDiagram) -> bool:
    """Check the shape of the diagram, its value, and the weight rule at every vertex.

    The four chains must be sequences of integers of lengths s+1 (right
    edges), s (right weights), s+2 (left edges) and s+1 (left weights), and
    the left chain must start and end with a unit edge.  The value must be
    a rational > 1 whose block form is the right chain, so that it equals
    the chain's reading, and ``extreme_is_vertex`` must say whether the end
    left weights reach 3.  Each vertex weight must equal the length of the
    opposite edge plus the number of its endpoints distinct from the two
    base points and the apex.  A malformed diagram gives False; this never
    raises.
    """
    try:
        re, rw, le, lw, flags = map(tuple, (d.right_edge_lengths, d.right_vertex_weights,
                                            d.left_edge_lengths, d.left_vertex_weights,
                                            d.extreme_is_vertex))
    except TypeError:  # a field that is no sequence
        return False
    s = len(rw)
    if (len(re), len(le), len(lw)) != (s + 1, s + 2, s + 1):
        return False
    if not all(isinstance(x, int) for x in re + rw + le + lw):
        return False
    if le[0] != 1 or le[-1] != 1 or flags != (lw[0] >= 3, lw[-1] >= 3):
        return False
    value = d.value
    if not isinstance(value, (int, Fraction)) or value <= 1:
        return False
    if block_form(value.numerator, value.denominator) != (
            tuple([e - 1 for e in re]), tuple([w - 3 for w in rw])):
        return False
    # right vertex j (1-based) faces the left edge between V_j' and V_{j+1}'
    for j in range(1, s + 1):
        if rw[j - 1] != le[j] + 2:
            return False
    # left vertex j faces the right edge between V_{j-1} and V_j
    for j in range(1, s + 2):
        ends = 2
        if j == 1:
            ends -= 1  # that edge starts at the base point
        if j == s + 1:
            ends -= 1  # that edge ends at the apex
        if lw[j - 1] != re[j - 1] + ends:
            return False
    return True


# rendering ------------------------------------------------------------

_DH = 6          # rows between consecutive zigzag vertices
_LX, _RX = 10, 16
_AX, _ASH = 13, 3  # apex column and its height above the last left point


def _zig_rows(d: ZigzagDiagram) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The layout, bottom-up: (row, col) of each zigzag vertex from V0, then the
    rows of the left and the right chain points from the baseline, the right
    ones up to the bend into the apex."""
    m = 2 * d.s + 1
    zig = [(_ASH + _DH * (m - k), _LX if k % 2 else _RX) for k in range(m + 1)]
    rows = [row for row, _ in zig]
    return zig, rows[:1] + rows[1::2], rows[::2] + [_ASH]


def render(d: ZigzagDiagram, format: str = "ascii") -> str:
    """Deterministic text rendering; ``format`` is "ascii" or "svg"."""
    if format == "ascii":
        return _render_ascii(d)
    if format == "svg":
        return _render_svg(d)
    raise DomainError(f"unknown format {format!r}; choose ascii or svg")


def _render_ascii(d: ZigzagDiagram) -> str:
    zig, left_rows, right_rows = _zig_rows(d)
    baseline = left_rows[0]
    grid: dict[tuple[int, int], str] = {}
    # a left label of more than 3 digits would reach the chain column: it
    # starts further left by its overflow, and every line is padded by it
    pad = max(0, *(len(str(x)) - 3 for x in d.left_vertex_weights + d.left_edge_lengths))

    def put(row: int, col: int, text: str):
        for i, ch in enumerate(text):
            grid[(row, col + i)] = ch

    # baseline with its three marked points
    for c in range(_LX, _RX + 1):
        grid[(baseline, c)] = "-"
    put(baseline, _LX, "*")
    put(baseline, _AX, "O")
    put(baseline, _RX, "*")
    put(baseline + 1, _LX - 1, "V0'")
    put(baseline + 1, _RX, "V0")

    # the two curves: vertical runs capped by 45-degree bends into the apex
    for col in (_LX, _RX):
        for row in range(_ASH, baseline):
            grid[(row, col)] = "|"
    for t in range(1, _ASH):
        grid[(_ASH - t, _LX + t)] = "/"
        grid[(_ASH - t, _RX - t)] = "\\"
    put(0, _AX, "A+")
    grid[(_ASH, _LX)] = "*"
    grid[(_ASH, _RX)] = "|"

    # zigzag chords between consecutive marked points
    for (r1, c1), (r2, c2) in zip(zig, zig[1:]):
        step = 1 if c2 > c1 else -1
        ch = "/" if step > 0 else "\\"
        for t in range(1, _DH):
            grid[(r1 - t, c1 + step * t)] = ch

    # marked points with their weights
    for row, w in zip(left_rows[1:], d.left_vertex_weights):
        put(row, _LX, "*")
        put(row, _LX - 5 - pad, f"({w})".rjust(4))
    for row, w in zip(right_rows[1:], d.right_vertex_weights):
        put(row, _RX, "*")
        put(row, _RX + 2, f"({w})")

    # edge lengths beside the runs they decorate
    for length, (lo, hi) in zip(d.left_edge_lengths, zip(left_rows, left_rows[1:])):
        put((lo + hi) // 2, _LX - 3 - pad, str(length).rjust(2))
    put(1, _LX, str(d.left_edge_lengths[-1]))
    for length, (lo, hi) in zip(d.right_edge_lengths, zip(right_rows, right_rows[1:])):
        put((lo + hi) // 2, _RX + 2, str(length))

    nrows = baseline + 2
    ncols = max(c for _, c in grid) + 1
    lines = [f"ZZ({d.value})"]
    for r in range(nrows):
        lines.append("".join(grid.get((r, c), " ") for c in range(-pad, ncols)).rstrip())
    return "\n".join(lines) + "\n"


def _render_svg(d: ZigzagDiagram) -> str:
    zig, left_rows, right_rows = _zig_rows(d)

    def xy(row: int, col: int) -> tuple[int, int]:
        return 16 * col - 96, 16 * row + 32

    baseline = left_rows[0]
    apex = xy(0, _AX)
    left_pts = [xy(row, _LX) for row in left_rows] + [apex]
    right_pts = [xy(row, _RX) for row in right_rows] + [apex]
    zig_pts = [xy(r, c) for r, c in zig]

    def path(points, dash: bool = False) -> str:
        data = "M " + " L ".join(f"{x} {y}" for x, y in points)
        extra = ' stroke-dasharray="4 3"' if dash else ""
        return f'<path d="{data}" fill="none" stroke="black"{extra}/>'

    width = 16 * (_RX + 8) - 96
    height = 16 * (baseline + 2) + 32
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        path([xy(baseline, _LX - 2), xy(baseline, _RX + 2)]),
        path(left_pts),
        path(right_pts),
        path(zig_pts, dash=True),
    ]
    for x, y in sorted(set(left_pts[:-1] + right_pts[:-2] + [apex, xy(baseline, _AX)])):
        out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')

    def text(x: int, y: int, s: str) -> str:
        return f'<text x="{x}" y="{y}" font-size="12">{s}</text>'

    out.append(text(apex[0] - 8, apex[1] - 8, "A+"))
    out.append(text(left_pts[0][0] - 28, left_pts[0][1] + 14, "V0'"))
    out.append(text(right_pts[0][0] + 8, right_pts[0][1] + 14, "V0"))
    ox, oy = xy(baseline, _AX)
    out.append(text(ox - 4, oy + 14, "O"))
    for (x, y), w in zip(left_pts[1:], d.left_vertex_weights):
        out.append(text(x - 36, y + 4, f"({w})"))
    for (x, y), w in zip(right_pts[1:], d.right_vertex_weights):
        out.append(text(x + 10, y + 4, f"({w})"))
    for length, ((x1, y1), (x2, y2)) in zip(d.left_edge_lengths, zip(left_pts, left_pts[1:])):
        out.append(text((x1 + x2) // 2 - 14, (y1 + y2) // 2, str(length)))
    for length, ((x1, y1), (x2, y2)) in zip(d.right_edge_lengths, zip(right_pts, right_pts[1:])):
        out.append(text((x1 + x2) // 2 + 10, (y1 + y2) // 2, str(length)))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def to_json_dict(d: ZigzagDiagram) -> dict:
    """JSON-ready description used by the command-line front end."""
    return {
        "schema": "lattice-cf/1",
        "type": "zigzag",
        "lambda": str(d.value),
        "involute": str(d.value / (d.value - 1)),
        "right": {
            "edge_lengths": list(d.right_edge_lengths),
            "vertex_weights": list(d.right_vertex_weights),
        },
        "left": {
            "edge_lengths": list(d.left_edge_lengths),
            "vertex_weights": list(d.left_vertex_weights),
        },
        "extreme_is_vertex": list(d.extreme_is_vertex),
        "readings": {name: list(read(d, name)) for name in READINGS},
    }
