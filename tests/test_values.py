"""The contract every value class of the package keeps.

Value objects are slotted and immutable: equality and hashing go by class
and fields, ``repr`` has the ``Name(field=value, ...)`` form, assignment
and deletion raise ``AttributeError``, constructors take their fields by
position or keyword and normalise them, and ``pickle``/``copy`` round-trip.
"""

import ast
import copy
import inspect
import math
import pathlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import latticecf
from latticecf import _values, cf, graphs as G, lattice as L, singularities as S, zigzag as Z

EXAMPLES = {
    "CFExpansion": lambda: cf.expand_hj(Fraction(11, 7)),
    "PeriodicCF": lambda: cf.PeriodicCF(cf.E, (1, 2, 3), (2, 3, 2, 3)),
    "Staircase": lambda: cf.staircase((2, 3, 2, 2)),
    "Mat2": lambda: L.Mat2(1, -1, 0, 1),
    "ConeNF": lambda: L.ConeNF(11, 7),
    "ConePolygon": lambda: L.polygon(L.ConeNF(5, 2)),
    "EdgeImage": lambda: L.duality_map(L.ConeNF(5, 2)).images[1],
    "ExceptionalPoint": lambda: L.duality_map(L.ConeNF(5, 2)).exceptional[0],
    "DualityReport": lambda: L.duality_map(L.ConeNF(3, 2)),
    "Vertex": lambda: G.Vertex(1, -2, "E_1"),
    "Cycle": lambda: G.fundamental_cycle(G.chain((-2, -2))),
    "WeightedDualGraph": lambda: G.WeightedDualGraph((G.Vertex(0, -2), G.Vertex(0, -3)), ((1, 0),), (1,)),
    "HJType": lambda: S.HJType(5, 2),
    "LensSpace": lambda: S.LensSpace(5, 2),
    "CuspCycle": lambda: S.CuspCycle((3, 2, 2)),
    "CurveResolution": lambda: S.resolve_monomial(3, 2),
    "ZigzagDiagram": lambda: Z.build(Fraction(11, 7)),
}

# values as the library's own builders return them, which set their fields
# without the public constructor or next to it; named after the builder
BUILT = {
    "hj_resolution": lambda: S.hj_resolution(S.HJType(11, 7)),
    "blowup_types": lambda: S.blowup_types(S.HJType(11, 7))[1],
    "supplementary": lambda: L.supplementary(L.ConeNF(11, 7)),
}
ALL = {**EXAMPLES, **BUILT}

# the text @dataclass(frozen=True) gave these objects
REPRS = {
    'CFExpansion': "CFExpansion(kind='hj', terms=(2, 3, 2, 2))",
    'PeriodicCF': "PeriodicCF(kind='e', preperiod=(1,), period=(2, 3))",
    'Staircase': 'Staircase(rows=(1, 2, 1, 1))',
    'Mat2': 'Mat2(a=1, b=-1, c=0, d=1)',
    'ConeNF': 'ConeNF(p=11, q=7)',
    'ConePolygon': 'ConePolygon(points=((1, 0), (0, 1), (-1, 3), (-2, 5)), weights=(3, 2), vertex_indices=(0, 1, 3))',
    'EdgeImage': "EdgeImage(kind='compact', start=0, end=1, length=1, image=(-1, 1), image_index=1)",
    'ExceptionalPoint': 'ExceptionalPoint(edge_start=0, edge_end=1, length=1, image=(-1, 1), is_vertex=False, expected_vertex=False)',
    'DualityReport': "DualityReport(cone=ConeNF(p=3, q=2), dual=ConeNF(p=3, q=1), chain=ConePolygon(points=((1, 0), (0, 1), (-1, 2), (-2, 3)), weights=(2, 2), vertex_indices=(0, 3)), dual_points=((-1, 0), (-1, 1), (-2, 3)), dual_vertex_indices=(0, 1, 2), images=(EdgeImage(kind='ray-', start=None, end=None, length=None, image=(-1, 0), image_index=0), EdgeImage(kind='compact', start=0, end=3, length=3, image=(-1, 1), image_index=1), EdgeImage(kind='ray+', start=None, end=None, length=None, image=(-2, 3), image_index=2)), exceptional=(ExceptionalPoint(edge_start=0, edge_end=3, length=3, image=(-1, 1), is_vertex=True, expected_vertex=True),), images_on_dual=True, vertices_covered=True, orientation_respected=True, exceptional_rule_ok=True)",
    'Vertex': "Vertex(genus=1, weight=-2, label='E_1')",
    'Cycle': 'Cycle(coefficients=(1, 1))',
    'WeightedDualGraph': 'WeightedDualGraph(vertices=(Vertex(genus=0, weight=-2, label=None), Vertex(genus=0, weight=-3, label=None)), edges=((0, 1),), arrows=(1,))',
    'HJType': 'HJType(p=5, q=2)',
    'LensSpace': 'LensSpace(p=5, q=2)',
    'CuspCycle': 'CuspCycle(weights=(2, 2, 3))',
    'CurveResolution': "CurveResolution(graph=WeightedDualGraph(vertices=(Vertex(genus=0, weight=-3, label='E_1'), Vertex(genus=0, weight=-2, label='E_2'), Vertex(genus=0, weight=-1, label='E_3')), edges=((0, 2), (1, 2)), arrows=(2,)))",
    'ZigzagDiagram': 'ZigzagDiagram(value=Fraction(11, 7), right_edge_lengths=(2, 3), right_vertex_weights=(3,), left_edge_lengths=(1, 1, 1), left_vertex_weights=(3, 4), extreme_is_vertex=(True, True))',
    'hj_resolution': 'WeightedDualGraph(vertices=(Vertex(genus=0, weight=-2, label=None), Vertex(genus=0, weight=-3, label=None), Vertex(genus=0, weight=-2, label=None), Vertex(genus=0, weight=-2, label=None)), edges=((0, 1), (1, 2), (2, 3)), arrows=())',
    'blowup_types': 'HJType(p=2, q=1)',
    'supplementary': 'ConeNF(p=11, q=4)',
}


def value_classes():
    """Every value class the package's modules define."""
    found = set()
    for module in (cf, G, L, S, Z):
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, _values.Value) and obj is not _values.Value:
                found.add(obj.__name__)
    return found


def test_examples_cover_every_value_class():
    assert value_classes() == set(EXAMPLES)
    assert set(REPRS) == set(ALL)
    assert len(EXAMPLES) == 17
    assert all(type(make()).__name__ == name for name, make in EXAMPLES.items())


@pytest.mark.parametrize("name", sorted(ALL))
class TestContract:
    def test_equality_and_hash_agree(self, name):
        x, y = ALL[name](), ALL[name]()
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_other_classes_are_not_equal(self, name):
        x = ALL[name]()
        for other_name, make in ALL.items():
            if other_name != name:
                other = make()
                assert x != other and not x == other  # same class: the examples differ
                if type(other) is not type(x):
                    assert x.__eq__(other) is NotImplemented
        assert x != tuple(getattr(x, field) for field in type(x).__slots__)  # nor to its fields

    def test_assignment_and_deletion_raise(self, name):
        x = ALL[name]()
        before = repr(x)
        for field in type(x).__slots__:
            with pytest.raises(AttributeError):
                setattr(x, field, None)
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert repr(x) == before

    def test_repr_unchanged(self, name):
        assert repr(ALL[name]()) == REPRS[name]

    def test_pickle_and_copy_round_trip(self, name):
        x = ALL[name]()
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


# The storage: each field lives in its slot under the private alias
# ``_<field>``, behind a read-only property of the public name.


def value_class_objects():
    return {type(make()) for make in EXAMPLES.values()}


@pytest.mark.parametrize("cls", sorted(value_class_objects(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_fields_are_read_only_properties_over_slots(cls):
    assert cls.__bases__ == (_values.Value,)
    assert "__setattr__" not in vars(_values.Value) and "__delattr__" not in vars(_values.Value)
    for name in cls.__slots__:
        field = vars(cls)[name]
        assert isinstance(field, property)
        assert field.fset is None and field.fdel is None
        assert inspect.ismemberdescriptor(vars(cls)[f"_{name}"])
    x = EXAMPLES[cls.__name__]()
    assert x._fields(x) == tuple(getattr(x, name) for name in cls.__slots__)


def test_no_generic_setattr_or_generated_code_in_src():
    src = pathlib.Path(_values.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("__setattr__", "namedtuple"), path.name
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert "_set" not in names and "namedtuple" not in names, path.name
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Name):
                assert node.id not in ("exec", "eval", "_set"), path.name


def test_hj_type_is_not_a_lens_space():
    assert S.HJType(5, 2) != S.LensSpace(5, 2)
    assert S.HJType(5, 2) == S.HJType(5, 2)


def test_keyword_construction_and_defaults():
    assert G.Vertex(weight=-2) == G.Vertex(0, -2, None)
    assert G.Vertex() == G.Vertex(0, 0)
    verts = (G.Vertex(weight=-2), G.Vertex(weight=-2))
    g = G.WeightedDualGraph(vertices=verts, edges=((0, 1),))
    assert g.arrows == () and g == G.WeightedDualGraph(verts, ((0, 1),), ())
    assert L.ConeNF(q=2, p=5) == L.ConeNF(5, 2)
    assert cf.CFExpansion(terms=(1, 2), kind=cf.E).terms == (1, 2)
    with pytest.raises(TypeError):
        L.ConeNF(5, 2, r=1)
    match L.Mat2(1, 2, 3, 4):
        case L.Mat2(a, b, c, d=4):
            assert (a, b, c) == (1, 2, 3)


def test_constructors_normalise_once_and_survive_pickling():
    c = S.CuspCycle((3, 2, 2, 4))
    assert c.weights == (2, 2, 4, 3) and c == S.CuspCycle((4, 3, 2, 2))
    x = cf.PeriodicCF(cf.HJ, [5, 2, 3, 2, 3], [2, 3, 2, 3])
    assert (x.preperiod, x.period) == ((5,), (2, 3))
    g = G.WeightedDualGraph((G.Vertex(), G.Vertex(), G.Vertex()), [[2, 1], (1, 0), (0, 0)], [2, 0])
    assert g.edges == ((0, 0), (0, 1), (1, 2)) and g.arrows == (0, 2)
    assert cf.CFExpansion(cf.E, [True, 2]).terms == (1, 2)
    for obj in (c, x, g):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_constructors_still_validate():
    with pytest.raises(latticecf.DomainError):
        G.Vertex(genus=-1)
    with pytest.raises(latticecf.DomainError):
        L.ConeNF(4, 2)
    with pytest.raises(latticecf.DomainError):
        S.LensSpace(5, 0)
    with pytest.raises(latticecf.UnknownVertex):
        G.WeightedDualGraph((G.Vertex(),), ((0, 1),))
    with pytest.raises(latticecf.DomainError):
        S.CurveResolution(G.chain((-1, -2)))


PAIR_ENTRY_POINTS = {
    "HJType": S.HJType, "LensSpace": S.LensSpace, "ConeNF": L.ConeNF,
    "klein_quotients": L.klein_quotients, "reverse_hj": cf.reverse_hj,
    "resolve_monomial": S.resolve_monomial, "blowup_oracle": S.blowup_oracle,
    "blowup_count": S.blowup_count,
}


@pytest.mark.parametrize("bad", [5.0, "5", None], ids=repr)
@pytest.mark.parametrize("position", ["p", "q"])
@pytest.mark.parametrize("name", sorted(PAIR_ENTRY_POINTS))
def test_pair_entry_points_take_only_integers(name, position, bad):
    # p and q go through operator.index, so anything but an integer is refused
    # with a typed error, never a TypeError from math.gcd or a comparison
    args = {"p": 7, "q": 3} | {position: bad}
    with pytest.raises(latticecf.LatticeCFError):
        PAIR_ENTRY_POINTS[name](args["p"], args["q"])


def test_pair_entry_points_store_plain_ints():
    t = S.HJType(2, True)
    assert str(t) == "A_1" and type(t.q) is int
    assert L.ConeNF(True, False) == L.ConeNF(1, 0) and type(L.ConeNF(True, False).p) is int
    assert S.blowup_count(True + 4, True) == 5


# The trusted construction path: values the library builds from data it has
# just computed skip their public constructor (``Value._trusted``).


def rebuilt(x):
    """``x`` rebuilt through the public constructors, nested values first."""
    if isinstance(x, _values.Value):
        return type(x)(*map(rebuilt, x._fields(x)))
    if isinstance(x, tuple):
        return tuple(map(rebuilt, x))
    return x


BUILDERS = {
    "expand_e": lambda p, q: cf.expand_e(Fraction(p, q)),
    "expand_hj": lambda p, q: cf.expand_hj(Fraction(p, q)),
    "staircase": lambda p, q: cf.staircase(cf.hj_terms(p, q)),
    "hj_resolution": lambda p, q: S.hj_resolution(S.HJType(p, q)),
    "resolve_monomial": lambda p, q: S.resolve_monomial(p, q) if q >= 2 else None,
    "blowup_types": lambda p, q: S.blowup_types(S.HJType(p, q)),
    "supplementary": lambda p, q: L.supplementary(L.ConeNF(p, q)),
}


@st.composite
def coprime_pairs(draw, max_bits=200, max_unary=10**4):
    """A coprime pair p > q >= 1 from sweep size (2 bits) to ``max_bits``
    bits, drawn through a seeded ``Random``, with at most ``max_unary``
    blow-ups (the sum of the additive quotients bounds every unary size)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.getrandbits(draw(st.integers(2, max_bits))) + 2
    q = rng.randrange(1, p)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    assume(p > 1 and sum(cf._quotients(p, q)) <= max_unary)
    return p, q


class TestTrustedPath:
    def test_sweep_values_equal_their_public_rebuild(self):
        for p in range(2, 71):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    for name, build in BUILDERS.items():
                        x = build(p, q)
                        y = rebuilt(x)
                        assert y == x and repr(y) == repr(x), (name, p, q)

    # Its own deadline: a draw of up to 10^4 blow-ups gives resolution graphs
    # of up to 10^4 vertices, which ``rebuilt`` walks through the public
    # constructors before two reprs are taken.  The largest draws ran 70-240 ms
    # on a 2-vCPU host, against Hypothesis's default of 200 ms; 1 s keeps the
    # check on runaway cost without failing on a busy host.
    @settings(deadline=1000)
    @given(coprime_pairs())
    def test_values_equal_their_public_rebuild(self, pq):
        for name, build in BUILDERS.items():
            x = build(*pq)
            y = rebuilt(x)
            assert y == x and repr(y) == repr(x), name

    def test_unpickling_goes_through_the_public_constructor(self):
        bad = cf.CFExpansion._trusted(cf.HJ, (3, 1))
        with pytest.raises(latticecf.InvalidSequence):
            pickle.loads(pickle.dumps(bad))
        with pytest.raises(latticecf.InvalidSequence):
            copy.deepcopy(bad)

    def test_one_body_and_no_oracle_or_cli_use(self):
        src = pathlib.Path(_values.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
        bodies = [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_trusted"]
        assert len(bodies) == 1 and bodies[0][0] == "_values.py"

        def uses(node):
            return any(isinstance(n, ast.Attribute) and n.attr == "_trusted"
                       or isinstance(n, ast.Name) and n.id == "_trusted" for n in ast.walk(node))

        assert not uses(trees["cli.py"])
        oracles = {"hull_oracle", "embdim_oracle", "blowup_oracle"}
        found = {node.name: node for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name in oracles}
        assert set(found) == oracles
        assert not any(uses(node) for node in found.values())
        assert uses(trees["cf.py"]) and uses(trees["graphs.py"]) and uses(trees["singularities.py"])
