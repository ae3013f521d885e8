"""The contract of the immutable value types: morphisms, spans, limit
results, verdicts, classes, witnesses and tables are tuples whose hash is
the hash of their fields, so the order of every set built from them is
fixed by their field values alone."""

import pathlib
import subprocess
import sys

import pytest

from spanalg import FinCatCategory, make_equivalence
from spanalg.allegory import AllegoryView, find_unit, is_map, tabulate
from spanalg.category import ProductResult, PullbackResult
from spanalg.classes import Carrier, builtin_class
from spanalg.fincat import Functor, make_functor
from spanalg.finset import FinMor, FinSetCategory
from spanalg.spans import Span
from spanalg.systems import FactSystem, fincat_system, finset_system, thin_system
from spanalg.tablecat import one_object
from spanalg.thin import ThinCategory, ThinMor
from spanalg.verdict import Verdict

FINSET = FinSetCategory(3)
THIN = ThinCategory.chain(3)
F = FinMor(2, 3, (0, 2))
T = ThinMor(1, 2)
S = Span(2, FinMor(2, 1, (0, 0)), F)
ONE = one_object()
G = make_functor(ONE, ONE, {0: 0}, {"i": "i"})
V = Verdict.no(F, "m.e != f")
FINSET1 = FinSetCategory(1)
SURJ_INJ = finset_system(FINSET1, "surj-inj")
VIEW = AllegoryView(FINSET1, make_equivalence(FINSET1, "simE", SURJ_INJ))
MAP = is_map(VIEW, VIEW.identity(1))


def _values():
    return {
        "FinMor": (F, ("dom", "cod", "table")),
        "ThinMor": (T, ("dom", "cod")),
        "Span": (S, ("apex", "left", "right")),
        "Functor": (G, ("dom", "cod", "omap", "mmap")),
        "PullbackResult": (FINSET.pullback(F, F), ("apex", "p1", "p2", "mediate")),
        "ProductResult": (FINSET.product(2, 3), ("apex", "pi1", "pi2", "pair")),
        "thin PullbackResult": (THIN.pullback(T, T), ("apex", "p1", "p2", "mediate")),
        "thin ProductResult": (THIN.product(0, 2), ("apex", "pi1", "pi2", "pair")),
        "Verdict": (V, ("outcome", "witness", "reason")),
        "MorClass": (builtin_class(FINSET, "surjective"),
                     ("name", "membership_fn", "members", "subset_search_complete")),
        "MapWitness": (MAP, ("r", "unit_ineq", "counit_ineq")),
        "Tabulation": (tabulate(VIEW, SURJ_INJ, VIEW.identity(1)),
                       ("f", "g", "target", "composite", "joint_monicity")),
        "UnitWitness": (find_unit(VIEW), ("obj", "maximality", "totality")),
        "TableCategory": (ONE, ("objects", "morphisms", "identities", "composition")),
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_hash_is_the_hash_of_the_fields(name):
    x, fields = _values()[name]
    assert isinstance(x, tuple)
    assert x._fields == fields
    assert hash(x) == hash(tuple(getattr(x, f) for f in fields))


@pytest.mark.parametrize("name", sorted(_values()))
def test_values_are_immutable(name):
    x, fields = _values()[name]
    with pytest.raises(AttributeError):
        setattr(x, fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = None


@pytest.mark.parametrize("value, text", [
    (F, "FinMor(2->3, [0, 2])"),
    (T, "ThinMor(1<=2)"),
    (S, "Span(FinMor(2->1, [0, 0]), FinMor(2->3, [0, 2]))"),
    (G, "Functor(omap={0: 0}, mmap={'i': 'i'})"),
    ((F, T), "(FinMor(2->3, [0, 2]), ThinMor(1<=2))"),
    (V, "Verdict(outcome='Fails', witness=FinMor(2->3, [0, 2]), reason='m.e != f')"),
    (MAP, "MapWitness(r=Span(FinMor(1->1, [0]), FinMor(1->1, [0])), "
          "unit_ineq=Verdict(outcome='Holds', witness=None, reason='same representative'), "
          "counit_ineq=Verdict(outcome='Holds', witness=None, reason='same representative'))"),
    (ONE, "TableCategory(objects=(0,), morphisms=(('i', 0, 0),), identities=((0, 'i'),), "
          "composition=())"),
])
def test_repr_is_pinned(value, text):
    assert repr(value) == text


def test_calls_and_properties_are_kept():
    assert [F(x) for x in range(2)] == [0, 2]
    assert (S.dom, S.cod) == (1, 3)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_values_of_different_types_from_the_same_numbers_differ(n):
    ident = FinMor(n, n, tuple(range(n)))
    values = [ident, ThinMor(n, n), Span(n, ident, ident), FINSET.identity(n)]
    assert values[0] == values[3]
    assert len(set(values)) == 3
    for i, a in enumerate(values[:3]):
        for b in values[i + 1:3]:
            assert a != b


def test_a_value_equals_the_plain_tuple_of_its_fields():
    # tuple equality: the type is not compared, so containers that hold
    # values of one instance must not also hold bare tuples of their fields
    assert F == (2, 3, (0, 2))
    assert T == (1, 2)


def test_a_table_never_equals_a_functor():
    # a Functor's first field is a table, a table's is a tuple of labels
    fc = FinCatCategory(max_objects=1, max_morphisms=3)
    tables = list(fc.objects())
    functors = Carrier(fc, tables).morphisms()
    assert tables and functors
    assert ONE != G and G != ONE
    assert len(set(tables) | set(functors)) == len(tables) + len(functors)


def test_table_lookups_stay_out_of_equality_and_hash():
    assert vars(ONE).keys() == {"_mor_info", "_id_of", "_comp"}
    assert ONE == one_object() and ONE is not one_object()
    assert hash(ONE) == hash((ONE.objects, ONE.morphisms, ONE.identities, ONE.composition))
    assert ONE.identity(0) == "i" and ONE.compose("i", "i") == "i"


@pytest.mark.parametrize("build, cat, name", [
    (finset_system, FINSET, "surj-inj"),
    (finset_system, FINSET, "iso-all"),
    (thin_system, THIN, "all-iso"),
    (fincat_system, FinCatCategory(max_objects=1, max_morphisms=1), "bijObj-ff"),
])
def test_a_system_keeps_its_factor_on_the_instance(build, cat, name):
    # the layer tracer wraps FactSystem.__init__ and then rebinds self.factor
    assert "__init__" in vars(FactSystem)
    system = build(cat, name)
    assert type(system) is FactSystem
    assert callable(vars(system)["factor"])


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site module, so no .pth file can import either one first
    src = pathlib.Path(__file__).parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spanalg, spanalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
