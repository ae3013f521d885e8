"""The contract of the immutable value types: morphisms, spans and limit
results are tuples whose hash is the hash of their fields, so the order of
every set built from them is fixed by their field values alone."""

import pytest

from spanalg.category import ProductResult, PullbackResult
from spanalg.fincat import Functor, make_functor
from spanalg.finset import FinMor, FinSetCategory
from spanalg.spans import Span
from spanalg.tablecat import one_object
from spanalg.thin import ThinCategory, ThinMor

FINSET = FinSetCategory(3)
THIN = ThinCategory.chain(3)
F = FinMor(2, 3, (0, 2))
T = ThinMor(1, 2)
S = Span(2, FinMor(2, 1, (0, 0)), F)
ONE = one_object()
G = make_functor(ONE, ONE, {0: 0}, {"i": "i"})


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
