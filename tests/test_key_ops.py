"""Keyed classes compose, meet and invert on their keys.

A `FactorizationEquivalence` key is the row form of a class's M-part, and
the M-part of a composite, meet or converse depends only on the M-parts of
its operands. So `compose_key`, `meet_key` and `inv_key` give the key of a
result without building its span, and a keyed `AllegoryView` fills its op
memos with them. These tests hold the key ops against the spans they stand
for, and FinSet's two-cells against the default hom sweep;
tests/test_allegory.py holds a keyed view's memos against built spans.
"""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from spanalg import (FinSetCategory, NotParallel, Span, ThinCategory, involution,
                     make_equivalence, named_system, span_compose, span_meet)
from spanalg.allegory import AllegoryView
from spanalg.category import Category
from spanalg.spans import stream_spans

SYSTEMS = ("surj-inj", "iso-all", "all-iso")
C3 = FinSetCategory(3)
EQUIVS = {name: make_equivalence(C3, "simE", named_system(C3, name)) for name in SYSTEMS}


def _span(a, b, rows):
    """The span a <- w -> b with one apex point per row, rows taken as given."""
    return Span(*C3.span_of_rows(a, b, tuple(rows)))


@st.composite
def _rows(draw, a, b):
    """A list of rows in a x b, repeats allowed, empty when a or b is 0."""
    if not a or not b:
        return []
    return draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)),
                         max_size=5))


@st.composite
def _key_cases(draw):
    """A system, objects a, b, c, two row lists a -> b and one b -> c."""
    name = draw(st.sampled_from(SYSTEMS))
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    return name, (a, b, c), draw(_rows(a, b)), draw(_rows(a, b)), draw(_rows(b, c))


@given(_key_cases())
# repeated rows on every operand, an apex 0 against a full one, and a
# composite through the empty object
@example(("iso-all", (2, 2, 2), [(0, 1), (0, 1), (1, 0)], [(0, 1), (0, 1)],
          [(1, 1), (1, 1), (0, 0)]))
@example(("surj-inj", (2, 3, 1), [(1, 2), (1, 2)], [], [(2, 0), (2, 0), (0, 0)]))
@example(("all-iso", (3, 0, 2), [], [], []))
def test_key_ops_are_the_keys_of_the_built_spans(case):
    name, (a, b, c), rows1, rows2, rows3 = case
    eq = EQUIVS[name]
    s1, s2, s3 = _span(a, b, rows1), _span(a, b, rows2), _span(b, c, rows3)
    k1, k2, k3 = eq.key(s1), eq.key(s2), eq.key(s3)
    r1, r2, r3 = eq.span_of_key(k1), eq.span_of_key(k2), eq.span_of_key(k3)
    assert eq.compose_key(k1, k3) == eq.key(span_compose(C3, r1, r3))
    assert eq.meet_key(k1, k2) == eq.key(span_meet(C3, r1, r2))
    assert eq.inv_key(k1) == eq.key(involution(r1))
    # the key of a composite does not depend on the spans chosen in the
    # classes of its factors
    assert eq.compose_key(k1, k3) == eq.key(span_compose(C3, s1, s3))
    assert eq.inv_key(k1) == eq.key(involution(s1))


@pytest.mark.parametrize("cat, system", [(FinSetCategory(2), "surj-inj"),
                                         (ThinCategory.chain(3), "iso-all")],
                         ids=["finset-surj-inj", "thin-3-iso-all"])
def test_view_ops_refuse_classes_that_do_not_fit(cat, system):
    # FinSet classes have keys, thin ones do not: both raise as span_compose
    # and span_meet do, and fill no memo entry
    view = AllegoryView(cat, make_equivalence(cat, "simE", named_system(cat, system)))
    r = view.hom(1, 2)[0][-1]
    s = view.hom(2, 1)[0][-1]
    assert (view._keys[0] is not None) == (cat.name == "finset")
    with pytest.raises(NotParallel, match="^cod 2 != dom 1$"):
        view.compose(r, r)
    with pytest.raises(NotParallel) as err:
        view.meet(r, s)
    assert str(err.value) == f"{r!r} and {s!r} are not parallel"
    i = view._interned[id(r)]
    assert view._interned[id(s)] not in view._meet[i] and i not in view._then[i]


def test_finset_two_cells_are_the_swept_two_cells_in_order():
    # every span between objects 0..2 with apex 0..3
    cat = FinSetCategory(3)
    for a, b in itertools.product(range(3), repeat=2):
        spans = stream_spans(cat, a, b)
        for s1, s2 in itertools.product(spans, repeat=2):
            assert list(cat.two_cells(s1, s2)) == list(Category.two_cells(cat, s1, s2))
