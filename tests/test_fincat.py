import itertools

import pytest

from spanalg import FinCatCategory, enumerate_categories, make_functor
from spanalg.fincat import check_functor, enumerate_functors
from spanalg.systems import fincat_system, validate_system
from spanalg.classes import Carrier
from spanalg.tablecat import discrete, make_table, one_object, walking_arrow


@pytest.fixture(scope="module")
def FC():
    return FinCatCategory(max_objects=2, max_morphisms=3)


@pytest.fixture(scope="module")
def cats(FC):
    return list(itertools.islice(FC.objects(), 12))


def test_enumeration_shapes(FC):
    found = enumerate_categories(2, 3)
    # the empty category, exactly one 1-object 1-morphism category, and
    # at least one 2-object category shaped like the walking arrow
    assert any(not c.objects for c in found)
    assert sum(1 for c in found
               if len(c.objects) == 1 and len(c.morphisms) == 1) == 1
    assert any(len(c.objects) == 2 and len(c.morphisms) == 3 for c in found)


def test_functor_enumeration_counts():
    w = walking_arrow()
    t = one_object()
    assert len(enumerate_functors(t, w)) == 2     # pick either object
    assert len(enumerate_functors(w, t)) == 1
    # endofunctors of the walking arrow: constant at 0, constant at 1,
    # and the identity
    assert len(enumerate_functors(w, w)) == 3


def test_functor_validation():
    w = walking_arrow()
    t = one_object()
    with pytest.raises(Exception):
        make_functor(w, t, {0: 0, 1: 0}, {"i0": "i", "i1": "i"})  # misses "a"
    f = make_functor(w, t, {0: 0, 1: 0}, {"i0": "i", "i1": "i", "a": "i"})
    check_functor(f)  # raises on violation


def test_functors_preserve_composites():
    # one object each: e idempotent, and z its own inverse
    idem = make_table([0], [("i", 0, 0), ("e", 0, 0)], {0: "i"}, {("e", "e"): "e"})
    flip = make_table([0], [("i", 0, 0), ("z", 0, 0)], {0: "i"}, {("z", "z"): "i"})
    with pytest.raises(ValueError, match=r"does not preserve composite \('e','e'\)"):
        make_functor(idem, flip, {0: 0}, {"i": "i", "e": "z"})
    assert [dict(f.mmap)["e"] for f in enumerate_functors(idem, flip)] == ["i"]
    assert [dict(f.mmap)["z"] for f in enumerate_functors(flip, idem)] == ["i"]
    assert len(enumerate_functors(idem, idem)) == len(enumerate_functors(flip, flip)) == 2


def test_composition_and_identity(FC):
    w = walking_arrow()
    t = one_object()
    f = FC.hom(w, t)[0]
    assert FC.compose(f, FC.identity(w)) == f
    assert FC.compose(FC.identity(t), f) == f


def test_pullback_of_functors(FC):
    w = walking_arrow()
    t = one_object()
    f = FC.hom(w, t)[0]
    pb = FC.pullback(f, f)
    # objects of w x_t w: all four pairs
    assert len(pb.apex.objects) == 4
    m = pb.mediate(FC.identity(w), FC.identity(w))
    assert m is not None
    assert FC.compose(pb.p1, m) == FC.identity(w)


def test_pullback_mediator_refuses_a_cone_outside_the_apex(FC):
    w = walking_arrow()
    t = one_object()
    at0, at1 = FC.hom(t, w)
    pb = FC.pullback(at0, at1)
    assert not pb.apex.objects
    assert pb.mediate(FC.identity(t), FC.identity(t)) is None


def test_product_pairing_projects_back(FC, cats):
    for c, d, x in itertools.product(cats[:4] + [walking_arrow()], repeat=3):
        pr = FC.product(c, d)
        for f in FC.hom(x, c):
            for g in FC.hom(x, d):
                h = pr.pair(f, g)
                check_functor(h)
                assert FC.compose(pr.pi1, h) == f
                assert FC.compose(pr.pi2, h) == g


def test_predicate_overrides(FC):
    w = walking_arrow()
    t = one_object()
    f = FC.hom(w, t)[0]
    assert FC.is_surjective_on_objects(f).holds
    assert not FC.is_injective_on_objects(f).holds
    assert not FC.is_fully_faithful(f).holds
    assert FC.is_fully_faithful(FC.identity(w)).holds


def test_both_factorizations_validate(FC, cats):
    carrier = Carrier(FC, cats[:6])
    for name in ("bijObj-ff", "surjObj-ffInjObj"):
        system = fincat_system(FC, name)
        v = validate_system(system, carrier)
        assert not v.fails, (name, v.witness, v.reason)


def test_factor_composites_recompose(FC, cats):
    system = fincat_system(FC, "surjObj-ffInjObj")
    for c, d in itertools.product(cats[:4], repeat=2):
        for f in FC.hom(c, d):
            e, m = system.factor(f)
            assert FC.compose(m, e) == f
            assert system.E.membership(e).holds
            assert system.M.membership(m).holds


def test_every_table_fincat_builds_is_a_category():
    # FinCat builds its tables without validating them, so each of its
    # constructions must itself satisfy the category laws
    fc = FinCatCategory(max_objects=1, max_morphisms=3)
    objs = list(fc.objects())
    mors = Carrier(fc, objs).morphisms()
    tables = objs + [fc.product(c, d).apex for c in objs for d in objs]
    tables += [fc.pullback(f, g).apex for f in mors for g in mors if f.cod == g.cod]
    for name in ("bijObj-ff", "surjObj-ffInjObj"):
        factor = fincat_system(fc, name).factor
        tables += [factor(f)[0].cod for f in mors]
    for table in set(tables):
        assert table.validate() is table
