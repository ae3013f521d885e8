import pytest

from spanalg import (Carrier, FinCatCategory, builtin_class,
                     check_splitepi_mono_agreement, composition_closure, conjugates,
                     explicit_class, fin, union_class, validate_stable_system)
from spanalg.systems import finset_system, thin_system, validate_system
from spanalg.thin import ThinCategory


def _injective(f):
    return len(set(f.table)) == f.dom


def _surjective(f):
    return set(f.table) == set(range(f.cod))


def test_builtin_classes_match_tables(C, carrier):
    injs = builtin_class(C, "injective")
    surjs = builtin_class(C, "surjective")
    for f in carrier.morphisms():
        assert injs.membership(f).holds == _injective(f)
        assert surjs.membership(f).holds == _surjective(f)


def test_stable_system_validation(C, carrier):
    for name in ("isos", "surjective", "all"):
        assert validate_stable_system(C, builtin_class(C, name), carrier).holds


def test_injections_are_not_a_stable_system_under_all_pullback_legs(C, carrier):
    # injections ARE pullback stable and composition closed in this
    # setting, so the validator must agree
    assert validate_stable_system(C, builtin_class(C, "injective"), carrier).holds


def test_non_stable_class_detected(C, carrier):
    # constants 2 -> 2 do not compose with isos back into the class
    members = [f for f in carrier.morphisms() if len(set(f.table)) <= 1]
    cls = explicit_class("constants", members, carrier)
    v = validate_stable_system(C, cls, carrier)
    assert v.fails


def test_composition_closure_adds_isos(C, carrier):
    seed = [fin(2, 2, (0, 0))]
    closed = composition_closure(C, explicit_class("seed", seed, carrier), carrier)
    assert C.identity(3) in closed.members
    assert fin(2, 2, (0, 0)) in closed.members


def test_split_epi_class_is_surjections(C, carrier):
    se = builtin_class(C, "splitEpis")
    for f in carrier.morphisms():
        assert se.membership(f).holds == _surjective(f)


def test_systems_validate(C, carrier):
    for name in ("surj-inj", "iso-all", "all-iso"):
        system = finset_system(C, name)
        v = validate_system(system, carrier)
        assert v.holds, (name, v.witness, v.reason)


def test_factorizations_recompose(C, carrier, surj_inj):
    for f in carrier.morphisms():
        e, m = surj_inj.factor(f)
        assert C.compose(m, e) == f
        assert _surjective(e) and _injective(m)


def test_splitepi_mono_agreement_all_three_systems(C, carrier):
    for name in ("surj-inj", "iso-all", "all-iso"):
        v = check_splitepi_mono_agreement(C, finset_system(C, name), carrier)
        assert v.holds, (name, v.witness)


def test_splitepi_mono_agreement_sides_for_iso_all(C, carrier, iso_all):
    # E = isos misses split epis, and M = all misses mono-ness: the two
    # sides of the equivalence fail together
    v = check_splitepi_mono_agreement(C, iso_all, carrier)
    assert v.holds
    detail = v.witness
    assert detail["splitepi_in_E"] is False
    assert detail["M_in_mono"] is False


def test_conjugates_contain_sections(C, iso_all, carrier):
    conj = conjugates(C, iso_all.M, carrier)
    # every section (split mono) shows up among the conjugates
    for s in carrier.morphisms():
        if any(C.compose(r, s) == C.identity(s.dom) for r in C.hom(s.cod, s.dom)):
            assert s in conj, s


def test_mstar_is_injections(C, mstar_class, carrier):
    for f in carrier.morphisms():
        assert mstar_class.membership(f).holds == _injective(f)


def test_ecirc_is_surjections(C, ecirc_class, carrier):
    for f in carrier.morphisms():
        assert ecirc_class.membership(f).holds == _surjective(f)


def test_ebullet_is_injections_and_total_on_finset(C, ebullet_class, carrier):
    for f in carrier.morphisms():
        assert ebullet_class.membership(f).holds == _injective(f)
    # certification rules extend membership beyond the carrier
    assert ebullet_class.membership(fin(5, 9, (0, 2, 4, 6, 8))).holds
    assert ebullet_class.membership(fin(5, 9, (0, 0, 4, 6, 8))).fails
    assert ebullet_class.membership(fin(0, 7, ())).holds


def test_ebullet_of_surj_inj_stays_put(C, carrier, surj_inj):
    from spanalg import e_bullet, m_star
    eb = e_bullet(C, surj_inj, carrier, m_star(C, surj_inj.M, carrier))
    for f in carrier.morphisms():
        assert eb.membership(f).holds == surj_inj.E.membership(f).holds


def test_subset_search_completeness_is_set_where_classes_are_built(C):
    for name in ("isos", "monos", "epis", "splitEpis", "all", "surjective", "injective"):
        assert builtin_class(C, name).subset_search_complete
    fc = FinCatCategory(max_objects=1, max_morphisms=1)
    for name in ("bijObj", "surjObj", "ff", "ffInjObj"):
        assert not builtin_class(fc, name).subset_search_complete


def test_union_class(C, carrier):
    u = union_class("isos+surj",
                    builtin_class(C, "isos"), builtin_class(C, "surjective"))
    assert u.membership(fin(2, 1, (0, 0))).holds
    assert u.membership(fin(1, 2, (0,))).fails


def test_thin_systems_validate():
    t = ThinCategory.chain(3)
    carrier = Carrier(t, list(t.objects()))
    for name in ("iso-all", "all-iso"):
        assert not validate_system(thin_system(t, name), carrier).fails
