import pytest
from hypothesis import given, settings, strategies as st

import oracles
from spanalg import (Carrier, FinCatCategory, FinSetCategory, builtin_class, carrier_class,
                     check_splitepi_mono_agreement, composition_closure, conjugates,
                     default_carrier, e_bullet, e_circ, fin, m_star,
                     validate_stable_system)
from spanalg import classes
from spanalg.systems import (FactSystem, _check_uniqueness, _finset_image_factor,
                             finset_system, thin_system, validate_system)
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
    cls = carrier_class("constants", members, carrier)
    v = validate_stable_system(C, cls, carrier)
    assert v.fails


def test_composition_closure_adds_isos(C, carrier):
    seed = [fin(2, 2, (0, 0))]
    closed = composition_closure(C, seed, carrier)
    assert C.identity(3) in closed
    assert fin(2, 2, (0, 0)) in closed


@given(st.data())
def test_composition_closure_matches_the_round_by_round_oracle(C, carrier, data):
    gens = data.draw(st.sets(st.sampled_from(carrier.morphisms()), max_size=6))
    assert composition_closure(C, gens, carrier) == oracles.composition_closure(C, gens, carrier)


@settings(max_examples=30)
@given(st.data())
def test_m_star_matches_the_round_by_round_oracle(C, carrier, data):
    # the conjugates of a named system's M are already closed; those of a
    # few arbitrary morphisms are not
    ms = data.draw(st.sets(st.sampled_from(carrier.morphisms()), min_size=1, max_size=3))
    m_class = carrier_class("M", ms, carrier)
    expected = oracles.pullback_closure(C, conjugates(C, m_class, carrier), carrier)
    assert m_star(C, m_class, carrier).members == expected


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


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("name", ["surj-inj", "iso-all", "all-iso"])
def test_conjugates_match_one_cube_per_member(size, name):
    cat = FinSetCategory(size)
    carrier = default_carrier(cat)
    m_class = finset_system(cat, name).M
    assert conjugates(cat, m_class, carrier) == oracles.conjugates(cat, m_class, carrier)


def test_conjugates_match_one_cube_per_member_on_a_chain():
    # under all-iso every kernel-pair representative is an identity, so
    # every front face is the back face
    t = ThinCategory.chain(4)
    carrier = default_carrier(t)
    for name in ("iso-all", "all-iso"):
        m_class = thin_system(t, name).M
        assert conjugates(t, m_class, carrier) == oracles.conjugates(t, m_class, carrier), name


def test_conjugates_keep_each_kernel_pair_at_a_domain(C, carrier):
    # the monic member at 2 comes first in hom order, so one cube per
    # domain rather than per kernel pair would lose the constant's cubes
    m_class = carrier_class("id+const", [C.identity(2), fin(2, 3, (0, 0))], carrier)
    got = conjugates(C, m_class, carrier)
    assert got == oracles.conjugates(C, m_class, carrier)
    assert fin(1, 2, (0,)) in got


@pytest.mark.parametrize("members", [
    # hom(2, 2) precedes hom(2, 3) on the carrier, so the identity, not the
    # inclusion, represents the diagonal kernel pair
    [fin(2, 3, (0, 1)), fin(2, 2, (0, 1)), fin(2, 3, (0, 0))],
    # with no identity the first member at 2 with the diagonal kernel pair
    # is an inclusion, so its cubes build their own front faces
    [fin(2, 3, (0, 1)), fin(2, 3, (0, 0))],
    # ... and alone only those cubes give the identities of 0, 1 and 3
    [fin(2, 3, (0, 1))],
    # only the identity's cubes give them, whose front face is the back face
    [fin(2, 2, (0, 1))],
    # an endomorphism that is no identity needs its own front face
    [fin(2, 2, (0, 0))],
    # every carrier identity is in M, so the identity cubes are skipped,
    # while the constant still represents its own kernel pair at 2
    [fin(x, x, tuple(range(x))) for x in range(4)] + [fin(2, 3, (0, 0))],
    # the swap comes first at 2, and only the constant's own front faces,
    # the products, give the inclusions of the back apexes
    [fin(2, 2, (1, 0)), fin(2, 3, (0, 0))]],
    ids=["incl-id-const", "incl-const", "incl", "id", "const-endo", "ids-const", "swap-const"])
def test_conjugates_where_a_front_face_could_be_skipped(C, carrier, members):
    m_class = carrier_class("M", members, carrier)
    assert conjugates(C, m_class, carrier) == oracles.conjugates(C, m_class, carrier)


_FINSET_CARRIERS = {n: default_carrier(FinSetCategory(n)) for n in (2, 3)}


@settings(max_examples=40)
@given(st.data())
def test_conjugates_match_one_cube_per_member_on_drawn_classes(data):
    # half of the drawn classes hold every carrier identity, which turns the
    # identity cubes off; the rest keep them
    carrier = _FINSET_CARRIERS[data.draw(st.sampled_from((2, 3)))]
    cat = carrier.category
    members = data.draw(st.sets(st.sampled_from(carrier.morphisms()), max_size=3))
    if data.draw(st.booleans()):
        members |= {cat.identity(x) for x in carrier.objects}
    m_class = carrier_class("M", members, carrier)
    assert conjugates(cat, m_class, carrier) == oracles.conjugates(cat, m_class, carrier)


class _CountingFinSet(FinSetCategory):
    def __init__(self, max_size):
        super().__init__(max_size)
        self.pullbacks = 0
        self.composes = 0

    def pullback(self, f, g):
        self.pullbacks += 1
        return super().pullback(f, g)

    def compose(self, g, f):
        self.composes += 1
        return super().compose(g, f)


@pytest.mark.parametrize("name, most", [("surj-inj", 24), ("iso-all", 1484),
                                        ("all-iso", 10)])
def test_conjugates_run_one_cube_per_kernel_pair(name, most):
    # one cube per member of M made 13,342, 62,692 and 11,909 pullbacks.
    # M holds every carrier identity in all three systems, so no identity
    # cube runs: surj-inj and all-iso make only the kernel pairs of M, 24
    # and 10, and iso-all builds each front face once per (m.f, m.s)
    cat = _CountingFinSet(3)
    conjugates(cat, finset_system(cat, name).M, default_carrier(cat))
    assert cat.pullbacks <= most


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


@pytest.mark.parametrize("cat, build, name", [
    *(pytest.param(FinSetCategory(n), finset_system, name, id=f"finset{n}-{name}")
      for n in (2, 3) for name in ("surj-inj", "iso-all", "all-iso")),
    *(pytest.param(ThinCategory.chain(n), thin_system, name, id=f"chain{n}-{name}")
      for n in (3, 4, 5) for name in ("iso-all", "all-iso"))])
def test_closure_rules_certify_only_carrier_members(cat, build, name, monkeypatch):
    # membership on the carrier is read off the member set alone, which is
    # sound only if no rule certifies a carrier morphism outside it
    built = []
    real = classes.carrier_class

    def spy(cls_name, members, carrier, rules=(), monic=False):
        built.append((cls_name, frozenset(members), rules))
        return real(cls_name, members, carrier, rules, monic)

    monkeypatch.setattr(classes, "carrier_class", spy)
    carrier = default_carrier(cat)
    system = build(cat, name)
    e_circ(cat, system.E, carrier)
    e_bullet(cat, system, carrier, m_star(cat, system.M, carrier))
    assert [n for n, _, _ in built] == [f"({system.E.name})_o", f"({system.M.name})*",
                                        f"({system.E.name})_bullet"]
    for cls_name, members, rules in built:
        for f in carrier.morphisms():
            for rule in rules:
                assert f in members or not rule(f).holds, (cls_name, f)


def test_subset_search_completeness_is_set_where_classes_are_built(C):
    for name in ("isos", "monos", "epis", "splitEpis", "all", "surjective", "injective"):
        assert builtin_class(C, name).subset_search_complete
    fc = FinCatCategory(max_objects=1, max_morphisms=1)
    for name in ("bijObj", "surjObj", "ff", "ffInjObj"):
        assert not builtin_class(fc, name).subset_search_complete


def test_closure_classes_are_conclusive_on_a_whole_chain():
    # a chain lists every object and all its arrows are monic
    t = ThinCategory.chain(3)
    carrier = default_carrier(t)
    system = thin_system(t, "iso-all")
    mstar = m_star(t, system.M, carrier)
    for cls in (mstar, e_circ(t, system.E, carrier), e_bullet(t, system, carrier, mstar)):
        assert cls.subset_search_complete, cls.name
    # a carrier short of an object decides nothing beyond it
    short = Carrier(t, (0, 1))
    assert not e_circ(t, system.E, short).subset_search_complete


def test_closure_classes_over_a_bounded_stream_stay_inconclusive(C, carrier, surj_inj):
    # FinSet's stream stops at max_size, so only e_bullet_facts can decide
    assert not e_circ(C, surj_inj.E, carrier).subset_search_complete
    assert not m_star(C, surj_inj.M, carrier).subset_search_complete


def test_thin_systems_validate():
    t = ThinCategory.chain(3)
    carrier = Carrier(t, list(t.objects()))
    for name in ("iso-all", "all-iso"):
        assert not validate_system(thin_system(t, name), carrier).fails


def _broken(cat):
    every = builtin_class(cat, "all")
    return FactSystem("broken", cat, every, every, lambda f: (cat.identity(f.dom), f))


def _surj_all(cat):
    # the image factorization with M = all: a non-injective f also factors
    # through a bijection of its domain, which no iso links to its image
    return FactSystem("surj-all", cat, builtin_class(cat, "surjective"),
                      builtin_class(cat, "all"), _finset_image_factor)


def test_uniqueness_reports_the_first_unlinked_factorization():
    cat = FinSetCategory(2)
    v = validate_system(_broken(cat), default_carrier(cat))
    assert v.fails
    assert v.witness == {"f": fin(0, 1, ()), "alt": (fin(0, 1, ()), fin(1, 1, (0,)))}


def test_uniqueness_reports_a_later_morphism_and_its_first_unlinked_alternative():
    # 2 -> 1 factors through its image 1 (linked), then through 2, where
    # the identity comes before the swap
    cat = FinSetCategory(3)
    v = validate_system(_surj_all(cat), default_carrier(cat))
    assert v.fails
    assert v.witness == {"f": fin(2, 1, (0, 0)), "alt": (cat.identity(2), fin(2, 1, (0, 0)))}


@pytest.mark.parametrize("cat, build, name", [
    *(pytest.param(FinSetCategory(n), finset_system, name, id=f"finset{n}-{name}")
      for n in (2, 3) for name in ("surj-inj", "iso-all", "all-iso")),
    *(pytest.param(ThinCategory.chain(4), thin_system, name, id=f"chain4-{name}")
      for name in ("iso-all", "all-iso")),
    pytest.param(FinSetCategory(2), lambda cat, _: _broken(cat), "broken", id="broken"),
    pytest.param(FinSetCategory(3), lambda cat, _: _surj_all(cat), "surj-all",
                 id="surj-all")])
def test_uniqueness_matches_the_per_morphism_oracle(cat, build, name):
    system = build(cat, name)
    carrier = default_carrier(cat)
    assert _check_uniqueness(system, carrier) == oracles.check_uniqueness(system, carrier)


@pytest.mark.parametrize("name, most", [("surj-inj", 488), ("iso-all", 1316),
                                        ("all-iso", 1483)])
def test_uniqueness_composes_each_candidate_once(name, most):
    # recomposing every candidate for each morphism, and testing every
    # member of a hom for an iso, made 2,682, 6,040 and 6,303 composes
    cat = _CountingFinSet(3)
    _check_uniqueness(finset_system(cat, name), default_carrier(cat))
    assert cat.composes <= most
