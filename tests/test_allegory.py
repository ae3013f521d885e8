import functools
import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from spanalg import (FinSetCategory, Span, TabulationFailed, ThinCategory, allegory_suite,
                     check_allegorical_criterion, check_allegorical_relation,
                     check_gamma_pullback_preservation, check_modular_law,
                     check_order, check_special_modular_law,
                     fin, find_unit, graph, involution, is_cover, is_map,
                     is_mono_map, make_equivalence, map_category, named_system,
                     relation_span, span_compose, span_meet, tabulate)
from spanalg import allegory, cli
from spanalg.allegory import (AllegoryView, MapCategory, check_m_self_tabulation,
                              check_monotone_composition, counit_check,
                              jointly_monic, modular_triples)
from spanalg.classes import e_bullet, e_circ, m_star
from spanalg.spans import enumerate_hom_classes, relation_spans
from spanalg.systems import default_carrier
from spanalg.verdict import Verdict

import oracles


@pytest.fixture(scope="module")
def small_view(C, surj_inj):
    return AllegoryView(C, make_equivalence(C, "simE", surj_inj), objects=range(3))


def test_order_is_subset_order(C, small_view):
    view = small_view
    reps, complete = view.hom(2, 2)
    assert complete and len(reps) == 16
    for r in reps:
        for s in reps:
            want = frozenset(zip(r.left.table, r.right.table)) <= \
                frozenset(zip(s.left.table, s.right.table))
            assert view.leq(r, s).holds == want


def test_order_laws_hold(small_view):
    for a, b in itertools.product(range(3), repeat=2):
        assert check_order(small_view, a, b).holds


def test_check_order_is_unknown_when_the_bound_cuts_its_triples():
    cat = FinSetCategory(2)
    view = AllegoryView(cat, make_equivalence(cat, "simE", named_system(cat, "surj-inj")))
    v = check_order(view, 2, 2, triple_budget=10)
    assert v.unknown
    assert v.reason == "associativity triples on hom(2,2) cut at the bound (10 of 4096)"
    assert check_order(view, 2, 2, triple_budget=4096).holds
    assert check_order(view, 2, 2).holds


def test_check_order_cuts_its_pairs_at_the_bound(monkeypatch):
    # 512 classes on hom(3,3): 262,144 pairs, but only 64 may be swept
    cat = FinSetCategory(3)
    view = AllegoryView(cat, make_equivalence(cat, "simE", named_system(cat, "surj-inj")))
    n = len(view.hom(3, 3)[0])
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    # a meet of keyed classes is built on their keys, of others as a span
    monkeypatch.setattr(allegory, "span_meet", counted(allegory.span_meet))
    monkeypatch.setattr(view.equiv, "meet_key", counted(view.equiv.meet_key))
    v = check_order(view, 3, 3, triple_budget=64)
    assert v.unknown
    assert v.reason == "associativity triples on hom(3,3) cut at the bound (64 of 134217728)"
    # one meet per class, at most three per swept pair and six per swept triple
    assert 0 < calls[0] <= n + 9 * 64


@pytest.mark.parametrize("budget, order_budget, reason", [
    (None, 7, "associativity triples on hom(1,1) cut at the bound (7 of 8)"),
    (8, None, "monotone-composition quads on (1,1,2) cut at the bound (8 of 16)"),
    (16, None, "modular triples on (1,1,2) cut at the bound (16 of 32)"),
    (None, None, None),
])
def test_suite_names_the_sweep_a_budget_cuts(small_view, budget, order_budget, reason):
    # the suite gives every sweep one budget, so the order triples of
    # hom(1,1) are cut first; each sweep is called here with its own budget
    triples, cut = modular_triples(small_view, 1, 1, 2, budget)
    verdicts = [check_order(small_view, 1, 1, triple_budget=order_budget),
                check_monotone_composition(small_view, 1, 1, 2, quad_budget=budget),
                Verdict.maybe(reason=cut) if cut else check_modular_law(small_view, triples)]
    if reason is None:
        assert all(v.holds for v in verdicts)
        assert allegory_suite(small_view, objects=[1, 2]).holds
    else:
        first = next(v for v in verdicts if not v.holds)
        assert first.unknown and first.reason == reason


class _OneUndecided:
    """Delegates to an equivalence, but answers Unknown on the first pair of
    spans it is asked to compare, and on that pair ever after."""

    def __init__(self, inner):
        self.inner = inner
        self.pair = None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def equal(self, s1, s2):
        if self.pair is None:
            self.pair = (s1, s2)
        if s1 is self.pair[0] and s2 is self.pair[1]:
            return Verdict.maybe("scripted")
        return self.inner.equal(s1, s2)


@pytest.mark.parametrize("check, reason", [
    (lambda view: check_order(view, 1, 2), "order comparison undecided on hom(1,2)"),
    (lambda view: check_monotone_composition(view, 1, 1, 2),
     "order comparison undecided on hom(1,1)"),
], ids=["order", "monotone-composition"])
def test_law_checks_are_unknown_on_an_undecided_comparison(check, reason):
    # every comparison of distinct classes is an order test that Fails, so
    # the scripted Unknown lands on one; it refutes nothing and must not be
    # read as a refutation, nor skipped
    cat = FinSetCategory(2)
    equiv = make_equivalence(cat, "simE", named_system(cat, "surj-inj"))
    assert check(AllegoryView(cat, equiv)).holds
    scripted = _OneUndecided(equiv)
    v = check(AllegoryView(cat, scripted))
    assert scripted.pair is not None
    assert v.unknown and v.reason == reason


def test_one_budget_cuts_the_suite_at_its_first_sweep(small_view):
    v = allegory_suite(small_view, objects=[1, 2], budget=8)
    assert v.unknown
    assert v.reason == "associativity triples on hom(1,2) cut at the bound (8 of 64)"


def test_order_idempotence_fails_for_iso_all(C, iso_all):
    view = AllegoryView(C, make_equivalence(C, "simE", iso_all), objects=range(3))
    v = check_order(view, 1, 1)
    assert v.fails
    assert v.reason == "meet not idempotent"


def test_modular_law_matches_oracle(C, small_view):
    view = small_view
    rng = random.Random(13)
    rels = {(a, b): list(oracles.all_relations(a, b))
            for a, b in itertools.product(range(3), repeat=2)}
    for _ in range(300):
        a, b, c = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        r, s, t = rng.choice(rels[(a, b)]), rng.choice(rels[(b, c)]), rng.choice(rels[(a, c)])
        assert oracles.modular_law_holds(r, s, t)
        got = check_modular_law(view, [(relation_span(C, a, b, r),
                                        relation_span(C, b, c, s),
                                        relation_span(C, a, c, t))])
        assert got.holds


def test_special_modular_law(small_view):
    for a, b in itertools.product(range(3), repeat=2):
        assert check_special_modular_law(small_view, small_view.hom(a, b)[0]).holds


def test_suite_four_way_agreement(C, carrier, surj_inj, iso_all, all_iso):
    from spanalg.systems import finset_system
    expectations = {"surj-inj": True, "iso-all": False, "all-iso": True}
    for name, ok in expectations.items():
        system = finset_system(C, name)
        view = AllegoryView(C, make_equivalence(C, "simE", system), objects=range(3))
        suite = allegory_suite(view, objects=range(3))
        rel = check_allegorical_relation(C, view.equiv, carrier.morphisms())
        crit = check_allegorical_criterion(C, system.E, carrier.morphisms(), range(4))
        m_mono = all(C.is_mono(f).holds for f in carrier.morphisms()
                     if system.M.membership(f).holds)
        assert suite.holds == ok, name
        assert rel.holds == ok, name
        assert crit.holds == ok, name
        assert m_mono == ok, name


def test_criterion_failure_witness_is_effective(C, carrier, iso_all):
    v = check_allegorical_criterion(C, iso_all.E, carrier.morphisms(), range(4))
    assert v.fails
    assert oracles.is_effective_retraction(v.witness.table, v.witness.cod)


def test_maps_are_function_graphs(C, small_view, surj_inj):
    mc = map_category(small_view, surj_inj, range(3))
    for a, b in itertools.product(range(3), repeat=2):
        maps = mc.hom(a, b)
        assert len(maps) == b ** a
        for r in maps:
            assert oracles.is_function(frozenset(zip(r.left.table, r.right.table)),
                                       a, b)


def test_empty_relation_is_not_a_map(C, small_view):
    w = is_map(small_view, relation_span(C, 1, 1, ()))
    assert w.unit_ineq.fails
    assert w.verdict.fails


def test_cover_mono_classification(C, small_view, surj_inj):
    mc = map_category(small_view, surj_inj, range(3))
    for a, b in itertools.product(range(1, 3), repeat=2):
        for f in C.hom(a, b):
            cls = mc.classify(small_view.of_morphism(f))
            surj = set(f.table) == set(range(b))
            inj = len(set(f.table)) == a
            want = "iso" if surj and inj else "cover" if surj else \
                "mono" if inj else "neither"
            assert cls == want, f


def test_map_composition_preserves_cover_and_mono(C, small_view, surj_inj):
    view = small_view
    covers = [view.of_morphism(f) for f in C.hom(3, 2) if set(f.table) == {0, 1}]
    for c1 in covers[:4]:
        for f in C.hom(2, 1):
            c2 = view.of_morphism(f)
            assert is_cover(view, view.compose(c1, c2)).holds
    monos = [view.of_morphism(f) for f in C.hom(1, 2) if True]
    for m1 in monos:
        for f in C.hom(2, 3):
            if len(set(f.table)) == 2:
                assert is_mono_map(view, view.compose(m1, view.of_morphism(f))).holds


def test_tabulate_recovers_relation(C, small_view, surj_inj):
    for a, b in itertools.product(range(3), repeat=2):
        for r in small_view.hom(a, b)[0]:
            tab = tabulate(small_view, surj_inj, r)
            assert tab.composite.holds
            assert tab.joint_monicity.holds
            assert tab.f.verdict.holds and tab.g.verdict.holds


def test_tabulate_fails_for_iso_all_duplicate_rows(C, iso_all):
    view = AllegoryView(C, make_equivalence(C, "simE", iso_all), objects=range(3))
    dup = Span(2, fin(2, 1, (0, 0)), fin(2, 1, (0, 0)))
    with pytest.raises(TabulationFailed) as exc:
        tabulate(view, iso_all, dup)
    assert exc.value.equation in ("composite", "joint-monicity")


def test_unit_at_terminal(small_view):
    w = find_unit(small_view, range(3))
    assert w.obj == 1
    assert w.verdict.holds


def test_map_category_pullback_is_intrinsic(C, small_view, surj_inj):
    mc = map_category(small_view, surj_inj, range(4))
    f = small_view.of_morphism(fin(2, 1, (0, 0)))
    pb = mc.pullback(f, f)
    # the pullback of 2 -> 1 with itself has four elements
    assert pb.p1.apex == 4 or pb.p1.dom == 4
    u = small_view.of_morphism(fin(1, 2, (0,)))
    m = pb.mediate(u, u)
    assert m is not None


def test_image_factor_in_map_category(C, small_view, surj_inj):
    mc = map_category(small_view, surj_inj, range(4))
    f = small_view.of_morphism(fin(3, 3, (1, 1, 2)))
    e, i = mc.image_factor(f)
    assert is_cover(small_view, e).holds
    assert is_mono_map(small_view, i).holds
    assert small_view.equal(small_view.compose(e, i), f).holds


def test_gamma_preservation_and_m_cross_check(C, small_view, carrier):
    cospans = [(h, k) for h in C.hom(2, 2) for k in C.hom(2, 2)]
    assert check_gamma_pullback_preservation(small_view, cospans[:60]).holds
    monos = [f for f in carrier.morphisms() if C.is_mono(f).holds]
    assert check_m_self_tabulation(small_view, monos).holds


def test_counit_small(C, small_view, surj_inj):
    assert counit_check(small_view, surj_inj, 1, 1, apexes=range(2)).holds
    v = counit_check(small_view, surj_inj, 2, 1, apexes=range(3))
    assert v.holds


def test_ebullet_view_is_unitary_tabular(C, ebullet_view, iso_all):
    assert allegory_suite(ebullet_view, objects=range(4)).holds
    assert find_unit(ebullet_view, range(4)).verdict.holds
    for a, b in itertools.product(range(4), repeat=2):
        for r in ebullet_view.hom(a, b)[0]:
            tab = tabulate(ebullet_view, iso_all, r)
            assert not tab.composite.fails and not tab.joint_monicity.fails


def test_counit_unknown_when_a_map_hom_is_incomplete(C, iso_all, ebullet_class):
    # the repaired quotient lists its map homs through view.hom and is_map,
    # so a patched view.hom reaches them; every hom has one class, a map
    view = AllegoryView(C, make_equivalence(C, "simEbullet", e_class=ebullet_class),
                        objects=range(3))
    assert not view.equiv.maps_are_graphs
    full_hom = view.hom

    def hom_missing_maps_into_2(a, b):
        # no map reaches 2, so no map span 2 <- w -> 1 exists and the
        # counit looks non-surjective
        return ([], False) if b == 2 else full_hom(a, b)

    view.hom = hom_missing_maps_into_2
    v = counit_check(view, iso_all, 2, 1, apexes=range(3))
    assert v.unknown
    assert v.reason == \
        "counit not surjective onto the hom classes on an incomplete hom enumeration"

    # the flag alone, with nothing missing, also keeps the counit from Holds
    view.hom = lambda a, b: (full_hom(a, b)[0], (a, b) != (2, 2))
    v = counit_check(view, iso_all, 2, 1, apexes=range(3))
    assert v.unknown
    assert v.reason == "map hom enumeration incomplete"


def test_counit_unknown_when_a_class_hom_is_incomplete(C, surj_inj):
    # surj-inj map homs are graphs and skip view.hom, but the classes the
    # counit must reach still come from it
    view = AllegoryView(C, make_equivalence(C, "simE", surj_inj), objects=range(3))
    assert view.equiv.maps_are_graphs
    full_hom = view.hom

    view.hom = lambda a, b: (full_hom(a, b)[0], (a, b) != (2, 1))
    v = counit_check(view, surj_inj, 2, 1, apexes=range(3))
    assert v.unknown
    assert v.reason == "hom enumeration incomplete"

    view.hom = lambda a, b: \
        (full_hom(a, b)[0][1:], False) if (a, b) == (2, 1) else full_hom(a, b)
    v = counit_check(view, surj_inj, 2, 1, apexes=range(3))
    assert v.unknown
    assert v.reason == "counit image count mismatch on an incomplete hom enumeration"


def _counit_apexes(cat, objs, a, b):
    """The carrier objects, then the apexes of relations a -> b beyond
    them, as `map-counit` lists them."""
    return list(dict.fromkeys(objs + [s.apex for s in relation_spans(cat, a, b)]))


@pytest.mark.parametrize("argv, merges", [
    (["--category", "finset", "--max-size", "2", "--system", "surj-inj",
      "--relation", "simE"], True),
    (["--category", "finset", "--max-size", "2", "--system", "iso-all",
      "--relation", "simEbullet"], True),
    (["--category", "finset", "--max-size", "2", "--system", "all-iso",
      "--relation", "simE"], True),
    # a chain has no iso but the identities, so no two of its map spans
    # share a counit image and the oracle is never asked
    (["--category", "thin", "--max-size", "3", "--system", "iso-all",
      "--relation", "simE"], False),
])
def test_map_relations_match_the_hom_sweep_oracle(argv, merges, monkeypatch):
    # the mediator gives the counit the same verdicts as sweeping the map
    # hom between the apexes for an iso
    ctx = cli.Context(cli.build_parser().parse_args(["map-counit"] + argv))
    view, objs = ctx.view(), ctx.objects()
    isomorphic = []

    def oracle(mapcat, s1, s2):
        isomorphic.append(oracles.map_span_isomorphic(mapcat, s1, s2))
        return isomorphic[-1]

    for a, b in itertools.product(objs, repeat=2):
        apexes = _counit_apexes(ctx.cat, objs, a, b)
        got = counit_check(view, ctx.system, a, b, apexes)
        with monkeypatch.context() as m:
            m.setattr(allegory, "_map_span_isomorphic", oracle)
            want = counit_check(view, ctx.system, a, b, apexes)
        assert (got.outcome, got.reason, repr(got.witness)) == \
            (want.outcome, want.reason, repr(want.witness)), (a, b)
    assert any(isomorphic) == merges


@pytest.mark.parametrize("system, relation", [
    ("surj-inj", "simE"), ("iso-all", "simEbullet"), ("iso-all", "simE")])
def test_map_span_isomorphic_matches_the_hom_sweep_oracle(system, relation):
    # every ordered pair of jointly monic map spans over apexes 0..3, both
    # ways round: a mediator that is a mono but no iso must not merge them
    ctx = cli.Context(cli.build_parser().parse_args(
        ["map-counit", "--max-size", "2", "--system", system, "--relation", relation]))
    view = ctx.view()
    mc = map_category(view, ctx.system, range(4))
    outcomes = set()
    for a, b in itertools.product(range(3), repeat=2):
        spans = [(h, k) for w in range(4) for h in mc.hom(w, a) for k in mc.hom(w, b)
                 if jointly_monic(view, h, k).holds]
        for s1, s2 in itertools.product(spans, repeat=2):
            got = allegory._map_span_isomorphic(mc, s1, s2)
            assert got == oracles.map_span_isomorphic(mc, s1, s2), (s1, s2)
            outcomes.add(got)
    assert outcomes == {True, False} if relation == "simE" else {True}


def test_counit_lists_no_map_hom_between_apexes(small_view, surj_inj, monkeypatch):
    asked = set()
    hom = MapCategory.hom

    def recording_hom(self, a, b):
        asked.add((a, b))
        return hom(self, a, b)

    monkeypatch.setattr(MapCategory, "hom", recording_hom)
    v = counit_check(small_view, surj_inj, 2, 2, apexes=range(5))
    assert v.holds and v.reason == "bijection on 16 classes"
    assert asked == {(w, 2) for w in range(5)}


def test_counit_tests_a_span_only_against_its_images_first_span(small_view, surj_inj,
                                                                 monkeypatch):
    # 65 jointly monic map spans 2 <- w -> 2 over apexes 0..4 give 16
    # classes: one isomorphism test per span whose image was met before.
    # The triangular identities tabulate each class, one more monic pair each.
    monic, isomorphic = [], []
    monic_test, iso_test = allegory.jointly_monic, allegory._map_span_isomorphic

    def counted_monic(view, h, k):
        v = monic_test(view, h, k)
        monic.append(v.holds)
        return v

    def counted_iso(mc, s1, s2):
        isomorphic.append(iso_test(mc, s1, s2))
        return isomorphic[-1]

    monkeypatch.setattr(allegory, "jointly_monic", counted_monic)
    monkeypatch.setattr(allegory, "_map_span_isomorphic", counted_iso)
    v = counit_check(small_view, surj_inj, 2, 2, apexes=range(5))
    assert v.holds and v.reason == "bijection on 16 classes"
    assert sum(monic) == 65 + 16
    assert len(isomorphic) == 49 and all(isomorphic)


def test_counit_not_injective_names_the_first_clash(small_view, surj_inj, monkeypatch):
    # with no merge allowed, the first image met twice is that of
    # ([0,0], 1) and then ([0,0], swap), two spans of one relation on 2
    def g(table):
        return small_view.of_morphism(fin(2, 2, table))

    monkeypatch.setattr(allegory, "_map_span_isomorphic", lambda mc, s1, s2: False)
    v = counit_check(small_view, surj_inj, 2, 2, apexes=range(5))
    assert v.fails and v.reason == "counit not injective"
    assert v.witness == ((g((0, 0)), g((0, 1))), (g((0, 0)), g((1, 0))))

    # a map hom that was listed incomplete makes the clash only Unknown
    hom = MapCategory.hom

    def incomplete_hom(self, a, b):
        self.complete = False
        return hom(self, a, b)

    monkeypatch.setattr(MapCategory, "hom", incomplete_hom)
    v = counit_check(small_view, surj_inj, 2, 2, apexes=range(5))
    assert v.unknown
    assert v.reason == "counit not injective on an incomplete hom enumeration"


# -- interning ---------------------------------------------------------------------

def _finset_view():
    cat = FinSetCategory(3)
    system = named_system(cat, "surj-inj")
    return AllegoryView(cat, make_equivalence(cat, "simE", system), objects=range(3))


def _chain_view():
    cat = ThinCategory.chain(5)
    system = named_system(cat, "iso-all")
    return AllegoryView(cat, make_equivalence(cat, "simE", system))


def _count_decider_calls(equiv):
    """Count equiv.key and equiv.equal calls made through this instance."""
    calls = {"key": 0, "equal": 0}
    for name in calls:
        method = getattr(equiv, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        setattr(equiv, name, counted)
    return calls


def _all_homs(view):
    return [view.hom(a, b)[0] for a, b in itertools.product(view.objects, repeat=2)]


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_rep_is_idempotent_by_identity(make_view):
    view = make_view()
    homs = _all_homs(view)
    calls = _count_decider_calls(view.equiv)
    for reps in homs:
        for r in reps:
            assert view.rep(r) is r
    assert calls == {"key": 0, "equal": 0}


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_equal_on_representatives_is_cached(make_view):
    view = make_view()
    homs = _all_homs(view)
    calls = _count_decider_calls(view.equiv)
    for reps in homs:
        for r, s in itertools.permutations(reps, 2):
            first = view.equal(r, s)
            n = calls["equal"]
            again = view.equal(r, s)
            assert again is first and calls["equal"] == n
            direct = view.equiv.equal(r, s)
            assert (again.outcome, again.witness, again.reason) == \
                (direct.outcome, direct.witness, direct.reason)


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_identity_is_cached(make_view):
    view = make_view()
    first = [view.identity(a) for a in view.objects]
    calls = _count_decider_calls(view.equiv)
    assert all(view.identity(a) is r for a, r in zip(view.objects, first))
    assert calls == {"key": 0, "equal": 0}


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_graph_class_is_cached(make_view):
    view = make_view()
    mors = [f for a in view.objects for b in view.objects for f in view.cat.hom(a, b)]
    first = [view.of_morphism(f) for f in mors]
    assert all(r is view.rep(graph(view.cat, f)) for f, r in zip(mors, first))
    calls = _count_decider_calls(view.equiv)
    assert all(view.of_morphism(f) is r for f, r in zip(mors, first))
    assert calls == {"key": 0, "equal": 0}


def _count_rep_calls(view):
    """Count the view's rep calls and the key ops of its equivalence: an op
    on keyed classes takes the class of a key it computes, not of a span."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    view.rep = counted(view.rep)
    for name in ("compose_key", "meet_key", "inv_key"):
        if hasattr(view.equiv, name):
            setattr(view.equiv, name, counted(getattr(view.equiv, name)))
    return calls


def _op_memos(view):
    """The binary op memos and the inv memo of a view's store."""
    return {"then": view._then, "meet": view._meet, "equal": view._equal,
            "leq": view._leq}, view._inv


def _builds(view):
    """The results a view has built, as spans or as keys: one per entry of
    its compose, meet and inv memos."""
    rows, inv = _op_memos(view)
    return sum(len(row) for name in ("then", "meet") for row in rows[name].values()) + len(inv)


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_op_keys_name_only_interned_representatives(make_view):
    view = make_view()
    assert allegory_suite(view).holds

    def interned(i):
        return 0 <= i < len(view._reps) and view._interned[id(view._reps[i])] == i

    rows, inv = _op_memos(view)
    assert inv and all(interned(i) and interned(k) for i, k in inv.items())
    for name, memo in rows.items():
        assert memo, name
        for i, row in memo.items():
            assert interned(i) and row, name
            for j, got in row.items():
                assert interned(j), name
                assert interned(got) if name in ("then", "meet") else isinstance(got, Verdict)


def _every_op(view, homs):
    """Every inv, meet, equal and compose on the classes of the listed homs."""
    for (a, b), ab in homs.items():
        for r in ab:
            view.inv(r)
            for s in ab:
                view.meet(r, s)
                view.equal(r, s)
            for c in view.objects:
                for s in homs[(b, c)]:
                    view.compose(r, s)


def _homs(view):
    return {(a, b): view.hom(a, b)[0] for a, b in itertools.product(view.objects, repeat=2)}


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_ops_on_representatives_call_rep_only_on_a_miss(make_view):
    view = make_view()
    homs = _homs(view)
    calls = _count_rep_calls(view)
    _every_op(view, homs)
    # one rep or key op call per result built on a miss, none for the arguments
    assert calls[0] == _builds(view) > 0
    calls[0] = 0
    _every_op(view, homs)
    assert calls[0] == 0


@pytest.mark.parametrize("system", ["surj-inj", "iso-all", "all-iso"])
def test_keyed_op_memos_hold_the_classes_of_the_built_spans(system):
    # a keyed view fills its op memos from keys; each entry must be the
    # class of the span that span_compose, span_meet or involution builds
    cat = FinSetCategory(2)
    view = AllegoryView(cat, make_equivalence(cat, "simE", named_system(cat, system)))
    allegory_suite(view)
    _every_op(view, _homs(view))
    reps = list(view._reps)
    assert all(k is not None for k in view._keys)

    def index(s):
        return view._interned[id(view.rep(s))]

    rows, inv = _op_memos(view)
    filled = 0
    for name, build in (("then", span_compose), ("meet", span_meet)):
        for i, row in list(rows[name].items()):
            for j, got in list(row.items()):
                assert got == index(build(cat, reps[i], reps[j])), (name, i, j)
                filled += 1
    for i, got in list(inv.items()):
        assert got == index(involution(reps[i])), i
        filled += 1
    assert filled


def test_every_span_is_built_inside_a_view_op(monkeypatch, C, surj_inj):
    # the suite's memos and the counit's maps build no span or key
    # themselves, so a traced view op counts every build; this view has
    # keys, so its ops build keys
    view = AllegoryView(C, make_equivalence(C, "simE", surj_inj), objects=range(3))
    stack, builds = [], []

    def marked(fn, kind):
        @functools.wraps(fn)
        def wrapper(*args):
            if kind == "build":
                builds.append(stack[-1] if stack else None)
            stack.append(kind)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return wrapper

    for name in ("compose", "meet", "inv"):
        monkeypatch.setattr(AllegoryView, name, marked(getattr(AllegoryView, name), "op"))
    for name in ("span_compose", "span_meet", "involution"):
        monkeypatch.setattr(allegory, name, marked(getattr(allegory, name), "build"))
    for name in ("compose_key", "meet_key", "inv_key"):
        monkeypatch.setattr(view.equiv, name, marked(getattr(view.equiv, name), "build"))
    assert allegory_suite(view).holds
    assert counit_check(view, surj_inj, 2, 1, apexes=range(3)).holds
    assert builds and set(builds) == {"op"}
    assert len(builds) == _builds(view)


@pytest.mark.parametrize("make_view", [_finset_view, _chain_view])
def test_ops_on_a_fresh_span_use_its_representative(make_view):
    view = make_view()
    for reps in _all_homs(view):
        for r in reps:
            s = Span(r.apex, r.left, r.right)
            assert id(s) not in view._interned
            assert view.rep(s) is r
            assert view.equal(s, r) is view.equal(r, r)
            assert view.equal(s, r).holds
            assert view.inv(s) is view.inv(r)
            assert view.meet(s, s) is view.meet(r, r)
            one = view.identity(r.dom)
            assert view.compose(one, s) is view.compose(one, r) is r


# -- the view against the relational oracle ----------------------------------------

def _relations(a, b):
    cells = [(x, y) for x in range(a) for y in range(b)]
    return st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)).map(
        lambda bits: frozenset(c for c, bit in zip(cells, bits) if bit))


@st.composite
def _relation_triples(draw):
    """r, t: a -> b and s: b -> c, with a, b, c <= 3."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    return (a, b, c), draw(_relations(a, b)), draw(_relations(b, c)), draw(_relations(a, b))


def _relation(span):
    return frozenset(zip(span.left.table, span.right.table))


@given(_relation_triples())
def test_view_operations_match_oracle(small_view, triple):
    (a, b, c), r, s, t = triple
    view = small_view
    rs, ss, ts = (relation_span(view.cat, x, y, rel)
                  for (x, y), rel in (((a, b), r), ((b, c), s), ((a, b), t)))
    assert _relation(view.compose(rs, ss)) == oracles.compose(r, s)
    assert _relation(view.meet(rs, ts)) == oracles.meet(r, t)
    assert _relation(view.inv(rs)) == oracles.transpose(r)
    assert view.leq(rs, ts).holds == oracles.leq(r, t)


@st.composite
def _relation_with_ends(draw):
    """r: a -> b, with a, b <= 3."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return (a, b), draw(_relations(a, b))


@given(_relation_with_ends())
def test_maps_and_tabulations_match_oracle(rel_view, surj_inj, drawn):
    """is_map decides function-hood, and tabulate splits r into two graphs
    whose composite is r, now that surj-inj map homs skip is_map."""
    (a, b), r = drawn
    view = rel_view
    rs = relation_span(view.cat, a, b, r)
    assert is_map(view, rs).verdict.holds == oracles.is_function(r, a, b)
    tab = tabulate(view, surj_inj, rs)
    assert tab.composite.holds and tab.joint_monicity.holds
    w = tab.f.r.dom
    assert tab.g.r.dom == w
    f, g = _relation(tab.f.r), _relation(tab.g.r)
    assert oracles.is_function(f, w, a) and oracles.is_function(g, w, b)
    assert tab.f.verdict.holds and tab.g.verdict.holds
    assert oracles.compose(oracles.transpose(f), g) == r


# -- the hom listing against pairwise grouping --------------------------------------

def _equivalence(cat, system, relation):
    sys_ = named_system(cat, system)
    if relation == "simE":
        return make_equivalence(cat, relation, sys_)
    if relation == "approx":
        return make_equivalence(cat, relation)
    carrier = default_carrier(cat)
    if relation == "simEo":
        return make_equivalence(cat, relation, e_class=e_circ(cat, sys_.E, carrier))
    eb = e_bullet(cat, sys_, carrier, m_star(cat, sys_.M, carrier))
    return make_equivalence(cat, relation, e_class=eb)


def _finset2(system, relation="simE"):
    cat = FinSetCategory(2)
    return cat, _equivalence(cat, system, relation)


def _chain(relation, n=4):
    cat = ThinCategory.chain(n)
    return cat, _equivalence(cat, "iso-all", relation)


# name -> (category and equivalence, whether the reference lists every
# relation a x b as the surj-inj branch did, not the spans over the stream)
GROUPED_VIEWS = {
    "finset-surj-inj": (lambda: _finset2("surj-inj"), True),
    "finset-iso-all": (lambda: _finset2("iso-all"), False),
    "finset-all-iso": (lambda: _finset2("all-iso"), False),
    "finset-iso-all-simEbullet": (lambda: _finset2("iso-all", "simEbullet"), False),
    # some comparisons are Unknown here, so four homs are incomplete
    "finset-iso-all-simEo": (lambda: _finset2("iso-all", "simEo"), False),
    "finset-approx": (lambda: _finset2("surj-inj", "approx"), False),
    "thin-simE": (lambda: _chain("simE"), False),
    "thin-simEo": (lambda: _chain("simEo"), False),
}


@pytest.mark.parametrize("name", sorted(GROUPED_VIEWS))
def test_hom_lists_the_classes_that_pairwise_grouping_finds(name):
    """view.hom gives the representatives, order and completeness that
    grouping the candidate spans with pairwise `equal` calls gives, once
    each group's first span is interned."""
    build, exact = GROUPED_VIEWS[name]
    cat, equiv = build()
    view, reference = AllegoryView(cat, equiv), AllegoryView(cat, equiv)
    for a, b in itertools.product(view.objects, repeat=2):
        if exact:
            spans = [relation_span(cat, a, b, r) for r in oracles.all_relations(a, b)]
        else:
            spans = [Span(w, lf, rg) for w in cat.objects()
                     for lf in cat.hom(w, a) for rg in cat.hom(w, b)]
        raw, complete = oracles.group_by_equal(equiv, spans)
        assert view.hom(a, b) == ([reference.rep(s) for s in raw], complete), (a, b)


@pytest.mark.parametrize("system", ["surj-inj", "iso-all", "all-iso"])
def test_keyed_hom_listing_makes_no_equal_call(system):
    cat = FinSetCategory(2)
    view = AllegoryView(cat, make_equivalence(cat, "simE", named_system(cat, system)))
    calls = _count_decider_calls(view.equiv)
    _all_homs(view)
    assert calls["equal"] == 0


@pytest.mark.parametrize("category, system, monic", [
    (FinSetCategory(2), "surj-inj", True), (FinSetCategory(2), "all-iso", True),
    (FinSetCategory(2), "iso-all", False), (ThinCategory.chain(4), "iso-all", True)],
    ids=["finset-surj-inj", "finset-all-iso", "finset-iso-all", "thin-iso-all"])
def test_classes_are_relations_when_m_is_monic(category, system, monic):
    equiv = make_equivalence(category, "simE", named_system(category, system))
    assert equiv.classes_are_relations is monic


# -- map homs: graphs against the is_map filter ----------------------------------------

MAP_VIEWS = {f"finset-{system}-{relation}": (lambda s=system, r=relation: _finset2(s, r))
             for system in ("surj-inj", "iso-all", "all-iso")
             for relation in ("simE", "simEo", "simEbullet", "approx")}
MAP_VIEWS.update({f"thin-{relation}": (lambda r=relation: _chain(r))
                  for relation in ("simE", "simEo", "simEbullet")})
GRAPH_VIEWS = {"finset-surj-inj-simE", "thin-simE"}


@pytest.mark.parametrize("name", sorted(MAP_VIEWS))
def test_map_homs_are_the_classes_is_map_accepts(name):
    """MapCategory.hom gives, by identity, the classes of view.hom that
    is_map accepts and their completeness, on the graph path and off it."""
    cat, equiv = MAP_VIEWS[name]()
    assert equiv.maps_are_graphs is (name in GRAPH_VIEWS)
    view = AllegoryView(cat, equiv)
    for a, b in itertools.product(view.objects, repeat=2):
        mc = map_category(view, None)
        got = mc.hom(a, b)
        reps, complete = view.hom(a, b)
        want = [r for r in reps if is_map(view, r).verdict.holds]
        assert len(got) == len(want), (a, b)
        assert {id(r) for r in got} == {id(r) for r in want}, (a, b)
        assert mc.complete == complete, (a, b)


# name -> (category, system, relation): the views of MAP_VIEWS, and the
# 4-chain under all-iso
COUNIT_VIEWS = {f"finset-{system}-{relation}": (functools.partial(FinSetCategory, 2),
                                                system, relation)
                for system in ("surj-inj", "iso-all", "all-iso")
                for relation in ("simE", "simEo", "simEbullet", "approx")}
COUNIT_VIEWS.update({f"thin-{system}-{relation}": (functools.partial(ThinCategory.chain, 4),
                                                   system, relation)
                     for system, relation in [("iso-all", "simE"), ("iso-all", "simEo"),
                                              ("iso-all", "simEbullet"), ("all-iso", "simE")]})


@pytest.mark.parametrize("merges", [True, False], ids=["mediator", "no-merge"])
@pytest.mark.parametrize("name", sorted(COUNIT_VIEWS))
def test_counit_check_matches_the_pass_by_pass_reference(name, merges, monkeypatch):
    """counit_check gives the outcome, reason and witness of the reference
    passes on every hom, each on a view of its own; with no merge allowed,
    every image met twice is a clash, so the witness rule is exercised."""
    make_cat, system, relation = COUNIT_VIEWS[name]
    cat = make_cat()
    equiv, system = _equivalence(cat, system, relation), named_system(cat, system)
    if not merges:
        monkeypatch.setattr(allegory, "_map_span_isomorphic", lambda mc, s1, s2: False)
    view, reference = AllegoryView(cat, equiv), AllegoryView(cat, equiv)
    outcomes = set()
    for a, b in itertools.product(view.objects, repeat=2):
        apexes = _counit_apexes(cat, view.objects, a, b)
        try:
            got = counit_check(view, system, a, b, apexes)
        except TabulationFailed as exc:
            # only the triangular identities tabulate
            got = Verdict.no(exc.args, "tabulation failed")
        want = oracles.counit_bijectivity(reference, system, a, b, apexes)
        if want.holds:
            # bijective: counit_check goes on to the triangular identities
            assert not (got.reason or "").startswith("counit "), (a, b, got)
            assert not got.holds or got.reason == want.reason, (a, b)
        else:
            assert (got.outcome, got.reason, repr(got.witness)) == \
                (want.outcome, want.reason, repr(want.witness)), (a, b)
        outcomes.add(want.reason.split(" on ")[0])
    # under iso-all no two map spans of the chain share an image
    if not merges and not name.startswith("thin-iso-all"):
        assert "counit not injective" in outcomes


# -- the positional sweeps against the object-level references ------------------------

SWEEP_VIEWS = {f"finset-{system}-{relation}": functools.partial(_finset2, system, relation)
               for system in ("surj-inj", "iso-all", "all-iso") for relation in ("simE", "simEo")}
SWEEP_VIEWS.update({f"thin-{n}": functools.partial(_chain, "simE", n) for n in (2, 3, 4)})


@functools.cache
def _sweep_base(name):
    return SWEEP_VIEWS[name]()


def _modular_sweep(laws, view, a, b, c, budget):
    """The suite's modular sweep on (a, b, c), with its cut."""
    triples, cut = laws.modular_triples(view, a, b, c, budget)
    v = laws.check_modular_law(view, triples)
    return Verdict.maybe(reason=cut) if v.holds and cut else v


# sweep -> (its number of objects, its run on a module of law sweeps, its total)
SWEEPS = {
    "order": (2, lambda laws, view, objs, budget:
              laws.check_order(view, *objs, triple_budget=budget),
              lambda n: n[0] ** 3),
    "monotone": (3, lambda laws, view, objs, budget:
                 laws.check_monotone_composition(view, *objs, quad_budget=budget),
                 lambda n: n[0] ** 2 * n[1]),
    "modular": (3, lambda laws, view, objs, budget: _modular_sweep(laws, view, *objs, budget),
                lambda n: n[0] * n[1] * n[2]),
}


@st.composite
def _sweep_cases(draw):
    """A view, a sweep on objects of it, whether the first comparison is
    scripted Unknown, and a budget from 0 to the sweep's total or none."""
    name = draw(st.sampled_from(sorted(SWEEP_VIEWS)))
    sweep = draw(st.sampled_from(sorted(SWEEPS)))
    cat, equiv = _sweep_base(name)
    arity, _, total = SWEEPS[sweep]
    objs = tuple(draw(st.sampled_from(list(cat.objects()))) for _ in range(arity))
    sizer = AllegoryView(cat, equiv)
    ends = [(objs[0], objs[1]), (objs[1], objs[-1]), (objs[0], objs[-1])]
    n = total([len(sizer.hom(x, y)[0]) for x, y in ends])
    return name, sweep, draw(st.booleans()), objs, draw(st.none() | st.integers(0, n))


class _Recorder:
    """Delegates to an equivalence and logs its key and equal calls, in
    the order the view's ops make them."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def key(self, s):
        self.log.append(("key", s))
        return self.inner.key(s)

    def equal(self, s1, s2):
        self.log.append(("equal", s1, s2))
        return self.inner.equal(s1, s2)


def _state(view):
    """The representatives, undecided homs and decider calls a view has."""
    return list(view._reps), view._undecided, view.equiv.log


def _run_sweep(laws, name, sweep, scripted, objs, budget):
    """The verdict of one sweep on a fresh view, and the state it leaves."""
    cat, equiv = _sweep_base(name)
    view = AllegoryView(cat, _Recorder(_OneUndecided(equiv) if scripted else equiv))
    v = SWEEPS[sweep][1](laws, view, objs, budget)
    return (v.outcome, v.reason, repr(v.witness)), _state(view)


@given(_sweep_cases())
# each Fails reason that some configuration reaches, one per sweep: meet
# not idempotent, composition not monotone on the left, modular law fails
@example(("finset-iso-all-simE", "order", False, (1, 1), None))
@example(("finset-iso-all-simE", "monotone", False, (1, 1, 1), None))
@example(("finset-iso-all-simE", "modular", False, (1, 1, 1), None))
# a scripted Unknown kept as the verdict, and one that leaves an order
# comparison undecided
@example(("finset-iso-all-simE", "order", True, (1, 1), None))
@example(("finset-surj-inj-simE", "order", True, (1, 2), None))
# a cut of each sweep on a keyed view, the first two inside a run of the
# inner loop, and a cut scripted sweep on a keyless view
@example(("finset-surj-inj-simE", "order", False, (1, 2), 10))
@example(("finset-surj-inj-simE", "monotone", False, (1, 1, 2), 7))
@example(("finset-surj-inj-simE", "modular", False, (1, 1, 2), 16))
@example(("finset-iso-all-simEo", "monotone", True, (2, 2, 1), 100))
def test_positional_sweeps_match_the_object_level_references(case):
    want = _run_sweep(oracles, *case)
    got = _run_sweep(allegory, *case)
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("inner", [[], [7], [7, 8, 9]], ids=["empty", "one", "three"])
def test_runs_are_the_cut_product_with_no_empty_run(inner):
    # a sweep looks up the rows of a run before its inner loop, so an empty
    # run would ask for entries that the cut product never reaches
    outer = ["a", "b", "c"]
    for budget in [None, *range(len(outer) * len(inner) + 2)]:
        runs = list(allegory._runs(iter(outer), inner, budget))
        assert all(run for _, run in runs), budget
        product = itertools.product(outer, inner)
        want = list(product if budget is None else itertools.islice(product, budget))
        assert [(o, x) for o, run in runs for x in run] == want, budget


# the views of the benchmark's check-allegory workloads: FinSet(2) surj-inj
# over the objects 0..2 (laws-keyed) and the thin 5-chain iso-all (keyless)
BENCHMARK_VIEWS = {"finset-surj-inj-simE": (functools.partial(_finset2, "surj-inj"), range(3)),
                   "thin-5": (functools.partial(_chain, "simE", 5), None)}


@pytest.mark.parametrize("name", sorted(BENCHMARK_VIEWS))
def test_suite_matches_the_reference_suite_on_the_benchmark_views(name):
    """The whole suite gives the verdict, representatives, undecided homs
    and decider calls of the reference suite, each on a fresh view."""
    build, objs = BENCHMARK_VIEWS[name]
    cat, equiv = build()
    views = [AllegoryView(cat, _Recorder(equiv), objects=objs) for _ in range(2)]
    got, want = allegory.allegory_suite(views[0]), oracles.allegory_suite(views[1])
    assert (got.outcome, got.reason, repr(got.witness)) == \
        (want.outcome, want.reason, repr(want.witness))
    assert _state(views[0]) == _state(views[1])
    assert views[0].equiv.log


# keyless views, where the op order picks the representatives
ORDER_VIEWS = {"finset-iso-all-simEo": functools.partial(_finset2, "iso-all", "simEo"),
               "thin-5": functools.partial(_chain, "simE", 5)}


@pytest.mark.parametrize("name", sorted(ORDER_VIEWS))
def test_suite_interns_as_the_reference_suite_does(name):
    cat, equiv = ORDER_VIEWS[name]()
    assert equiv.key(Span(0, cat.identity(0), cat.identity(0))) is None
    views = AllegoryView(cat, _Recorder(equiv)), AllegoryView(cat, _Recorder(equiv))
    got, want = allegory.allegory_suite(views[0]), oracles.allegory_suite(views[1])
    assert (got.outcome, got.reason) == (want.outcome, want.reason)
    assert _state(views[0]) == _state(views[1])


@pytest.mark.parametrize("name", sorted(ORDER_VIEWS))
def test_suite_interns_as_a_view_that_scans_on_every_call(name):
    """A span met again by value takes the class the scan gave it, so the
    representatives, undecided homs and verdict match a view that scans."""
    cat, equiv = ORDER_VIEWS[name]()
    view, reference = AllegoryView(cat, equiv), oracles.ScanningView(cat, equiv)
    got, want = allegory.allegory_suite(view), allegory.allegory_suite(reference)
    assert (got.outcome, got.reason, repr(got.witness)) == \
        (want.outcome, want.reason, repr(want.witness))
    assert view._reps == reference._reps
    assert view._undecided == reference._undecided


def test_suite_compares_no_pair_of_span_values_twice():
    """A span met again by value is not compared again, so on the keyless
    5-chain the suite asks `equal` about each pair of values once."""
    cat, equiv = _chain("simE", 5)
    view = AllegoryView(cat, _Recorder(equiv))
    assert allegory.allegory_suite(view).holds
    pairs = [entry[1:] for entry in view.equiv.log if entry[0] == "equal"]
    assert len(set(pairs)) == len(pairs) == 100


# name -> (category, system, relation), where no class has a key
KEYLESS_VIEWS = {f"thin-{n}-{system}-{relation}": (functools.partial(ThinCategory.chain, n),
                                                   system, relation)
                 for n in range(1, 6) for system in ("iso-all", "all-iso")
                 for relation in ("simE", "simEo", "simEbullet")}
KEYLESS_VIEWS.update({f"finset-{n}-{system}-{relation}": (functools.partial(FinSetCategory, n),
                                                          system, relation)
                      for n in range(3) for system in ("surj-inj", "iso-all", "all-iso")
                      for relation in ("simEo", "simEbullet")})
KEYLESS_VIEWS["finset-1-approx"] = (functools.partial(FinSetCategory, 1), "surj-inj", "approx")


@pytest.mark.parametrize("name", sorted(KEYLESS_VIEWS))
def test_equal_relates_each_candidate_span_to_its_copy(name):
    """The view's memo of spans by value rests on this: `equal` Holds
    between a span and a span equal to it by value."""
    make_cat, system, relation = KEYLESS_VIEWS[name]
    cat = make_cat()
    equiv = _equivalence(cat, system, relation)
    for a, b in itertools.product(cat.objects(), repeat=2):
        for s in enumerate_hom_classes(cat, equiv, a, b)[0]:
            assert equiv.key(s) is None
            assert equiv.equal(s, Span(s.apex, s.left, s.right)).holds, s


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize("name", sorted(ORDER_VIEWS))
def test_standalone_sweeps_intern_as_the_references_do(name, sweep):
    # one fresh view per side, swept on every configuration in turn
    cat, equiv = ORDER_VIEWS[name]()
    arity, run, _ = SWEEPS[sweep]
    views = AllegoryView(cat, _Recorder(equiv)), AllegoryView(cat, _Recorder(equiv))
    for objs in itertools.product(views[0].objects, repeat=arity):
        got, want = run(allegory, views[0], objs, None), run(oracles, views[1], objs, None)
        assert (got.outcome, got.reason, repr(got.witness)) == \
            (want.outcome, want.reason, repr(want.witness)), objs
        assert _state(views[0]) == _state(views[1]), objs
