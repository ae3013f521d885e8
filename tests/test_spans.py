import dataclasses
import itertools
import random

import pytest

from spanalg import (FinSetCategory, NotParallel, Span, ThinCategory, builtin_class, fin,
                     functor_round_trip, functoriality_of_R, graph, identity_span,
                     involution, make_equivalence, rel_compose, relation_span,
                     span_compose, span_meet, span_pairs, vertically_isomorphic)
from spanalg.spans import (FactorizationEquivalence, StableClassEquivalence,
                           relation_spans, stream_spans)
from spanalg.systems import thin_system

import oracles


def all_spans(C, a, b, apexes):
    return [Span(w, lf, rg) for w in apexes for lf in C.hom(w, a) for rg in C.hom(w, b)]


def test_span_endpoints_and_involution(C):
    s = Span(2, fin(2, 3, (0, 1)), fin(2, 1, (0, 0)))
    assert s.dom == 3 and s.cod == 1
    t = involution(s)
    assert t.dom == 1 and t.cod == 3
    assert involution(t) == s


def test_identity_span_is_unit_up_to_class(C, surj_inj):
    eq = FactorizationEquivalence(C, surj_inj)
    s = relation_span(C, 2, 3, ((0, 1), (1, 2)))
    left = span_compose(C, identity_span(C, 2), s)
    right = span_compose(C, s, identity_span(C, 3))
    assert eq.equal(left, s).holds
    assert eq.equal(right, s).holds


def test_compose_requires_matching_endpoints(C):
    with pytest.raises(NotParallel):
        span_compose(C, relation_span(C, 2, 3, ()), relation_span(C, 2, 3, ()))


def test_meet_requires_parallel(C):
    with pytest.raises(NotParallel):
        span_meet(C, relation_span(C, 2, 3, ()), relation_span(C, 3, 2, ()))


def test_vertical_iso_detects_leg_permutation(C):
    s1 = Span(2, fin(2, 2, (0, 1)), fin(2, 2, (1, 0)))
    s2 = Span(2, fin(2, 2, (1, 0)), fin(2, 2, (0, 1)))
    assert vertically_isomorphic(C, s1, s2) is not None
    s3 = Span(2, fin(2, 2, (0, 0)), fin(2, 2, (1, 0)))
    assert vertically_isomorphic(C, s1, s3) is None


def test_factorization_equivalence_quotients_row_duplication(C, surj_inj, iso_all):
    s1 = Span(2, fin(2, 2, (0, 1)), fin(2, 3, (0, 2)))
    s2 = Span(3, fin(3, 2, (0, 1, 1)), fin(3, 3, (0, 2, 2)))
    assert FactorizationEquivalence(C, surj_inj).equal(s1, s2).holds
    # with E = isos the multiplicity matters
    assert FactorizationEquivalence(C, iso_all).equal(s1, s2).fails


def test_keys_are_the_rows_of_the_m_part(C, surj_inj, iso_all, all_iso):
    """Each FinSet system's row rule gives the rows of the M-part that
    factor builds, on every stream and relation span over a, b <= 3."""
    for system in (surj_inj, iso_all, all_iso):
        eq = FactorizationEquivalence(C, system)
        n = 0
        for a, b in itertools.product(range(4), repeat=2):
            streamed = stream_spans(C, a, b)
            n += len(streamed)
            for s in streamed + relation_spans(C, a, b):
                m = eq.m_part(s)
                assert eq.key(s) == (s.dom, s.cod, C.span_rows(m.left, m.right)), \
                    (system.name, s)
        assert n == 1544


def test_a_system_without_a_row_rule_has_no_keys(C, surj_inj, iso_all, all_iso):
    """With no row rule, key is None and equal decides through the M-parts,
    agreeing with the keys of the system that has the rule."""
    spans = all_spans(C, 2, 2, range(3))
    for system in (surj_inj, iso_all, all_iso):
        keyed = FactorizationEquivalence(C, system)
        bare = FactorizationEquivalence(C, dataclasses.replace(system, m_rows=None))
        for s1, s2 in itertools.product(spans, repeat=2):
            assert bare.key(s1) is None
            v = bare.equal(s1, s2)
            assert not v.unknown
            assert v.holds == (keyed.key(s1) == keyed.key(s2)), (system.name, s1, s2)


def test_stable_class_equivalence_agrees_with_factorization(C, surj_inj):
    # FinSet searches its subsets; the thin chain has no subobjects
    # override, so the default search over every map into Q runs there
    chain = ThinCategory.chain(4)
    cases = [(C, surj_inj, "surjective", (2, 2), range(3)),
             (chain, thin_system(chain, "iso-all"), "isos", (3, 3), range(4))]
    for cat, system, e_name, (a, b), apexes in cases:
        eq_fast = FactorizationEquivalence(cat, system)
        eq_slow = StableClassEquivalence(cat, builtin_class(cat, e_name))
        spans = all_spans(cat, a, b, apexes)
        rng = random.Random(3)
        for _ in range(150):
            s1, s2 = rng.choice(spans), rng.choice(spans)
            vf, vs = eq_fast.equal(s1, s2), eq_slow.equal(s1, s2)
            assert not vs.unknown
            assert vf.holds == vs.holds, (s1, s2)


def test_ebullet_equivalence_collapses_parallel_spans(C, ebullet_class):
    eq = StableClassEquivalence(C, ebullet_class)
    s1 = Span(2, fin(2, 2, (0, 1)), fin(2, 3, (0, 2)))
    s2 = Span(1, fin(1, 2, (0,)), fin(1, 3, (1,)))
    s3 = Span(0, fin(0, 2, ()), fin(0, 3, ()))
    assert eq.equal(s1, s2).holds
    assert eq.equal(s1, s3).holds


def test_rel_compose_matches_oracle_spotcheck(C, surj_inj):
    for a, b, c in itertools.product(range(3), repeat=3):
        for r in oracles.all_relations(a, b):
            for s in oracles.all_relations(b, c):
                out = rel_compose(C, surj_inj,
                                  relation_span(C, a, b, r), relation_span(C, b, c, s))
                assert frozenset(span_pairs(out)) == oracles.compose(r, s)


def test_meet_matches_intersection_spotcheck(C, surj_inj):
    for a, b in itertools.product(range(3), repeat=2):
        rels = list(oracles.all_relations(a, b))
        for r in rels:
            for s in rels:
                got = span_meet(C, relation_span(C, a, b, r), relation_span(C, a, b, s))
                assert frozenset(span_pairs(got)) == (r & s)


def test_graph_and_relation_span_agree(C, surj_inj):
    eq = FactorizationEquivalence(C, surj_inj)
    f = fin(3, 2, (0, 1, 0))
    g = graph(C, f)
    r = relation_span(C, 3, 2, tuple(enumerate(f.table)))
    assert eq.equal(g, r).holds


def test_round_trip_and_functoriality(C, surj_inj):
    spans = all_spans(C, 2, 2, range(3))
    assert functor_round_trip(C, surj_inj, spans).holds
    rng = random.Random(5)
    pairs = [(rng.choice(spans), rng.choice(all_spans(C, 2, 1, range(3))))
             for _ in range(60)]
    assert functoriality_of_R(C, surj_inj, pairs).holds


def test_make_equivalence_dispatch(C, surj_inj, ebullet_class):
    assert make_equivalence(C, "simE", system=surj_inj).tag == "simE"
    assert make_equivalence(C, "approx").tag == "approx"
    eq = make_equivalence(C, "simEbullet", e_class=ebullet_class)
    assert isinstance(eq, StableClassEquivalence)
    with pytest.raises(ValueError):
        make_equivalence(C, "simEo")


def test_approx_holds_exactly_on_equal_images():
    """Two-cells both ways exist exactly when the two spans have the same
    image in dom x cod: every FinSet span with apex <= 2, over a, b <= 2."""
    cat = FinSetCategory(2)
    eq = make_equivalence(cat, "approx")
    for a, b in itertools.product(range(3), repeat=2):
        spans = all_spans(cat, a, b, range(3))
        for s1, s2 in itertools.product(spans, repeat=2):
            v = eq.equal(s1, s2)
            same = oracles.image(s1.left.table, s1.right.table) \
                == oracles.image(s2.left.table, s2.right.table)
            assert v.holds == same and v.fails != same, (s1, s2)
