"""Acceptance suite: the ten headline properties, each printing one line.

Oracles live in tests/oracles.py and are plain relational algebra on
frozensets; nothing here reuses the machinery under test as its own
reference.
"""

import itertools
import json
import random
import time

import pytest

from spanalg import (AllegoryView, Span, allegory_suite,
                     check_allegorical_criterion, check_allegorical_relation,
                     check_gamma_pullback_preservation, check_modular_law, fin,
                     find_unit, functor_round_trip, functoriality_of_R, is_cover,
                     is_mono_map, make_equivalence, map_category, rel_compose,
                     relation_span, span_compose, span_meet, span_pairs, tabulate)
from spanalg.allegory import counit_check
from spanalg.cli import main as cli_main
from spanalg.spans import StableClassEquivalence
from spanalg.systems import finset_system

import oracles


def _report(n, verdict, detail):
    print(f"criterion {n}: {'PASS' if verdict else 'FAIL'} - {detail}")
    assert verdict, detail


def _all_spans(C, a, b, apexes):
    return [Span(w, lf, rg) for w in apexes
            for lf in C.hom(w, a) for rg in C.hom(w, b)]


def _rand_mor(rng, a, b):
    return fin(a, b, tuple(rng.randrange(b) for _ in range(a)))


def _rand_span(rng, C, a, b, max_apex=3):
    w = rng.randint(0, max_apex)
    if (a == 0 or b == 0) and w > 0:
        w = 0
    return Span(w, _rand_mor(rng, w, a), _rand_mor(rng, w, b))


def test_criterion_1_oracle_equivalence(C, surj_inj):
    t0 = time.time()
    mismatches = 0
    checked = 0
    for a, b, c in itertools.product(range(4), repeat=3):
        rels_bc = [(s, relation_span(C, b, c, s)) for s in oracles.all_relations(b, c)]
        for r in oracles.all_relations(a, b):
            rs = relation_span(C, a, b, r)
            for s, ss in rels_bc:
                got = frozenset(span_pairs(rel_compose(C, surj_inj, rs, ss)))
                checked += 1
                if got != oracles.compose(r, s):
                    mismatches += 1
    for a, b in itertools.product(range(4), repeat=2):
        rels = [(r, relation_span(C, a, b, r)) for r in oracles.all_relations(a, b)]
        for r, rs in rels:
            for s, ss in rels:
                got = frozenset(span_pairs(span_meet(C, rs, ss)))
                checked += 1
                if got != (r & s):
                    mismatches += 1
    elapsed = time.time() - t0
    _report(1, mismatches == 0 and elapsed < 60,
            f"{checked} exhaustive compositions+meets at sizes <= 3, "
            f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_quotient_functors(C, surj_inj):
    spans2 = [s for a in range(3) for b in range(3)
              for s in _all_spans(C, a, b, range(3))]
    v_small = functor_round_trip(C, surj_inj, spans2)
    rng = random.Random(2024)
    spans3 = [_rand_span(rng, C, rng.randint(1, 3), rng.randint(1, 3))
              for _ in range(1000)]
    v_big = functor_round_trip(C, surj_inj, spans3)
    pairs = []
    while len(pairs) < 500:
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        pairs.append((_rand_span(rng, C, a, b), _rand_span(rng, C, b, c)))
    v_fun = functoriality_of_R(C, surj_inj, pairs)
    _report(2, v_small.holds and v_big.holds and v_fun.holds,
            f"round trips on {len(spans2)} exhaustive + {len(spans3)} seeded spans, "
            f"functoriality on {len(pairs)} pairs")


def test_criterion_3_allegory_suite(C, surj_inj):
    view = AllegoryView(C, make_equivalence(C, "simE", surj_inj), objects=range(4))
    v_small = allegory_suite(view, objects=range(3))
    rng = random.Random(33)
    triples = []
    for _ in range(300):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        r = relation_span(C, a, b, tuple(t for t in itertools.product(range(a), range(b))
                                         if rng.random() < 0.5))
        s = relation_span(C, b, c, tuple(t for t in itertools.product(range(b), range(c))
                                         if rng.random() < 0.5))
        t = relation_span(C, a, c, tuple(t for t in itertools.product(range(a), range(c))
                                         if rng.random() < 0.5))
        triples.append((r, s, t))
    v_big = check_modular_law(view, triples)
    _report(3, v_small.holds and v_big.holds,
            f"exhaustive suite at sizes <= 2 plus {len(triples)} seeded size-3 "
            f"modular triples, zero failures")


def test_criterion_4_four_way_agreement(C, carrier):
    witness = None
    rows = []
    for name in ("surj-inj", "iso-all", "all-iso"):
        system = finset_system(C, name)
        view = AllegoryView(C, make_equivalence(C, "simE", system),
                            objects=range(3))
        suite = allegory_suite(view, objects=range(3)).holds
        rel = check_allegorical_relation(C, view.equiv, carrier.morphisms()).holds
        crit = check_allegorical_criterion(C, system.E, carrier.morphisms(), range(4))
        m_mono = all(C.is_mono(f).holds for f in carrier.morphisms()
                     if system.M.membership(f).holds)
        rows.append((name, suite, rel, crit.holds, m_mono))
        if name == "iso-all":
            witness = crit.witness
    agree = all(s == r == c == m for _, s, r, c, m in rows)
    expected = [row[1] for row in rows] == [True, False, True]
    witness_ok = witness is not None and oracles.is_effective_retraction(witness.table,
                                                                         witness.cod)
    _report(4, agree and expected and witness_ok,
            f"verdicts {rows}, iso-all witness {witness!r}")


def test_criterion_5_repair_pipeline(C, carrier, iso_all, ebullet_class,
                                     mstar_class, ebullet_view):
    suite = allegory_suite(ebullet_view, objects=range(4)).holds
    unit = find_unit(ebullet_view, range(4)).verdict.holds
    tabs = 0
    tab_ok = True
    for a, b in itertools.product(range(4), repeat=2):
        for r in ebullet_view.hom(a, b)[0]:
            tab = tabulate(ebullet_view, iso_all, r)
            tab_ok = tab_ok and not tab.composite.fails \
                and not tab.joint_monicity.fails
            tabs += 1
    missing = 0
    sections = 0
    for s in carrier.morphisms():
        if any(C.compose(r, s) == C.identity(s.dom) for r in C.hom(s.cod, s.dom)):
            sections += 1
            if not mstar_class.membership(s).holds:
                missing += 1
    _report(5, suite and unit and tab_ok and missing == 0,
            f"order+modular+unit hold, {tabs} tabulations verified, "
            f"{sections} sections all in the conjugate closure")


def test_criterion_6_inclusion_of_relations(C, ecirc_class, ebullet_class):
    eqO = StableClassEquivalence(C, ecirc_class)
    eqB = StableClassEquivalence(C, ebullet_class)
    rng = random.Random(66)
    violations = 0
    related = 0
    n = 0
    while n < 1000:
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        s1, s2 = _rand_span(rng, C, a, b), _rand_span(rng, C, a, b)
        n += 1
        if eqO.equal(s1, s2).holds:
            related += 1
            if not eqB.equal(s1, s2).holds:
                violations += 1
    _report(6, violations == 0,
            f"{n} sampled parallel pairs, {related} related under the split-epi "
            f"closure, {violations} inclusion violations")


def test_criterion_7_map_extraction(C, rel_view, surj_inj):
    mc = map_category(rel_view, surj_inj, range(4))
    count_ok = True
    class_ok = True
    for a, b in itertools.product(range(4), repeat=2):
        maps = mc.hom(a, b)
        if len(maps) != b ** a:
            count_ok = False
        for f in C.hom(a, b):
            r = rel_view.of_morphism(f)
            surj = set(f.table) == set(range(b))
            inj = len(set(f.table)) == a
            if is_cover(rel_view, r).holds != surj:
                class_ok = False
            if is_mono_map(rel_view, r).holds != inj:
                class_ok = False
    _report(7, count_ok and class_ok,
            "map counts equal |B|^|A| for sizes <= 3; covers are exactly the "
            "surjections and monos the injections")


def test_criterion_8_counit(C, rel_view, surj_inj):
    ok = True
    checked = 0
    for a, b in itertools.product(range(3), repeat=2):
        v = counit_check(rel_view, surj_inj, a, b, apexes=range(a * b + 1))
        ok = ok and v.holds
        checked += 1
    _report(8, ok, f"counit bijective with both triangular identities on "
                   f"{checked} hom-class sets at sizes <= 2")


def test_criterion_9_gamma_preservation(C, rel_view):
    rng = random.Random(99)
    squares = []
    while len(squares) < 200:
        c = rng.randint(1, 3)
        squares.append((_rand_mor(rng, rng.randint(0, 3), c),
                        _rand_mor(rng, rng.randint(0, 3), c)))
    v = check_gamma_pullback_preservation(rel_view, squares)
    _report(9, v.holds, f"{len(squares)} sampled pullback squares tabulate "
                        f"their relational composites")


def test_criterion_10_determinism(tmp_path, capsys):
    paths = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.jsonl"
        cli_main(["check-allegory", "--max-size", "2", "--seed", "42",
                  "--out", str(out), "--format", "json"])
        paths.append(out)
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    with capsys.disabled():
        _report(10, identical, "two seeded runs produced byte-identical reports")
