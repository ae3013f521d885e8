import itertools

import pytest

from spanalg import DomainMismatch, FinMor, check_associativity, fin
from spanalg.finset import FinSetCategory

import oracles


def test_validation_rejects_bad_tables():
    with pytest.raises(Exception):
        fin(2, 2, (0, 5))
    with pytest.raises(Exception):
        fin(2, 2, (0,))


def test_hom_counts(C):
    assert len(C.hom(0, 3)) == 1
    assert len(C.hom(2, 0)) == 0
    assert len(C.hom(2, 3)) == 9
    assert C.hom_count(3, 3) == 27
    assert sum(1 for _ in C.hom_iter(2, 3)) == 9


def test_category_laws(C):
    assert check_associativity(C, max_triples=5000).holds


def test_compose_checks_endpoints(C):
    with pytest.raises(DomainMismatch):
        C.compose(fin(3, 2, (0, 1, 0)), fin(2, 2, (1, 0)))


def test_terminal(C):
    t, bang = C.terminal()
    assert t == 1
    assert bang(3) == fin(3, 1, (0, 0, 0))
    assert C.hom(3, 1) == [bang(3)]


def test_product_universal_property(C):
    pr = C.product(2, 3)
    assert pr.apex == 6
    f, g = fin(2, 2, (1, 0)), fin(2, 3, (2, 2))
    h = pr.pair(f, g)
    assert C.compose(pr.pi1, h) == f
    assert C.compose(pr.pi2, h) == g


def test_product_is_built_once_per_pair(C):
    assert C.product(2, 3) is C.product(2, 3)
    assert C.product(3, 2) is not C.product(2, 3)
    assert C.product(3, 2).apex == 6


def test_pullback_universal_property(C):
    f, g = fin(2, 2, (0, 0)), fin(3, 2, (0, 0, 1))
    pb = C.pullback(f, g)
    assert pb.apex == 4
    assert C.compose(f, pb.p1) == C.compose(g, pb.p2)
    u, v = fin(1, 2, (1,)), fin(1, 3, (0,))
    m = pb.mediate(u, v)
    assert m is not None
    assert C.compose(pb.p1, m) == u and C.compose(pb.p2, m) == v
    # a non-commuting cone has no mediating morphism
    assert pb.mediate(fin(1, 2, (0,)), fin(1, 3, (2,))) is None


def test_kernel_pair(C):
    kp = C.kernel_pair(fin(2, 1, (0, 0)))
    assert kp.apex == 4


def test_predicates_match_table_properties(C):
    for a in range(4):
        for b in range(4):
            for f in C.hom(a, b):
                injective = len(set(f.table)) == f.dom
                surjective = set(f.table) == set(range(f.cod))
                assert C.is_mono(f).holds == injective
                assert C.is_epi(f).holds == surjective
                assert C.is_split_epi(f).holds == surjective
                assert C.is_iso(f).holds == (injective and surjective)


def test_split_epi_witness_is_a_section(C):
    f = fin(3, 2, (0, 1, 1))
    v = C.is_split_epi(f)
    assert v.holds
    assert C.compose(f, v.witness) == C.identity(2)


def test_iso_inverse(C):
    f = fin(3, 3, (2, 0, 1))
    inv = C.is_iso(f).witness
    assert C.compose(f, inv) == C.identity(3)
    assert C.compose(inv, f) == C.identity(3)


def test_effective_retraction_kernel_pair_legs():
    # the retraction criterion reads its effective retractions off kernel
    # pairs: every kernel-pair leg is one, and every one is a leg up to a
    # bijection of its domain, which keeps dom, cod and the sorted table
    C = FinSetCategory(2)
    legs = {C.kernel_pair(f).p1 for a in range(3) for b in range(3) for f in C.hom(a, b)}
    assert all(oracles.is_effective_retraction(r.table, r.cod) for r in legs)
    shapes = {(r.dom, r.cod, tuple(sorted(r.table))) for r in legs}
    accepted = [(k, a, table) for a in range(3) for k in range(5)
                for table in itertools.product(range(a), repeat=k)
                if oracles.is_effective_retraction(table, a)]
    assert accepted
    for k, a, table in accepted:
        assert (k, a, tuple(sorted(table))) in shapes, (k, a, table)
    # no leg misses a point of its codomain, and a kernel pair over 1 has apex 1
    assert not oracles.is_effective_retraction((0,), 2)
    assert not oracles.is_effective_retraction((0, 0), 1)


def test_identity_is_effective(C):
    # an identity is the first kernel-pair leg of itself, and the oracle
    # accepts it as an effective retraction
    i = C.identity(2)
    assert C.kernel_pair(i).p1 == i
    assert oracles.is_effective_retraction(i.table, i.cod)


def test_subobjects_are_the_subsets_in_size_then_lex_order(C):
    for n in range(5):
        subs = list(C.subobjects(n))
        # each an increasing injection into n
        assert all(u.cod == n and u.dom == len(u.table)
                   and list(u.table) == sorted(set(u.table)) for u in subs)
        keys = [(u.dom, u.table) for u in subs]
        assert len(set(keys)) == len(keys) == 2 ** n
        assert keys == sorted(keys)
