"""Brute-force relational-algebra oracles on subsets of finite products.

A relation a -> b is a frozenset of (x, y) pairs. These are the reference
implementations the span machinery is compared against; they never touch
the package code under test. `conjugates` and `group_by_equal` are the
exceptions to the relational form. `conjugates` takes a category's chosen
limits as given and runs one commutative cube per member of M, the
reference for the cube search of `spanalg.classes.conjugates`.
`group_by_equal` groups spans with pairwise calls to an equivalence's
`equal`, the reference for the class listing of `AllegoryView.hom`.
`ScanningView` is an `AllegoryView` whose `rep` scans a keyless span's
bucket with `equal` on every call, the reference for the view's memo of
spans by value.
`composition_closure` and `pullback_closure` recompute every member in
every round, the references for the worklist fixpoint of
`spanalg.classes`. `map_span_isomorphic` sweeps a map category's hom
between two apexes for an iso, the reference for the allegory's mediator
in `spanalg.allegory._map_span_isomorphic`. `check_uniqueness` recomposes
every candidate factorization for each morphism and tests every member of
a hom for an iso, the reference for `spanalg.systems._check_uniqueness`.
`is_effective_retraction` takes a function table r: K -> A as a plain
tuple and searches every r' for a kernel-pair cone, the reference for the
retractions that `spanalg.allegory.check_allegorical_criterion` reads off
kernel pairs. `counit_bijectivity` keeps each jointly monic map span that
no earlier kept span is isomorphic to, then tests the counit's images
pairwise, every class against every image, and their counts, the
reference for the single pass of `spanalg.allegory.counit_check`; it asks
`spanalg.allegory._map_span_isomorphic` by module attribute, so a patch
of that function reaches both.

The law sweeps at the end (`check_order`, `check_monotone_composition`,
`check_modular_law`, `modular_triples`, `check_special_modular_law` and
`allegory_suite`) call an `AllegoryView`'s ops for every element of every
sweep, with no positional memo; they are the references for the sweeps of
`spanalg.allegory`, in verdicts and in the order of the ops they ask for.
"""

import itertools

from spanalg import allegory
from spanalg.errors import EnumerationUnavailable
from spanalg.verdict import FAILS, HOLDS, UNKNOWN, Verdict, combine


def all_relations(a, b):
    cells = [(x, y) for x in range(a) for y in range(b)]
    for r in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, r):
            yield frozenset(chosen)


def compose(r, s):
    """r: a -> b then s: b -> c."""
    return frozenset((x, z) for (x, y) in r for (y2, z) in s if y == y2)


def transpose(r):
    return frozenset((y, x) for (x, y) in r)


def meet(r, s):
    return r & s


def leq(r, s):
    return r <= s


def identity(a):
    return frozenset((x, x) for x in range(a))


def modular_law_holds(r, s, t):
    """(s.r) meet t <= s.(r meet (s deg . t)) with r: a->b, s: b->c, t: a->c."""
    lhs = meet(compose(r, s), t)
    rhs = compose(meet(r, compose(t, transpose(s))), s)
    return leq(lhs, rhs)


def image(left_table, right_table):
    """The relation a span of functions stands for: the image of its
    pairing in a x b."""
    return frozenset(zip(left_table, right_table))


def is_equivalence(rel, a):
    """rel is reflexive, symmetric and transitive on range(a)."""
    return (identity(a) <= rel and transpose(rel) <= rel
            and compose(rel, rel) <= rel)


def is_effective_retraction(table, cod):
    """The function r: len(table) -> cod is the first leg of a kernel pair:
    some r' makes the pairing <r, r'> injective, with an equivalence
    relation on range(cod) as its image. That image is the kernel of the
    quotient map by the relation, and the pairing an iso onto it."""
    for rp in itertools.product(range(cod), repeat=len(table)):
        pairs = image(table, rp)
        if len(pairs) == len(table) and is_equivalence(pairs, cod):
            return True
    return False


def is_function(r, a, b):
    return all(len([y for (x2, y) in r if x2 == x]) == 1 for x in range(a))


def conjugates(cat, m_class, carrier):
    """Every section of an M-retraction, then for each m: B -> Z in M and
    each f, s into B the mediator from pullback(f, s) into
    pullback(m.f, m.s): one front face per (f, s, m)."""
    out = set()
    mors = carrier.morphisms()
    m_members = [m for m in mors if m_class.membership(m).holds]
    for r in m_members:
        ident = cat.identity(r.cod)
        out.update(s for s in cat.hom(r.cod, r.dom) if cat.compose(r, s) == ident)
    by_dom = {}
    for m in m_members:
        by_dom.setdefault(m.dom, []).append(m)
    for b, ms_at_b in by_dom.items():
        into_b = [f for f in mors if f.cod == b]
        after = [[cat.compose(m, f) for m in ms_at_b] for f in into_b]
        for f, mfs in zip(into_b, after):
            for s, mss in zip(into_b, after):
                back = cat.pullback(f, s)
                for mf, ms in zip(mfs, mss):
                    conj = cat.pullback(mf, ms).mediate(back.p1, back.p2)
                    if conj is not None and carrier.contains_endpoints(conj):
                        out.add(conj)
    return out


def _rounds(members, step):
    """Apply step to the whole member set until a round adds nothing."""
    members = set(members)
    while True:
        new = step(members) - members
        if not new:
            return members
        members |= new


def composition_closure(cat, generators, carrier):
    """The generators and the carrier isos, closed under composition."""
    isos = {f for f in carrier.morphisms() if cat.is_iso(f).holds}
    return _rounds(set(generators) | isos,
                   lambda ms: {cat.compose(g, f) for f in ms for g in ms if f.cod == g.dom})


def pullback_closure(cat, seed, carrier):
    """The seed's carrier morphisms, closed under pullback along carrier
    morphisms and under composition with carrier isos on either side."""
    mors = carrier.morphisms()
    isos = [f for f in mors if cat.is_iso(f).holds]

    def step(ms):
        legs = {cat.pullback(h, q).p2 for h in ms for q in mors if q.cod == h.cod}
        legs |= {cat.compose(h, i) for h in ms for i in isos if i.cod == h.dom}
        legs |= {cat.compose(i, h) for h in ms for i in isos if i.dom == h.cod}
        return {f for f in legs if carrier.contains_endpoints(f)}

    return _rounds({f for f in seed if carrier.contains_endpoints(f)}, step)


def group_by_equal(equiv, spans):
    """Representatives of the classes among the spans, in first-seen order:
    each span joins the first earlier representative `equiv.equal` relates
    it to, else it becomes one. The list is incomplete when a comparison
    was Unknown."""
    reps = []
    complete = True
    for s in spans:
        for r in reps:
            v = equiv.equal(s, r)
            if v.holds:
                break
            if v.unknown:
                complete = False
        else:
            reps.append(s)
    return reps, complete


class ScanningView(allegory.AllegoryView):
    """An AllegoryView with no memo of spans by value: a span that is not
    interned and has no key is compared with `equal` against its hom's
    representatives in order, every time it is met, and joins the first
    that holds, else becomes one."""

    def rep(self, s):
        if id(s) in self._interned:
            return s
        k = self.equiv.key(s)
        if k is not None:
            return self._reps[self._by_key[k]]
        bucket = self._buckets.setdefault((s.dom, s.cod), [])
        for r in bucket:
            v = self.equiv.equal(s, r)
            if v.holds:
                return r
            if v.unknown:
                self._undecided.add((s.dom, s.cod))
        bucket.append(s)
        return self._intern(s)


def map_span_isomorphic(mapcat, s1, s2):
    """Some iso i in the map hom between the apexes of the map spans s1 and
    s2 has i then h2 ~ h1 and i then k2 ~ k1."""
    h1, k1 = s1
    h2, k2 = s2
    if h1.cod != h2.cod or k1.cod != k2.cod:
        return False
    view = mapcat.view
    for i in mapcat.hom(h1.dom, h2.dom):
        if mapcat.is_iso(i).holds and view.equal(view.compose(i, h2), h1).holds \
                and view.equal(view.compose(i, k2), k1).holds:
            return True
    return False


def enumerate_map_relations(mapcat, a, b):
    """Jointly monic spans of maps a <- R -> b with apexes among the
    objects of the map category, each dropped when it is isomorphic to an
    earlier kept span."""
    view = mapcat.view
    found = []
    for w in mapcat.objects():
        for h in mapcat.hom(w, a):
            for k in mapcat.hom(w, b):
                if not allegory.jointly_monic(view, h, k).holds:
                    continue
                if any(allegory._map_span_isomorphic(mapcat, (h, k), other)
                       for other in found):
                    continue
                found.append((h, k))
    return found


def counit_bijectivity(view, system, a, b, apexes=None):
    """Bijectivity of the counit on hom(a, b), pass by pass over the kept
    map spans: the Fails or Unknown of the first pass that refutes it, else
    Holds with the reason of a bijective `counit_check`."""
    mc = allegory.map_category(view, system, apexes)
    rels = enumerate_map_relations(mc, a, b)
    images = [allegory.counit(view, h, k) for h, k in rels]
    for i, j in itertools.combinations(range(len(images)), 2):
        if view.equal(images[i], images[j]).holds:
            return allegory._not_bijective(mc.complete, (rels[i], rels[j]),
                                           "counit not injective")
    classes, complete = view.hom(a, b)
    complete_all = complete and mc.complete
    for r in classes:
        if not any(view.equal(r, im).holds for im in images):
            return allegory._not_bijective(complete_all, r,
                                           "counit not surjective onto the hom classes")
    if len(images) != len(classes):
        return allegory._not_bijective(complete_all, (len(images), len(classes)),
                                       "counit image count mismatch")
    return Verdict.yes(reason=f"bijection on {len(classes)} classes")


def check_uniqueness(system, carrier):
    """Per morphism f, every (e2, m2) through a carrier object with
    m2.e2 = f, in (mid, e2, m2) order, is linked to f's own factorization
    by an iso j (j.e = e2, m2.j = m); Fails with the first that is not."""
    cat = system.category

    def linked(e, m, e2, m2):
        return any(cat.is_iso(j).holds and cat.compose(j, e) == e2
                   and cat.compose(m2, j) == m for j in cat.hom(e.cod, e2.cod))

    for f in carrier.morphisms():
        e, m = system.factor(f)
        for mid in carrier.objects:
            for e2 in cat.hom(f.dom, mid):
                if not system.E.membership(e2).holds:
                    continue
                for m2 in cat.hom(mid, f.cod):
                    if system.M.membership(m2).holds and cat.compose(m2, e2) == f \
                            and not linked(e, m, e2, m2):
                        return Verdict.no({"f": f, "alt": (e2, m2)},
                                          "two factorizations not iso-linked")
    return Verdict.yes()


# -- reference law sweeps, object by object ----------------------------------------

def _within(items, total, budget, sweep):
    """The first `budget` of `total` items, and the reason a Holds over
    them is only Unknown, or None when the budget covers them all."""
    if budget is None or total <= budget:
        return items, None
    return itertools.islice(items, budget), f"{sweep} cut at the bound ({budget} of {total})"


def _cut(verdict, reason):
    return Verdict.maybe(reason=reason) if verdict.holds and reason else verdict


def _undecided(verdict, undecided, a, b):
    """Unknown, not Holds, when an order comparison on hom(a, b) that the
    law rests on was left undecided."""
    return _cut(verdict, undecided and f"order comparison undecided on hom({a!r},{b!r})")


def check_order(view, a, b, triple_budget=None):
    """Meet laws on hom(a, b): idempotence, commutativity, associativity,
    greatest-lower-bound for the derived order, and involution
    preserving meets. Unknown, not Holds, when `triple_budget` cuts the
    pairs or the associativity triples or an order comparison is
    undecided; Fails on the greatest lower bound only where decided
    comparisons refute it."""
    reps, complete = view.hom(a, b)
    if not reps:
        raise EnumerationUnavailable(f"no enumerable classes {a!r} -> {b!r}")
    verdicts = []
    for r in reps:
        v = view.equal(view.meet(r, r), r)
        if v.fails:
            return Verdict.no(r, "meet not idempotent")
        verdicts.append(v)
    # n * n pairs over the budget mean n ** 3 triples over it, so the
    # triples' cut names both
    pairs = itertools.product(reps, repeat=2)
    if triple_budget is not None:
        pairs = itertools.islice(pairs, triple_budget)
    for r, s in pairs:
        v = view.equal(view.meet(r, s), view.meet(s, r))
        if v.fails:
            return Verdict.no((r, s), "meet not commutative")
        verdicts.append(v)
        v = view.equal(view.inv(view.meet(r, s)),
                       view.meet(view.inv(r), view.inv(s)))
        if v.fails:
            return Verdict.no((r, s), "involution does not preserve meets")
        verdicts.append(v)
    triples, cut = _within(itertools.product(reps, repeat=3), len(reps) ** 3,
                           triple_budget, f"associativity triples on hom({a!r},{b!r})")
    undecided = False
    for r, s, t in triples:
        v = view.equal(view.meet(view.meet(r, s), t), view.meet(r, view.meet(s, t)))
        if v.fails:
            return Verdict.no((r, s, t), "meet not associative")
        verdicts.append(v)
        # t <= r and t <= s against t <= r meet s, in three values
        below_both = view.leq(t, r).outcome
        if below_both != FAILS:
            below_s = view.leq(t, s).outcome
            if below_both == HOLDS or below_s == FAILS:
                below_both = below_s
        below_meet = view.leq(t, view.meet(r, s)).outcome
        if below_both == UNKNOWN or below_meet == UNKNOWN:
            undecided = True
        elif below_both != below_meet:
            return Verdict.no((r, s, t), "meet is not a greatest lower bound")
    out = combine(verdicts)
    if out.holds and not complete:
        return Verdict.maybe(reason=f"hom({a!r},{b!r}) enumeration incomplete")
    return _undecided(_cut(out, cut), undecided, a, b)


def check_monotone_composition(view, a, b, c, quad_budget=None):
    """r <= r' implies (r then s) <= (r' then s), and on the other side.
    Unknown, not Holds, when `quad_budget` cuts the (r, r', s) quads or
    some r <= r' is undecided."""
    ab, _ = view.hom(a, b)
    bc, _ = view.hom(b, c)
    quads, cut = _within(((r, r2, s) for r in ab for r2 in ab for s in bc),
                         len(ab) ** 2 * len(bc), quad_budget,
                         f"monotone-composition quads on ({a!r},{b!r},{c!r})")
    verdicts = []
    undecided = False
    for r, r2, s in quads:
        below = view.leq(r, r2).outcome
        if below != HOLDS:
            undecided = undecided or below == UNKNOWN
            continue
        v = view.leq(view.compose(r, s), view.compose(r2, s))
        if v.fails:
            return Verdict.no((r, r2, s), "composition not monotone on the left")
        verdicts.append(v)
        w = view.leq(view.compose(view.inv(s), view.inv(r)),
                     view.compose(view.inv(s), view.inv(r2)))
        if w.fails:
            return Verdict.no((r, r2, s), "composition not monotone on the right")
        verdicts.append(w)
    out = combine(verdicts) if verdicts else Verdict.yes(reason="no comparable pairs")
    return _undecided(_cut(out, cut), undecided, a, b)


def check_modular_law(view, triples):
    """Freyd modular law: (s.r) meet t <= s.(r meet (s deg . t)), with
    triples (r: a -> b, s: b -> c, t: a -> c)."""
    verdicts = []
    n = 0
    for r, s, t in triples:
        n += 1
        lhs = view.meet(view.compose(r, s), t)
        rhs = view.compose(view.meet(r, view.compose(t, view.inv(s))), s)
        v = view.leq(lhs, rhs)
        if v.fails:
            return Verdict.no((r, s, t), "modular law fails")
        verdicts.append(v)
    out = combine(verdicts)
    if out.holds:
        return Verdict.yes(reason=f"{n} triples")
    return out


def check_special_modular_law(view, sample):
    """r <= r . r deg . r for every sampled class r."""
    verdicts = []
    for r in sample:
        v = view.leq(r, view.compose(view.compose(r, view.inv(r)), r))
        if v.fails:
            return Verdict.no(r, "special modular law fails")
        verdicts.append(v)
    return combine(verdicts)


def modular_triples(view, a, b, c, budget=None):
    """The triples (r, s, t) over hom(a, b), hom(b, c) and hom(a, c), cut
    to `budget`, and the reason a Holds over them is only Unknown, or None
    when none was cut."""
    ab, _ = view.hom(a, b)
    bc, _ = view.hom(b, c)
    ac, _ = view.hom(a, c)
    return _within(itertools.product(ab, bc, ac), len(ab) * len(bc) * len(ac),
                   budget, f"modular triples on ({a!r},{b!r},{c!r})")


def allegory_suite(view, objects=None, budget=None):
    """Order laws, monotone composition, and both modular laws over all
    hom-configurations on the given objects. Each sweep is cut to `budget`;
    a cut sweep gives Unknown, with a reason that names it."""
    objs = view.objects if objects is None else list(objects)
    verdicts = []
    for a, b in itertools.product(objs, repeat=2):
        v = check_order(view, a, b, triple_budget=budget)
        if v.fails:
            return Verdict.no(v.witness, f"order laws fail on hom({a!r},{b!r}): {v.reason}")
        verdicts.append(v)
    for a, b, c in itertools.product(objs, repeat=3):
        v = check_monotone_composition(view, a, b, c, quad_budget=budget)
        if v.fails:
            return Verdict.no(v.witness, v.reason)
        verdicts.append(v)
        triples, cut = modular_triples(view, a, b, c, budget)
        v = check_modular_law(view, triples)
        if v.fails:
            return Verdict.no(v.witness, v.reason)
        verdicts.append(_cut(v, cut))
    for a, b in itertools.product(objs, repeat=2):
        v = check_special_modular_law(view, view.hom(a, b)[0])
        if v.fails:
            return Verdict.no(v.witness, v.reason)
        verdicts.append(v)
    return combine(verdicts)
