"""Allegory-law verification over span quotients.

An AllegoryView packages a quotient hom-structure (compose, meet,
involution, derived order) over a chosen span equivalence. On top of it
live the law checkers (semilattice order, modular laws), the map and
tabulation machinery, the extracted map category with its cover/mono
classification, and the counit round trip through relations over maps.

Composition is written diagrammatically throughout: compose(r, s) is
"r then s". The classical dotted composite s.r is compose(r, s).
"""

import itertools
from dataclasses import dataclass

from .category import Category, PullbackResult
from .errors import EnumerationUnavailable, LimitUnavailable, NoTerminal, TabulationFailed
from .spans import (Span, enumerate_hom_classes, graph, identity_span, involution,
                    span_compose, span_meet)
from .verdict import FAILS, HOLDS, UNKNOWN, Verdict, combine


# -- the quotient view ---------------------------------------------------------

# frozen, so every call on two spans of one class can return this one object
_SAME_REPRESENTATIVE = Verdict.yes(reason="same representative")
# the verdict of a monotone-composition sweep whose comparisons all held
_COMPARED = Verdict.yes()


class AllegoryView:
    """Induced operations on span classes, with interned representatives.

    Every operation returns a class representative, and `rep(r) is r` for
    each one, answered without the equivalence. Interning a representative
    gives it the next index: `_interned` maps its id to that index and
    `_reps` holds it there, alive, so no id is reused. One store of five
    memos on those indices serves the ops and the law sweeps alike:
    `_then[i][k]`, `_meet[i][j]` and `_inv[i]` hold the index of a result,
    `_equal[i][j]` and `_leq[i][j]` a Verdict. An op on representatives
    reads its row and calls `rep` only on a span it builds on a miss; a
    sweep's memo calls the op on a miss, so every span is built inside
    `compose`, `meet` or `inv` and the ops are asked for in the same
    first-use order as by a sweep without memos. `equal` gives one frozen
    Verdict for two spans of one class, decides two distinct
    representatives once, and passes a span whose class is held by another
    to the equivalence uncached. `leq` is only memoized for the sweeps, as
    the equal row of a meet. The identity class of each object, the graph
    class of each morphism and the class listing of each hom are memos
    too, each built and interned on first use.

    A span with a key takes the class of its key. A span without one is
    compared with `equal` against the representatives of its hom in order,
    and joins the first that holds, else becomes one. That result is kept
    under the span's value in `_seen`, so a span equal by value to one
    already seen takes the same class with no comparison. This is the
    scan's own result: `equal` depends only on span values, and relates a
    span to its copy, so a second scan would stop at the same
    representative after the same comparisons, and any Unknown among them
    is already in `_undecided`.
    """

    def __init__(self, cat, equiv, objects=None):
        self.cat = cat
        self.equiv = equiv
        self.objects = list(cat.objects()) if objects is None else list(objects)
        self._by_key = {}
        self._buckets = {}     # (dom, cod) -> interned reps, for an equivalence without keys
        self._seen = _Memo(self._scan)  # span value -> its rep, for an equivalence without keys
        self._interned = {}    # id(rep) -> its index
        self._reps = []        # index -> rep
        self._undecided = set()  # (dom, cod) where rep met an Unknown comparison
        self._homs = _Memo(lambda ab: self._list_hom(*ab))
        self._identities = _Memo(lambda a: self.rep(identity_span(self.cat, a)))
        self._graphs = _Memo(lambda f: self.rep(graph(self.cat, f)))
        reps, index = self._reps, self._index
        self._then = _rows(lambda i, k: index(self.compose(reps[i], reps[k])))
        self._meet = _rows(lambda i, j: index(self.meet(reps[i], reps[j])))
        self._inv = _Memo(lambda i: index(self.inv(reps[i])))
        self._equal = _rows(lambda i, j: self.equal(reps[i], reps[j]))
        self._leq = _rows(lambda i, j: self._equal[self._meet[i][j]][i])

    # representative interning

    def _intern(self, s):
        self._interned[id(s)] = len(self._reps)
        self._reps.append(s)
        return s

    def rep(self, s):
        if id(s) in self._interned:
            return s
        k = self.equiv.key(s)
        if k is not None:
            hit = self._by_key.get(k)
            if hit is None:
                hit = self._by_key[k] = self._intern(self.equiv.span_of_key(k))
            return hit
        return self._seen[s]

    def _scan(self, s):
        """The first rep in the bucket of s that `equal` relates to s, or s
        itself, interned, when none is."""
        bucket = self._buckets.setdefault((s.dom, s.cod), [])
        for r in bucket:
            v = self.equiv.equal(s, r)
            if v.holds:
                return r
            if v.unknown:
                self._undecided.add((s.dom, s.cod))
        bucket.append(s)
        return self._intern(s)

    def _index(self, s):
        """The index of the class of s; only a span that is not interned is
        passed to `rep`."""
        i = self._interned.get(id(s))
        return self._interned[id(self.rep(s))] if i is None else i

    # induced operations

    def identity(self, a):
        return self._identities[a]

    def of_morphism(self, f):
        """The graph class [1, f]."""
        return self._graphs[f]

    def compose(self, r, s):
        """Diagrammatic: r first, then s."""
        i, k = self._index(r), self._index(s)
        row = self._then[i]
        hit = row.get(k)
        if hit is None:
            hit = row[k] = self._index(span_compose(self.cat, self._reps[i], self._reps[k]))
        return self._reps[hit]

    def meet(self, r, s):
        i, j = self._index(r), self._index(s)
        row = self._meet[i]
        hit = row.get(j)
        if hit is None:
            hit = row[j] = self._index(span_meet(self.cat, self._reps[i], self._reps[j]))
        return self._reps[hit]

    def inv(self, r):
        i = self._index(r)
        hit = self._inv.get(i)
        if hit is None:
            hit = self._inv[i] = self._index(involution(self._reps[i]))
        return self._reps[hit]

    def equal(self, r, s):
        interned = self._interned
        i = interned.get(id(r))
        j = interned.get(id(s))
        if i is None or j is None:
            a = r if i is not None else self.rep(r)
            b = s if j is not None else self.rep(s)
            if a is not b and (a is not r or b is not s):
                return self.equiv.equal(r, s)
            i, j = interned[id(a)], interned[id(b)]
        if i == j:
            return _SAME_REPRESENTATIVE
        row = self._equal[i]
        hit = row.get(j)
        if hit is None:
            hit = row[j] = self.equiv.equal(r, s)
        return hit

    def leq(self, r, s):
        """r <= s iff r meet s ~ r."""
        return self.equal(self.meet(r, s), r)

    def hom(self, a, b):
        """The classes a -> b in the order of their first candidate, and
        whether no class was missed nor comparison Unknown at (a, b)."""
        return self._homs[a, b]

    def _list_hom(self, a, b):
        candidates, complete = enumerate_hom_classes(self.cat, self.equiv, a, b)
        reps = list({id(r): r for r in map(self.rep, candidates)}.values())
        return reps, complete and (a, b) not in self._undecided


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on its first use, so
    a hit is a plain dict lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


class _Row(dict):
    """Row i of a memo of rows: `row[j]` is fill(i, j), filled on first use."""

    __slots__ = ("fill", "i")

    def __init__(self, fill, i):
        super().__init__()
        self.fill = fill
        self.i = i

    def __missing__(self, j):
        got = self[j] = self.fill(self.i, j)
        return got


def _rows(fill):
    """A memo of rows: `rows[i][j]` is fill(i, j), filled on first use."""
    return _Memo(lambda i: _Row(fill, i))


# -- witnesses -----------------------------------------------------------------

@dataclass(frozen=True)
class MapWitness:
    r: Span
    unit_ineq: Verdict     # 1 <= r deg . r  (totality)
    counit_ineq: Verdict   # r . r deg <= 1  (determinism)

    @property
    def verdict(self):
        return combine([self.unit_ineq, self.counit_ineq])


@dataclass(frozen=True)
class Tabulation:
    f: MapWitness          # leg into the domain
    g: MapWitness          # leg into the codomain
    target: Span
    composite: Verdict     # target ~ g . f deg
    joint_monicity: Verdict  # (f deg . f) meet (g deg . g) ~ 1


@dataclass(frozen=True)
class UnitWitness:
    obj: object
    maximality: Verdict
    totality: tuple        # ((object, Verdict), ...)

    @property
    def verdict(self):
        return combine([self.maximality] + [v for _, v in self.totality])


# -- order and semilattice laws -------------------------------------------------

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
    meet, equal, leq, inv, rep = view._meet, view._equal, view._leq, view._inv, view._reps
    idx = [view._interned[id(r)] for r in reps]
    unknown = None
    for i in idx:
        v = equal[meet[i][i]][i]
        if v.fails:
            return Verdict.no(rep[i], "meet not idempotent")
        if unknown is None and v.unknown:
            unknown = v
    # n * n pairs over the budget mean n ** 3 triples over it, so the
    # triples' cut names both
    pairs = itertools.product(idx, repeat=2)
    if triple_budget is not None:
        pairs = itertools.islice(pairs, triple_budget)
    for i, j in pairs:
        ij = meet[i][j]
        v = equal[ij][meet[j][i]]
        if v.fails:
            return Verdict.no((rep[i], rep[j]), "meet not commutative")
        w = equal[inv[ij]][meet[inv[i]][inv[j]]]
        if w.fails:
            return Verdict.no((rep[i], rep[j]), "involution does not preserve meets")
        if unknown is None and (v.unknown or w.unknown):
            unknown = v if v.unknown else w
    triples, cut = _within(itertools.product(idx, repeat=3), len(idx) ** 3,
                           triple_budget, f"associativity triples on hom({a!r},{b!r})")
    undecided = False
    for i, j, k in triples:
        ij = meet[i][j]
        v = equal[meet[ij][k]][meet[i][meet[j][k]]]
        if v.fails:
            return Verdict.no((rep[i], rep[j], rep[k]), "meet not associative")
        if unknown is None and v.unknown:
            unknown = v
        # t <= r and t <= s against t <= r meet s, in three values
        below_both = leq[k][i].outcome
        if below_both != FAILS:
            below_s = leq[k][j].outcome
            if below_both == HOLDS or below_s == FAILS:
                below_both = below_s
        below_meet = leq[k][ij].outcome
        if below_both == UNKNOWN or below_meet == UNKNOWN:
            undecided = True
        elif below_both != below_meet:
            return Verdict.no((rep[i], rep[j], rep[k]), "meet is not a greatest lower bound")
    if unknown is not None:
        return unknown
    if not complete:
        return Verdict.maybe(reason=f"hom({a!r},{b!r}) enumeration incomplete")
    return _undecided(_cut(Verdict.yes(), cut), undecided, a, b)


def check_monotone_composition(view, a, b, c, quad_budget=None):
    """r <= r' implies (r then s) <= (r' then s), and on the other side.
    Unknown, not Holds, when `quad_budget` cuts the (r, r', s) quads or
    some r <= r' is undecided."""
    then, leq, inv, rep = view._then, view._leq, view._inv, view._reps
    ab = [view._interned[id(r)] for r in view.hom(a, b)[0]]
    bc = [view._interned[id(s)] for s in view.hom(b, c)[0]]
    quads, cut = _within(((i, i2, k) for i in ab for i2 in ab for k in bc),
                         len(ab) ** 2 * len(bc), quad_budget,
                         f"monotone-composition quads on ({a!r},{b!r},{c!r})")
    out = Verdict.yes(reason="no comparable pairs")
    undecided = False
    for i, i2, k in quads:
        below = leq[i][i2].outcome
        if below != HOLDS:
            undecided = undecided or below == UNKNOWN
            continue
        v = leq[then[i][k]][then[i2][k]]
        if v.fails:
            return Verdict.no((rep[i], rep[i2], rep[k]), "composition not monotone on the left")
        w = leq[then[inv[k]][inv[i]]][then[inv[k]][inv[i2]]]
        if w.fails:
            return Verdict.no((rep[i], rep[i2], rep[k]), "composition not monotone on the right")
        if out.holds:
            out = v if v.unknown else w if w.unknown else _COMPARED
    return _undecided(_cut(out, cut), undecided, a, b)


def check_modular_law(view, triples):
    """Freyd modular law: (s.r) meet t <= s.(r meet (s deg . t)), with
    triples (r: a -> b, s: b -> c, t: a -> c). The spans need not be
    representatives; each is interned where the ops would first intern it."""
    then, meet, leq, inv, index = view._then, view._meet, view._leq, view._inv, view._index
    unknown = None
    n = 0
    last_r = last_s = None
    for r, s, t in triples:
        n += 1
        if r is not last_r or s is not last_s:
            # a sweep varies t fastest, so r and s are looked up once per run
            i, k = index(r), index(s)
            last_r, last_s = r, s
        rs = then[i][k]
        j = index(t)
        lhs = meet[rs][j]
        rhs = then[meet[i][then[j][inv[k]]]][k]
        v = leq[lhs][rhs]
        if v.fails:
            return Verdict.no((r, s, t), "modular law fails")
        if unknown is None and v.unknown:
            unknown = v
    return Verdict.yes(reason=f"{n} triples") if unknown is None else unknown


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


# -- the allegorical-relation criteria ------------------------------------------

def check_allegorical_relation(cat, equiv, sample):
    """(1, f) ~ (f, f) then-composed with (1, f), for every sampled f."""
    verdicts = []
    for f in sample:
        lhs = graph(cat, f)
        rhs = span_compose(cat, lhs, Span(f.dom, f, f))
        v = equiv.equal(lhs, rhs)
        if v.fails:
            return Verdict.no(f, "graph not identified with its kernel composite")
        verdicts.append(v)
    return combine(verdicts)


def _criterion_candidates(cat, r, probes, budget):
    """Candidate z-streams for the retraction criterion: identity and a
    section of r first (they settle the common systems immediately), then
    a budgeted sweep of hom(x, dom r). Yields (z, truncated)."""
    yield cat.identity(r.dom), False
    split = cat.is_split_epi(r)
    if split.holds and split.witness is not None:
        yield split.witness, False
    left = budget
    for x in probes:
        n = cat.hom_count(x, r.dom)
        if n is not None and n > left:
            yield None, True
            continue
        for z in cat.hom_iter(x, r.dom):
            if left <= 0:
                yield None, True
                return
            left -= 1
            yield z, False


def check_allegorical_criterion(cat, e_class, morphisms, probe_objects=None, budget=4096):
    """For every effective retraction r read off the given morphisms,
    search z in E with the composite r after z also in E.

    The retractions are the first legs r of the kernel pairs (r, r') of
    the morphisms, each once, in first-seen order. A kernel-pair leg is an
    effective retraction, and every effective retraction is one, up to
    iso; so no r needs its effectivity decided.

    The search is bound-relative: Fails means no z was found among all
    candidates at the probe objects, Unknown means the sweep was cut off
    by the budget before being exhaustive.
    """
    base = list(cat.objects()) if probe_objects is None else list(probe_objects)
    verdicts = []
    for r in dict.fromkeys(cat.kernel_pair(f).p1 for f in morphisms):
        found = None
        saw_unknown = False
        truncated = False
        probes = [r.dom] + [x for x in base if x != r.dom]
        for z, cut in _criterion_candidates(cat, r, probes, budget):
            if cut:
                truncated = True
                continue
            vz = e_class.membership(z)
            if vz.fails:
                continue
            vrz = e_class.membership(cat.compose(r, z))
            if vz.holds and vrz.holds:
                found = z
                break
            if vz.unknown or vrz.unknown:
                saw_unknown = True
        if found is not None:
            verdicts.append(Verdict.yes((r, found)))
        elif saw_unknown or truncated:
            verdicts.append(Verdict.maybe(reason=f"search incomplete near {r!r}"))
        else:
            return Verdict.no(r, "effective retraction with no E-section-like z")
    return combine(verdicts)


# -- maps, tabulations, units ----------------------------------------------------

def is_map(view, r):
    """Total and deterministic: 1 <= r deg . r and r . r deg <= 1."""
    r = view.rep(r)
    unit = view.leq(view.identity(r.dom), view.compose(r, view.inv(r)))
    counit = view.leq(view.compose(view.inv(r), r), view.identity(r.cod))
    return MapWitness(r, unit, counit)


def tabulate(view, system, r):
    """Tabulating pair of a class: factor the pairing of a representative
    as m after e and take the graph classes of the projections of m.

    Raises TabulationFailed when either defining equation definitely
    fails; Unknown outcomes are preserved on the returned record.
    """
    r = view.rep(r)
    pr = view.cat.product(r.dom, r.cod)
    _, m = system.factor(pr.pair(r.left, r.right))
    p = view.cat.compose(pr.pi1, m)
    q = view.cat.compose(pr.pi2, m)
    fw = is_map(view, view.of_morphism(p))
    gw = is_map(view, view.of_morphism(q))
    composite, monic = _tabulation_equations(view, r, fw.r, gw.r)
    if composite.fails:
        raise TabulationFailed("composite", (r, p, q))
    if monic.fails:
        raise TabulationFailed("joint-monicity", (r, p, q))
    return Tabulation(fw, gw, r, composite, monic)


def find_unit(view, objects=None):
    """Unit at the terminal object: identity maximal among its endo
    classes, and each object totally related to it."""
    try:
        t, bang = view.cat.terminal()
    except (LimitUnavailable, NotImplementedError) as exc:
        raise NoTerminal(str(exc))
    reps, complete = view.hom(t, t)
    one = view.identity(t)
    maximality = combine([view.leq(r, one) for r in reps])
    if maximality.holds and not complete:
        maximality = Verdict.maybe(reason="endo-class enumeration incomplete")
    objs = view.objects if objects is None else list(objects)
    totality = []
    for a in objs:
        r = view.of_morphism(bang(a))
        totality.append((a, view.leq(view.identity(a), view.compose(r, view.inv(r)))))
    return UnitWitness(t, maximality, tuple(totality))


# -- the extracted map category ---------------------------------------------------

def is_cover(view, r):
    """r . r deg = 1 at the codomain."""
    return view.equal(view.compose(view.inv(r), r), view.identity(r.cod))


def is_mono_map(view, r):
    """r deg . r = 1 at the domain."""
    return view.equal(view.compose(r, view.inv(r)), view.identity(r.dom))


class MapCategory(Category):
    """Subcategory of map classes of a view, with limits computed
    intrinsically: pullbacks by tabulating g deg . f, never by appeal to
    the base category's own limits.

    Where the view's equivalence certifies `maps_are_graphs`, a hom is the
    graph classes of the base hom, complete. Otherwise it is the classes of
    `view.hom` that `is_map` accepts: a repaired quotient can have maps
    that are no graphs, such as the one map 1 -> 0 of FinSet `iso-all`
    under `simEbullet`.

    `complete` stays true while every hom listed so far came from a
    complete class enumeration of the view.
    """

    def __init__(self, view, system, objects=None):
        self.view = view
        self.system = system
        self._objects = view.objects if objects is None else list(objects)
        self._maps = {}
        self.complete = True

    def objects(self):
        return iter(self._objects)

    def hom(self, a, b):
        got = self._maps.get((a, b))
        if got is None:
            view = self.view
            if view.equiv.maps_are_graphs:
                got = ([view.of_morphism(f) for f in view.cat.hom(a, b)], True)
            else:
                reps, complete = view.hom(a, b)
                got = ([r for r in reps if is_map(view, r).verdict.holds], complete)
            self._maps[(a, b)] = got
        maps, complete = got
        self.complete = self.complete and complete
        return list(maps)

    def identity(self, a):
        return self.view.identity(a)

    def compose(self, g, f):
        self._check_composable(g, f)
        return self.view.compose(f, g)

    def terminal(self):
        t, bang = self.view.cat.terminal()
        return t, lambda a: self.view.of_morphism(bang(a))

    def pullback(self, f, g):
        self._check_cospan(f, g)
        view = self.view
        tab = tabulate(view, self.system, view.compose(f, view.inv(g)))
        p1, p2 = tab.f.r, tab.g.r

        def mediate(u, v):
            if u.dom != v.dom or u.cod != f.dom or v.cod != g.dom:
                return None
            return _mediator(view, u, v, p1, p2)

        return PullbackResult(p1.dom, p1, p2, mediate)

    def is_iso(self, f):
        c = is_cover(self.view, f)
        m = is_mono_map(self.view, f)
        if c.holds and m.holds:
            return Verdict.yes(f)
        if c.fails or m.fails:
            return Verdict.no(f, "not both a cover and a mono")
        return combine([c, m])

    def classify(self, f):
        """'iso' / 'cover' / 'mono' / 'neither', by the two equations."""
        c = is_cover(self.view, f).holds
        m = is_mono_map(self.view, f).holds
        return "iso" if c and m else "cover" if c else "mono" if m else "neither"

    def image_factor(self, f):
        """Cover-mono factorization through the tabulation of the
        coreflexive (f . f deg) meet 1."""
        view = self.view
        core = view.meet(view.compose(view.inv(f), f), view.identity(f.cod))
        tab = tabulate(view, self.system, core)
        i = tab.f.r
        e = view.compose(f, view.inv(i))
        return e, i


def map_category(view, system, objects=None):
    return MapCategory(view, system, objects)


# -- pullback preservation of the graph functor -----------------------------------

def _square_tabulates(view, h, k, p1, p2):
    """The pulled-back pair ([1,p1], [1,p2]) tabulates [1,k] deg after
    [1,h], i.e. the span class (p1, p2)."""
    target = view.compose(view.of_morphism(h), view.inv(view.of_morphism(k)))
    composite, monic = _tabulation_equations(view, target, view.of_morphism(p1),
                                             view.of_morphism(p2))
    if composite.fails:
        return Verdict.no((h, k), "pullback span does not recover the composite")
    if monic.fails:
        return Verdict.no((h, k), "pullback legs not jointly monic")
    return combine([composite, monic])


def check_gamma_pullback_preservation(view, squares):
    """Each sampled cospan (h, k) is pulled back in the base category and
    the resulting square is checked to tabulate the relational composite."""
    verdicts = []
    n = 0
    for h, k in squares:
        n += 1
        pb = view.cat.pullback(h, k)
        v = _square_tabulates(view, h, k, pb.p1, pb.p2)
        if v.fails:
            return v
        verdicts.append(v)
    out = combine(verdicts)
    if out.holds:
        return Verdict.yes(reason=f"{n} squares")
    return out


def check_m_self_tabulation(view, m_sample):
    """([1,m], [1,m]) tabulates [m,m] for each sampled m; by the tabulation
    criterion this is equivalent to the square checks succeeding."""
    verdicts = []
    for m in m_sample:
        gm = view.of_morphism(m)
        composite, monic = _tabulation_equations(view, view.rep(Span(m.dom, m, m)), gm, gm)
        if composite.fails:
            return Verdict.no(m, "[m,m] not recovered from its diagonal pair")
        if monic.fails:
            return Verdict.no(m, "diagonal pair on m not jointly monic")
        verdicts.append(combine([composite, monic]))
    return combine(verdicts)


# -- relations over maps and the counit --------------------------------------------

def _tabulation_equations(view, target, f, g):
    """The two equations of a tabulation of target by the maps f and g:
    target ~ f deg . g, then f and g jointly monic. The second is None,
    not evaluated, when the first Fails."""
    composite = view.equal(target, view.compose(view.inv(f), g))
    if composite.fails:
        return composite, None
    return composite, jointly_monic(view, f, g)


def jointly_monic(view, h, k):
    """(h deg . h) meet (k deg . k) = 1, the kernel-pair reading of the
    pairing into the product being monic."""
    kp_h = view.compose(h, view.inv(h))
    kp_k = view.compose(k, view.inv(k))
    return view.equal(view.meet(kp_h, kp_k), view.identity(h.dom))


def _mediator(view, u, v, p, q):
    """The map z with z then p ~ u and z then q ~ v, read off the allegory
    as (u then p deg) meet (v then q deg), or None when that class is no
    such map. Where p and q are jointly monic, any such map is this class."""
    z = view.meet(view.compose(u, view.inv(p)), view.compose(v, view.inv(q)))
    if not is_map(view, z).verdict.holds:
        return None
    if view.equal(view.compose(z, p), u).holds and view.equal(view.compose(z, q), v).holds:
        return z
    return None


def _map_span_isomorphic(mapcat, s1, s2):
    """The mediator i from s1 into s2, the only map with i then h2 ~ h1 and
    i then k2 ~ k1 as s2 is jointly monic, is an iso of the map category.
    The apexes may differ: distinct objects can be isomorphic there."""
    h1, k1 = s1
    h2, k2 = s2
    if h1.cod != h2.cod or k1.cod != k2.cod:
        return False
    i = _mediator(mapcat.view, h1, k1, h2, k2)
    return i is not None and mapcat.is_iso(i).holds


def counit(view, h, k):
    """The evaluation (h, k) -> k . h deg back into the view."""
    return view.compose(view.inv(h), k)


def _not_bijective(complete, witness, reason):
    """A missing map or class can make the counit look non-bijective, so
    the failure is only definite on complete enumerations."""
    if complete:
        return Verdict.no(witness, reason)
    return Verdict.maybe(reason=f"{reason} on an incomplete hom enumeration")


def counit_check(view, system, a, b, apexes=None):
    """Bijectivity of the counit on hom(a, b) plus both triangular
    identities on the sampled maps and classes. Unknown, not Holds or
    Fails on bijectivity, when a hom it listed was incomplete.

    Each jointly monic map span is filed under its counit image, an
    interned class. Isomorphic spans share an image, so a span is tested
    only against the first span filed there, its holder: one isomorphic to
    it is the same relation, and the first that is not is a clash, which
    refutes injectivity. The witness is the holder and clash of the image
    whose holder came first."""
    mc = map_category(view, system, apexes)
    holders, clashes = {}, {}  # id(image) -> its first span; -> its first clash
    for w in mc.objects():
        hs = mc.hom(w, a)
        ks = mc.hom(w, b) if hs else ()  # a hom no span uses is not listed
        for h in hs:
            for k in ks:
                if not jointly_monic(view, h, k).holds:
                    continue
                image = id(counit(view, h, k))
                holder = holders.get(image)
                if holder is None:
                    holders[image] = (h, k)
                elif image not in clashes and not _map_span_isomorphic(mc, (h, k), holder):
                    clashes[image] = (h, k)
    for image, holder in holders.items():
        if image in clashes:
            return _not_bijective(mc.complete, (holder, clashes[image]), "counit not injective")
    classes, complete = view.hom(a, b)
    complete_all = complete and mc.complete
    for r in classes:
        if id(r) not in holders:
            return _not_bijective(complete_all, r,
                                  "counit not surjective onto the hom classes")
    if len(holders) != len(classes):
        return _not_bijective(complete_all, (len(holders), len(classes)),
                              "counit image count mismatch")

    verdicts = []
    for f in mc.hom(a, b):
        # graph of f in relations-over-maps is (1, f); its counit is f
        v = view.equal(counit(view, view.identity(a), f), f)
        if v.fails:
            return Verdict.no(f, "triangular identity fails on a map")
        verdicts.append(v)
    for r in classes:
        tab = tabulate(view, system, r)
        v = view.equal(counit(view, tab.f.r, tab.g.r), r)
        if v.fails:
            return Verdict.no(r, "triangular identity fails on a class")
        verdicts.append(v)
    out = combine(verdicts)
    if out.holds and not complete:
        return Verdict.maybe(reason="hom enumeration incomplete")
    if out.holds and not mc.complete:
        return Verdict.maybe(reason="map hom enumeration incomplete")
    if out.holds:
        return Verdict.yes(reason=f"bijection on {len(classes)} classes")
    return out
