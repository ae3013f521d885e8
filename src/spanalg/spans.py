"""Spans, their operations, and the equivalence relations that quotient them.

A span (f, g): A -> B is a pair of morphisms out of a common apex.  The
quotient relations implemented here:

  * iso      -- vertical isomorphism classes (the plain span category);
  * simE     -- the equivalence induced by a stable class E, decided in its
                single-witness form: a middle span with both comparison
                legs in E;
  * factorization-backed simE -- decided by comparing M-parts up to
                vertical iso (sound for any stable factorization system,
                since a comparison e merges the pairings' M-parts);
  * approx   -- two-cells in both directions (the least compatible
                allegorical equivalence).
"""

from functools import cached_property
from typing import NamedTuple

from .classes import Carrier, first_outside
from .errors import NotParallel
from .verdict import Verdict


class Span(NamedTuple):
    apex: object
    left: object   # apex -> dom
    right: object  # apex -> cod

    @property
    def dom(self):
        return self.left.cod

    @property
    def cod(self):
        return self.right.cod

    def __repr__(self):
        return f"Span({self.left!r}, {self.right!r})"


def identity_span(cat, a):
    i = cat.identity(a)
    return Span(a, i, i)


def graph(cat, f):
    """The graph span (1, f) of a morphism."""
    return Span(f.dom, cat.identity(f.dom), f)


def involution(s):
    return Span(s.apex, s.right, s.left)


def span_compose(cat, s1, s2):
    """Horizontal composite s2 o s1 (s1: A -> B first, then s2: B -> C),
    via the chosen pullback of (s1.right, s2.left)."""
    if s1.cod != s2.dom:
        raise NotParallel(f"cod {s1.cod!r} != dom {s2.dom!r}")
    pb = cat.pullback(s1.right, s2.left)
    return Span(pb.apex, cat.compose(s1.left, pb.p1), cat.compose(s2.right, pb.p2))


def pairing(cat, s):
    """The induced morphism <left, right>: apex -> dom x cod."""
    pr = cat.product(s.dom, s.cod)
    return pr, pr.pair(s.left, s.right)


def span_meet(cat, s1, s2):
    """Local meet: pullback of the two pairings into dom x cod."""
    _require_parallel(s1, s2)
    _, p1 = pairing(cat, s1)
    _, p2 = pairing(cat, s2)
    pb = cat.pullback(p1, p2)
    return Span(pb.apex, cat.compose(s1.left, pb.p1), cat.compose(s1.right, pb.p1))


def _require_parallel(s1, s2):
    if s1.dom != s2.dom or s1.cod != s2.cod:
        raise NotParallel(f"{s1!r} and {s2!r} are not parallel")


def two_cells(cat, s1, s2):
    """All u: apex1 -> apex2 commuting with both legs."""
    _require_parallel(s1, s2)
    for u in cat.hom(s1.apex, s2.apex):
        if cat.compose(s2.left, u) == s1.left and cat.compose(s2.right, u) == s1.right:
            yield u


def vertically_isomorphic(cat, s1, s2):
    """A vertical isomorphism s1 -> s2, or None."""
    if s1.dom != s2.dom or s1.cod != s2.cod:
        return None
    for u in two_cells(cat, s1, s2):
        if cat.is_iso(u).holds:
            return u
    return None


def approx(cat, s1, s2):
    """Two-cells in both directions (the least allegorical equivalence)."""
    _require_parallel(s1, s2)
    u = next(two_cells(cat, s1, s2), None)
    if u is None:
        return Verdict.no(reason="no two-cell s1 -> s2")
    v = next(two_cells(cat, s2, s1), None)
    if v is None:
        return Verdict.no(reason="no two-cell s2 -> s1")
    return Verdict.yes((u, v), "two-cells both ways")


# -- relation tags / equivalence deciders -------------------------------------

class SpanEquivalence:
    """Decides whether two parallel spans are related; optionally supplies a
    canonical key per class."""

    tag = "abstract"
    # every class a -> b holds one of relation_spans(cat, a, b)
    classes_are_relations = False
    # the map classes a -> b are exactly the graphs of cat.hom(a, b), one each
    maps_are_graphs = False

    def __init__(self, cat):
        self.cat = cat

    def equal(self, s1, s2):
        raise NotImplementedError

    def key(self, s):
        """Hashable canonical key, or None when no canonical form exists.
        An equivalence that returns keys also defines span_of_key(k), the
        representative span of the key's class."""
        return None


class IsoEquivalence(SpanEquivalence):
    tag = "iso"

    def equal(self, s1, s2):
        u = vertically_isomorphic(self.cat, s1, s2)
        if u is None:
            return Verdict.no(reason="not vertically isomorphic")
        return Verdict.yes(u)


class ApproxEquivalence(SpanEquivalence):
    tag = "approx"

    def equal(self, s1, s2):
        return approx(self.cat, s1, s2)


class FactorizationEquivalence(SpanEquivalence):
    """sim_E for E backed by a stable factorization system: decided by
    comparing M-parts up to vertical isomorphism."""

    tag = "simE"

    def __init__(self, cat, system):
        super().__init__(cat)
        self.system = system

    @cached_property
    def _stream_morphisms(self):
        return Carrier(self.cat, self.cat.objects()).morphisms()

    @cached_property
    def classes_are_relations(self):
        """M lies within the monos on the object stream (Span_E = Rel_M)."""
        return first_outside(self.system.M, self.cat.is_mono,
                             self._stream_morphisms) is None

    @cached_property
    def maps_are_graphs(self):
        """Classes are relations, and no E-member on the object stream is
        monic without being an iso (Map(Rel_M C) = C).

        Let r = (r1, r2) be a map class, taken as a relation: M lies within
        the monos, so its pairing is monic. Totality puts r1 in E.
        Determinism puts the kernel pair of r1 inside that of r2, and joint
        monicity makes their meet the diagonal, so r1 is monic. So r1 is a
        monic E-member, hence an iso, and r is the graph of r2 after the
        inverse of r1. Graphs of distinct morphisms are distinct: the
        pairing <1, f> is monic, so the E-part of its factorization is a
        monic E-member, hence an iso, and the graph is itself the relation
        <1, f>, whose second leg is f.
        """
        if not self.classes_are_relations:
            return False
        cat, e = self.cat, self.system.E
        return not any(e.membership(f).holds and cat.is_mono(f).holds
                       and not cat.is_iso(f).holds for f in self._stream_morphisms)

    def m_part(self, s):
        pr, p = pairing(self.cat, s)
        _, m = self.system.factor(p)
        return Span(m.dom, self.cat.compose(pr.pi1, m), self.cat.compose(pr.pi2, m))

    def key(self, s):
        # the rows of the M-part, read off the span's rows by the system's
        # rule; with no row form or no rule there is no key
        rows, m_rows = self.cat.span_rows, self.system.m_rows
        if rows is None or m_rows is None:
            return None
        return (s.dom, s.cod, m_rows(s.dom, s.cod, rows(s.left, s.right)))

    def span_of_key(self, k):
        return Span(*self.cat.span_of_rows(*k))

    def equal(self, s1, s2):
        _require_parallel(s1, s2)
        k1, k2 = self.key(s1), self.key(s2)
        if k1 is not None and k2 is not None:
            if k1 == k2:
                return Verdict.yes(reason="equal canonical M-parts")
            return Verdict.no(reason="distinct canonical M-parts")
        c1, c2 = self.m_part(s1), self.m_part(s2)
        u = vertically_isomorphic(self.cat, c1, c2)
        if u is None:
            return Verdict.no(reason="M-parts not vertically isomorphic")
        return Verdict.yes(u)


class StableClassEquivalence(SpanEquivalence):
    """sim_E for a bare stable class E, in single-witness form: search for
    a middle span with both comparison legs in E.

    The search runs over `cat.subobjects(Q)` of the comparison pullback Q
    of the two pairings, at most `subset_budget` candidates. On FinSet
    these are the subsets of Q = {(d, e) | <f,g>(d) = <h,k>(e)}, which is
    complete whenever every member of E is monic or membership depends
    only on the leg's image. A class that qualifies says so by
    `subset_search_complete`, set where it is built; the search is
    conservative (Unknown) otherwise.
    """

    tag = "simE"
    subset_budget = 1 << 16

    def __init__(self, cat, e_class):
        super().__init__(cat)
        self.e_class = e_class

    def equal(self, s1, s2):
        _require_parallel(s1, s2)
        cat = self.cat
        pr = cat.product(s1.dom, s1.cod)
        q = cat.pullback(pr.pair(s1.left, s1.right), pr.pair(s2.left, s2.right))
        seen_unknown = False
        budget = self.subset_budget
        for u in cat.subobjects(q.apex):
            budget -= 1
            if budget < 0:
                return Verdict.maybe("subset budget exhausted")
            x = cat.compose(q.p1, u)
            vx = self.e_class.membership(x)
            if vx.fails:
                continue
            y = cat.compose(q.p2, u)
            vy = self.e_class.membership(y)
            if vy.fails:
                continue
            if vx.holds and vy.holds:
                return Verdict.yes((x, y), "middle span")
            seen_unknown = True
        if seen_unknown or not self.e_class.subset_search_complete:
            return Verdict.maybe("no certified middle span at the bound")
        return Verdict.no(reason="subset enumeration exhausted")


def make_equivalence(cat, relation_tag, system=None, e_class=None):
    if relation_tag == "iso":
        return IsoEquivalence(cat)
    if relation_tag == "approx":
        return ApproxEquivalence(cat)
    if relation_tag == "simE":
        if system is not None:
            return FactorizationEquivalence(cat, system)
        if e_class is not None:
            return StableClassEquivalence(cat, e_class)
    if relation_tag in ("simEo", "simEbullet"):
        if e_class is None:
            raise ValueError(f"{relation_tag!r} needs the closed morphism class")
        return StableClassEquivalence(cat, e_class)
    raise ValueError(f"cannot build equivalence for tag {relation_tag!r}")


# -- quotient hom enumeration --------------------------------------------------

def stream_spans(cat, a, b):
    """Every span a <- w -> b with its apex w in the object stream."""
    return [Span(w, lf, rg) for w in cat.objects()
            for lf in cat.hom(w, a) for rg in cat.hom(w, b)]


def relation_spans(cat, a, b):
    """The span (pi1 u, pi2 u) of each subobject u of a x b: when M lies
    within the monos, one in every class a -> b (Span_E(C) = Rel_M(C))."""
    pr = cat.product(a, b)
    return [Span(u.dom, cat.compose(pr.pi1, u), cat.compose(pr.pi2, u))
            for u in cat.subobjects(pr.apex)]


def enumerate_hom_classes(cat, equiv, a, b):
    """Candidate spans a -> b for the caller to group into classes, and
    whether they reach every class. Spans over the object stream are taken
    to, though they miss a class whose spans all have larger apexes."""
    spans = relation_spans if equiv.classes_are_relations else stream_spans
    return spans(cat, a, b), True


def relation_span(cat, a, b, pairs):
    """The canonical monic span for a set of pairs in a x b, on an
    instance with a row form."""
    return Span(*cat.span_of_rows(a, b, tuple(sorted(set(pairs)))))


# -- M-relations and the S/R functors -----------------------------------------

def rel_compose(cat, system, r1, r2):
    """Composite of M-relations: span-compose, then take the M-part."""
    raw = span_compose(cat, r1, r2)
    return FactorizationEquivalence(cat, system).m_part(raw)


def functor_round_trip(cat, system, spans):
    """RS = Id and SR = Id on the sample: S sends an M-relation to its
    span class, R recovers the M-part."""
    eq = FactorizationEquivalence(cat, system)
    for s in spans:
        rel = eq.m_part(s)          # R on the class of s
        back = eq.m_part(rel)       # R after S: must reproduce rel
        if not eq.equal(rel, back).holds:
            return Verdict.no(s, "R(S(r)) != r")
        if not eq.equal(s, rel).holds:
            return Verdict.no(s, "S(R(c)) != c at the class level")
    return Verdict.yes(reason=f"{len(spans)} round trips")


def functoriality_of_R(cat, system, pairs):
    """R([h,k] o [f,g]) = R[h,k] . R[f,g] on sampled composable pairs."""
    eq = FactorizationEquivalence(cat, system)
    for s1, s2 in pairs:
        lhs = eq.m_part(span_compose(cat, s1, s2))
        rhs = rel_compose(cat, system, eq.m_part(s1), eq.m_part(s2))
        if not eq.equal(lhs, rhs).holds:
            return Verdict.no((s1, s2), "R not functorial on this pair")
    return Verdict.yes(reason=f"{len(pairs)} composable pairs")
