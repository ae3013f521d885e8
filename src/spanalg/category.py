"""Computable-category abstraction.

A Category exposes object/morphism enumeration, composition, identities
and the three limit constructors used everywhere else (terminal, binary
product, pullback).  A morphism value is immutable and hashable and
carries ``dom`` and ``cod`` attributes; the shipped instances build
morphisms, spans and limit results as ``NamedTuple``s, whose tuple hash
and equality run in C, as are verdicts, classes, witnesses and tables.
A value's hash fixes the iteration order of the closure sets that hold
it, and so which member a sweep meets first.
Limits are *chosen*: each instance fixes a deterministic construction so
results replay bit-for-bit.

Generic morphism predicates (mono, epi, split epi, iso) fall back to
bounded hom-enumeration over a probe carrier; instances override them
with closed-form deciders where available. Effective retractions need no
predicate: they are the first legs of kernel pairs, up to iso, so a
check over them reads them off `kernel_pair`.
"""

from typing import Any, Callable, NamedTuple

from .errors import CodomainMismatch, DomainMismatch, LimitUnavailable
from .verdict import Verdict


class PullbackResult(NamedTuple):
    apex: Any
    p1: Any  # apex -> dom(f)
    p2: Any  # apex -> dom(g)
    mediate: Callable[[Any, Any], Any]


class ProductResult(NamedTuple):
    apex: Any
    pi1: Any
    pi2: Any
    pair: Callable[[Any, Any], Any]


class Category:
    """Base class; instances are immutable after construction."""

    name = "abstract"

    # whether objects() lists every object of the category, not only a
    # bounded stream of them; a class-level fact of the instance
    objects_complete = False

    # -- enumeration ---------------------------------------------------

    def objects(self):
        """Finite, deterministic stream of objects bounded per instance."""
        raise NotImplementedError

    def hom(self, a, b):
        """Each morphism a -> b exactly once, in canonical order."""
        raise NotImplementedError

    def hom_iter(self, a, b):
        """Lazy variant of hom, for searches that may be cut off early."""
        return iter(self.hom(a, b))

    def hom_count(self, a, b):
        """Size of hom(a, b) when cheap to predict, else None."""
        return None

    # -- structure -----------------------------------------------------

    def identity(self, a):
        raise NotImplementedError

    def compose(self, g, f):
        """g . f, checking cod(f) = dom(g)."""
        raise NotImplementedError

    def _check_composable(self, g, f):
        if f.cod != g.dom:
            raise DomainMismatch(f"cod {f.cod!r} != dom {g.dom!r}")

    # -- limits ----------------------------------------------------------

    def terminal(self):
        """Returns (object, bang) where bang(A) is the unique A -> terminal."""
        raise LimitUnavailable(f"{self.name}: no terminal object")

    def product(self, a, b):
        raise LimitUnavailable(f"{self.name}: no binary products")

    def pullback(self, f, g):
        raise LimitUnavailable(f"{self.name}: no pullbacks")

    def _check_cospan(self, f, g):
        if f.cod != g.cod:
            raise CodomainMismatch(f"cod {f.cod!r} != cod {g.cod!r}")

    def kernel_pair(self, f):
        return self.pullback(f, f)

    # -- instance hooks: what the span layer asks of an instance -----------

    def subobjects(self, x):
        """The maps into x that a middle-span search tries, in order: by
        default every map into x from each object of the stream."""
        for w in self.objects():
            yield from self.hom_iter(w, x)

    # Canonical row form of spans, or None. An instance with one defines
    # span_rows(left, right), equal exactly on vertically isomorphic spans,
    # and span_of_rows(a, b, rows) -> (apex, left, right) rebuilding a span.
    span_rows = None

    def e_bullet_facts(self, system, members):
        """(extra certification rules, monic-complete) that the instance
        proves for E_bullet with these carrier members; by default none."""
        return (), False

    # -- predicates ------------------------------------------------------
    # Generic fallbacks enumerate homs over the probe carrier (all objects
    # of the instance stream); Fails verdicts carry replayable witnesses.

    def is_mono(self, f):
        for x in self.objects():
            for u in self.hom(x, f.dom):
                for v in self.hom(x, f.dom):
                    if u != v and self.compose(f, u) == self.compose(f, v):
                        return Verdict.no((u, v), "fu = fv with u != v")
        return Verdict.yes()

    def is_epi(self, f):
        for x in self.objects():
            for u in self.hom(f.cod, x):
                for v in self.hom(f.cod, x):
                    if u != v and self.compose(u, f) == self.compose(v, f):
                        return Verdict.no((u, v), "uf = vf with u != v")
        return Verdict.yes()

    def is_split_epi(self, f):
        ident = self.identity(f.cod)
        for s in self.hom(f.cod, f.dom):
            if self.compose(f, s) == ident:
                return Verdict.yes(s, "section")
        return Verdict.no(reason="no section in hom")

    def is_iso(self, f):
        inv = self.inverse(f)
        if inv is None:
            return Verdict.no(reason="no two-sided inverse")
        return Verdict.yes(inv, "inverse")

    def inverse(self, f):
        id_dom = self.identity(f.dom)
        id_cod = self.identity(f.cod)
        for g in self.hom(f.cod, f.dom):
            if self.compose(g, f) == id_dom and self.compose(f, g) == id_cod:
                return g
        return None


def check_associativity(cat, max_triples=None):
    """Exhaustive associativity/unit check over the object stream."""
    objs = list(cat.objects())
    count = 0
    for a in objs:
        for b in objs:
            for f in cat.hom(a, b):
                if cat.compose(f, cat.identity(a)) != f:
                    return Verdict.no(f, "right unit law")
                if cat.compose(cat.identity(b), f) != f:
                    return Verdict.no(f, "left unit law")
    for a in objs:
        for b in objs:
            for f in cat.hom(a, b):
                for c in objs:
                    for g in cat.hom(b, c):
                        gf = cat.compose(g, f)
                        for d in objs:
                            for h in cat.hom(c, d):
                                if cat.compose(h, gf) != cat.compose(cat.compose(h, g), f):
                                    return Verdict.no((h, g, f), "associativity")
                                count += 1
                                if max_triples is not None and count >= max_triples:
                                    return Verdict.yes(reason=f"sampled {count} triples")
    return Verdict.yes(reason=f"checked {count} triples")
