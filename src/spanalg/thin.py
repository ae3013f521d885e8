"""Thin categories from finite meet-semilattices with top.

Desk-scale finite categories with all binary products and pullbacks are
necessarily preorders, so this is the honest family of genuinely finite
fully-limit-complete instances.
"""

from typing import NamedTuple

from .category import Category, ProductResult, PullbackResult
from .errors import DomainMismatch, LimitUnavailable


class ThinMor(NamedTuple):
    dom: object
    cod: object

    def __repr__(self):
        return f"ThinMor({self.dom}<={self.cod})"


class ThinCategory(Category):
    """Carrier: finite poset given as (elements, leq pairs).

    Requires all binary meets and a top element; construction validates
    both and raises LimitUnavailable otherwise.
    """

    name = "thin"
    objects_complete = True  # the poset is finite and objects() lists it

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        self._leq = frozenset(leq_pairs) | frozenset((x, x) for x in self.elements)
        self._meets = {}
        for a in self.elements:
            for b in self.elements:
                lower = [c for c in self.elements if self.leq(c, a) and self.leq(c, b)]
                best = [c for c in lower if all(self.leq(d, c) for d in lower)]
                if len(best) != 1:
                    raise LimitUnavailable(f"thin: no meet of {a!r}, {b!r}")
                self._meets[(a, b)] = best[0]
        tops = [t for t in self.elements if all(self.leq(x, t) for x in self.elements)]
        if len(tops) != 1:
            raise LimitUnavailable("thin: no top element")
        self._top = tops[0]

    @staticmethod
    def chain(n):
        """The chain 0 <= 1 <= ... <= n-1."""
        return ThinCategory(range(n), [(i, j) for i in range(n) for j in range(i, n)])

    def leq(self, a, b):
        return (a, b) in self._leq

    def objects(self):
        return iter(self.elements)

    def hom(self, a, b):
        return [ThinMor(a, b)] if self.leq(a, b) else []

    def identity(self, a):
        return ThinMor(a, a)

    def compose(self, g, f):
        self._check_composable(g, f)
        return ThinMor(f.dom, g.cod)

    def terminal(self):
        return self._top, lambda a: ThinMor(a, self._top)

    def product(self, a, b):
        m = self._meets[(a, b)]

        def pair(f, g):
            if f.dom != g.dom or f.cod != a or g.cod != b:
                raise DomainMismatch("bad pairing legs")
            return ThinMor(f.dom, m)

        return ProductResult(m, ThinMor(m, a), ThinMor(m, b), pair)

    def pullback(self, f, g):
        self._check_cospan(f, g)
        m = self._meets[(f.dom, g.dom)]

        def mediate(u, v):
            if u.dom != v.dom or u.cod != f.dom or v.cod != g.dom:
                return None
            return ThinMor(u.dom, m) if self.leq(u.dom, m) else None

        return PullbackResult(m, ThinMor(m, f.dom), ThinMor(m, g.dom), mediate)
