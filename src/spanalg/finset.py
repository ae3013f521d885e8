"""FinSet: the category of finite initial segments {0..n-1} of the naturals.

Objects are nonnegative ints; a morphism is a total function table.  All
chosen limits are built on canonically ordered tuple encodings, so
pullbacks, products and factorizations are deterministic.
"""

from collections import Counter
from itertools import combinations, product as iproduct
from typing import NamedTuple

from .category import Category, ProductResult, PullbackResult
from .errors import DomainMismatch
from .verdict import Verdict


class FinMor(NamedTuple):
    dom: int
    cod: int
    table: tuple

    def __call__(self, x):
        return self.table[x]

    def __repr__(self):
        return f"FinMor({self.dom}->{self.cod}, {list(self.table)})"


def fin(dom, cod, table):
    table = tuple(table)
    if len(table) != dom or any(not (0 <= y < cod) for y in table):
        raise ValueError(f"bad table {table} for {dom}->{cod}")
    return FinMor(dom, cod, table)


# -- rows of spans ---------------------------------------------------------
# A span a <- w -> b has one row (left(x), right(x)) per x in w. The M-part
# of a span under a factorization system is a span again, and its rows
# depend only on the span's rows; each rule below is that dependence for
# one system, as rule(a, b, rows) on the sorted rows.

def image_rows(a, b, rows):
    """Each distinct row once, in order: the rows of the image of the
    pairing, which is the M-part under surj-inj."""
    return tuple(sorted(set(rows)))


def product_rows(a, b, rows):
    """Every row of a x b in product order: under all-iso the M-part of
    every span a -> b is the product span."""
    return tuple(iproduct(range(a), range(b)))


def span_pairs(s):
    """The image of a FinSet span as a sorted pair tuple."""
    return image_rows(s.dom, s.cod, zip(s.left.table, s.right.table))


class FinSetCategory(Category):
    """FinSet restricted to objects of size <= max_size."""

    name = "finset"

    def __init__(self, max_size=3):
        self.max_size = max_size
        self._products = {}    # (a, b) -> its ProductResult, which nothing mutates

    def objects(self):
        return range(self.max_size + 1)

    def hom(self, a, b):
        return list(self.hom_iter(a, b))

    def hom_iter(self, a, b):
        if a == 0:
            return iter([FinMor(0, b, ())])
        if b == 0:
            return iter(())
        return (FinMor(a, b, t) for t in iproduct(range(b), repeat=a))

    def hom_count(self, a, b):
        return 1 if a == 0 else b ** a

    def identity(self, a):
        return FinMor(a, a, tuple(range(a)))

    def compose(self, g, f):
        self._check_composable(g, f)
        return FinMor(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))

    # -- limits -----------------------------------------------------------

    def terminal(self):
        return 1, lambda a: FinMor(a, 1, (0,) * a)

    def product(self, a, b):
        got = self._products.get((a, b))
        if got is None:
            got = self._products[(a, b)] = self._build_product(a, b)
        return got

    def _build_product(self, a, b):
        # (x, y) encoded as x*b + y
        apex = a * b
        pi1 = FinMor(apex, a, tuple(i // b for i in range(apex))) if b else FinMor(0, a, ())
        pi2 = FinMor(apex, b, tuple(i % b for i in range(apex))) if b else FinMor(0, b, ())

        def pair(f, g):
            if f.dom != g.dom or f.cod != a or g.cod != b:
                raise DomainMismatch("pairing legs must share a domain and hit the factors")
            return FinMor(f.dom, apex, tuple(f.table[x] * b + g.table[x] for x in range(f.dom)))

        return ProductResult(apex, pi1, pi2, pair)

    def pullback(self, f, g):
        self._check_cospan(f, g)
        pairs = [(x, y) for x, fx in enumerate(f.table)
                 for y, gy in enumerate(g.table) if fx == gy]
        apex = len(pairs)
        xs, ys = zip(*pairs) if pairs else ((), ())
        p1 = FinMor(apex, f.dom, xs)
        p2 = FinMor(apex, g.dom, ys)
        index = {}  # pair -> its place in the apex, built on the first mediate

        def mediate(u, v):
            if u.dom != v.dom or u.cod != f.dom or v.cod != g.dom:
                return None
            if not index:
                index.update((p, i) for i, p in enumerate(pairs))
            try:
                return FinMor(u.dom, apex, tuple(map(index.__getitem__,
                                                     zip(u.table, v.table))))
            except KeyError:
                return None

        return PullbackResult(apex, p1, p2, mediate)

    # -- instance hooks ---------------------------------------------------

    def subobjects(self, x):
        """One increasing injection per subset of x, in size-then-lex
        order: every subobject of x exactly once."""
        for k in range(x + 1):
            for combo in combinations(range(x), k):
                yield FinMor(k, x, combo)

    def span_rows(self, left, right):
        # vertical isos are exactly the row-multiset-preserving bijections
        return tuple(sorted(zip(left.table, right.table)))

    def span_of_rows(self, a, b, rows):
        n = len(rows)
        xs, ys = zip(*rows) if rows else ((), ())
        return (n, FinMor(n, a, xs), FinMor(n, b, ys))

    def compose_rows(self, rows1, rows2):
        # the pullback has one point per pair of rows (x, y), (y, z), and
        # the composite one row (x, z) per point
        after = {}
        for y, z in rows2:
            after.setdefault(y, []).append(z)
        return tuple(sorted([(x, z) for x, y in rows1 for z in after.get(y, ())]))

    def meet_rows(self, rows1, rows2):
        # the pullback of the pairings has one point per pair of equal rows;
        # rows1 is sorted, so the rows come out sorted
        count = Counter(rows2)
        return tuple([r for r in rows1 for _ in range(count[r])])

    def two_cells(self, s1, s2):
        # a two-cell sends each point x of apex1 to a point of apex2 with
        # x's row; the choices in ascending order give the hom order
        over = {}
        for y, row in enumerate(zip(s2.left.table, s2.right.table)):
            over.setdefault(row, []).append(y)
        choices = [over.get(row, ()) for row in zip(s1.left.table, s1.right.table)]
        return (FinMor(s1.apex, s2.apex, t) for t in iproduct(*choices))

    def e_bullet_facts(self, system, members):
        """0 -> X is a pullback of any member 0 -> c (c >= 1) along a
        constant map X -> c, hence in the pullback closure. With E = Iso
        every conjugate is an inclusion of pullback sets, hence monic, so
        when every member is monic the class lies within the injections,
        the rules certify all of them, and membership is total rather than
        bound-relative."""
        seeds = [m for m in members if m.dom == 0 and m.cod >= 1]

        def empty_domain(f):
            if f.dom == 0 and seeds:
                return Verdict.yes(seeds[0], "pullback of an initial-domain member")
            return Verdict.no()

        monic = system.E.name == "isos" and all(self.is_mono(f).holds for f in members)
        return (empty_domain,), monic

    # -- closed-form predicates ---------------------------------------------

    def is_mono(self, f):
        seen = {}
        for x, y in enumerate(f.table):
            if y in seen:
                return Verdict.no(self._mono_witness(f, seen[y], x), "not injective")
            seen[y] = x
        return Verdict.yes()

    def _mono_witness(self, f, x1, x2):
        u = FinMor(1, f.dom, (x1,))
        v = FinMor(1, f.dom, (x2,))
        return (u, v)

    def is_epi(self, f):
        missing = set(range(f.cod)) - set(f.table)
        if not missing:
            return Verdict.yes()
        b = min(missing)
        # two maps cod -> 2 agreeing on the image but not at b
        u = FinMor(f.cod, 2, tuple(0 for _ in range(f.cod)))
        v = FinMor(f.cod, 2, tuple(1 if y == b else 0 for y in range(f.cod)))
        return Verdict.no((u, v), "not surjective")

    def is_split_epi(self, f):
        # In FinSet, surjections split (any surjection onto a nonempty set
        # has nonempty domain; 0 -> 0 is the identity).
        epi = self.is_epi(f)
        if not epi.holds:
            return Verdict.no(epi.witness, "not surjective")
        section = [0] * f.cod
        for x in range(f.dom - 1, -1, -1):
            section[f.table[x]] = x
        return Verdict.yes(FinMor(f.cod, f.dom, tuple(section)), "section")

    def is_iso(self, f):
        if f.dom == f.cod and len(set(f.table)) == f.dom:
            inv = [0] * f.dom
            for x, y in enumerate(f.table):
                inv[y] = x
            return Verdict.yes(FinMor(f.cod, f.dom, tuple(inv)), "inverse")
        return Verdict.no(reason="not a bijection")
