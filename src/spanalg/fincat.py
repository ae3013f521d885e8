"""FinCat: the category of finite-table categories and functors.

Objects are TableCategory values (structural equality); morphisms are
functors given by explicit object and morphism maps.  Limits are computed
pointwise: the terminal object is the one-object category, products are
product categories, pullbacks are the evident subcategories of products.
"""

import itertools
from typing import NamedTuple

from .category import Category, ProductResult, PullbackResult
from .tablecat import TableCategory, normal_table, one_object
from .verdict import Verdict


class Functor(NamedTuple):
    dom: TableCategory
    cod: TableCategory
    omap: tuple   # (obj, obj') sorted
    mmap: tuple   # (mor, mor') sorted

    def __repr__(self):
        return f"Functor(omap={dict(self.omap)}, mmap={dict(self.mmap)})"


def _functor(dom, cod, omap, mmap):
    """A Functor from (source, image) pairs, sorted into the canonical
    form that structural equality relies on."""
    return Functor(dom, cod, tuple(sorted(omap, key=repr)), tuple(sorted(mmap, key=repr)))


def make_functor(dom, cod, omap, mmap):
    f = _functor(dom, cod, omap.items(), mmap.items())
    check_functor(f)
    return f


def check_functor(f):
    omap, mmap = dict(f.omap), dict(f.mmap)
    for a in f.dom.objects:
        if mmap[f.dom.identity(a)] != f.cod.identity(omap[a]):
            raise ValueError(f"functor does not preserve identity of {a!r}")
    for m in f.dom.mor_ids():
        if f.cod.dom(mmap[m]) != omap[f.dom.dom(m)] or f.cod.cod(mmap[m]) != omap[f.dom.cod(m)]:
            raise ValueError(f"functor maps {m!r} to a morphism with wrong endpoints")
    broken = _broken_composite(f.dom, f.cod, mmap)
    if broken is not None:
        v, u = broken
        raise ValueError(f"functor does not preserve composite ({v!r},{u!r})")


def _broken_composite(c, d, mmap):
    """The first composable pair (v, u) of c, u first, whose composite the
    morphism map sends to something other than the composite of the
    images in d, or None."""
    mors = c.mor_ids()
    for u in mors:
        for v in mors:
            if c.cod(u) == c.dom(v) and mmap[c.compose(v, u)] != d.compose(mmap[v], mmap[u]):
                return v, u
    return None


def enumerate_functors(c, d):
    """All functors c -> d, canonically ordered."""
    result = []
    c_objs, c_mors = c.objects, c.mor_ids()
    for obj_choice in itertools.product(d.objects, repeat=len(c_objs)):
        omap = dict(zip(c_objs, obj_choice))
        non_id = [m for m in c_mors
                  if m != c.identity(c.dom(m))]
        candidates = [d.hom(omap[c.dom(m)], omap[c.cod(m)]) for m in non_id]
        for mor_choice in itertools.product(*candidates):
            mmap = dict(zip(non_id, mor_choice))
            for a in c_objs:
                mmap[c.identity(a)] = d.identity(omap[a])
            if _broken_composite(c, d, mmap) is None:
                result.append(_functor(c, d, omap.items(), mmap.items()))
    return result


def enumerate_categories(max_objects, max_morphisms):
    """All finite-table categories within the bounds, up to relabeling.

    Objects are labeled 0..k-1 and non-identity morphisms "m0", "m1", ...;
    generation is deterministic.  Small bounds only.
    """
    cats = []
    for k in range(max_objects + 1):
        if k == 0:
            cats.append(normal_table([], [], {}, {}))
            continue
        if k > max_morphisms:
            continue
        objs = list(range(k))
        ids = {i: f"id{i}" for i in objs}
        for extra in range(max_morphisms - k + 1):
            names = [f"m{i}" for i in range(extra)]
            for endpoints in itertools.product(itertools.product(objs, objs), repeat=extra):
                mors = [(ids[i], i, i) for i in objs] + \
                       [(names[i], endpoints[i][0], endpoints[i][1]) for i in range(extra)]
                dom = {m: d for m, d, _ in mors}
                cod = {m: c for m, _, c in mors}
                pairs = [(g, f) for f in names for g in names if cod[f] == dom[g]]
                cats.extend(_fill_tables(objs, mors, ids, dom, cod, names, pairs))
    return cats


def _fill_tables(objs, mors, ids, dom, cod, names, pairs):
    """Backtracking enumeration of associative composition tables."""
    out = []
    all_names = [m for m, _, _ in mors]

    def candidates(g, f):
        return [m for m in all_names if dom[m] == dom[f] and cod[m] == cod[g]]

    def assoc_ok(comp):
        def cmp(g, f):
            if f in ids.values():
                return g
            if g in ids.values():
                return f
            return comp.get((g, f))

        for f in all_names:
            for g in all_names:
                if cod[f] != dom[g]:
                    continue
                gf = cmp(g, f)
                if gf is None:
                    continue
                for h in all_names:
                    if cod[g] != dom[h]:
                        continue
                    hg = cmp(h, g)
                    if hg is None:
                        continue
                    left = cmp(h, gf)
                    right = cmp(hg, f)
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def rec(i, comp):
        if not assoc_ok(comp):
            return
        if i == len(pairs):
            out.append(normal_table(objs, mors, ids, comp))
            return
        g, f = pairs[i]
        for m in candidates(g, f):
            comp[(g, f)] = m
            rec(i + 1, comp)
            del comp[(g, f)]

    rec(0, {})
    return out


def _sub_product(c, d, obj_ok, mor_ok):
    """The table of c x d on the object pairs and morphism pairs that pass
    the filters, with its two projections: the product when both filters
    accept everything, a pullback when they test agreement in a cospan."""
    objs = [(a, b) for a in c.objects for b in d.objects if obj_ok(a, b)]
    mors = [((u, v), (c.dom(u), d.dom(v)), (c.cod(u), d.cod(v)))
            for u in c.mor_ids() for v in d.mor_ids() if mor_ok(u, v)]
    ids = {(a, b): (c.identity(a), d.identity(b)) for a, b in objs}
    comp = {}
    for (u, v), _, _ in mors:
        for (u2, v2), _, _ in mors:
            if c.cod(u) == c.dom(u2) and d.cod(v) == d.dom(v2):
                comp[((u2, v2), (u, v))] = (c.compose(u2, u), d.compose(v2, v))
    apex = normal_table(objs, mors, ids, comp)
    p1 = _functor(apex, c, (((a, b), a) for a, b in objs),
                  (((u, v), u) for (u, v), _, _ in mors))
    p2 = _functor(apex, d, (((a, b), b) for a, b in objs),
                  (((u, v), v) for (u, v), _, _ in mors))
    return apex, p1, p2


class FinCatCategory(Category):
    name = "fincat"

    def __init__(self, max_objects=2, max_morphisms=3):
        self.max_objects = max_objects
        self.max_morphisms = max_morphisms
        self._objects = None

    def objects(self):
        if self._objects is None:
            self._objects = enumerate_categories(self.max_objects, self.max_morphisms)
        return iter(self._objects)

    def hom(self, c, d):
        return enumerate_functors(c, d)

    def identity(self, c):
        return _functor(c, c, ((a, a) for a in c.objects), ((m, m) for m in c.mor_ids()))

    def compose(self, g, f):
        self._check_composable(g, f)
        gom, gmm = dict(g.omap), dict(g.mmap)
        return _functor(f.dom, g.cod, ((a, gom[b]) for a, b in f.omap),
                        ((m, gmm[n]) for m, n in f.mmap))

    # -- limits ---------------------------------------------------------

    def terminal(self):
        t = one_object()

        def bang(c):
            return _functor(c, t, ((a, 0) for a in c.objects),
                            ((m, "i") for m in c.mor_ids()))

        return t, bang

    def product(self, c, d):
        apex, pi1, pi2 = _sub_product(c, d, lambda a, b: True, lambda u, v: True)

        def pair(f, g):
            fo, fm = dict(f.omap), dict(f.mmap)
            go, gm = dict(g.omap), dict(g.mmap)
            return _functor(f.dom, apex, ((a, (fo[a], go[a])) for a in f.dom.objects),
                            ((m, (fm[m], gm[m])) for m in f.dom.mor_ids()))

        return ProductResult(apex, pi1, pi2, pair)

    def pullback(self, f, g):
        self._check_cospan(f, g)
        c, d = f.dom, g.dom
        fo, fm = dict(f.omap), dict(f.mmap)
        go, gm = dict(g.omap), dict(g.mmap)
        apex, p1, p2 = _sub_product(c, d, lambda a, b: fo[a] == go[b],
                                    lambda u, v: fm[u] == gm[v])

        def mediate(u, v):
            if u.dom != v.dom or u.cod != c or v.cod != d:
                return None
            uo, um = dict(u.omap), dict(u.mmap)
            vo, vm = dict(v.omap), dict(v.mmap)
            omap = {a: (uo[a], vo[a]) for a in u.dom.objects}
            mmap = {m: (um[m], vm[m]) for m in u.dom.mor_ids()}
            if any(o not in apex.objects for o in omap.values()):
                return None
            if not set(mmap.values()) <= set(apex.mor_ids()):
                return None
            return _functor(u.dom, apex, omap.items(), mmap.items())

        return PullbackResult(apex, p1, p2, mediate)

    # -- predicate overrides ------------------------------------------------

    def is_fully_faithful(self, f):
        fm = dict(f.mmap)
        fo = dict(f.omap)
        for a in f.dom.objects:
            for b in f.dom.objects:
                src = f.dom.hom(a, b)
                images = [fm[m] for m in src]
                if len(set(images)) != len(images):
                    return Verdict.no((a, b), "not faithful")
                if set(images) != set(f.cod.hom(fo[a], fo[b])):
                    return Verdict.no((a, b), "not full")
        return Verdict.yes()

    def is_surjective_on_objects(self, f):
        missing = set(f.cod.objects) - {b for _, b in f.omap}
        if missing:
            return Verdict.no(sorted(missing, key=repr), "objects not hit")
        return Verdict.yes()

    def is_injective_on_objects(self, f):
        images = [b for _, b in f.omap]
        if len(set(images)) != len(images):
            return Verdict.no(reason="object map not injective")
        return Verdict.yes()

    def is_bijective_on_objects(self, f):
        s = self.is_surjective_on_objects(f)
        if not s.holds:
            return s
        return self.is_injective_on_objects(f)
