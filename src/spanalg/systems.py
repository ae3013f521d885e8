"""Named stable factorization systems on the concrete instances.

Each system bundles its E and M classes with a deterministic factorization
procedure; `validate_system` produces the evidence report required before
a system is trusted by downstream modules.
"""

from .classes import Carrier, builtin_class, validate_stable_system
from .errors import ConfigError
from .fincat import make_functor
from .finset import FinMor, image_rows, product_rows
from .tablecat import normal_table
from .verdict import Verdict, combine


class FactSystem:
    """A named (E, M) system: E and M are MorClasses, and factor maps
    f -> (e, m) with m . e = f. A plain class whose factor is an instance
    attribute set in __init__."""

    def __init__(self, name, category, E, M, factor, m_rows=None):
        self.name = name
        self.category = category
        self.E = E
        self.M = M
        self.factor = factor
        # (a, b, rows) -> the rows of the M-part of a span a -> b with these
        # rows, on an instance with a row form (Category.span_rows); simE keys
        # are read off it, and a system without one has no keys
        self.m_rows = m_rows


# -- FinSet systems -----------------------------------------------------------

def _finset_image_factor(f):
    image = sorted(set(f.table))
    index = {y: i for i, y in enumerate(image)}
    e = FinMor(f.dom, len(image), tuple(index[y] for y in f.table))
    m = FinMor(len(image), f.cod, tuple(image))
    return e, m


def finset_system(cat, name):
    if name == "surj-inj":
        return FactSystem(name, cat, builtin_class(cat, "surjective"),
                          builtin_class(cat, "injective"), _finset_image_factor,
                          image_rows)
    if name in ("iso-all", "all-iso"):
        system = thin_system(cat, name)
        # M = all keeps a span's rows; M = isos makes every M-part the
        # product span
        system.m_rows = (lambda a, b, rows: rows) if name == "iso-all" else product_rows
        return system
    raise ConfigError(f"unknown FinSet system {name!r}")


# -- thin systems -------------------------------------------------------------

def thin_system(cat, name):
    """The two trivial systems, valid in any category; FinSet reuses them."""
    if name == "iso-all":
        return FactSystem(name, cat, builtin_class(cat, "isos"),
                          builtin_class(cat, "all"),
                          lambda f: (cat.identity(f.dom), f))
    if name == "all-iso":
        return FactSystem(name, cat, builtin_class(cat, "all"),
                          builtin_class(cat, "isos"),
                          lambda f: (f, cat.identity(f.cod)))
    raise ConfigError(f"unknown thin system {name!r}")


# -- FinCat systems -----------------------------------------------------------

def _fincat_bijobj_ff_factor(f):
    """F = m . e with e identity on objects and m fully faithful: the
    intermediate category keeps the domain's objects but borrows the
    codomain's hom-sets between their images."""
    c, d = f.dom, f.cod
    fo, fm = dict(f.omap), dict(f.mmap)
    objs = list(c.objects)
    mors = [((x, y, h), x, y) for x in objs for y in objs
            for h in d.hom(fo[x], fo[y])]
    ids = {x: (x, x, d.identity(fo[x])) for x in objs}
    comp = {}
    for (x, y, h), _, _ in mors:
        for (y2, z, h2), _, _ in mors:
            if y2 == y:
                comp[((y2, z, h2), (x, y, h))] = (x, z, d.compose(h2, h))
    mid = normal_table(objs, mors, ids, comp)
    e = make_functor(c, mid, {x: x for x in objs},
                     {u: (c.dom(u), c.cod(u), fm[u]) for u in c.mor_ids()})
    m = make_functor(mid, d, {x: fo[x] for x in objs},
                     {(x, y, h): h for (x, y, h), _, _ in mors})
    return e, m


def _fincat_surjobj_factor(f):
    """F = m . e with e surjective on objects and m a fully faithful
    injective-on-objects inclusion of the full image subcategory."""
    c, d = f.dom, f.cod
    fo, fm = dict(f.omap), dict(f.mmap)
    image_objs = sorted({fo[x] for x in c.objects}, key=repr)
    mors = [(h, x, y) for x in image_objs for y in image_objs for h in d.hom(x, y)]
    ids = {x: d.identity(x) for x in image_objs}
    comp = {}
    for h, _, _ in mors:
        for h2, _, _ in mors:
            if d.cod(h) == d.dom(h2):
                comp[(h2, h)] = d.compose(h2, h)
    mid = normal_table(image_objs, mors, ids, comp)
    e = make_functor(c, mid, {x: fo[x] for x in c.objects},
                     {u: fm[u] for u in c.mor_ids()})
    m = make_functor(mid, d, {x: x for x in image_objs},
                     {h: h for h, _, _ in mors})
    return e, m


def fincat_system(cat, name):
    if name == "bijObj-ff":
        return FactSystem(name, cat, builtin_class(cat, "bijObj"),
                          builtin_class(cat, "ff"), _fincat_bijobj_ff_factor)
    if name == "surjObj-ffInjObj":
        return FactSystem(name, cat, builtin_class(cat, "surjObj"),
                          builtin_class(cat, "ffInjObj"), _fincat_surjobj_factor)
    raise ConfigError(f"unknown FinCat system {name!r}")


_SYSTEMS = {"finset": finset_system, "thin": thin_system, "fincat": fincat_system}


def named_system(cat, name):
    build = _SYSTEMS.get(cat.name)
    if build is None:
        raise ConfigError(f"no named systems for category {cat.name!r}")
    return build(cat, name)


# -- validation ---------------------------------------------------------------

def validate_system(system, carrier):
    """Factorization-system validator: existence and membership of parts,
    stability of E, and uniqueness of factorizations up to iso."""
    cat = system.category
    verdicts = [validate_stable_system(cat, system.E, carrier)]
    for f in carrier.morphisms():
        e, m = system.factor(f)
        if cat.compose(m, e) != f:
            verdicts.append(Verdict.no({"f": f, "e": e, "m": m}, "m.e != f"))
            break
        ve, vm = system.E.membership(e), system.M.membership(m)
        if ve.fails or vm.fails:
            verdicts.append(Verdict.no({"f": f, "e": e, "m": m},
                                       "factor parts escape their classes"))
            break
        if ve.unknown or vm.unknown:
            verdicts.append(Verdict.maybe("membership of a factor part undecided"))
    verdicts.append(_check_uniqueness(system, carrier))
    return combine(verdicts)


def _check_uniqueness(system, carrier):
    """Any two (E,M)-factorizations of the same morphism are linked by an
    iso; checked against alternative factorizations found by hom search.
    The E-members out of each domain, the M-members into each codomain and
    the isos between each pair of objects are listed once per pair, in hom
    order. Each candidate pair (e2, m2) through a carrier object is composed
    once per (dom, cod) and filed under its composite, in (mid, e2, m2)
    order, so each morphism walks only its own factorizations."""
    cat = system.category
    e_homs, m_homs, iso_homs, by_composite = {}, {}, {}, {}

    def members(cache, test, a, b):
        if (a, b) not in cache:
            cache[a, b] = [g for g in cat.hom(a, b) if test(g).holds]
        return cache[a, b]

    def factorizations(a, b):
        if (a, b) not in by_composite:
            found = by_composite[a, b] = {}
            for mid in carrier.objects:
                for e2 in members(e_homs, system.E.membership, a, mid):
                    for m2 in members(m_homs, system.M.membership, mid, b):
                        found.setdefault(cat.compose(m2, e2), []).append((e2, m2))
        return by_composite[a, b]

    def linked_by_iso(e, m, e2, m2):
        return any(cat.compose(j, e) == e2 and cat.compose(m2, j) == m
                   for j in members(iso_homs, cat.is_iso, e.cod, e2.cod))

    for f in carrier.morphisms():
        e, m = system.factor(f)
        for e2, m2 in factorizations(f.dom, f.cod).get(f, ()):
            if not linked_by_iso(e, m, e2, m2):
                return Verdict.no({"f": f, "alt": (e2, m2)},
                                  "two factorizations not iso-linked")
    return Verdict.yes()


def default_carrier(cat):
    """Every object of the instance's bounded stream."""
    return Carrier(cat, tuple(cat.objects()))
