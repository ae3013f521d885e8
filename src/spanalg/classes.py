"""Morphism-class algebra.

MorClass values wrap a membership procedure. Closure classes are
computed to fixpoint on a bounded carrier (all morphisms between a finite
set of objects) and built by `carrier_class`: on the carrier their member
set decides, so Fails there is sound only relative to the bound; beyond
it only their certification rules, or a proof that the class is monic,
decide, and the rest is Unknown.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from .verdict import Verdict


@dataclass
class Carrier:
    """A bounded morphism universe: everything between the given objects."""

    category: object
    objects: tuple

    def __post_init__(self):
        self.objects = tuple(self.objects)
        self._obj_set = set(self.objects)
        self._morphisms = None

    def morphisms(self):
        if self._morphisms is None:
            self._morphisms = [f for a in self.objects for b in self.objects
                               for f in self.category.hom(a, b)]
        return self._morphisms

    def contains_object(self, x):
        return x in self._obj_set

    def contains_endpoints(self, f):
        return f.dom in self._obj_set and f.cod in self._obj_set

    def holds_every_object(self):
        """The carrier holds every object of the category, so a class
        built on it decides membership everywhere."""
        return self.category.objects_complete \
            and self._obj_set.issuperset(self.category.objects())


@dataclass(frozen=True)
class MorClass:
    name: str
    membership_fn: Callable               # f -> Verdict
    members: Optional[frozenset] = None   # the carrier members of a carrier class
    subset_search_complete: bool = False  # a failed middle-span search is conclusive

    def membership(self, f):
        return self.membership_fn(f)

    def holds(self, f):
        return self.membership(f).holds


def builtin_class(cat, name):
    """Named builtin classes decided by the instance's predicates."""
    preds = {
        "isos": cat.is_iso,
        "monos": cat.is_mono,
        "epis": cat.is_epi,
        "splitEpis": cat.is_split_epi,
        "all": lambda f: Verdict.yes(),
        "surjective": cat.is_epi,
        "injective": cat.is_mono,
    }
    extra = {
        "bijObj": "is_bijective_on_objects",
        "surjObj": "is_surjective_on_objects",
        "ff": "is_fully_faithful",
        "ffInjObj": None,
    }
    if name in preds:
        return MorClass(name, membership_fn=preds[name], subset_search_complete=True)
    if name in extra:
        if name == "ffInjObj":
            def ff_inj(f):
                v = cat.is_fully_faithful(f)
                if not v.holds:
                    return v
                return cat.is_injective_on_objects(f)
            return MorClass(name, membership_fn=ff_inj)
        return MorClass(name, membership_fn=getattr(cat, extra[name]))
    raise ValueError(f"unknown builtin class {name!r}")


def carrier_class(name, members, carrier, rules=(), monic=False):
    """The class whose members on the carrier are `members`.

    On the carrier the member set decides: Holds, or Fails relative to the
    bound. Beyond it, the rules (f -> Verdict, Holds certifies) certify
    members; `monic` states that the class lies within the monos and the
    rules certify every mono in it, so a non-mono definitely Fails. Else
    the verdict is Unknown. A failed middle-span search is conclusive when
    the class is monic, or when the carrier holds every object and every
    member is monic.
    """
    cat = carrier.category
    members = frozenset(members)
    # the carrier verdicts, built once: a Verdict is frozen, and these hold no witness
    held, refuted = Verdict.yes(), Verdict.no(reason=f"not in {name} (bound-relative)")

    def membership(f):
        if carrier.contains_endpoints(f):
            return held if f in members else refuted
        for rule in rules:
            v = rule(f)
            if v.holds:
                return v
        if monic and cat.is_mono(f).fails:
            return Verdict.no(reason=f"not monic, {name} <= monos")
        return Verdict.maybe(f"outside carrier of {name}")

    complete = monic or (carrier.holds_every_object()
                         and all(cat.is_mono(f).holds for f in members))
    return MorClass(name, membership, members, complete)


# -- validation ---------------------------------------------------------------

def validate_stable_system(cat, e_class, carrier):
    """Stable system laws on the carrier: isos in E, composition closure,
    pullback stability.  Fails carries the offending morphism or square."""
    mors = carrier.morphisms()
    unknown = None
    for f in mors:
        if cat.is_iso(f).holds:
            v = e_class.membership(f)
            if v.fails:
                return Verdict.no({"law": "isos", "f": f}, "isomorphism not in class")
            if v.unknown:
                unknown = v
    members = [f for f in mors if e_class.membership(f).holds]
    member_set = set(members)
    for f in members:
        for g in members:
            if f.cod == g.dom:
                gf = cat.compose(g, f)
                v = e_class.membership(gf)
                if v.fails:
                    return Verdict.no({"law": "composition", "g": g, "f": f, "gf": gf},
                                      "composite escapes the class")
                if v.unknown:
                    unknown = v
    for e in members:
        for g in mors:
            if g.cod != e.cod:
                continue
            pb = cat.pullback(e, g)
            # the pullback of e along g is the projection to dom(g)
            v = e_class.membership(pb.p2)
            if v.fails:
                return Verdict.no({"law": "pullback-stability", "e": e, "along": g,
                                   "pullback": pb.p2}, "pullback escapes the class")
            if v.unknown:
                unknown = v
    if unknown is not None:
        return Verdict.maybe("some memberships undecided at the bound")
    return Verdict.yes(reason=f"{len(members)} members over {len(mors)} morphisms")


# -- closures -----------------------------------------------------------------

def _close(seed, step):
    """Least set containing the seed and closed under step, by a
    semi-naive worklist: each member f is processed once, and step(f, done)
    yields what f makes with the members processed so far (done ends
    with f itself)."""
    todo = list(dict.fromkeys(seed))
    members = set(todo)
    done = []
    while todo:
        f = todo.pop()
        done.append(f)
        for g in step(f, done):
            if g not in members:
                members.add(g)
                todo.append(g)
    return members


def composition_closure(cat, generators, carrier):
    """The least set of carrier morphisms that contains the generators and
    the isos and is closed under binary composition."""

    def compose_with(f, done):
        for g in done:
            if f.cod == g.dom:
                yield cat.compose(g, f)
            if g.cod == f.dom and g is not f:
                yield cat.compose(f, g)

    isos = [f for f in carrier.morphisms() if cat.is_iso(f).holds]
    return _close(list(generators) + isos, compose_with)


def _section_of_m_rule(cat, m_class):
    """Certify directly: any s with rs = 1 for some r in M lies in M*.
    The retractions are searched in hom order, so the witness is the
    first one in M. A section is monic, so a proof that s is not monic
    settles the rule without the search, which grows as dom^cod."""

    def rule(s):
        if cat.is_mono(s).fails:
            return Verdict.no()
        ident = cat.identity(s.dom)
        for r in cat.hom_iter(s.cod, s.dom):
            if cat.compose(r, s) == ident and m_class.membership(r).holds:
                return Verdict.yes(r, "section of an M-retraction")
        return Verdict.no()

    return rule


def e_circ(cat, e_class, carrier):
    """Least stable system containing E and all split epimorphisms."""
    split = builtin_class(cat, "splitEpis")
    gens = [f for f in carrier.morphisms() if e_class.holds(f) or split.holds(f)]
    return carrier_class(f"({e_class.name})_o", composition_closure(cat, gens, carrier),
                         carrier, rules=(cat.is_iso, e_class.membership, split.membership))


def conjugates(cat, m_class, carrier):
    """All conjugates m* arising from commutative cubes over the carrier,
    plus every section whose retraction lies in M (the shortcut that makes
    the key memberships visible at small bounds).

    A cube runs for one member of M per kernel pair only. The front face
    pullback(m.f, m.s) is the pullback of (f, s) along m's kernel pair, so
    members of M at B with equal kernel-pair legs give the same conjugate
    up to the canonical iso of the front apex, which `m_star` absorbs. The
    shipped instances choose that front face from the kernel pair alone
    (FinSet lists the equalised pairs, thin has one arrow per hom, FinCat
    takes the sub-product of matching pairs), so there the set itself is
    the same as with one cube per member.

    The conjugate of a cube is the mediator from the back face
    pullback(f, s) into the front face, so its domain is the back apex and
    its codomain the front apex. Every returned morphism therefore has
    carrier endpoints: a section lies in a carrier hom, and a cube whose
    back or front apex is not a carrier object is skipped. Each prune
    below drops only work whose conjugate is dropped or already found:
    - When M holds the identity of every carrier object, the cubes of
      identity representatives are not run. For m = 1_B the front face is
      the back face, so the mediator is the identity of the back apex; if
      that apex is a carrier object, its identity is a section of an
      identity in M, which the sections already hold. Under a monic M
      every representative is an identity, so no cube runs. Without that
      guard an identity representative runs its cube like any other.
    - Each front face is built once per (m.f, m.s), whatever (m, f, s)
      gives it, and its apex is tested before the back face is built.
    - The back face does not depend on m, so it is built at most once per
      (f, s), and only when some front apex is a carrier object."""
    out = set()
    mors = carrier.morphisms()
    m_members = [m for m in mors if m_class.membership(m).holds]
    # sections of M-retractions
    for r in m_members:
        ident = cat.identity(r.cod)
        for s in cat.hom(r.cod, r.dom):
            if cat.compose(r, s) == ident:
                out.add(s)
    # raw cube enumeration: m: B -> Z in M, f: A -> B, s: T -> B
    by_kernel = {}
    for m in m_members:
        kp = cat.kernel_pair(m)
        by_kernel.setdefault((kp.p1, kp.p2), m)
    reps = by_kernel.values()
    if set(m_members).issuperset(map(cat.identity, carrier.objects)):
        reps = [m for m in reps if m != cat.identity(m.dom)]
    by_dom = {}
    for m in reps:
        by_dom.setdefault(m.dom, []).append(m)
    # m.f by its index into `composites`; the front faces by the index
    # pair of (m.f, m.s)
    index, composites, fronts = {}, [], {}
    for b, ms_at_b in by_dom.items():
        into_b = [f for f in mors if f.cod == b]
        after = []
        for f in into_b:
            row = []
            for m in ms_at_b:
                mf = cat.compose(m, f)
                i = index.get(mf)
                if i is None:
                    i = index[mf] = len(composites)
                    composites.append(mf)
                row.append(i)
            after.append(row)
        for f, mfs in zip(into_b, after):
            for s, mss in zip(into_b, after):
                back = None
                for i, j in zip(mfs, mss):
                    front = fronts.get((i, j))
                    if front is None:
                        front = fronts[i, j] = cat.pullback(composites[i], composites[j])
                    if not carrier.contains_object(front.apex):
                        continue
                    if back is None:
                        back = cat.pullback(f, s)
                        if not carrier.contains_object(back.apex):
                            break
                    conj = front.mediate(back.p1, back.p2)
                    if conj is not None:
                        out.add(conj)
    return out


def m_star(cat, m_class, carrier):
    """Closure under pullback of the conjugate class, to fixpoint on the
    carrier. Every conjugate already has carrier endpoints, so none is
    filtered. No step composes members with isos: the pullback legs along
    the carrier isos already absorb the choice of pullback (the tests
    compare this closure with one that does compose with isos)."""
    mors = carrier.morphisms()

    def pull_back(h, done):
        for q in mors:
            if q.cod == h.cod:
                leg = cat.pullback(h, q).p2  # pullback of h along q
                if carrier.contains_endpoints(leg):
                    yield leg

    return carrier_class(f"({m_class.name})*",
                         _close(conjugates(cat, m_class, carrier), pull_back), carrier)


def e_bullet(cat, system, carrier, mstar):
    """Least stable system containing E and M*: the composition closure of
    their union on the carrier, with M* = m_star(cat, system.M, carrier)
    built by the caller. What the instance proves beyond the generic
    rules comes from `cat.e_bullet_facts`.
    """
    gens = [f for f in carrier.morphisms() if system.E.holds(f) or mstar.holds(f)]
    members = composition_closure(cat, gens, carrier)
    extra_rules, monic = cat.e_bullet_facts(system, members)
    rules = (cat.is_iso, system.E.membership, _section_of_m_rule(cat, system.M)) + extra_rules
    return carrier_class(f"({system.E.name})_bullet", members, carrier, rules, monic)


def first_outside(cls, test, morphisms):
    """The first of the morphisms in the class that `test` refutes, or None."""
    for f in morphisms:
        if cls.membership(f).holds and test(f).fails:
            return f
    return None


def check_splitepi_mono_agreement(cat, system, carrier):
    """SplitEpi <= E iff M <= Mono, evaluated on the carrier.

    Holds when the two sides agree (both true or both false); Fails with
    the witnesses when they disagree.
    """
    mors = carrier.morphisms()
    split_side = first_outside(builtin_class(cat, "splitEpis"), system.E.membership, mors)
    mono_side = first_outside(system.M, cat.is_mono, mors)
    lhs, rhs = split_side is None, mono_side is None
    detail = {"splitepi_in_E": lhs, "M_in_mono": rhs,
              "splitepi_witness": split_side, "mono_witness": mono_side}
    if lhs == rhs:
        return Verdict.yes(detail, "both sides agree")
    return Verdict.no(detail, "equivalence violated on the carrier")
