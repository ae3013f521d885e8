"""Finite-table categories: explicit object/morphism/composition tables.

These serve two roles: loadable test categories in their own right, and
the *objects* of the FinCat instance.  A table is immutable and hashable;
equality is structural identity of tables.
"""

import json
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass(frozen=True)
class TableCategory:
    objects: tuple                 # object labels
    morphisms: tuple               # (mor_id, dom, cod), canonical order
    identities: tuple              # (obj, mor_id)
    composition: tuple             # ((g, f), g_after_f)

    _mor_info: dict = field(default=None, compare=False, hash=False, repr=False)
    _id_of: dict = field(default=None, compare=False, hash=False, repr=False)
    _comp: dict = field(default=None, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_mor_info", {m: (d, c) for m, d, c in self.morphisms})
        object.__setattr__(self, "_id_of", dict(self.identities))
        object.__setattr__(self, "_comp", dict(self.composition))

    # -- accessors -------------------------------------------------------

    def dom(self, m):
        return self._mor_info[m][0]

    def cod(self, m):
        return self._mor_info[m][1]

    def identity(self, a):
        return self._id_of[a]

    def compose(self, g, f):
        if self.cod(f) != self.dom(g):
            raise KeyError((g, f))
        hit = self._comp.get((g, f))
        if hit is not None:
            return hit
        if f == self.identity(self.dom(f)):
            return g
        if g == self.identity(self.dom(g)):
            return f
        raise KeyError((g, f))

    def hom(self, a, b):
        return [m for m, d, c in self.morphisms if d == a and c == b]

    def mor_ids(self):
        return [m for m, _, _ in self.morphisms]

    # -- validation --------------------------------------------------------

    def validate(self):
        for a in self.objects:
            if a not in self._id_of:
                raise ParseError(f"object {a!r} has no identity", "identities")
            i = self._id_of[a]
            if i not in self._mor_info or self._mor_info[i] != (a, a):
                raise ParseError(f"identity of {a!r} is not an endomorphism", "identities")
        for m, d, c in self.morphisms:
            if d not in self.objects or c not in self.objects:
                raise ParseError(f"morphism {m!r} has unknown endpoints", f"morphisms/{m}")
        for (g, f), gf in self.composition:
            if any(m not in self._mor_info for m in (g, f, gf)):
                raise ParseError(f"composite ({g!r},{f!r}) names an unknown morphism",
                                 "composition")
            if self.cod(f) != self.dom(g):
                raise ParseError(f"composite ({g!r},{f!r}) is not composable", "composition")
            if self._mor_info[gf] != (self.dom(f), self.cod(g)):
                raise ParseError(f"composite of ({g!r},{f!r}) has wrong endpoints", "composition")
        # totality of composition
        for f in self.mor_ids():
            for g in self.mor_ids():
                if self.cod(f) == self.dom(g):
                    try:
                        self.compose(g, f)
                    except KeyError:
                        raise ParseError(f"missing composite ({g!r},{f!r})", "composition")
        # unit laws
        for m, d, c in self.morphisms:
            if self.compose(m, self._id_of[d]) != m or self.compose(self._id_of[c], m) != m:
                raise ParseError(f"unit law fails at {m!r}", "composition")
        # associativity
        for f in self.mor_ids():
            for g in self.mor_ids():
                if self.cod(f) != self.dom(g):
                    continue
                for h in self.mor_ids():
                    if self.cod(g) != self.dom(h):
                        continue
                    if self.compose(h, self.compose(g, f)) != self.compose(self.compose(h, g), f):
                        raise ParseError(f"associativity fails on ({h!r},{g!r},{f!r})",
                                         "composition")
        return self


def normal_table(objects, morphisms, identities, composition):
    """Normalize raw collections into a TableCategory without checking the
    category laws: for tables whose construction already satisfies them."""
    return TableCategory(
        objects=tuple(objects),
        morphisms=tuple(tuple(m) for m in morphisms),
        identities=tuple(sorted(dict(identities).items(), key=repr)),
        composition=tuple(sorted(((tuple(k), v) for k, v in dict(composition).items()),
                                 key=repr)),
    )


def make_table(objects, morphisms, identities, composition):
    """Normalize raw collections into a validated TableCategory."""
    return normal_table(objects, morphisms, identities, composition).validate()


def load_table_json(path):
    """A validated table read from a JSON object with "objects", "morphisms"
    (each {"id", "dom", "cod"}), "identities" (object to morphism) and
    "composition" ([g, f, g after f] rows). ParseError, located in the
    file, on a file that cannot be read, on text that is not JSON, and on a
    table of another shape."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(str(exc), str(path))
    if not isinstance(data, dict):
        raise ParseError("not a JSON object", str(path))

    def items(name, kind, default=None):
        got = data.get(name, default)
        if got is None:
            raise ParseError(f"missing field {name!r}", str(path))
        if not isinstance(got, kind):
            raise ParseError(f"not a JSON {kind.__name__}", f"{path}:{name}")
        return got

    def label(x, where):
        if isinstance(x, (list, dict)):
            raise ParseError(f"{x!r} is not a string or number label", f"{path}:{where}")
        return x

    objects = [label(x, f"objects/{i}") for i, x in enumerate(items("objects", list))]
    morphisms = []
    for i, m in enumerate(items("morphisms", list)):
        if not isinstance(m, dict) or not {"id", "dom", "cod"} <= m.keys():
            raise ParseError("not an object with id, dom and cod", f"{path}:morphisms/{i}")
        morphisms.append(tuple(label(m[k], f"morphisms/{i}/{k}") for k in ("id", "dom", "cod")))
    identities = {a: label(i, f"identities/{a}") for a, i in items("identities", dict).items()}
    composition = {}
    for i, row in enumerate(items("composition", list, [])):
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError("not a row [g, f, g after f]", f"{path}:composition/{i}")
        g, f, gf = (label(x, f"composition/{i}") for x in row)
        composition[(g, f)] = gf
    return make_table(objects, morphisms, identities, composition)


# -- stock examples ----------------------------------------------------------

def discrete(n):
    objs = list(range(n))
    return make_table(objs, [((i, i, "id"), i, i) for i in objs],
                      {i: (i, i, "id") for i in objs}, {})


def walking_arrow():
    """The category with two objects and one non-identity arrow 0 -> 1."""
    return make_table(
        [0, 1],
        [("i0", 0, 0), ("i1", 1, 1), ("a", 0, 1)],
        {0: "i0", 1: "i1"},
        {},
    )


def one_object():
    return make_table([0], [("i", 0, 0)], {0: "i"}, {})
