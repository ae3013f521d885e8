"""Reference computations the benchmark checks the library against.

Relations are frozensets of (x, y) pairs and functions are tables
(tuples); nothing here imports `spanalg`.
"""

import itertools


def relations(a, b):
    cells = [(x, y) for x in range(a) for y in range(b)]
    return {frozenset(c) for r in range(len(cells) + 1)
            for c in itertools.combinations(cells, r)}


def compose(r, s):
    """r: a -> b, then s: b -> c."""
    return frozenset((x, z) for x, y in r for y2, z in s if y == y2)


def converse(r):
    return frozenset((y, x) for x, y in r)


def tables(a, b):
    """Every function a -> b as its table."""
    return list(itertools.product(range(b), repeat=a))


def graph(table):
    return frozenset(enumerate(table))


def surjective(table, cod):
    return set(table) == set(range(cod))


def injective(table):
    return len(set(table)) == len(table)


# FinSet morphisms as (dom, cod, table) triples

def carrier(n):
    """Every function between the sets 0..n."""
    return {(a, b, t) for a in range(n + 1) for b in range(n + 1) for t in tables(a, b)}


def fcompose(g, f):
    """g after f."""
    return (f[0], g[1], tuple(g[2][x] for x in f[2]))


def pullback_leg(e, g):
    """The pullback of e along g: the projection {(x, y) | e x = g y} -> dom g,
    with the pairs in lexicographic order."""
    pairs = [(x, y) for x in range(e[0]) for y in range(g[0]) if e[2][x] == g[2][y]]
    return (len(pairs), g[0], tuple(y for _, y in pairs))
