"""Reference finite groups, written apart from the library, in plain Python.

Each group is a list of element names with a Cayley table under composition
``mul(a, b) = a o b``.  Element 0 is the identity.  Names follow the
library's documented conventions (residues for C_n, ``r<i>``/``s<i>`` for
D_n, cycle notation for S_n), so a name is all the benchmark needs to find an
element in the library's own indexing.
"""

from __future__ import annotations

import cmath
import itertools
import math


class Group:
    def __init__(self, label, names, table):
        self.label = label
        self.names = list(names)
        self.order = len(self.names)
        self.table = table
        self.index = {name: i for i, name in enumerate(self.names)}
        self.inverse = [row.index(0) for row in table]

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]


def cyclic(n):
    return Group(f"C{n}", [str(i) for i in range(n)],
                 [[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral(n):
    """D_n as the affine maps x -> x + i (r_i) and x -> i - x (s_i) of Z_n."""
    maps = [(1, i) for i in range(n)] + [(-1, i) for i in range(n)]
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    index = {m: k for k, m in enumerate(maps)}

    def compose(a, b):  # (a o b)(x) = ea * (eb * x + cb) + ca
        return (a[0] * b[0], (a[0] * b[1] + a[1]) % n)

    return Group(f"D{n}", names, [[index[compose(a, b)] for b in maps] for a in maps])


def cycle_name(perm):
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) or "e"


def symmetric(n):
    perms = sorted(itertools.permutations(range(n)),
                   key=lambda p: (sum(x != i for i, x in enumerate(p)), cycle_name(p)))
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(n))] for b in perms] for a in perms]
    group = Group(f"S{n}", [cycle_name(p) for p in perms], table)
    group.perms = perms
    return group


def quaternion():
    """Q8 as signed units (sign, unit) with unit in 1, i, j, k; element 0 is +1."""
    units = "1ijk"
    prod = {  # unit products as (sign, unit)
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {e: k for k, e in enumerate(elems)}

    def mul(a, b):
        s, u = prod[(a[1], b[1])]
        return index[(a[0] * b[0] * s, u)]

    return Group("Q8", [str(k) for k in range(8)], [[mul(a, b) for b in elems] for a in elems])


def build(family, n=None):
    return {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}[family](n)


# -- subgroups ------------------------------------------------------------------------


def generated(group, gens):
    """The subgroup generated by ``gens``: breadth-first closure from the identity."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def subgroups(group):
    """All subgroups: closures of every pair of elements, then joins until stable."""
    found = {generated(group, (a, b)) for a in range(group.order) for b in range(a, group.order)}
    while True:
        joins = {generated(group, a | b) for a in found for b in found} - found
        if not joins:
            return sorted(found, key=lambda h: (len(h), sorted(h)))
        found |= joins


def cosets(group, sub):
    return sorted({frozenset(group.mul(g, h) for h in sub) for g in range(group.order)},
                  key=sorted)


# -- irreducible representations --------------------------------------------------------


def irreps(group):
    """Unitary irreducible representations as lists of square matrices (nested lists).

    Cyclic groups: the characters k -> exp(2 pi i j k / n).  S3: trivial, sign and
    the permutation action on the sum-zero plane in an orthonormal basis.
    """
    if group.label.startswith("C"):
        n = group.order
        return [[[[cmath.exp(2j * math.pi * j * k / n)]] for k in range(n)] for j in range(n)]
    if group.label == "S3":
        basis = [(1 / math.sqrt(2), -1 / math.sqrt(2), 0.0),
                 (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6))]
        trivial, sign, standard = [], [], []
        for p in group.perms:
            inversions = sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b])
            trivial.append([[1.0]])
            sign.append([[(-1.0) ** inversions]])
            # e_i -> e_{p(i)}, so (P v)[p(i)] = v[i]
            moved = []
            for v in basis:
                w = [0.0] * 3
                for i in range(3):
                    w[p[i]] = v[i]
                moved.append(w)
            standard.append([[sum(basis[r][x] * moved[c][x] for x in range(3)) for c in range(2)]
                             for r in range(2)])
        return [trivial, sign, standard]
    raise ValueError(f"no reference irreducible representations for {group.label}")
