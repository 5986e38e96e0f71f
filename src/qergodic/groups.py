"""Finite classical groups: Cayley tables, subgroup enumeration, irreducible representations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tolerances import CHAR_ORTHOGONALITY_TOL, IRREP_TOL


class GroupValidationError(ValueError):
    """The supplied data does not describe a group."""


class FiniteGroup:
    """A finite group as an index set 0..order-1 with a Cayley table.

    Element 0 is always the identity.  ``names`` carry display labels
    (cycle notation for symmetric groups, residues for cyclic ones).
    For permutation-built groups ``perms[i]`` stores the underlying
    permutation tuple; it is None otherwise.
    """

    def __init__(self, names, cayley, label="", perms=None):
        self.names = list(names)
        self.order = len(self.names)
        self.cayley = np.array(cayley, dtype=int)
        self.label = label or f"group of order {self.order}"
        self.perms = list(perms) if perms is not None else None
        self._validate()
        self.identity = 0
        self.inverse = np.argmax(self.cayley == 0, axis=1).tolist()
        self._index = {name: i for i, name in enumerate(self.names)}

    def _validate(self):
        n = self.order
        c = self.cayley
        if c.shape != (n, n):
            raise GroupValidationError("Cayley table shape does not match the element count")
        if c.min() < 0 or c.max() >= n:
            raise GroupValidationError("Cayley table entries out of range")
        elems = np.arange(n)
        if not ((np.sort(c, axis=1) == elems).all() and (np.sort(c, axis=0) == elems[:, None]).all()):
            raise GroupValidationError("Cayley table is not a Latin square")
        if not ((c[0] == elems).all() and (c[:, 0] == elems).all()):
            raise GroupValidationError("element 0 does not act as the identity")
        # (ab)x = a(bx) for all b, x at once; a Latin square gives every element an inverse
        for a in range(n):
            if not np.array_equal(c[c[a]], c[a][c]):
                raise GroupValidationError("Cayley table is not associative")

    def mul(self, a, b):
        return int(self.cayley[a, b])

    def inv(self, a):
        return self.inverse[a]

    def index_of(self, name):
        if name not in self._index:
            raise KeyError(f"unknown element {name!r} of {self.label}")
        return self._index[name]

    def conjugacy_classes(self):
        # conj[h, g] = h g h^-1
        conj = self.cayley[self.cayley, np.asarray(self.inverse)[:, None]]
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for g in range(self.order):
            if not seen[g]:
                orbit = np.unique(conj[:, g])
                seen[orbit] = True
                classes.append(orbit.tolist())
        return classes

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"


# -- constructors ---------------------------------------------------------------


def _require_order(n):
    """Refuse ``n`` by name unless it is an integer; a boolean is not."""
    if isinstance(n, (bool, np.bool_)):
        raise GroupValidationError(f"n = {n!r} is a boolean, not an integer")
    if not isinstance(n, (int, np.integer)):
        raise GroupValidationError(f"n = {n!r} is not an integer")


def cyclic_group(n):
    _require_order(n)
    if n < 1:
        raise GroupValidationError("cyclic order must be >= 1")
    elems = np.arange(n)
    return FiniteGroup([str(i) for i in range(n)], (elems[:, None] + elems) % n, label=f"C{n}")


def _cycle_notation(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
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
    return "".join(parts) if parts else "e"


def symmetric_group(n):
    """S_n by permutation composition; elements named in cycle notation.

    Bounded at n <= 4: larger orders are outside this artifact's scope.
    """
    _require_order(n)
    if not 1 <= n <= 4:
        raise GroupValidationError("symmetric groups are supported for 1 <= n <= 4")
    perms = list(itertools.permutations(range(n)))
    support = lambda p: sum(1 for i, x in enumerate(p) if x != i)
    perms.sort(key=lambda p: (support(p), _cycle_notation(p)))
    arr = np.array(perms)
    code = n ** np.arange(n)  # a permutation read as a base-n number
    index = np.zeros(n ** n, dtype=int)
    index[arr @ code] = np.arange(len(perms))
    # composition convention: (a b)(x) = a(b(x)); arr[:, arr][a, b, x] = arr[a, arr[b, x]]
    table = index[arr[:, arr] @ code]
    names = [_cycle_notation(p) for p in perms]
    return FiniteGroup(names, table, label=f"S{n}", perms=perms)


def dihedral_group(n):
    """D_n of order 2n: rotations r0..r{n-1} and reflections s0..s{n-1}."""
    _require_order(n)
    if n < 1:
        raise GroupValidationError("dihedral parameter must be >= 1")
    names = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    i, j = np.arange(n)[:, None], np.arange(n)
    rot, ref = (i + j) % n, (i - j) % n
    table = np.block([[rot, rot + n], [ref + n, ref]])
    return FiniteGroup(names, table, label=f"D{n}")


def group_from_cayley(table, names=None, label=""):
    table = np.asarray(table)
    if table.ndim != 2:
        raise GroupValidationError(f"Cayley table is not a 2-D array: it has {table.ndim} axes")
    if table.dtype.kind in "fc":
        off = ~np.isfinite(table) | (table != table.real.round())
        if off.any():
            r, c = np.argwhere(off)[0].tolist()
            raise GroupValidationError(
                f"Cayley table entry {table[r, c]} in row {r}, column {c} is not an integer")
    table = table.astype(int)
    if names is None:
        names = [str(i) for i in range(table.shape[0])]
    return FiniteGroup(names, table, label=label or "custom")


def build_group(family, n=None, table=None):
    """Catalog front door: cyclic(n), symmetric(n), dihedral(n) or an explicit table."""
    if family == "cyclic":
        return cyclic_group(n)
    if family == "symmetric":
        return symmetric_group(n)
    if family == "dihedral":
        return dihedral_group(n)
    if family == "cayley":
        return group_from_cayley(table)
    raise GroupValidationError(f"unknown group family {family!r}")


# -- subgroups --------------------------------------------------------------------


def _closure(group, seed):
    members = np.zeros(group.order, dtype=bool)
    members[[0, *seed]] = True
    while True:
        s = np.flatnonzero(members)
        members[group.cayley[s[:, None], s]] = True
        if np.count_nonzero(members) == len(s):
            return frozenset(s.tolist())


def subgroups(group):
    """All subgroups, as sorted index tuples.

    Brute force: close every cyclic subgroup, then close the collection under
    pairwise joins until stable; every subgroup is the join of the cyclic
    subgroups of its elements.  Bounded at order 64.
    """
    if group.order > 64:
        raise GroupValidationError("subgroup enumeration is bounded at order 64")
    found = {_closure(group, [g]) for g in range(group.order)}
    fresh = set(found)
    while fresh:
        # joins of two subgroups found before the last round were taken then, and the
        # join of two nested subgroups is the larger one
        joins = {_closure(group, a | b) for a in fresh for b in found if not (a <= b or b <= a)}
        fresh = joins - found
        found |= fresh
    return sorted(tuple(sorted(h)) for h in found)


def is_normal(group, subgroup_elems):
    h = np.array(list(subgroup_elems), dtype=int)
    members = np.zeros(group.order, dtype=bool)
    members[h] = True
    # g h g^-1 for every g (rows) and h (columns)
    conj = group.cayley[group.cayley[:, h], np.asarray(group.inverse)[:, None]]
    return bool(members[conj].all())


def normal_subgroups(group):
    return [h for h in subgroups(group) if is_normal(group, h)]


def is_subgroup(group, elems):
    s = np.array(list(elems), dtype=int)
    if 0 not in s:
        return False
    members = np.zeros(group.order, dtype=bool)
    members[s] = True
    s = np.flatnonzero(members)
    return bool(members[group.cayley[np.ix_(s, s)]].all())


# -- irreducible representations ---------------------------------------------------


_LAW_BATCH = 1 << 14  # matrix entries per chunk of the homomorphism check: 256 KiB of complex


def representation_defect(group, matrices, tol):
    """The first law an (order, d, d) array of matrices breaks as a unitary representation.

    Elements are taken in index order, unitarity of M[g] before the
    homomorphism law M[g] M[h] = M[gh] over all h: returns ("unitary", g) or
    ("homomorphism", g), or None for a unitary representation.  An (R, order,
    d, d) stack of R representations gets the list of their R results from
    one pass.  The law is checked for all g below each representation's first
    non-unitary element at once, in chunks of g of at most ``_LAW_BATCH``
    matrix entries over the stack (one g when that alone is more, which for
    the irreps of one dimension of a table is at most order^2 entries).
    """
    mats = np.asarray(matrices, dtype=complex)
    stack = mats.reshape((-1,) + mats.shape[-3:])
    order = group.order
    unitary_err = np.abs(stack @ stack.conj().swapaxes(-1, -2) - np.eye(stack.shape[-1]))
    not_unitary = unitary_err.max(axis=(-2, -1)) > tol
    first = np.where(not_unitary.any(axis=-1), not_unitary.argmax(axis=-1), order)
    broken = np.full(len(stack), order)  # the first g that breaks the law, per representation
    limit = int(first.max())
    chunk = max(1, _LAW_BATCH // stack[0, 0].size // order // len(stack))
    for start in range(0, limit, chunk):
        a = np.arange(start, min(start + chunk, limit))
        err = np.abs(stack[:, a, None] @ stack[:, None] - stack[:, group.cayley[a]])
        hit = (err.max(axis=(2, 3, 4)) > tol) & (a < first[:, None])
        broken = np.minimum(broken, np.where(hit.any(axis=1), a[hit.argmax(axis=1)], order))
        if ((broken < order) | (first <= a[-1] + 1)).all():
            break
    defects = [("homomorphism", int(b)) if b < order else None if f == order
               else ("unitary", int(f)) for b, f in zip(broken, first)]
    return defects if mats.ndim == 4 else defects[0]


@dataclass
class Irrep:
    name: str
    dim: int
    matrices: np.ndarray  # (order, dim, dim): the unitary matrix of each group element

    def character(self):
        return np.trace(self.matrices, axis1=1, axis2=2)


class IrrepTable:
    """A complete list of irreducible unitary representations of a finite group."""

    def __init__(self, group, irreps):
        self.group = group
        self.irreps = list(irreps)
        self.validate()

    def validate(self):
        n = self.group.order
        if sum(r.dim ** 2 for r in self.irreps) != n:
            raise GroupValidationError("irrep dimensions do not sum to the group order")
        # one pass per matrix shape: per irrep dimension when the matrices are well formed
        same_shape = {}
        for i, r in enumerate(self.irreps):
            same_shape.setdefault(np.shape(r.matrices), []).append(i)
        defects = [None] * len(self.irreps)
        for idx in same_shape.values():
            stack = [self.irreps[i].matrices for i in idx]
            for i, defect in zip(idx, representation_defect(self.group, stack, IRREP_TOL)):
                defects[i] = defect
        for r, defect in zip(self.irreps, defects):
            if defect is not None:
                law, g = defect
                if law == "unitary":
                    raise GroupValidationError(f"irrep {r.name} is not unitary at {g}")
                raise GroupValidationError(f"irrep {r.name} is not a homomorphism")
        chars = np.array([r.character() for r in self.irreps])
        gram = chars @ chars.conj().T / n
        if np.abs(gram - np.eye(len(chars))).max() > CHAR_ORTHOGONALITY_TOL:
            raise GroupValidationError("character orthogonality fails")

    @property
    def dims(self):
        return tuple(r.dim for r in self.irreps)


def cyclic_irreps(group):
    """Characters k |-> omega**(j*k) of a cyclic group built by cyclic_group()."""
    n = group.order
    omega = np.exp(2j * np.pi / n)
    g = np.arange(n).reshape(n, 1, 1)
    return IrrepTable(group, [Irrep(f"chi{j}", 1, omega ** (j * g)) for j in range(n)])


def permutation_matrices(group):
    """The permutation representation of a permutation-built group: e_i -> e_{p(i)}."""
    perms = np.array(group.perms)
    order, n = perms.shape
    mats = np.zeros((order, n, n))
    mats[np.arange(order)[:, None], perms, np.arange(n)] = 1.0
    return mats


def s3_irreps(group):
    """Trivial, sign, and the standard representation of S3.

    The standard representation is the permutation action restricted to the
    sum-zero plane, written in the orthonormal basis
    (1,-1,0)/sqrt(2), (1,1,-2)/sqrt(6).
    """
    if group.perms is None or group.order != 6:
        raise GroupValidationError("expected the symmetric group S3")
    basis = np.array([
        [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
        [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)],
    ])
    pm = permutation_matrices(group)
    parity = np.linalg.det(pm).reshape(6, 1, 1)
    return IrrepTable(group, [
        Irrep("trivial", 1, np.ones((6, 1, 1), dtype=complex)),
        Irrep("sign", 1, parity + 0j),
        Irrep("standard", 2, (basis @ pm @ basis.T).astype(complex)),
    ])


def s3_standard_integral(group):
    """The integer (non-unitary) form of the standard representation of S3, a (6, 2, 2) array.

    The permutation representation on the sum-zero lattice, written in its
    basis e1 - e2, e2 - e3: (12) |-> [[-1, 1], [0, 1]] and (123) |-> [[0, -1],
    [1, -1]].  GL(2, Z)-valued, so not usable in an IrrepTable, but needed to
    rebuild pure-state coefficient sets quoted in that form.
    """
    if group.perms is None or group.order != 6:
        raise GroupValidationError("expected the symmetric group S3")
    lattice = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    # the entries are integers; rounding clears the pseudo-inverse's roundoff, + 0.0 its -0.0
    return np.round(np.linalg.pinv(lattice) @ permutation_matrices(group) @ lattice) + 0.0


def irreps_for(group):
    """The bundled irrep table for a catalog group, if there is one."""
    if group.label.startswith("C") and group.perms is None and group.label[1:].isdigit():
        return cyclic_irreps(group)
    if group.label == "S3":
        return s3_irreps(group)
    raise GroupValidationError(
        f"no bundled irreducible representations for {group.label}; supply a table"
    )
