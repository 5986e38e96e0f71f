"""Finite quantum groups as multi-matrix C*-Hopf algebras.

A :class:`FiniteQuantumGroup` bundles a block structure with its
comultiplication, counit and antipode, and computes the Haar state (by a
linear solve, never from a closed form) and the Haar element at construction
time.  The solve reduces its (D^2, D) system block by block into a (D, D)
triangular factor, so it holds about D^2 entries above the stored maps.
The comultiplication is stored once, as a (D^2, D) matrix in the Kronecker
order of the two factors, and the antipode as a (D, D) matrix.
Axiom verification, group-like projection machinery and the convolution
product on the algebra live here as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    BlockStructure,
    DomainError,
    LinearFunctional,
    TensorSplit,
    is_projection,
    lp_norms,
    norms_inf,
    positive_rows,
    products,
    projection_rows,
)
from .groups import FiniteGroup, GroupValidationError, subgroups
from .tolerances import (
    CENSUS_NULL_RTOL,
    HAAR_NULL_RTOL,
    HAAR_WEIGHT_FLOOR,
    IDEMPOTENCE_TOL,
    IMPLIED_IDENTITY_TOL,
    PROJECTION_EQ_TOL,
    STATE_NORM_TOL,
    STRUCTURE_TOL,
)

_HAAR_BATCH = 16384  # entries per block of rows of the Haar system: 256 KiB of complex
_GATE_BATCH = 4096  # entries per chunk of the group-like gate and the character table: 64 KiB

# coordinates of a rank-1 2x2 projection 0.5 (1 + n . sigma): the constant term,
# then the coefficients of n_x, n_y and n_z
_BLOCH_BASIS = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])

# the first 14 draws of np.random.default_rng(0).standard_normal: the census's fixed
# combinations, written out so that the census never imports numpy.random
_JENNRICH_DRAWS = np.array([
    0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971,
    -0.535669373161111, 0.36159505490948474, 1.3040000451301372, 0.9470809631292422,
    -0.7037352358069926, -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
    -2.3250307746388343, -0.21879166393254573])

_UNBUILT = object()  # the census slot of a group before its first census() call


class StructuralError(RuntimeError):
    """The given structure maps do not describe a finite quantum group."""


class UnsupportedError(RuntimeError):
    """The operation is outside the documented limits of this implementation."""


@dataclass
class HopfAxiomReport:
    """Named residuals from the Hopf axiom checks (aggregate Frobenius norms)."""

    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return max(self.residuals.values())

    def passed(self, tol):
        return self.max_residual <= tol

    def __str__(self):
        lines = [f"  {name:22s} {value:.3e}" for name, value in self.residuals.items()]
        return "\n".join(lines)


class FiniteQuantumGroup:
    """Block structure plus comultiplication, counit, antipode, and the Haar data.

    ``comul`` is the (D^2, D) matrix whose row s D + t, column f holds the
    coefficient of e_s (x) e_t in Delta(e_f), kept as ``comul_kron``;
    ``antipode`` is the (D, D) matrix of S and ``counit`` a
    :class:`LinearFunctional`.  The maps and the Haar data are immutable
    after construction; the group-like census (:meth:`census`) is derived data,
    built on first use and then held.  ``realization`` optionally records how
    the entry was built (classical function algebra, group algebra, ...) so
    that criteria needing that extra data can find it.

    With ``validate`` (the default) the constructor solves the Haar data once
    and sets them as attributes -- ``haar``, ``haar_weights`` (per block),
    ``haar_coord_weights`` (per coordinate) and ``haar_element`` -- and raises
    StructuralError for maps that define no quantum group.  With
    ``validate=False`` it holds only the maps, for :meth:`verify_axioms` and
    :meth:`character_group` on maps that may be broken.
    """

    def __init__(self, structure, comul, counit, antipode, label="",
                 realization=None, validate=True):
        if not isinstance(structure, BlockStructure):
            structure = BlockStructure(structure)
        self.structure = structure
        self.split = TensorSplit(structure, structure)
        D = structure.dim
        self.comul_kron = _structure_matrix("comultiplication", comul, (D * D, D))
        if counit.structure != structure:
            raise StructuralError("counit shape does not match the algebra")
        self.counit = counit
        self.antipode = _structure_matrix("antipode", antipode, (D, D))
        self.label = label or f"quantum group on {structure.dims}"
        self.realization = realization
        self.unit = structure.unit()
        self._census = _UNBUILT
        if validate:
            self.haar, self.haar_weights, self.haar_coord_weights = self._solve_haar()
            self.haar_element = self._find_haar_element()

    # -- basic derived data -------------------------------------------------

    @property
    def dim(self):
        return self.structure.dim

    def delta_kron(self, a):
        """Comultiplication of ``a`` as a (D, D) array in Kronecker order."""
        D = self.dim
        return (self.comul_kron @ a.coords()).reshape(D, D)

    # -- Haar state ----------------------------------------------------------

    def _solve_haar(self):
        """Solve the left-invariance system (h (x) id) Delta(f) = h(f) 1 for h.

        The (D^2, D) system is never formed: its blocks of rows, a few f at
        a time (at most ``_HAAR_BATCH`` entries each), are reduced in turn
        into a (D, D) triangular factor R of the system, whose singular
        values and right singular vectors are the system's, and the null
        vector comes from the SVD of R.  Transient memory thus stays within
        about D^2 entries above the stored Delta; when one block holds the
        whole system its SVD is taken directly.  Asserts the solution space
        is one-dimensional, then validates traciality and faithfulness of
        the normalized solution.
        """
        D = self.dim
        unit = self.unit.coords()
        dk3 = self.comul_kron.reshape(D, D, D)  # [s, t, f]
        chunk = max(1, _HAAR_BATCH // (D * D))
        system = np.empty((0, D), dtype=complex)
        for start in range(0, D, chunk):
            stop = min(start + chunk, D)
            # block f of the system is W_f.T - unit e_f^T, with W_f = Delta(e_f) as a D x D array
            block = dk3[:, :, start:stop].transpose(2, 1, 0).copy()
            block[np.arange(stop - start), :, np.arange(start, stop)] -= unit
            system = np.concatenate([system, block.reshape(-1, D)])
            if chunk < D:
                system = np.linalg.qr(system, mode="r")
        _, sing, vh = np.linalg.svd(system, full_matrices=False)
        null_count = int(np.sum(sing <= HAAR_NULL_RTOL * max(1.0, sing[0])))
        if null_count != 1:
            raise StructuralError(
                f"invariance system has a {null_count}-dimensional solution space; "
                "the structure maps do not define a quantum group"
            )
        coeffs = vh[-1].conj()
        coeffs = coeffs / (coeffs @ unit)
        # tracial and faithful <=> each block of coefficients is w_i * I with w_i > 0
        weights = np.empty(len(self.structure.dims))
        for n, ids, idx in self.structure.size_classes:
            seg = coeffs[idx]
            w = np.trace(seg, axis1=1, axis2=2) / n
            if np.any(np.abs(w.imag) > STRUCTURE_TOL) or np.any(w.real <= HAAR_WEIGHT_FLOOR):
                raise StructuralError("Haar state is not faithful and positive")
            if np.abs(seg - w[:, None, None] * np.eye(n)).max() > STRUCTURE_TOL:
                raise StructuralError("Haar state is not tracial")
            weights[ids] = w.real
        coord_weights = np.repeat(weights, [n * n for n in self.structure.dims])
        coord_weights.flags.writeable = False
        coeffs = coord_weights * unit.real
        haar = LinearFunctional(self.structure, coeffs)
        # right invariance and antipode invariance are theorems; treat failures as structural
        if np.abs(coeffs @ dk3 - np.outer(unit, coeffs)).max() > STRUCTURE_TOL:
            raise StructuralError("Haar state is not right invariant")
        if np.abs(self.antipode.T @ coeffs - coeffs).max() > STRUCTURE_TOL:
            raise StructuralError("Haar state is not antipode invariant")
        return haar, tuple(weights.tolist()), coord_weights

    def _character_coords(self):
        """Coordinates of the 1x1 blocks, the one on which the counit is 1 first."""
        ones = np.array(self.structure.offsets[:-1])[np.array(self.structure.dims) == 1]
        hits = np.abs(self.counit.coeffs[ones] - 1.0) <= STRUCTURE_TOL
        if hits.sum() != 1:
            raise StructuralError(
                f"found {hits.sum()} one-dimensional factors with counit value 1, expected 1"
            )
        return np.concatenate([ones[hits], ones[~hits]])

    def _find_haar_element(self):
        """The minimal central projection spanning the counit's one-dimensional factor."""
        return self.structure.basis_element(self._character_coords()[0])

    def character_group(self):
        """The characters, the evaluations at the 1x1 blocks, as a group under convolution.

        Element k evaluates at, and is named by, coordinate o_k of
        _character_coords(), so element 0 is the counit.  Row (o_a, o_b) of
        ``comul_kron`` must be the evaluation at some o_c, and then a * b = c.
        The rows are read at most ``_GATE_BATCH`` entries at a time, so the
        table costs memory of the order of one chunk, not of Delta.
        """
        coords = self._character_coords()
        pairs = (coords[:, None] * self.dim + coords).reshape(-1)
        chunk = max(1, _GATE_BATCH // self.dim)
        table_chunks = []
        for first in range(0, len(pairs), chunk):
            rows = self.comul_kron[pairs[first:first + chunk]]
            hits = np.abs(rows[:, coords]).argmax(axis=1)
            rows[np.arange(len(rows)), coords[hits]] -= 1.0  # each row less its evaluation
            if np.abs(rows).max() > STRUCTURE_TOL:
                raise StructuralError("a product of characters is not a character")
            table_chunks.append(hits)
        table = np.concatenate(table_chunks)
        try:
            return FiniteGroup(map(str, coords), table.reshape(len(coords), -1),
                               label=f"characters of {self.label}")
        except GroupValidationError as exc:
            raise StructuralError(f"characters do not form a group: {exc}") from exc

    # -- axiom verification ----------------------------------------------------

    def verify_axioms(self):
        """Residuals of the defining identities, as aggregate Frobenius norms.

        Covers coassociativity, both counital laws, both antipodal laws,
        the *-homomorphism property of the comultiplication on the full
        coordinate basis, and involutivity of the antipode.  With W[f] =
        Delta(e_f) in Kronecker order, each identity is one array expression
        over the stack W, and every product goes through :func:`products`;
        only coassociativity and multiplicativity take one pass per f.
        """
        D = self.dim
        st = self.structure
        dk = self.comul_kron
        cm = dk[self.split.perm]  # rows in the product structure's coordinates
        W = dk.T.reshape(D, D, D)  # [f, s, t]
        ceps = self.counit.coeffs
        smat = self.antipode
        eye = np.eye(D)
        star = st.star_perm
        target = np.outer(ceps, self.unit.coords())  # eps(f) 1

        def mult(X):
            """m(X[f]) = sum_s e_s X[f, s] for each f of an (F, D, D) stack."""
            return products(st, eye, X).sum(axis=1)

        def sq(diff):
            """Squared Frobenius norm of each row of a stack, summed over its other axes."""
            return (np.abs(diff.reshape(len(diff), -1)) ** 2).sum(axis=1)

        def total(sums):
            """Square root of the sum of ``sums``, added in order."""
            return np.sqrt(np.cumsum(sums)[-1])

        coassoc = np.empty(D)
        multiplicative = np.empty((D, D))
        deltas = np.ascontiguousarray(cm.T)  # row t is Delta(e_t)
        for f in range(D):
            coassoc[f] = sq((dk @ W[f]).reshape(1, -1) - (W[f] @ dk.T).reshape(1, -1))[0]
            # Delta(e_f) Delta(e_t) against Delta(e_f e_t), for every t at once
            multiplicative[f] = sq(products(self.split.product, deltas[f], deltas)
                                   - products(st, eye[f], eye) @ cm.T)

        residuals = {
            "coassociativity": total(coassoc),
            "counit_left": total(sq(ceps @ W - eye)),
            "counit_right": total(sq(W @ ceps - eye)),
            "antipode_left": total(sq(mult(smat @ W) - target)),
            "antipode_right": total(sq(mult(W @ smat.T) - target)),
            # Delta(f*) versus Delta(f)*; star_perm is involutive so indexing both
            # axes by it realizes the (s, t) -> (s*, t*) relabelling
            "comul_star": total(sq(W[star] - W.conj()[:, star[:, None], star])),
            "comul_multiplicative": total(multiplicative.ravel()),
            "antipode_involutive": np.linalg.norm(smat @ smat - eye),
        }
        return HopfAxiomReport({name: float(v) for name, v in residuals.items()})

    # -- group-like projections -------------------------------------------------

    def _group_like_defect_batch(self, coords):
        """Coordinates of Delta(p)(1 (x) p) - p (x) p for a batch of candidate coords.

        Works in Kronecker order, where right multiplication by (1 (x) p)
        multiplies each row of W = Delta(p) by p; returns an (n, D*D) complex
        array whose rows vanish exactly at group-likes.
        """
        coords = np.atleast_2d(coords)
        D = self.dim
        W = (self.comul_kron @ coords.T).T.reshape(-1, D, D)
        lhs = products(self.structure, W, coords[:, None, :])
        rhs = coords[:, :, None] * coords[:, None, :]
        return (lhs - rhs).reshape(len(coords), D * D)

    def _defect_terms(self, base, offsets):
        """The defect of the Bloch candidates as a quadratic form in their moment vectors.

        A candidate is m @ cols, affine in m = (1, n_1, ..., n_k) for the
        Bloch vectors n_j of the 2x2 blocks at ``offsets``, and the defect
        F(c) = Delta(c)(1 (x) c) - c (x) c is quadratic in c, so F(m @ cols)
        is sum_{u <= v} m_u m_v T_uv with T_uu = F(cols_u) and, by
        polarization, T_uv = F(cols_u + cols_v) - F(cols_u) - F(cols_v).
        Returns ``cols``, a complex (K, D) array (K = 1 + 3k), and the T_uv in
        the order of ``np.triu_indices(K)`` as a real (K(K+1)/2, 2 D^2) array
        of real and imaginary parts.
        """
        D = self.dim
        cols = np.zeros((1 + 3 * len(offsets), D), dtype=complex)
        cols[0] = base
        for j, off in enumerate(offsets):
            cols[0, off:off + 4] = _BLOCH_BASIS[0]
            cols[1 + 3 * j:4 + 3 * j, off:off + 4] = _BLOCH_BASIS[1:]
        iu, iv = np.triu_indices(len(cols))
        pair = iu < iv
        defects = self._group_like_defect_batch(
            np.concatenate([cols, cols[iu[pair]] + cols[iv[pair]]]))
        single = defects[:len(cols)]
        terms = single[iu]
        terms[pair] = defects[len(cols):] - single[iu[pair]] - single[iv[pair]]
        return cols, np.concatenate([terms.real, terms.imag], axis=1)

    def _group_like_rows(self, coords):
        """Whether each projection of an (N, D) stack is group-like: Delta(p)(1 (x) p) = p (x) p.

        The one gate of group-likeness: the Frobenius norm of each row's
        defect in Kronecker order, at most ``PROJECTION_EQ_TOL``.  The defects
        are taken a few rows at a time, at most ``_GATE_BATCH`` entries of
        Delta(p) per chunk, so that their (rows, D, D) intermediates stay
        small however many candidates the census stacks.  The rows that pass
        must have counit value 1 and be fixed by the antipode, as
        group-likeness implies; a failure there raises StructuralError.
        """
        chunk = max(1, _GATE_BATCH // self.dim ** 2)
        defects = np.empty(len(coords))
        for start in range(0, len(coords), chunk):
            defects[start:start + chunk] = np.linalg.norm(
                self._group_like_defect_batch(coords[start:start + chunk]), axis=1)
        group_like = defects <= PROJECTION_EQ_TOL
        kept = coords[group_like]
        if np.any(np.abs(self.counit.values(kept) - 1.0) > IMPLIED_IDENTITY_TOL):
            raise StructuralError("group-like projection with counit value != 1")
        if np.any(norms_inf(self.structure, kept @ self.antipode.T - kept) > IMPLIED_IDENTITY_TOL):
            raise StructuralError("group-like projection not fixed by the antipode")
        return group_like

    def is_group_like_projection(self, p):
        """Whether the projection p is group-like (see :meth:`_group_like_rows`)."""
        if not is_projection(p):
            raise DomainError("group-likeness is defined for projections")
        return bool(self._group_like_rows(p.coords()[None])[0])

    def find_group_like_projections(self):
        """Group-like search for blocks of size <= 2, at most two of size 2.

        On the 1x1 blocks a group-like projection is the indicator of a
        subgroup of :meth:`character_group` (order <= 64); tries each of them
        with rank 0/1/2 choices on the 2x2 blocks.  A choice with rank-1
        blocks is a linear problem: the defect is a quadratic form in the
        moment vector m = (1, n_1, ..., n_k) of their Bloch vectors
        (:meth:`_defect_terms`), so the monomials m_u m_v of every solution
        lie in the left null space of its terms, and :func:`_moment_vectors`
        recovers the solutions from that space.  The 0/1 choices and the
        recovered candidates make one stack, which one :meth:`_group_like_rows`
        call gates: a 0/1 choice that fails is dropped, and a recovered
        candidate that is not a group-like projection makes the census
        refuse, never miss.
        """
        dims = self.structure.dims
        if any(n > 2 for n in dims):
            raise UnsupportedError(
                "group-like search supports block dimensions <= 2 only"
            )
        if dims.count(2) > 2:
            raise UnsupportedError("group-like search supports at most 2 blocks of dimension 2")
        try:
            candidates = subgroups(self.character_group())
        except GroupValidationError as exc:
            raise UnsupportedError(f"group-like search over the character group: {exc}") from exc

        fixed, recovered = [], []  # the 0/1 candidates, then those Jennrich's method recovers
        char_coords = self._character_coords()
        twos = [off for off, n in zip(self.structure.offsets, dims) if n == 2]
        for H, *choice in itertools.product(candidates, *[(0, "s", 2)] * len(twos)):
            base = np.zeros(self.structure.dim, dtype=complex)
            base[char_coords[list(H)]] = 1.0
            spheres = []
            for off, c in zip(twos, choice):
                if c == "s":
                    spheres.append(off)
                elif c:
                    base[off:off + 4:3] = 1.0  # the unit of the block
            if not spheres:
                fixed.append(base)
                continue
            cols, terms = self._defect_terms(base, spheres)
            # terms has at most 28 rows and 2 D^2 >= 50 columns, so u is square all the same
            u, s, _ = np.linalg.svd(terms, full_matrices=False)
            null = u[:, np.count_nonzero(s > CENSUS_NULL_RTOL * s[0]):]
            if null.size:
                recovered.extend(_moment_vectors(null, len(cols)) @ cols)

        stack = np.array(fixed + recovered)
        if not projection_rows(self.structure, stack[len(fixed):]).all():
            raise UnsupportedError("census candidate is not a group-like projection")
        group_like = self._group_like_rows(stack)
        if not group_like[len(fixed):].all():
            raise UnsupportedError("census candidate is not a group-like projection")
        found = stack[group_like]
        if np.any(self.haar.values(found).real <= 0):
            raise StructuralError("group-like projection with nonpositive Haar mass")
        found = sorted(found, key=lambda c: tuple(np.round(c.real, 6)) + tuple(np.round(c.imag, 6)))
        return [self.structure.from_coords(coords) for coords in found]

    def census(self):
        """The group-like projections with their idempotent states, or None where none is found.

        Built by :meth:`find_group_like_projections` on the first call and held
        on the group; None when that search refuses (UnsupportedError).
        Returns ``(projections, masses, states)``: the (N, D) coordinates of
        the projections q in the search's order, their Haar masses h(q), and
        the (N, D) functionals of the states q / h(q), the idempotent states
        (Franz and Skalski), each checked here, once, to be a state and
        idempotent.
        """
        if self._census is _UNBUILT:
            try:
                found = self.find_group_like_projections()
            except UnsupportedError:
                self._census = None
                return None
            projections = np.array([q.coords() for q in found])
            masses = self.haar.values(projections).real
            densities = projections / masses[:, None]
            states = self.haar_coord_weights * densities.take(self.structure.star_perm, axis=-1)
            if not (positive_rows(self.structure, densities).all()
                    and np.all(abs(states @ self.unit.coords() - 1.0) <= STATE_NORM_TOL)):
                raise StructuralError("q / h(q) of a group-like projection q is not a state")
            if not self._idempotent_rows(states).all():
                raise StructuralError("q / h(q) of a group-like projection q is not idempotent")
            for array in (projections, masses, states):
                array.flags.writeable = False
            self._census = projections, masses, states
        return self._census

    def _idempotent_rows(self, states):
        """Whether phi * phi = phi, in total variation within ``IDEMPOTENCE_TOL``, per row.

        ``states`` is an (N, D) stack of state functionals; the N squares come
        from one product with ``comul_kron`` and the N distances from one
        :func:`lp_norms` call.
        """
        n, D = states.shape
        squares = (states[:, :, None] * states[:, None, :]).reshape(n, D * D) @ self.comul_kron
        diff = (squares - states).take(self.structure.star_perm, axis=-1) / self.haar_coord_weights
        l1, _, _ = lp_norms(self.structure, diff, self.haar_weights)
        return 0.5 * l1 <= IDEMPOTENCE_TOL

    # -- convolution on the algebra ----------------------------------------------

    def box_convolve(self, f, g):
        """Convolution product on the algebra: (haar (x) id)(((S (x) id) Delta(g)) (f (x) 1)).

        Column t of S W, for W = Delta(g) in Kronecker order, is the first
        factor paired with e_t; each is multiplied by f and then weighed by
        the Haar state.
        """
        sw = self.antipode @ self.delta_kron(g)
        return self.structure.from_coords(
            self.haar.values(products(self.structure, sw.T, f.coords())))

    def __repr__(self):
        return f"FiniteQuantumGroup({self.label!r}, dims={self.structure.dims})"


def _structure_matrix(name, matrix, shape):
    """``matrix`` read-only, C-contiguous and complex, copied unless it is so and owns its data."""
    if not (isinstance(matrix, np.ndarray) and matrix.dtype == complex and matrix.flags.owndata
            and matrix.flags.c_contiguous and not matrix.flags.writeable):
        matrix = np.array(matrix, dtype=complex, order="C")
    if matrix.shape != shape:
        raise StructuralError(f"{name} has shape {matrix.shape}, expected {shape}")
    matrix.flags.writeable = False
    return matrix


def _moment_vectors(null, K):
    """The r moment vectors whose monomials span ``null``, each scaled to m_0 = 1.

    ``null`` is a real (K(K+1)/2, r) basis whose columns, in the order of
    ``np.triu_indices(K)``, should span the monomials (m_u m_v)_{u <= v} of r
    independent moment vectors, the columns of a K x r matrix M.  Folding a
    column into a symmetric K x K matrix gives X = M diag(a) M^T, so two
    fixed random combinations A and B of the folded columns (``_JENNRICH_DRAWS``) have
    A B^+ = M diag(a / b) M^+, whose eigenvectors are the moment vectors
    (Jennrich's simultaneous diagonalization).  A and B are taken on the
    range of the X, which M spans, where B is invertible.  Returns an (r, K)
    array.  Raises UnsupportedError when r > K, when the X do not span
    exactly r directions, or when a recovered vector has m_0 close to 0.
    """
    r = null.shape[1]
    if r > K:
        raise UnsupportedError(f"census null space of dimension {r} exceeds {K}, its moment count")
    iu, iv = np.triu_indices(K)
    X = np.zeros((r, K, K))
    X[:, iu, iv] = X[:, iv, iu] = null.T
    U, s, _ = np.linalg.svd(X.transpose(1, 0, 2).reshape(K, r * K), full_matrices=False)
    if np.count_nonzero(s > CENSUS_NULL_RTOL * s[0]) != r:
        raise UnsupportedError(f"census null space of dimension {r} is not spanned by "
                               f"{r} independent moment vectors")
    U = U[:, :r]
    draws = np.stack([_JENNRICH_DRAWS[:r], _JENNRICH_DRAWS[r:2 * r]])  # standard_normal((2, r))
    A, B = U.T @ np.tensordot(draws, X, 1) @ U
    _, W = np.linalg.eig(np.linalg.solve(B, A).T)  # A B^-1, as A and B are symmetric
    M = U @ W  # columns of norm 1
    if np.any(np.abs(M[0]) <= CENSUS_NULL_RTOL):
        raise UnsupportedError("census moment vector with m_0 close to 0")
    return (M / M[0]).T
