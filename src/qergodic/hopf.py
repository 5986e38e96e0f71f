"""Finite quantum groups as multi-matrix C*-Hopf algebras.

A :class:`FiniteQuantumGroup` bundles a block structure with its
comultiplication, counit and antipode, and computes the Haar state (by a
linear solve, never from a closed form) and the Haar element at construction
time.  Axiom verification, group-like projection machinery and the
convolution product on the algebra live here as well.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    BlockStructure,
    DomainError,
    LinearFunctional,
    TensorSplit,
    is_projection,
)
from .groups import FiniteGroup, GroupValidationError, subgroups
from .tolerances import (
    COMMUTATIVITY_TOL,
    EXACT_DEFECT_TOL,
    HAAR_NULL_RTOL,
    HAAR_WEIGHT_FLOOR,
    IMPLIED_IDENTITY_TOL,
    LM_TOL,
    PROJECTION_DEDUP_TOL,
    PROJECTION_EQ_TOL,
    REFINE_TOL,
    STRUCTURE_TOL,
)

# group-like census: Bloch grid points per angle axis, by the number of rank-1
# 2x2 blocks in a choice; starts need a grid defect below _START_TOL
_GRID = {1: 64, 2: 12}
_START_TOL = 0.25
_SCAN_BATCH = 4096
# coordinates of a rank-1 2x2 projection 0.5 (1 + n . sigma): the constant term,
# then the coefficients of n_x, n_y and n_z
_BLOCH_BASIS = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])


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
    """Block structure plus comultiplication, counit, antipode; Haar data cached.

    Immutable after construction.  ``realization`` optionally records how the
    entry was built (classical function algebra, group algebra, ...) so that
    criteria needing that extra data can find it.
    """

    def __init__(self, structure, comul, counit, antipode, label="",
                 realization=None, validate=True):
        if not isinstance(structure, BlockStructure):
            structure = BlockStructure(structure)
        self.structure = structure
        self.split = TensorSplit(structure, structure)
        if comul.domain != structure or comul.codomain != self.split.product:
            raise StructuralError("comultiplication shape does not match the algebra")
        if counit.structure != structure:
            raise StructuralError("counit shape does not match the algebra")
        if antipode.domain != structure or antipode.codomain != structure:
            raise StructuralError("antipode shape does not match the algebra")
        self.comul = comul
        self.counit = counit
        self.antipode = antipode
        self.label = label or f"quantum group on {structure.dims}"
        self.realization = realization
        self.unit = structure.unit()
        # comultiplication with output rows in Kronecker order
        self.comul_kron = comul.matrix[self.split.inv_perm]
        self._haar_data = None
        self._haar_element = None
        self._right_mult = None
        if validate:
            # fill the Haar caches now so instances can be shared freely
            self._haar_data = self._solve_haar()
            self._haar_element = self._find_haar_element()

    def _haar_solution(self):
        if self._haar_data is None:
            self._haar_data = self._solve_haar()
        return self._haar_data

    @property
    def haar(self):
        return self._haar_solution()[0]

    @property
    def haar_weights(self):
        return self._haar_solution()[1]

    @property
    def haar_coord_weights(self):
        """The Haar weight of each coordinate's block: a length-D vector."""
        return self._haar_solution()[2]

    @property
    def haar_element(self):
        if self._haar_element is None:
            self._haar_element = self._find_haar_element()
        return self._haar_element

    # -- basic derived data -------------------------------------------------

    @property
    def dim(self):
        return self.structure.dim

    def delta(self, a):
        """Comultiplication, landing in the product structure."""
        return self.comul(a)

    def delta_kron(self, a):
        """Comultiplication of ``a`` as a (D, D) array in Kronecker order."""
        D = self.dim
        return (self.comul_kron @ a.coords()).reshape(D, D)

    # -- Haar state ----------------------------------------------------------

    def _solve_haar(self):
        """Solve the left-invariance system (h (x) id) Delta(f) = h(f) 1 for h.

        Asserts the solution space is one-dimensional, then validates
        traciality and faithfulness of the normalized solution.
        """
        D = self.dim
        unit = self.unit.coords()
        dk3 = self.comul_kron.reshape(D, D, D)  # [s, t, f]
        # block f of the system is W_f.T - unit e_f^T, with W_f = Delta(e_f) as a D x D array
        system = dk3.transpose(2, 1, 0).copy()
        system[np.arange(D), :, np.arange(D)] -= unit
        system = system.reshape(D * D, D)
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
        if np.abs(dk3.transpose(2, 0, 1) @ coeffs - np.outer(coeffs, unit)).max() > STRUCTURE_TOL:
            raise StructuralError("Haar state is not right invariant")
        if np.abs(self.antipode.matrix.T @ coeffs - coeffs).max() > STRUCTURE_TOL:
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
        """
        coords = self._character_coords()
        rows = self.comul_kron[(coords[:, None] * self.dim + coords).reshape(-1)]
        table = np.abs(rows[:, coords]).argmax(axis=1)
        if np.abs(rows - np.eye(self.dim)[coords[table]]).max() > STRUCTURE_TOL:
            raise StructuralError("a product of characters is not a character")
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
        coordinate basis, and involutivity of the antipode.
        """
        D = self.dim
        dk = self.comul_kron
        ceps = self.counit.coeffs
        smat = self.antipode.matrix
        unit = self.unit.coords()
        mult = self.structure.mult_table
        star = self.structure.star_perm

        sq = {name: 0.0 for name in (
            "coassociativity", "counit_left", "counit_right",
            "antipode_left", "antipode_right", "comul_star", "comul_multiplicative",
        )}
        for f in range(D):
            W = dk[:, f].reshape(D, D)
            coassoc = (dk @ W).reshape(-1) - (W @ dk.T).reshape(-1)
            sq["coassociativity"] += float((np.abs(coassoc) ** 2).sum())
            basis_f = np.zeros(D)
            basis_f[f] = 1.0
            sq["counit_left"] += float((np.abs(ceps @ W - basis_f) ** 2).sum())
            sq["counit_right"] += float((np.abs(W @ ceps - basis_f) ** 2).sum())
            target = ceps[f] * unit
            left = np.einsum("st,stk->k", smat @ W, mult)
            right = np.einsum("st,stk->k", W @ smat.T, mult)
            sq["antipode_left"] += float((np.abs(left - target) ** 2).sum())
            sq["antipode_right"] += float((np.abs(right - target) ** 2).sum())
            # Delta(f*) versus Delta(f)*; star_perm is involutive so indexing both
            # axes by it realizes the (s, t) -> (s*, t*) relabelling
            col_star = dk[:, star[f]]
            w_star = W.conj()[np.ix_(star, star)].reshape(-1)
            sq["comul_star"] += float((np.abs(col_star - w_star) ** 2).sum())
        # multiplicativity on all basis pairs
        cm = self.comul.matrix
        basis_cols = [self.split.product.from_coords(cm[:, f]) for f in range(D)]
        for s in range(D):
            ds = basis_cols[s]
            for t in range(D):
                prod_coords = cm @ mult[s, t]
                diff = (ds * basis_cols[t]).coords() - prod_coords
                sq["comul_multiplicative"] += float((np.abs(diff) ** 2).sum())

        residuals = {name: float(np.sqrt(v)) for name, v in sq.items()}
        residuals["antipode_involutive"] = float(
            np.linalg.norm(smat @ smat - np.eye(D))
        )
        return HopfAxiomReport(residuals)

    def is_cocommutative(self):
        dk3 = self.comul_kron.reshape((self.dim,) * 3)  # [s, t, f]
        return float(np.abs(dk3 - dk3.transpose(1, 0, 2)).max()) <= COMMUTATIVITY_TOL

    def is_commutative(self):
        mult = self.structure.mult_table
        return float(np.abs(mult - mult.transpose(1, 0, 2)).max()) <= COMMUTATIVITY_TOL

    # -- group-like projections -------------------------------------------------

    def group_like_residual(self, p):
        """Operator norm of Delta(p)(1 (x) p) - p (x) p."""
        return self.split.from_kron_coords(self._group_like_defect_batch(p.coords())[0]).norm_inf()

    def _group_like_defect_batch(self, coords):
        """Coordinates of Delta(p)(1 (x) p) - p (x) p for a batch of candidate coords.

        Works in Kronecker order, where right multiplication by (1 (x) p)
        is W |-> W R_p with R_p the right-multiplication matrix of p; returns
        an (n, D*D) complex array whose rows vanish exactly at group-likes.
        """
        coords = np.atleast_2d(coords)
        D = self.dim
        if self._right_mult is None:
            # row a holds the (t, l) table of e_t e_a, so coords @ it stacks the R_p
            self._right_mult = self.structure.mult_table.transpose(1, 0, 2).reshape(D, D * D)
        W = (self.comul_kron @ coords.T).T.reshape(-1, D, D)
        lhs = W @ (coords @ self._right_mult).reshape(-1, D, D)
        rhs = coords[:, :, None] * coords[:, None, :]
        return (lhs - rhs).reshape(len(coords), D * D)

    def _defect_terms(self, base, offsets):
        """The defect of the Bloch candidates as a quadratic form in their monomials.

        A candidate is A m, affine in m = (1, n_1, ..., n_k) for the Bloch
        vectors n_j of the 2x2 blocks at ``offsets``, and the defect F(c) =
        Delta(c)(1 (x) c) - c (x) c is quadratic in c, so F(A m) is
        sum_{u <= v} m_u m_v T_uv with T_uu = F(A_u) and, by polarization,
        T_uv = F(A_u + A_v) - F(A_u) - F(A_v).  Returns the T_uv, in the
        column order of :func:`_bloch_monomials`, as a real (K(K+1)/2, 2 D^2)
        array of real and imaginary parts (K = 1 + 3k).
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
        return np.concatenate([terms.real, terms.imag], axis=1)

    def is_group_like_projection(self, p):
        """Test Delta(p)(1 (x) p) = p (x) p for a projection p."""
        if not is_projection(p, PROJECTION_EQ_TOL):
            raise DomainError("group-likeness is defined for projections")
        if self.group_like_residual(p) > PROJECTION_EQ_TOL:
            return False
        # consequences of group-likeness; numeric failure here is a bug
        if abs(self.counit(p) - 1.0) > IMPLIED_IDENTITY_TOL:
            raise StructuralError("group-like projection with counit value != 1")
        if (self.antipode(p) - p).norm_inf() > IMPLIED_IDENTITY_TOL:
            raise StructuralError("group-like projection not fixed by the antipode")
        return True

    def find_group_like_projections(self):
        """Group-like search for blocks of size <= 2, at most two of size 2.

        On the 1x1 blocks a group-like projection is the indicator of a
        subgroup of :meth:`character_group` (order <= 64); tries each of them
        with rank 0/1/2 choices on 2x2 blocks.  The Bloch angles of the rank-1
        blocks of a choice are scanned on a grid, whose defects are one real
        product of the grid's Bloch monomials with the polarized terms of
        :meth:`_defect_terms`; every grid point that :func:`_grid_minima`
        keeps (a pole row counts once) starts a least-squares refinement of
        the defining residual.  The grid for two rank-1 blocks is coarse, so a
        projection whose angles fall between its points can be missed.
        """
        dims = self.structure.dims
        if any(n > 2 for n in dims):
            raise UnsupportedError(
                "group-like search supports block dimensions <= 2 only"
            )
        if dims.count(2) > len(_GRID):
            raise UnsupportedError(
                f"group-like search supports at most {len(_GRID)} blocks of dimension 2"
            )
        try:
            candidates = subgroups(self.character_group())
        except GroupValidationError as exc:
            raise UnsupportedError(f"group-like search over the character group: {exc}") from exc

        found = []

        def record(coords):
            p = self.structure.from_coords(coords)
            for q in found:
                if (p - q).norm_inf() < PROJECTION_DEDUP_TOL:
                    return
            found.append(p)

        def residual(angles, base, offsets):
            defect = self._group_like_defect_batch(_bloch_assemble(base, offsets, angles))[0]
            return np.concatenate([defect.real, defect.imag])

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
                if np.linalg.norm(self._group_like_defect_batch(base)[0]) <= EXACT_DEFECT_TOL:
                    record(base)
                continue
            from scipy import optimize  # only rank-1 2x2 choices need it

            offsets = np.array(spheres)
            grid, batches = _scan_grid(len(spheres))
            terms = self._defect_terms(base, offsets)
            defects = (m @ terms for m in batches)  # real and imaginary parts of the defects
            vals = np.concatenate([np.sqrt(np.vecdot(d, d)) for d in defects])
            for start in grid[_grid_minima(vals.reshape(grid.shape[:-1]))]:
                sol = optimize.least_squares(
                    residual, start, args=(base, offsets),
                    xtol=LM_TOL, ftol=LM_TOL, gtol=LM_TOL, method="lm",
                )
                if np.linalg.norm(sol.fun) <= REFINE_TOL:
                    record(_bloch_assemble(base, offsets, sol.x)[0])

        for p in found:
            if not self.is_group_like_projection(p):
                raise StructuralError("search produced a non-group-like projection")
            if self.haar(p).real <= 0:
                raise StructuralError("group-like projection with nonpositive Haar mass")
        found.sort(key=lambda p: tuple(np.round(p.coords().real, 6))
                   + tuple(np.round(p.coords().imag, 6)))
        return found

    # -- convolution on the algebra ----------------------------------------------

    def box_convolve(self, f, g):
        """Convolution product on the algebra: (haar (x) id)(((S (x) id) Delta(g)) (f (x) 1))."""
        W = self.delta_kron(g)
        sw = self.antipode.matrix @ W
        lhs = self.split.from_kron_coords(sw.reshape(-1))
        prod = lhs * self.split.elem(f, self.unit)
        return self.split.apply_left(self.haar, prod)

    def __repr__(self):
        return f"FiniteQuantumGroup({self.label!r}, dims={self.structure.dims})"


def _bloch_vectors(angles):
    """Components nx, ny, nz, each (N, k), of the Bloch vectors of the (theta, phi) pairs."""
    th, ph = angles[:, 0::2], angles[:, 1::2]
    return np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)


def _bloch_assemble(base, offsets, angles):
    """Candidate coordinates for each row (theta_1, phi_1, ..., theta_k, phi_k) of ``angles``.

    Copies ``base`` and writes into the 2x2 block at coordinate offset
    offsets[j] the rank-1 projection 0.5 [[1 + nz, nx - i ny], [nx + i ny, 1 - nz]]
    onto the Bloch vector n = (sin theta cos phi, sin theta sin phi, cos theta)
    of the j-th angle pair; returns an (N, D) array.
    """
    angles = np.atleast_2d(angles)
    nx, ny, nz = _bloch_vectors(angles)
    coords = np.tile(base, (len(angles), 1))
    coords[:, offsets[:, None] + np.arange(4)] = 0.5 * np.stack(
        [1 + nz, nx - 1j * ny, nx + 1j * ny, 1 - nz], axis=-1
    )
    return coords


@functools.cache
def _scan_grid(k):
    """The Bloch grid for k rank-1 blocks, (g,) * 2k + (2k,), and its monomials.

    The monomials of the grid points come in batches of at most _SCAN_BATCH
    rows, which bounds the defect arrays of the two-block grid.  Computed once
    per k; the arrays are read-only.
    """
    g = _GRID[k]
    axes = [np.linspace(0.0, np.pi, g), np.linspace(0.0, 2 * np.pi, g, endpoint=False)]
    grid = np.stack(np.meshgrid(*axes * k, indexing="ij"), axis=-1)
    points = grid.reshape(-1, 2 * k)
    batches = tuple(_bloch_monomials(part)
                    for part in np.array_split(points, -(-len(points) // _SCAN_BATCH)))
    for arr in (grid, *batches):
        arr.flags.writeable = False
    return grid, batches


def _bloch_monomials(angles):
    """The products m_u m_v, u <= v, of m = (1, n_1, ..., n_k) for each row of ``angles``.

    n_j is the Bloch vector of the j-th (theta, phi) pair, as in
    :func:`_bloch_assemble`; returns an (N, K(K+1)/2) array, K = 1 + 3k.
    """
    angles = np.atleast_2d(angles)
    n = np.stack(_bloch_vectors(angles), axis=-1).reshape(len(angles), -1)
    m = np.concatenate([np.ones((len(angles), 1)), n], axis=1)
    iu, iv = np.triu_indices(m.shape[1])
    return m[:, iu] * m[:, iv]


def _grid_minima(vals):
    """Mask of the grid points that start a refinement of the group-like residual.

    ``vals`` has one axis per Bloch angle, alternating theta and phi.  A point
    is kept when its value is below _START_TOL and no larger than either
    neighbour along every axis; theta axes end at the poles, phi axes wrap.
    A pole row names one projection whatever phi is, so it counts as one
    point: it is compared along the other axes only, and only its phi = 0
    entry is kept.
    """
    keep = vals < _START_TOL
    for axis in range(vals.ndim):
        for shift in (1, -1):
            neighbour = np.roll(vals, shift, axis)
            if axis % 2 == 0:
                # the value rolled in came from the other pole: no neighbour there
                np.moveaxis(neighbour, axis, 0)[0 if shift == 1 else -1] = np.inf
            else:
                # phi does not move a pole
                np.moveaxis(neighbour, axis - 1, 0)[[0, -1]] = np.inf
            keep &= vals <= neighbour
    for axis in range(0, vals.ndim, 2):
        np.moveaxis(keep, (axis, axis + 1), (0, 1))[[0, -1], 1:] = False
    return keep
