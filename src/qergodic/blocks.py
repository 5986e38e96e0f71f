"""Direct sums of complex matrix blocks: the finite-dimensional C*-algebra layer.

An algebra is a list of block dimensions (n_1, ..., n_N).  Everything --
elements, linear functionals, linear maps -- is stored against one canonical
coordinate basis: the blocks of an element concatenated in row-major order,
so the coordinate space has dimension D = sum(n_i**2).  An element is one
read-only coordinate vector.  Blocks of equal size form a size class, whose
(m, n, n) index array stacks its m blocks out of the coordinates: sums and
the adjoint act on the vector, while products, norms and spectra make one
batched matmul, SVD or eigendecomposition per size class.  Tensor products of
two such algebras are again of this form (Kronecker blocks in lexicographic
order); :class:`TensorSplit` holds the bookkeeping between the canonical
coordinates of the product and the Kronecker order of the factors.
"""

from __future__ import annotations

import numbers

import numpy as np

POSITIVITY_TOL = 1e-9
CLUSTER_TOL = 1e-8


class ShapeError(ValueError):
    """Operands live on different block structures."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class BlockStructure:
    """Ordered list of matrix-block dimensions, immutable after construction.

    ``size_classes`` holds ``(n, ids, idx)`` for each distinct block size n:
    the ids of its m blocks and their (m, n, n) coordinate indices.
    """

    __slots__ = ("dims", "offsets", "dim", "size_classes", "star_perm", "_mult_table")

    def __init__(self, dims):
        dims = tuple(int(n) for n in dims)
        if not dims:
            raise ValueError("at least one block is required")
        if any(n <= 0 for n in dims):
            raise ValueError("block dimensions must be positive")
        self.dims = dims
        offsets = [0]
        for n in dims:
            offsets.append(offsets[-1] + n * n)
        self.offsets = tuple(offsets)
        self.dim = offsets[-1]
        classes = []
        for n in sorted(set(dims)):
            ids = np.flatnonzero(np.array(dims) == n)
            idx = np.array(offsets)[ids, None, None] + np.arange(n * n).reshape(n, n)
            classes.append((n, ids, idx))
        self.size_classes = tuple(classes)
        # coords(a*) = conj(coords(a))[star_perm]: transpose every block
        perm = np.arange(self.dim)
        for _, _, idx in classes:
            perm[idx] = idx.transpose(0, 2, 1)
        self.star_perm = perm
        self._mult_table = None

    def __eq__(self, other):
        return isinstance(other, BlockStructure) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"BlockStructure{self.dims}"

    def index(self, block, row, col):
        """Canonical coordinate of the (row, col) entry of a block."""
        n = self.dims[block]
        return self.offsets[block] + row * n + col

    def split(self, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise ShapeError(f"expected {self.dim} coordinates, got {coords.shape}")
        return [
            coords[self.offsets[i]:self.offsets[i + 1]].reshape(n, n)
            for i, n in enumerate(self.dims)
        ]

    def element(self, blocks):
        return AlgebraElement(self, blocks)

    def from_coords(self, coords):
        coords = np.array(coords, dtype=complex)
        if coords.shape != (self.dim,):
            raise ShapeError(f"expected {self.dim} coordinates, got {coords.shape}")
        return AlgebraElement._own(self, coords)

    def zero(self):
        return AlgebraElement._own(self, np.zeros(self.dim, dtype=complex))

    def unit(self):
        return self.element([np.eye(n, dtype=complex) for n in self.dims])

    def basis_element(self, k):
        coords = np.zeros(self.dim, dtype=complex)
        coords[k] = 1.0
        return self.from_coords(coords)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    @property
    def mult_table(self):
        """Dense structure constants C[s, t, :] = coords(e_s * e_t)."""
        if self._mult_table is None:
            table = np.zeros((self.dim,) * 3, dtype=complex)
            for _, _, idx in self.size_classes:
                # E_{r,c} E_{c,c2} = E_{r,c2}; cross-block products vanish
                table[idx[:, :, :, None], idx[:, None, :, :], idx[:, :, None, :]] = 1.0
            self._mult_table = table
        return self._mult_table


class AlgebraElement:
    """Member of a direct sum of matrix blocks, stored as its read-only coordinate vector."""

    __slots__ = ("structure", "_coords")

    def __init__(self, structure, blocks):
        if len(blocks) != len(structure.dims):
            raise ShapeError("block count does not match the structure")
        coords = np.empty(structure.dim, dtype=complex)
        for i, (n, b) in enumerate(zip(structure.dims, blocks)):
            arr = np.asarray(b, dtype=complex)
            if arr.shape != (n, n):
                raise ShapeError(f"expected a {n}x{n} block, got {arr.shape}")
            coords[structure.offsets[i]:structure.offsets[i + 1]] = arr.reshape(-1)
        coords.flags.writeable = False
        self.structure = structure
        self._coords = coords

    @classmethod
    def _own(cls, structure, coords):
        """The element with coordinates ``coords``, a fresh array it freezes and keeps."""
        self = object.__new__(cls)
        coords.flags.writeable = False
        self.structure = structure
        self._coords = coords
        return self

    @property
    def blocks(self):
        """The blocks, as read-only views into the coordinates."""
        return tuple(self.structure.split(self._coords))

    def coords(self):
        return self._coords

    def _check_same(self, other):
        if self.structure != other.structure:
            raise ShapeError("elements live on different block structures")

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement._own(self.structure, self._coords + other._coords)

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement._own(self.structure, self._coords - other._coords)

    def __neg__(self):
        return AlgebraElement._own(self.structure, -self._coords)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement._own(self.structure, self._coords * other)
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            out = np.empty_like(self._coords)
            for _, _, idx in self.structure.size_classes:
                out[idx] = self._coords[idx] @ other._coords[idx]
            return AlgebraElement._own(self.structure, out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement._own(self.structure, other * self._coords)
        return NotImplemented

    def adjoint(self):
        return AlgebraElement._own(self.structure, self._coords.conj()[self.structure.star_perm])

    def norm_inf(self):
        """Operator norm: the largest singular value over all blocks."""
        return max(_singular_values(s).max() for s in _stacks(self))

    def is_hermitian(self, tol=POSITIVITY_TOL):
        return (self - self.adjoint()).norm_inf() <= tol

    def __repr__(self):
        return f"AlgebraElement(dims={self.structure.dims})"


def _stacks(a):
    """The (m, n, n) stack of the blocks of each size class of ``a``."""
    c = a.coords()
    return [c[idx] for _, _, idx in a.structure.size_classes]


def _singular_values(stack):
    """Singular values of each block of an (m, n, n) stack, as an (m, n) array."""
    if stack.shape[-1] == 1:
        return np.abs(stack[:, :, 0])
    return np.linalg.svd(stack, compute_uv=False)


def _eigh(stack):
    """Eigenvalues (m, n), ascending, and eigenvectors (m, n, n) of each block's Hermitian part."""
    if stack.shape[-1] == 1:
        return stack.real[:, :, 0], np.ones_like(stack)
    return np.linalg.eigh((stack + stack.conj().swapaxes(-1, -2)) / 2)


class LinearFunctional:
    """Linear functional stored as a coefficient row against the coordinate basis."""

    __slots__ = ("structure", "coeffs")

    def __init__(self, structure, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (structure.dim,):
            raise ShapeError(f"expected {structure.dim} coefficients, got {coeffs.shape}")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        self.structure = structure
        self.coeffs = coeffs

    def __call__(self, element):
        if element.structure != self.structure:
            raise ShapeError("functional and element structures differ")
        return complex(self.coeffs @ element.coords())

    def __repr__(self):
        return f"LinearFunctional(dims={self.structure.dims})"


class AlgebraMap:
    """Linear map between block algebras, stored as a coordinate matrix."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain, codomain, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise ShapeError(
                f"expected a {codomain.dim}x{domain.dim} matrix, got {matrix.shape}"
            )
        matrix = matrix.copy()
        matrix.flags.writeable = False
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    @classmethod
    def identity(cls, structure):
        return cls(structure, structure, np.eye(structure.dim))

    def __call__(self, element):
        if element.structure != self.domain:
            raise ShapeError("element is not in the map's domain")
        return self.codomain.from_coords(self.matrix @ element.coords())

    def transpose_on_functional(self, functional):
        """phi |-> phi o self."""
        if functional.structure != self.codomain:
            raise ShapeError("functional is not on the map's codomain")
        return LinearFunctional(self.domain, self.matrix.T @ functional.coeffs)


class TensorSplit:
    """Tensor product A (x) B of two block algebras, with factor bookkeeping.

    ``perm`` relates canonical coordinates of the product structure to the
    Kronecker order of the factors: coords(a (x) b) = kron(ca, cb)[perm].
    """

    __slots__ = ("left", "right", "product", "perm", "inv_perm")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        dims = [na * nb for na in left.dims for nb in right.dims]
        self.product = BlockStructure(dims)
        ka = [np.arange(o, o + n * n).reshape(n, n) for o, n in zip(left.offsets, left.dims)]
        kb = [np.arange(o, o + n * n).reshape(n, n) for o, n in zip(right.offsets, right.dims)]
        # entry ((r1, r2), (c1, c2)) of product block (ia, ib) is kron index (ia r1 c1, ib r2 c2)
        self.perm = np.concatenate([
            (a[:, None, :, None] * right.dim + b[None, :, None, :]).reshape(-1)
            for a in ka for b in kb
        ])
        self.inv_perm = np.argsort(self.perm)

    def elem(self, a, b):
        if a.structure != self.left or b.structure != self.right:
            raise ShapeError("factors do not match the tensor split")
        return AlgebraElement._own(self.product, np.kron(a.coords(), b.coords())[self.perm])

    def functional(self, phi, psi):
        if phi.structure != self.left or psi.structure != self.right:
            raise ShapeError("factors do not match the tensor split")
        return LinearFunctional(self.product, np.kron(phi.coeffs, psi.coeffs)[self.perm])

    def kron_coords(self, element):
        """Coordinates of a product-structure element in Kronecker order."""
        if element.structure != self.product:
            raise ShapeError("element is not in the product structure")
        return element.coords()[self.inv_perm]

    def from_kron_coords(self, w):
        return self.product.from_coords(np.asarray(w, dtype=complex)[self.perm])

    def apply_left(self, phi, element):
        """(phi (x) id) applied to an element of the product."""
        w = self.kron_coords(element).reshape(self.left.dim, self.right.dim)
        return self.right.from_coords(phi.coeffs @ w)


def hermitian_part(a):
    return (a + a.adjoint()) * 0.5


def is_positive(a, tol=POSITIVITY_TOL):
    """Hermitian within ``tol`` and all block eigenvalues >= -tol."""
    if not a.is_hermitian(tol):
        return False
    return not any(_eigh(s)[0].min() < -tol for s in _stacks(a))


def is_projection(a, tol=POSITIVITY_TOL):
    return (a - a.adjoint()).norm_inf() <= tol and (a - a * a).norm_inf() <= tol


def spectral_decomposition(a, cluster_tol=CLUSTER_TOL, herm_tol=POSITIVITY_TOL):
    """Eigenvalues and spectral projections of a Hermitian element.

    Returns ``[(lam, P)]`` with eigenvalues ascending, eigenvalues closer than
    ``cluster_tol`` merged into a single projection.  The projections are
    pairwise orthogonal and sum to the unit.
    """
    if not a.is_hermitian(herm_tol):
        raise DomainError("spectral decomposition requires a Hermitian element")
    st = a.structure
    # eigenvalue slots in block order, ascending within a block, ahead of the
    # stable sort: ties keep that order, so the clusters do not depend on batching
    first = np.cumsum((0,) + st.dims[:-1])
    lam = np.empty(sum(st.dims))
    eigs = []
    for (n, ids, idx), s in zip(st.size_classes, _stacks(a)):
        vals, vecs = _eigh(s)
        slots = first[ids][:, None] + np.arange(n)
        lam[slots] = vals
        eigs.append((slots, idx, vecs))
    order = np.argsort(lam, kind="stable")
    ranked = lam[order]
    breaks = np.flatnonzero(np.diff(ranked) > cluster_tol) + 1
    cluster = np.empty(len(lam), dtype=np.intp)
    cluster[order] = np.searchsorted(breaks, np.arange(len(lam)), side="right")
    proj = np.zeros((len(breaks) + 1, st.dim), dtype=complex)
    for slots, idx, vecs in eigs:
        # outer[m, j] = v v* for the j-th eigenvector v of block m
        outer = np.einsum("mrj,mcj->mjrc", vecs, vecs.conj())
        np.add.at(proj, (cluster[slots][:, :, None, None], idx[:, None, :, :]), outer)
    bounds = [0, *breaks.tolist(), len(lam)]
    return [
        (sum(ranked[lo:hi].tolist()) / (hi - lo), AlgebraElement._own(st, proj[k]))
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def support_of_positive(a, tol=POSITIVITY_TOL):
    """Range projection of a positive element: sum of spectral projections with eigenvalue > tol."""
    if not is_positive(a, tol):
        raise DomainError("support is defined for positive elements only")
    out = a.structure.zero()
    for lam, p in spectral_decomposition(a, herm_tol=max(tol, POSITIVITY_TOL)):
        if lam > tol:
            out = out + p
    return out


def abs_element(a, herm_tol=POSITIVITY_TOL):
    """|a|; from the spectrum of a when a is Hermitian, from a*a otherwise.

    Uses raw per-block eigenvalues (no clustering): merging eigenvalues that
    straddle zero would silently cancel their contributions to |a|.
    """
    def blockwise(elem, transform):
        out = np.empty(elem.structure.dim, dtype=complex)
        for (_, _, idx), s in zip(elem.structure.size_classes, _stacks(elem)):
            vals, vecs = _eigh(s)
            out[idx] = (vecs * transform(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        return AlgebraElement._own(elem.structure, out)

    if a.is_hermitian(herm_tol):
        return blockwise(a, np.abs)
    return blockwise(a.adjoint() * a, lambda v: np.sqrt(np.clip(v, 0.0, None)))


def lp_norms(a, weights):
    """(L^1, L^2, L^inf) norms of ``a`` for the tracial state with block weights ``weights``.

    For any a, with singular values s of block i: haar(|a|) = sum_i w_i sum s,
    haar(a* a) = sum_i w_i sum s**2 and the operator norm is max s.
    """
    weights = np.asarray(weights, dtype=float)
    l1 = l2sq = linf = 0.0
    for (_, ids, _), stack in zip(a.structure.size_classes, _stacks(a)):
        s = _singular_values(stack)
        l1 += weights[ids] @ s.sum(axis=1)
        l2sq += weights[ids] @ (s * s).sum(axis=1)
        linf = max(linf, s.max())
    return float(l1), float(np.sqrt(l2sq)), float(linf)


def p_norm(a, haar, p):
    """L^p norm of an element with respect to a faithful tracial state ``haar``.

    p = 1:   haar(|a|)
    p = 2:   haar(a* a) ** 0.5
    p = inf: the operator norm.
    A tracial state has coefficients w_i * I on block i; see :func:`lp_norms`.
    """
    if p not in (1, 2, np.inf, "inf"):
        raise ValueError("p must be 1, 2 or inf")
    l1, l2, linf = lp_norms(a, haar.coeffs.real[list(a.structure.offsets[:-1])])
    return l1 if p == 1 else l2 if p == 2 else linf


def random_element(structure, rng, scale=1.0):
    blocks = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for n in structure.dims
    ]
    return structure.element(blocks)


def random_hermitian(structure, rng, scale=1.0):
    return hermitian_part(random_element(structure, rng, scale))


def random_positive(structure, rng, scale=1.0):
    a = random_element(structure, rng, scale)
    return a.adjoint() * a
