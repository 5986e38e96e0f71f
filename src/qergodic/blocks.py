"""Direct sums of complex matrix blocks: the finite-dimensional C*-algebra layer.

An algebra is a list of block dimensions (n_1, ..., n_N).  Everything --
elements, linear functionals, linear maps -- is stored against one canonical
coordinate basis: the blocks of an element concatenated in row-major order,
so the coordinate space has dimension D = sum(n_i**2).  Many elements are one
(N, D) stack of coordinate rows, and one element is the read-only vector (D,).
Blocks of equal size form a size class, whose (m, n, n) index array takes
its m blocks out of the coordinates, of every row at once: sums and the
adjoint act on the rows, while products, norms, spectra, spectral clusters
and supports (``products``, ``norms_inf``, ``eighs``, ``spectral_clusters``,
``supports_of_positive``, ...) make one batched matmul, SVD or
eigendecomposition per size class over the whole stack.  These functions
take (D,) or (N, D) coordinates, and a row's result is bitwise that of the
row alone, so the methods of :class:`AlgebraElement` are the same functions
called on the element's own vector.  As the coordinates never change, an
element computes its Hermitian defect and the eigendecomposition of its size
classes at most once, on first use, and keeps them for every later
Hermitian, positivity or spectral question.  Tensor
products of two such algebras are again of this form (Kronecker blocks in
lexicographic order); :class:`TensorSplit` holds the bookkeeping between the
canonical coordinates of the product and the Kronecker order of the factors.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .tolerances import (
    CLUSTER_TOL,
    COMMUTATOR_TOL,
    POSITIVITY_TOL,
    PROJECTION_EQ_TOL,
)


class ShapeError(ValueError):
    """Operands live on different block structures."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class BlockStructure:
    """Ordered list of matrix-block dimensions, immutable after construction.

    ``size_classes`` holds ``(n, ids, idx)`` for each distinct block size n:
    the ids of its m blocks and their (m, n, n) coordinate indices.
    """

    __slots__ = ("dims", "offsets", "dim", "size_classes", "star_perm")

    def __init__(self, dims):
        dims = tuple(dims)
        if not set(map(type, dims)) <= {int}:
            dims = tuple(_block_dimension(n) for n in dims)
        if not dims:
            raise ValueError("at least one block is required")
        if min(dims) <= 0:
            raise ValueError("block dimensions must be positive")
        self.dims = dims
        sizes = np.array(dims)
        offsets = np.zeros(len(dims) + 1, dtype=int)
        np.cumsum(sizes * sizes, out=offsets[1:])
        self.offsets = tuple(offsets.tolist())
        self.dim = self.offsets[-1]
        classes = []
        for n in sorted(set(dims)):
            ids = np.flatnonzero(sizes == n)
            idx = offsets[ids, None, None] + np.arange(n * n).reshape(n, n)
            classes.append((n, ids, idx))
        self.size_classes = tuple(classes)
        # coords(a*) = conj(coords(a))[star_perm]: transpose every block
        perm = np.arange(self.dim)
        for _, _, idx in classes:
            perm[idx] = idx.transpose(0, 2, 1)
        self.star_perm = perm

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
        coords = np.zeros(self.dim, dtype=complex)
        for n, _, idx in self.size_classes:
            coords[idx[:, np.arange(n), np.arange(n)]] = 1.0
        return AlgebraElement._own(self, coords)

    def basis_element(self, k):
        coords = np.zeros(self.dim, dtype=complex)
        coords[k] = 1.0
        return self.from_coords(coords)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]


def _block_dimension(n):
    """``n`` as a Python int; a boolean or a non-integral dimension is refused by name."""
    if (isinstance(n, (bool, np.bool_)) or not isinstance(n, numbers.Real)
            or not float(n).is_integer()):
        raise ValueError(f"block dimension {n!r} is not an integer")
    return int(n)


class AlgebraElement:
    """Member of a direct sum of matrix blocks, stored as its read-only coordinate vector.

    ``_herm`` and ``_eig`` cache ||a - a*|| and the per-size-class
    :func:`_eigh`; an element starts with neither, whether built from blocks,
    from coordinates or by arithmetic.
    """

    __slots__ = ("structure", "_coords", "_herm", "_eig")

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
        self._herm = self._eig = None

    @classmethod
    def _own(cls, structure, coords):
        """The element with coordinates ``coords``, a fresh array it freezes and keeps."""
        self = object.__new__(cls)
        coords.flags.writeable = False
        self.structure = structure
        self._coords = coords
        self._herm = self._eig = None
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
            return AlgebraElement._own(self.structure,
                                       products(self.structure, self._coords, other._coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return AlgebraElement._own(self.structure, other * self._coords)
        return NotImplemented

    def adjoint(self):
        return AlgebraElement._own(self.structure, adjoints(self.structure, self._coords))

    def norm_inf(self):
        """Operator norm: the largest singular value over all blocks."""
        return norms_inf(self.structure, self._coords)

    def _hermitian_defect(self):
        """||a - a*||, computed once."""
        if self._herm is None:
            self._herm = hermitian_defects(self.structure, self._coords)
        return self._herm

    def _eighs(self):
        """:func:`eighs` of the coordinates, computed once, read-only."""
        if self._eig is None:
            eigs = eighs(self.structure, self._coords)
            for arr in (a for pair in eigs for a in pair):
                arr.flags.writeable = False
            self._eig = eigs
        return self._eig

    def is_hermitian(self):
        return self._hermitian_defect() <= POSITIVITY_TOL

    def __repr__(self):
        return f"AlgebraElement(dims={self.structure.dims})"


# -- stacks: (D,) or (N, D) coordinates, one batched call per size class ---------------


def products(structure, x, y):
    """Blockwise products of the rows of two coordinate stacks, broadcast against each other."""
    out = None
    for _, _, idx in structure.size_classes:
        prod = x.take(idx, axis=-1) @ y.take(idx, axis=-1)
        if len(structure.size_classes) == 1:  # the coordinates are the blocks in order
            return prod.reshape(prod.shape[:-3] + (structure.dim,)).astype(complex, copy=False)
        if out is None:  # its leading axes are the broadcast shape (np.broadcast_shapes is slower)
            out = np.empty(prod.shape[:-3] + (structure.dim,), dtype=complex)
        out[..., idx] = prod
    return out


def adjoints(structure, x):
    """Coordinates of the adjoint of each row: transpose and conjugate every block."""
    return x.take(structure.star_perm, axis=-1).conj()


def norms_inf(structure, x):
    """Operator norm of each row: the largest singular value over its blocks."""
    return functools.reduce(np.maximum, [_singular_values(x.take(idx, axis=-1)).max((-2, -1))
                                         for _, _, idx in structure.size_classes])


def hermitian_defects(structure, x):
    """||a - a*|| of each row."""
    return norms_inf(structure, x - adjoints(structure, x))


def eighs(structure, x):
    """(eigenvalues (..., m, n), eigenvectors (..., m, n, n)) of :func:`_eigh` per size class."""
    return tuple([_eigh(x.take(idx, axis=-1)) for _, _, idx in structure.size_classes])


def positive_rows(structure, x, eigs=None, defects=None):
    """Whether each row is Hermitian with block eigenvalues >= 0, both within ``POSITIVITY_TOL``.

    ``eigs`` and ``defects`` are :func:`eighs` and :func:`hermitian_defects`
    of ``x`` when the caller has them already.
    """
    eigs = eighs(structure, x) if eigs is None else eigs
    defects = hermitian_defects(structure, x) if defects is None else defects
    lowest = functools.reduce(np.minimum, [vals.min((-2, -1)) for vals, _ in eigs])
    return (defects <= POSITIVITY_TOL) & (lowest >= -POSITIVITY_TOL)


def projection_rows(structure, x, defects=None):
    """Whether each row has ||a - a*|| and ||a - a a|| both at most ``PROJECTION_EQ_TOL``.

    ``defects`` is :func:`hermitian_defects` of ``x`` when the caller has it already.
    """
    defects = hermitian_defects(structure, x) if defects is None else defects
    idempotence = norms_inf(structure, x - products(structure, x, x))
    return (defects <= PROJECTION_EQ_TOL) & (idempotence <= PROJECTION_EQ_TOL)


def _ranked_eigenvalues(eigs):
    """``(lam, ranked, starts)`` of the rows of :func:`eighs`, as (N, S), (N, S), (N, S - 1).

    ``lam`` lists each row's eigenvalues size class by size class and block by
    block, ``ranked`` sorts them, and ``starts`` holds the lowest eigenvalue of
    each cluster but the first: the one after a gap above ``CLUSTER_TOL``, inf
    after a smaller gap.
    """
    lam = np.concatenate([vals.reshape(vals.shape[:-2] + (vals.shape[-2] * vals.shape[-1],))
                          for vals, _ in eigs], -1)
    lam = lam.reshape(-1, lam.shape[-1])
    ranked = np.sort(lam, axis=-1)
    gaps = ranked[:, 1:] - ranked[:, :-1]
    return lam, ranked, np.where(gaps > CLUSTER_TOL, ranked[:, 1:], np.inf)


def cluster_counts(eigs):
    """Number of :func:`spectral_clusters` of each row."""
    _, _, starts = _ranked_eigenvalues(eigs)
    return (1 + (starts < np.inf).sum(-1)).reshape(eigs[0][0].shape[:-2])


def spectral_clusters(eigs):
    """Eigenvalues of each row merged into clusters closer than ``CLUSTER_TOL``.

    ``eigs`` is :func:`eighs` of the rows.  Returns ``(cluster, means)``: the
    cluster of each eigenvalue slot (..., S), in the order of ``eigs``, and the
    mean eigenvalue of each cluster (..., K), ascending, K the largest number
    of clusters of a row and -inf past a row's own.  Clusters are runs of the
    sorted eigenvalues without a gap above ``CLUSTER_TOL``, so a row's
    clusters do not depend on what is stacked with it.  Each mean is the sum
    of its eigenvalues in ascending order, divided by their number.
    """
    lead = eigs[0][0].shape[:-2]
    lam, ranked, starts = _ranked_eigenvalues(eigs)
    # the cluster of an eigenvalue is the number of cluster starts at or below it
    cluster = (starts[:, None, :] <= lam[:, :, None]).sum(-1)
    ranked_cluster = np.sort(cluster, axis=-1)
    k = 1 + int(ranked_cluster[:, -1].max(initial=-1))
    rows = np.arange(len(lam))[:, None]
    sums = np.zeros((len(lam), k))
    sizes = np.zeros((len(lam), k))
    np.add.at(sums, (rows, ranked_cluster), ranked)  # in ascending order
    np.add.at(sizes, (rows, ranked_cluster), 1)
    means = np.divide(sums, sizes, out=np.full_like(sums, -np.inf), where=sizes > 0)
    return cluster.reshape(lead + lam.shape[-1:]), means.reshape(lead + (k,))


def cluster_projections(structure, eigs, cluster, k):
    """Spectral projection of each of the first ``k`` clusters of each row, (..., k, D).

    ``cluster`` is that of :func:`spectral_clusters`.  Within a block, each
    coordinate sums the outer products v v* of its cluster's eigenvectors in
    eigenvector order, as a row alone would.
    """
    lead = cluster.shape[:-1]
    cluster = cluster.reshape(-1, cluster.shape[-1])
    rows = np.arange(len(cluster))[:, None, None, None, None]
    proj = np.zeros((len(cluster), k, structure.dim), dtype=complex)
    first = 0  # the first eigenvalue slot of the size class
    for (n, ids, idx), (_, vecs) in zip(structure.size_classes, eigs):
        slots = cluster[:, first:first + len(ids) * n].reshape(-1, len(ids), n, 1, 1)
        first += len(ids) * n
        if n == 1:  # a 1x1 block is the projection of its one eigenvalue
            proj[rows, slots, idx[:, None]] = 1
            continue
        vecs = vecs.reshape((-1,) + vecs.shape[-3:])
        # outer[N, m, j] = v v* for the j-th eigenvector v of block m, added in order of j
        outer = np.einsum("...mrj,...mcj->...mjrc", vecs, vecs.conj())
        np.add.at(proj, (rows, slots, idx[:, None]), outer)
    return proj.reshape(lead + (k, structure.dim))


def projection_sums(proj, keep):
    """Sum of the projections ``proj`` (..., K, D) whose ``keep`` (..., K) is set.

    Each row sums from zero, in order of K: a cumulative sum adds one
    projection at a time, as a loop over them would.
    """
    zero = np.zeros(proj.shape[:-2] + (1,) + proj.shape[-1:], dtype=complex)
    kept = np.where(keep[..., None], proj, 0)
    return np.concatenate([zero, kept], axis=-2).cumsum(axis=-2)[..., -1, :]


def supports_of_positive(structure, x, cutoff, eigs=None, defects=None):
    """Sum of each row's spectral projections with eigenvalue above ``cutoff``.

    That is the range projection for ``SUPPORT_CUTOFF``; the cyclic partition
    snaps at ``PARTITION_SNAP``.  Raises DomainError unless every row is
    positive (see :func:`positive_rows`), whatever the cutoff.
    """
    eigs = eighs(structure, x) if eigs is None else eigs
    positive = positive_rows(structure, x, eigs, defects)
    if np.count_nonzero(positive) < positive.size:
        raise DomainError("support is defined for positive elements only")
    cluster, means = spectral_clusters(eigs)
    return projection_sums(cluster_projections(structure, eigs, cluster, means.shape[-1]),
                           means > cutoff)


def _singular_values(stack):
    """Singular values of each block of an (..., n, n) stack, as an (..., n) array."""
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0])
    return np.linalg.svd(stack, compute_uv=False)


def _eigh(stack):
    """Ascending eigenvalues (..., n), eigenvectors (..., n, n) of each block's Hermitian part."""
    if stack.shape[-1] == 1:
        return stack.real[..., 0], np.ones_like(stack)
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

    def values(self, coords):
        """The functional on each row of a (D,) or (N, D) coordinate stack.

        One dot product a row (``vecdot``, not a matrix-vector product), so
        each value is bitwise that of calling the functional on the row.
        """
        return np.vecdot(self.coeffs.conj(), coords)

    def __repr__(self):
        return f"LinearFunctional(dims={self.structure.dims})"


class TensorSplit:
    """Tensor product A (x) B of two block algebras, as a block structure of its own.

    ``perm`` relates canonical coordinates of the product structure to the
    Kronecker order of the factors: coords(a (x) b) = kron(ca, cb)[perm].
    """

    __slots__ = ("product", "perm")

    def __init__(self, left, right):
        self.product = BlockStructure(
            (np.array(left.dims)[:, None] * np.array(right.dims)).ravel().tolist())
        offsets = np.array(self.product.offsets)
        count = len(right.dims)
        # entry ((r1, r2), (c1, c2)) of product block (ia, ib) is kron index (ia r1 c1, ib r2 c2):
        # one assignment per pair of size classes, each product block at its own offset
        perm = np.empty(self.product.dim, dtype=int)
        for na, ids_a, idx_a in left.size_classes:
            for nb, ids_b, idx_b in right.size_classes:
                kron = (idx_a[:, None, :, None, :, None] * right.dim
                        + idx_b[None, :, None, :, None, :])
                start = offsets[ids_a[:, None] * count + ids_b]
                size = (na * nb) ** 2
                perm[start[..., None] + np.arange(size)] = kron.reshape(start.shape + (size,))
        self.perm = perm

    def from_kron_coords(self, w):
        """The product-structure element with coordinates ``w`` in Kronecker order."""
        return self.product.from_coords(np.asarray(w, dtype=complex)[self.perm])


def hermitian_part(a):
    return (a + a.adjoint()) * 0.5


def is_positive(a):
    """Hermitian with block eigenvalues >= 0, both within ``POSITIVITY_TOL``."""
    return bool(positive_rows(a.structure, a.coords(), a._eighs(), a._hermitian_defect()))


def is_projection(a):
    """||a - a*|| and ||a - a a|| both at most ``PROJECTION_EQ_TOL``."""
    return bool(projection_rows(a.structure, a.coords(), a._hermitian_defect()))


def is_central(a):
    """Whether every block a_k is a scalar: 2 ||a_k - (tr a_k / n_k) I|| <= ``COMMUTATOR_TOL``."""
    x = a.coords()
    scalar = np.zeros_like(x)
    for n, _, idx in a.structure.size_classes:
        diag = idx[:, np.arange(n), np.arange(n)]  # (m, n): the diagonal of each block
        scalar[diag] = x[diag].mean(axis=1, keepdims=True)
    return bool(2 * norms_inf(a.structure, x - scalar) <= COMMUTATOR_TOL)


def spectral_decomposition(a):
    """Eigenvalues and spectral projections of a Hermitian element.

    Returns ``[(lam, P)]`` with eigenvalues ascending, eigenvalues closer than
    ``CLUSTER_TOL`` merged into a single projection (see
    :func:`spectral_clusters`).  The projections are pairwise orthogonal and
    sum to the unit.
    """
    if not a.is_hermitian():
        raise DomainError("spectral decomposition requires a Hermitian element")
    st = a.structure
    eigs = a._eighs()
    cluster, means = spectral_clusters(eigs)
    proj = cluster_projections(st, eigs, cluster, len(means))
    return [(float(lam), AlgebraElement._own(st, p)) for lam, p in zip(means, proj)]


def lp_norms(structure, coords, weights):
    """(L^1, L^2, L^inf) norms for the tracial state with block weights ``weights``.

    For any a, with singular values s of block i: haar(|a|) = sum_i w_i sum s,
    haar(a* a) = sum_i w_i sum s**2 and the operator norm is max s.
    ``coords`` is one coordinate vector (D,), giving three floats, or a stack
    (N, D), giving three (N,) arrays from one SVD per size class over all N
    rows.  Each row's weighted sums are a dot product of their own (``vecdot``,
    not one matrix-vector product), so a row's norms are bitwise those of the
    row alone, whatever is stacked with it.
    """
    weights = np.asarray(weights, dtype=float)
    l1 = l2sq = linf = 0.0
    for _, ids, idx in structure.size_classes:
        s = _singular_values(coords.take(idx, axis=-1))  # (..., m, n)
        w = weights[ids]
        l1 = l1 + np.vecdot(s.sum(-1), w)
        l2sq = l2sq + np.vecdot((s * s).sum(-1), w)
        linf = np.maximum(linf, s.max((-2, -1)))
    if coords.ndim > 1:
        return l1, np.sqrt(l2sq), linf
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
    st = a.structure
    l1, l2, linf = lp_norms(st, a.coords(), haar.coeffs.real[list(st.offsets[:-1])])
    return l1 if p == 1 else l2 if p == 2 else linf


def random_element(structure, rng):
    """Gaussian blocks: each block's real then imaginary part, block by block, from one draw."""
    sizes = np.array(structure.dims) ** 2
    real = np.arange(structure.dim) + np.repeat(np.array(structure.offsets[:-1]), sizes)
    z = rng.standard_normal(2 * structure.dim)
    return AlgebraElement._own(structure, z[real] + 1j * z[real + np.repeat(sizes, sizes)])


def random_positive(structure, rng):
    a = random_element(structure, rng)
    return a.adjoint() * a
