"""Batched block operations against per-block references written out here.

The library makes one batched LAPACK call per block size (a closed form for
1x1 blocks); each reference below loops over the blocks one at a time, as a
direct transcription of the definition, and the two must agree to 1e-12.
The stacked functions, over (N, D) coordinate rows, must give each row
bitwise what the element methods give that row alone.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qergodic import walks
from qergodic.blocks import (
    BlockStructure,
    LinearFunctional,
    TensorSplit,
    adjoints,
    cluster_counts,
    cluster_projections,
    eighs,
    hermitian_defects,
    hermitian_part,
    is_positive,
    is_projection,
    norms_inf,
    p_norm,
    positive_rows,
    products,
    projection_rows,
    random_element,
    random_positive,
    spectral_clusters,
    spectral_decomposition,
    supports_of_positive,
)

TOL = 1e-12

# repeated and distinct block sizes, one size only, many 1x1 blocks
DIMS = st.one_of(
    st.sampled_from([(1, 1, 2, 2, 3), (3,), (1,) * 9, (2, 2, 1)]),
    st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
)
SEEDS = st.integers(0, 2 ** 32 - 1)


def blocks_of(a):
    return [np.array(b) for b in a.blocks]


def close(x, y):
    return np.abs(np.asarray(x) - np.asarray(y)).max() <= TOL


def tracial_state(structure, rng):
    w = rng.random(len(structure.dims)) + 0.1
    w = w / sum(wi * n for wi, n in zip(w, structure.dims))
    coeffs = np.concatenate([wi * np.eye(n).reshape(-1) for wi, n in zip(w, structure.dims)])
    return LinearFunctional(structure, coeffs), w


def integer_spectrum(structure, rng):
    """Hermitian element whose eigenvalues are 0, 1 or 2, so clusters span blocks."""
    blocks = []
    for n in structure.dims:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        blocks.append((q * rng.integers(0, 3, n)) @ q.conj().T)
    return structure.element(blocks)


def ref_norms(blocks, w):
    l1 = sum(wi * np.linalg.norm(b, "nuc") for wi, b in zip(w, blocks))
    l2 = np.sqrt(sum(wi * np.linalg.norm(b, "fro") ** 2 for wi, b in zip(w, blocks)))
    return l1, l2, max(np.linalg.norm(b, 2) for b in blocks)


def ref_is_positive(blocks, tol=1e-9):
    if max(np.linalg.norm(b - b.conj().T, 2) for b in blocks) > tol:
        return False
    return all(np.linalg.eigvalsh((b + b.conj().T) / 2).min() >= -tol for b in blocks)


def ref_spectral(blocks, cluster_tol=1e-8):
    eigs = []  # (eigenvalue, block, eigenvector), block by block
    for i, b in enumerate(blocks):
        vals, vecs = np.linalg.eigh((b + b.conj().T) / 2)
        eigs.extend((float(lam), i, vecs[:, j]) for j, lam in enumerate(vals))
    eigs.sort(key=lambda t: t[0])
    out, pos = [], 0
    while pos < len(eigs):
        end = pos + 1
        while end < len(eigs) and eigs[end][0] - eigs[end - 1][0] <= cluster_tol:
            end += 1
        proj = [np.zeros_like(b) for b in blocks]
        for _, i, v in eigs[pos:end]:
            proj[i] = proj[i] + np.outer(v, v.conj())
        out.append((sum(t[0] for t in eigs[pos:end]) / (end - pos), proj))
        pos = end
    return out


@settings(max_examples=60, deadline=None)
@given(DIMS, SEEDS)
def test_norms_and_predicates_match_per_block(dims, seed):
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    haar, w = tracial_state(structure, rng)
    a = random_element(structure, rng)
    signed = integer_spectrum(structure, rng) - structure.unit()  # eigenvalues -1, 0, 1
    for x in (a, hermitian_part(a), a.adjoint() * a, signed):
        blocks = blocks_of(x)
        l1, l2, linf = ref_norms(blocks, w)
        assert close(x.norm_inf(), linf)
        assert close([p_norm(x, haar, p) for p in (1, 2, np.inf)], [l1, l2, linf])
        assert x.is_hermitian() == (max(np.linalg.norm(b - b.conj().T, 2) for b in blocks) <= 1e-9)
        assert is_positive(x) == ref_is_positive(blocks)


@settings(max_examples=60, deadline=None)
@given(DIMS, SEEDS)
def test_spectral_decomposition_matches_per_block(dims, seed):
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    for h in (hermitian_part(random_element(structure, rng)), integer_spectrum(structure, rng)):
        got = spectral_decomposition(h)
        want = ref_spectral(blocks_of(h))
        assert len(got) == len(want)
        for (lam, p), (ref_lam, ref_p) in zip(got, want):
            assert close(lam, ref_lam)
            assert close(p.coords(), structure.element(ref_p).coords())


@settings(max_examples=60, deadline=None)
@given(DIMS, DIMS, SEEDS)
def test_product_adjoint_and_tensor_match_per_block(dims, other_dims, seed):
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    a, b = random_element(structure, rng), random_element(structure, rng)
    products = [x @ y for x, y in zip(blocks_of(a), blocks_of(b))]
    assert close((a * b).coords(), structure.element(products).coords())
    adjoints = [x.conj().T for x in blocks_of(a)]
    assert close(a.adjoint().coords(), structure.element(adjoints).coords())

    right = BlockStructure(other_dims)
    c = random_element(right, rng)
    split = TensorSplit(structure, right)
    pairs = [np.kron(x, y) for x in blocks_of(a) for y in blocks_of(c)]
    tensor = split.from_kron_coords(np.outer(a.coords(), c.coords()).ravel())
    assert close(tensor.coords(), split.product.element(pairs).coords())


def test_distance_trace_of_a_formal_functional_matches_per_block(twodim_state):
    # the integer form of the standard representation of S3: not positive definite
    nu = twodim_state
    assert not nu.checked and not nu.density.is_hermitian()
    group = nu.group
    structure, w = group.structure, group.haar_weights
    T = walks.stochastic_operator(nu)
    rows = walks.distances_to_random(nu, 30)
    c = nu.functional.coeffs
    for k, tv, l2, qsd in rows:
        blocks = []
        for i, n in enumerate(structure.dims):
            seg = c[structure.offsets[i]:structure.offsets[i + 1]].reshape(n, n)
            blocks.append(seg.T / w[i] - np.eye(n))
        ref_l1, ref_l2, ref_inf = ref_norms(blocks, w)
        assert close([tv, l2, qsd], [0.5 * ref_l1, ref_l2, ref_inf])
        c = T.T @ c
    assert [row[0] for row in rows] == list(range(1, 31))


def stack_of(elements, structure):
    return np.array([e.coords() for e in elements]).reshape(len(elements), structure.dim)


@settings(max_examples=60, deadline=None)
@given(DIMS, SEEDS, st.integers(0, 5))
@example((1, 1, 2, 2, 3), 0, 0)
@example((1, 1, 2, 2, 3), 0, 1)
def test_stacks_match_row_by_row(dims, seed, rows):
    structure = BlockStructure(dims)
    rng = np.random.default_rng(seed)
    x = stack_of([random_element(structure, rng) for _ in range(rows)], structure)
    y = stack_of([random_element(structure, rng) for _ in range(rows)], structure)
    # Hermitian and positive rows, every other one with eigenvalues 0, 1, 2 only, so
    # that clusters span blocks (and a signed copy of it among the Hermitian rows)
    integer = [integer_spectrum(structure, rng) for _ in range(rows)]
    herm = stack_of([hermitian_part(structure.from_coords(r)) if i % 2
                     else integer[i] - structure.unit() for i, r in enumerate(x)], structure)
    pos = stack_of([random_positive(structure, rng) if i % 2 else integer[i]
                    for i in range(rows)], structure)

    prod, adj = products(structure, x, y), adjoints(structure, x)
    norms, defects = norms_inf(structure, x), hermitian_defects(structure, x)
    eigs = eighs(structure, herm)
    counts = cluster_counts(eigs)
    cluster, means = spectral_clusters(eigs)
    proj = cluster_projections(structure, eigs, cluster, means.shape[-1])
    positive = positive_rows(structure, pos)
    supports = supports_of_positive(structure, pos, 1e-8)
    # random rows, then the first spectral projection of each Hermitian row
    candidates = np.concatenate([x, proj[:, :1].reshape(-1, structure.dim)])
    projections = projection_rows(structure, candidates)
    assert prod.shape == adj.shape == supports.shape == (rows, structure.dim)
    assert norms.shape == defects.shape == counts.shape == positive.shape == (rows,)

    for i in range(rows):
        a, b = structure.from_coords(x[i]), structure.from_coords(y[i])
        assert np.array_equal(prod[i], (a * b).coords())
        assert np.array_equal(adj[i], a.adjoint().coords())
        assert norms[i] == a.norm_inf() and defects[i] == a._hermitian_defect()
        h = structure.from_coords(herm[i])
        for (vals, vecs), (row_vals, row_vecs) in zip(eigs, h._eighs(), strict=True):
            assert np.array_equal(vals[i], row_vals) and np.array_equal(vecs[i], row_vecs)
        decomposition = spectral_decomposition(h)
        assert counts[i] == len(decomposition)
        assert np.all(means[i, len(decomposition):] == -np.inf)
        for k, (lam, p) in enumerate(decomposition):
            assert lam == means[i, k]
            assert np.array_equal(proj[i, k], p.coords())
        p = structure.from_coords(pos[i])
        assert positive[i] and is_positive(p)
        assert np.array_equal(supports[i], supports_of_positive(structure, pos[i], 1e-8))
    assert projections.tolist() == [is_projection(structure.from_coords(c)) for c in candidates]
    assert projections[rows:].all()
