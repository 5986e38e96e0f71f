import numpy as np
import pytest

from qergodic import blocks
from qergodic.blocks import (
    BlockStructure,
    DomainError,
    LinearFunctional,
    ShapeError,
    TensorSplit,
    hermitian_part,
    is_positive,
    is_projection,
    p_norm,
    random_element,
    random_positive,
    spectral_decomposition,
    supports_of_positive,
)
from qergodic.tolerances import PARTITION_SNAP, SUPPORT_CUTOFF

from conftest import projection_defects

RNG = np.random.default_rng(12345)

STRUCTURES = [
    BlockStructure([1, 1]),
    BlockStructure([2]),
    BlockStructure([1, 2, 1]),
    BlockStructure([1, 1, 1, 1, 2]),
    BlockStructure([3, 2]),
]


def test_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure([0, 2])
    with pytest.raises(ValueError):
        BlockStructure([])
    assert BlockStructure([1, 2]).dim == 5


def test_coords_roundtrip():
    for st in STRUCTURES:
        a = random_element(st, RNG)
        b = st.from_coords(a.coords())
        assert (a - b).norm_inf() < 1e-14


def test_unit_law_and_antihomomorphism():
    for st in STRUCTURES:
        one = st.unit()
        for _ in range(5):
            a = random_element(st, RNG)
            b = random_element(st, RNG)
            assert ((one * a) - a).norm_inf() < 1e-14
            assert ((a * one) - a).norm_inf() < 1e-14
            assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).norm_inf() < 1e-12


def test_structure_mismatch_raises():
    a = random_element(STRUCTURES[0], RNG)
    b = random_element(STRUCTURES[1], RNG)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a * b


def test_delta_functions_multiply_like_deltas():
    # in F(S3), basis elements are orthogonal idempotents
    st = BlockStructure([1] * 6)
    d1 = st.basis_element(1)
    d2 = st.basis_element(2)
    assert (d1 * d1 - d1).norm_inf() == 0
    assert (d1 * d2).norm_inf() == 0


def test_is_positive():
    for st in STRUCTURES:
        a = random_element(st, RNG)
        assert is_positive(a.adjoint() * a)
    st = BlockStructure([2, 1])
    p = st.element([np.diag([1.0, 0.0]), np.zeros((1, 1))])
    assert max(projection_defects(p)) <= 1e-9
    assert not is_positive(st.unit() - 2 * p)  # eigenvalue -1


def test_is_projection():
    for st in STRUCTURES:
        assert is_projection(st.zero()) and max(projection_defects(st.zero())) <= 1e-9
        assert is_projection(st.unit()) and max(projection_defects(st.unit())) <= 1e-9
        assert not is_projection(0.5 * st.unit())


def test_spectral_reconstruction_bulk():
    # 1000 random Hermitian elements across structures of dimension <= 36
    structures = [BlockStructure(d) for d in
                  [(6,), (1, 2, 3, 1), (2, 2, 2, 2), (1, 1, 1, 1, 1, 1), (5, 3), (4, 4)]]
    worst = 0.0
    for i in range(1000):
        st = structures[i % len(structures)]
        a = hermitian_part(random_element(st, RNG))
        parts = spectral_decomposition(a)
        recon = st.zero()
        total = st.zero()
        for lam, p in parts:
            recon = recon + lam * p
            total = total + p
        worst = max(worst, (recon - a).norm_inf())
        assert (total - st.unit()).norm_inf() < 1e-12
        for j, (_, p) in enumerate(parts):
            assert max(projection_defects(p)) <= 1e-10
            for _, q in parts[j + 1:]:
                assert (p * q).norm_inf() < 1e-10
    assert worst <= 1e-10


def test_spectral_of_projection():
    st = BlockStructure([2, 2])
    p = st.element([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    parts = spectral_decomposition(p)
    assert [round(lam) for lam, _ in parts] == [0, 1]
    assert (parts[1][1] - p).norm_inf() < 1e-12


def test_spectral_diag_three_eigenvalues():
    st = BlockStructure([3])
    a = st.element([np.diag([1.0, 2.0, 3.0])])
    parts = spectral_decomposition(a)
    assert len(parts) == 3
    assert all(np.isclose(np.trace(p.blocks[0]).real, 1.0) for _, p in parts)


def test_spectral_requires_hermitian():
    st = BlockStructure([2])
    a = st.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(DomainError):
        spectral_decomposition(a)


def range_projection(a):
    """The range projection of a positive element, as an element."""
    return a.structure.from_coords(supports_of_positive(a.structure, a.coords(), SUPPORT_CUTOFF))


def test_supports_of_positive():
    st = BlockStructure([2, 1])
    assert (range_projection(st.unit()) - st.unit()).norm_inf() < 1e-12
    p = st.element([np.diag([1.0, 0.0]), np.zeros((1, 1))])
    assert (range_projection(3 * p) - p).norm_inf() < 1e-12
    with pytest.raises(DomainError):
        range_projection(-1 * st.unit())
    for stx in STRUCTURES:
        a = random_element(stx, RNG)
        sq = a.adjoint() * a
        r = range_projection(sq)
        assert (r * sq - sq).norm_inf() < 1e-9
        assert (sq * r - sq).norm_inf() < 1e-9


def test_support_gates_positivity_at_one_threshold_whatever_the_cutoff():
    # the cutoff picks the eigenvalues that span the support; whether the element is positive
    # is POSITIVITY_TOL's alone, so neither the support cutoff nor the partition's 1/2 snap
    # lets a negative eigenvalue through
    st = BlockStructure([2, 1])
    for lowest, cutoff in ((-5e-9, SUPPORT_CUTOFF), (-0.3, PARTITION_SNAP)):
        x = st.element([np.diag([1.0, lowest]), np.ones((1, 1))])
        assert not is_positive(x)
        with pytest.raises(DomainError, match="positive elements only"):
            supports_of_positive(st, x.coords(), cutoff)
    x = st.element([np.diag([1.0, -5e-10]), np.ones((1, 1))])  # within POSITIVITY_TOL
    support = st.element([np.diag([1.0, 0.0]), np.ones((1, 1))]).coords()
    assert np.array_equal(supports_of_positive(st, x.coords(), SUPPORT_CUTOFF), support)


def test_operator_norm_submultiplicative():
    for st in STRUCTURES:
        for _ in range(10):
            a = random_element(st, RNG)
            b = random_element(st, RNG)
            assert (a * b).norm_inf() <= a.norm_inf() * b.norm_inf() + 1e-12


def _tracial_state(structure, rng):
    w = rng.random(len(structure.dims)) + 0.1
    w = w / sum(wi * n for wi, n in zip(w, structure.dims))
    coeffs = np.concatenate([wi * np.eye(n).reshape(-1) for wi, n in zip(w, structure.dims)])
    return LinearFunctional(structure, coeffs)


def test_p_norm_monotonicity():
    # ||a||_1 <= ||a||_2 <= ||a||_inf for a faithful tracial state
    st = BlockStructure([1, 1, 1, 1, 2])
    h = _tracial_state(st, RNG)
    for _ in range(100):
        a = hermitian_part(random_element(st, RNG))
        n1 = p_norm(a, h, 1)
        n2 = p_norm(a, h, 2)
        ninf = p_norm(a, h, np.inf)
        assert n1 <= n2 + 1e-10
        assert n2 <= ninf + 1e-10


def test_p_norm_of_unit():
    st = BlockStructure([2, 3])
    h = _tracial_state(st, RNG)
    for p in (1, 2, np.inf):
        assert abs(p_norm(st.unit(), h, p) - 1.0) < 1e-10


def test_tracial_identity():
    st = BlockStructure([2, 3])
    h = _tracial_state(st, RNG)
    for _ in range(50):
        a = random_element(st, RNG)
        b = random_element(st, RNG)
        assert abs(h(a * b) - h(b * a)) < 1e-10


def test_tensor_structure_dims():
    a = BlockStructure([1, 1])
    split = TensorSplit(a, a)
    assert split.product.dims == (1, 1, 1, 1)
    b = BlockStructure([2, 1])
    split2 = TensorSplit(a, b)
    assert split2.product.dims == (2, 1, 2, 1)


def tensor(split, x, y):
    """x (x) y as an element of the split's product structure."""
    return split.from_kron_coords(np.outer(x.coords(), y.coords()).ravel())


def test_tensor_unit_and_star():
    a = BlockStructure([1, 2])
    b = BlockStructure([2])
    split = TensorSplit(a, b)
    assert (tensor(split, a.unit(), b.unit()) - split.product.unit()).norm_inf() < 1e-14
    for _ in range(5):
        x = random_element(a, RNG)
        y = random_element(b, RNG)
        lhs = tensor(split, x, y).adjoint()
        rhs = tensor(split, x.adjoint(), y.adjoint())
        assert (lhs - rhs).norm_inf() < 1e-12


def test_tensor_functional_product_rule():
    a = BlockStructure([1, 2])
    b = BlockStructure([2, 1])
    split = TensorSplit(a, b)
    phi = LinearFunctional(a, RNG.standard_normal(a.dim) + 1j * RNG.standard_normal(a.dim))
    psi = LinearFunctional(b, RNG.standard_normal(b.dim) + 1j * RNG.standard_normal(b.dim))
    coeffs = split.from_kron_coords(np.outer(phi.coeffs, psi.coeffs).ravel()).coords()
    both = LinearFunctional(split.product, coeffs)
    for _ in range(10):
        x = random_element(a, RNG)
        y = random_element(b, RNG)
        assert abs(both(tensor(split, x, y)) - phi(x) * psi(y)) < 1e-10


def test_tensor_product_multiplication_is_blockwise():
    a = BlockStructure([2, 1])
    split = TensorSplit(a, a)
    x1, x2, y1, y2 = (random_element(a, RNG) for _ in range(4))
    lhs = tensor(split, x1, y1) * tensor(split, x2, y2)
    rhs = tensor(split, x1 * x2, y1 * y2)
    assert (lhs - rhs).norm_inf() < 1e-12


def test_positive_cone_properties():
    for st in STRUCTURES:
        for _ in range(10):
            sq = random_positive(st, RNG)
            assert is_positive(sq)
            r = range_projection(sq)
            assert (r * sq - sq).norm_inf() < 1e-9


def test_element_caches_one_eigh_per_size_class(kp, monkeypatch):
    from qergodic.walks import WalkState, support_projection

    calls = []
    eigh = blocks._eigh
    monkeypatch.setattr(blocks, "_eigh", lambda stack: calls.append(stack.shape) or eigh(stack))
    raw = random_positive(kp.structure, RNG)
    density = raw * (1.0 / kp.haar(raw).real)
    p = support_projection(WalkState.from_density(kp, density))
    # the state's positivity check, then the positivity check and spectral decomposition of
    # support_projection, share one eigendecomposition per size class: four 1x1, one 2x2
    assert calls == [(4, 1, 1), (1, 2, 2)]
    assert is_projection(p)

    # an element made by arithmetic starts empty and computes its own
    scaled = density * 1.0
    assert scaled._herm is None and scaled._eig is None
    calls.clear()
    is_positive(scaled)
    assert len(calls) == 2

    # cached answers are those of a fresh element with the same coordinates
    fresh = kp.structure.from_coords(density.coords())
    for (lam, q), (lam_fresh, q_fresh) in zip(spectral_decomposition(density),
                                              spectral_decomposition(fresh), strict=True):
        assert lam == lam_fresh
        assert np.array_equal(q.coords(), q_fresh.coords())
    assert density._hermitian_defect() == fresh._hermitian_defect()
    stacks = [density.coords()[idx] for _, _, idx in kp.structure.size_classes]
    for (vals, vecs), s in zip(density._eighs(), stacks):
        assert not vals.flags.writeable and not vecs.flags.writeable
        assert all(np.array_equal(x, y) for x, y in zip((vals, vecs), eigh(s)))
