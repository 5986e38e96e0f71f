"""Construction-time index arrays and representation checks against the loops they replaced.

``BlockStructure``, ``TensorSplit``, ``unit``, ``random_element`` and
``representation_defect`` build their arrays by index arithmetic, one
assignment per size class (or pair of size classes) or one array pass per
chunk of group elements.  Each reference below is the per-block, per-pair or
per-element loop it replaced, and the two must agree exactly.  The Haar solve
and C[G]'s comultiplication work on blocks of rows; their references are the
one-shot full SVD and matrix product they replaced, equal where one block
covers everything and within 1e-15 otherwise.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qergodic
from qergodic import catalog, groups, hopf
from qergodic.blocks import BlockStructure, TensorSplit, products, random_element
from qergodic.catalog import function_algebra, group_algebra, kac_paljutkin
from qergodic.groups import (
    GroupValidationError,
    cyclic_group,
    dihedral_group,
    representation_defect,
    s3_standard_integral,
    symmetric_group,
)
from qergodic.hopf import FiniteQuantumGroup, StructuralError
from qergodic.tolerances import HAAR_NULL_RTOL, HAAR_WEIGHT_FLOOR, STRUCTURE_TOL

from conftest import perm_rep_matrices

DIMS = [(1,), (2,), (1, 1, 2), (3, 1, 2, 2, 3), (1,) * 48, (2, 1, 2, 1)]


def ref_offsets(dims):
    offsets = [0]
    for n in dims:
        offsets.append(offsets[-1] + n * n)
    return tuple(offsets)


def ref_size_classes(dims):
    offsets = ref_offsets(dims)
    classes = []
    for n in sorted(set(dims)):
        ids = np.array([i for i, m in enumerate(dims) if m == n])
        idx = np.array([np.arange(offsets[i], offsets[i] + n * n).reshape(n, n) for i in ids])
        classes.append((n, ids, idx))
    return classes


def ref_star_perm(dims):
    offsets = ref_offsets(dims)
    perm = []
    for o, n in zip(offsets, dims):
        perm.extend(o + c * n + r for r in range(n) for c in range(n))
    return np.array(perm)


def ref_unit(dims):
    return np.concatenate([np.eye(n, dtype=complex).reshape(-1) for n in dims])


def ref_tensor_perm(left, right):
    """The per-pair list: block (ia, ib) of the product, entry by entry."""
    ka = [np.arange(o, o + n * n).reshape(n, n) for o, n in zip(left.offsets, left.dims)]
    kb = [np.arange(o, o + n * n).reshape(n, n) for o, n in zip(right.offsets, right.dims)]
    perm = np.concatenate([
        (a[:, None, :, None] * right.dim + b[None, :, None, :]).reshape(-1)
        for a in ka for b in kb
    ])
    return perm


def ref_random_element(structure, rng):
    """Each block's real part, then its imaginary part, block by block."""
    return np.concatenate([
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).reshape(-1)
        for n in structure.dims
    ])


def ref_representation_defect(group, mats, tol):
    """Element by element: unitarity of M[a], then M[a] M[b] = M[ab] for every b."""
    mats = np.asarray(mats, dtype=complex)
    eye = np.eye(mats.shape[1])
    for a in range(group.order):
        if np.abs(mats[a] @ mats[a].conj().T - eye).max() > tol:
            return "unitary", a
        for b in range(group.order):
            if np.abs(mats[a] @ mats[b] - mats[group.mul(a, b)]).max() > tol:
                return "homomorphism", a
    return None


def ref_products(structure, x, y):
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for _, _, idx in structure.size_classes:
        out[..., idx] = x.take(idx, axis=-1) @ y.take(idx, axis=-1)
    return out


@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_block_structure_matches_the_loops(dims):
    st = BlockStructure(dims)
    assert st.offsets == ref_offsets(dims)
    assert all(type(o) is int for o in st.offsets) and type(st.dim) is int
    assert st.dim == ref_offsets(dims)[-1]
    assert len(st.size_classes) == len(ref_size_classes(dims))
    for (n, ids, idx), (rn, rids, ridx) in zip(st.size_classes, ref_size_classes(dims)):
        assert n == rn
        assert np.array_equal(ids, rids) and np.array_equal(idx, ridx)
    assert np.array_equal(st.star_perm, ref_star_perm(dims))
    unit = st.unit().coords()
    assert unit.dtype == complex and np.array_equal(unit, ref_unit(dims))


@pytest.mark.parametrize("left, right", [
    ((1, 1, 2), (1, 1, 2)),
    ((3, 1, 2, 2, 3), (3, 1, 2, 2, 3)),
    ((1,) * 48, (1,) * 48),
    ((1, 2), (3, 1, 1)),
    ((2,), (1, 1, 1)),
    ((3, 1, 2, 2, 3), (1, 2)),
], ids=str)
def test_tensor_split_permutation_matches_the_pair_loop(left, right):
    left, right = BlockStructure(left), BlockStructure(right)
    split = TensorSplit(left, right)
    perm = ref_tensor_perm(left, right)
    assert split.product.dims == tuple(na * nb for na in left.dims for nb in right.dims)
    assert split.perm.dtype == perm.dtype and np.array_equal(split.perm, perm)


@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_random_element_matches_per_block_draws(dims):
    st = BlockStructure(dims)
    rng, ref_rng = np.random.default_rng(20), np.random.default_rng(20)
    assert np.array_equal(random_element(st, rng).coords(), ref_random_element(st, ref_rng))
    # the generator is left where the block-by-block draws left it
    assert np.array_equal(rng.standard_normal(5), ref_rng.standard_normal(5))


def _s3_cases():
    s3 = symmetric_group(3)
    mats = np.array(perm_rep_matrices(s3), dtype=complex)
    scaled = mats.copy()
    scaled[4] *= 2  # (123) is not unitary
    swapped = mats.copy()
    swapped[[1, 2]] = swapped[[2, 1]]  # unitary, but (12) and (13) trade places
    both = swapped.copy()
    both[4] *= 2  # the homomorphism law fails at 1, before unitarity at 4
    integral = s3_standard_integral(s3)  # a homomorphism, not unitary at (12)
    return s3, [(mats, None), (scaled, ("homomorphism", 1)), (swapped, ("homomorphism", 1)),
                (both, ("homomorphism", 1)), (integral, ("unitary", 1))]


def _cyclic_cases():
    c5 = cyclic_group(5)
    w = np.exp(2j * np.pi / 5)
    chars = (w ** (2 * np.arange(5))).reshape(5, 1, 1)
    scaled = chars.copy()
    scaled[3] *= 1.5
    broken = chars.copy()
    broken[2] = w
    both = broken.copy()
    both[0] *= 2
    return c5, [(chars, None), (scaled, ("homomorphism", 1)), (broken, ("homomorphism", 1)),
                (both, ("unitary", 0))]


@pytest.mark.parametrize("batch", [groups._LAW_BATCH, 1, 20, 1 << 16])
@pytest.mark.parametrize("cases", [_s3_cases, _cyclic_cases], ids=["S3", "C5"])
def test_representation_defect_matches_the_element_loop(monkeypatch, batch, cases):
    # the default, one element per chunk, a few, and every element in one chunk
    monkeypatch.setattr(groups, "_LAW_BATCH", batch)
    group, reps = cases()
    for mats, expected in reps:
        assert ref_representation_defect(group, mats, 1e-9) == expected
        found = representation_defect(group, mats, 1e-9)
        assert found == expected
        assert found is None or type(found[1]) is int


@pytest.mark.parametrize("batch", [groups._LAW_BATCH, 1, 20, 1 << 16])
@pytest.mark.parametrize("cases", [_s3_cases, _cyclic_cases], ids=["S3", "C5"])
def test_representation_defect_of_a_stack_lists_each_result(monkeypatch, batch, cases):
    # one pass over all the cases of one shape gives each case's own first defect
    monkeypatch.setattr(groups, "_LAW_BATCH", batch)
    group, reps = cases()
    shape = np.shape(reps[0][0])
    same = [(mats, expected) for mats, expected in reps if np.shape(mats) == shape]
    assert len(same) >= 4
    found = representation_defect(group, np.array([mats for mats, _ in same]), 1e-9)
    assert found == [expected for _, expected in same]
    assert all(type(d[1]) is int for d in found if d is not None)


@pytest.mark.parametrize("structure", [
    lambda: function_algebra(cyclic_group(8)).split.product,
    lambda: BlockStructure([2] * 5),
    lambda: BlockStructure([1, 1, 2]),
], ids=["F(C8)^2", "2x2", "mixed"])
def test_products_match_the_scatter(structure):
    # F(C8)'s product algebra and an all-2x2 structure have one size class
    st = structure()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, st.dim)) + 1j * rng.standard_normal((4, st.dim))
    y = rng.standard_normal(st.dim)  # a real row keeps the complex result
    for a, b in ((x, x[::-1]), (x, y), (y, y), (x[0], x[1])):
        out = products(st, a, b)
        assert out.dtype == complex and np.array_equal(out, ref_products(st, a, b))
    assert not np.shares_memory(products(st, y, y), y)


@pytest.mark.parametrize("dims, bad", [([2.7, 1], "2.7"), ([True, 1], "True"),
                                       ([1, np.True_], "np.True_"), ([1, "2"], "'2'"),
                                       ([float("nan")], "nan")], ids=str)
def test_block_structure_refuses_non_integral_dims(dims, bad):
    # int() truncated them: [2.7, 1] became (2, 1), [True, 1] became (1, 1)
    with pytest.raises(ValueError, match=f"block dimension {bad} is not an integer"):
        BlockStructure(dims)


def test_block_structure_reads_integral_numbers_as_ints():
    st = BlockStructure([2.0, np.int64(1)])
    assert st.dims == (2, 1) and all(type(n) is int for n in st.dims)


def test_construction_leaves_numpy_ma_unloaded():
    # np.unique and the other set routines import numpy.ma on first use, 8 to 19 ms
    src = os.path.dirname(os.path.dirname(qergodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from qergodic import catalog, groups\n"
            "catalog.function_algebra(groups.cyclic_group(48))\n"
            "catalog.group_algebra(groups.cyclic_group(32))\n"
            "s3 = groups.symmetric_group(3)\n"
            "catalog.dual_subgroup_state(catalog.group_algebra(s3), [0, 4, 5])\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_census_leaves_numpy_random_unloaded():
    # a reducible walk builds its group's census, whose fixed combinations are written out:
    # importing numpy.random would add about 5 MB to the peak RSS
    src = os.path.dirname(os.path.dirname(qergodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\n"
            "from qergodic import catalog, ergodicity, groups\n"
            "dual_s3 = catalog.group_algebra(groups.symmetric_group(3))\n"
            "kp = catalog.kac_paljutkin()\n"
            "tags = [ergodicity.classify(nu).tag for nu in (\n"
            "    catalog.dual_subgroup_state(dual_s3, [0, 1]), catalog.kp_pure_state(kp, 1))]\n"
            "print(*tags, kp.census() is not None, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["reducible", "reducible", "True", "False"]


def test_census_draws_are_the_fixed_seed_draws():
    # the written-out draws are bitwise those the census took from the generator
    from qergodic.hopf import _JENNRICH_DRAWS

    for r in range(1, 8):
        draws = np.random.default_rng(0).standard_normal((2, r))
        assert np.array_equal(draws, [_JENNRICH_DRAWS[:r], _JENNRICH_DRAWS[r:2 * r]])


def ref_solve_haar(qg):
    """The full-SVD solve: the whole (D^2, D) invariance system at once, then each check.

    Returns the Haar coefficients and block weights, or raises what the solve raised.
    """
    D = qg.dim
    unit = qg.unit.coords()
    dk3 = qg.comul_kron.reshape(D, D, D)
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
    weights = np.empty(len(qg.structure.dims))
    for n, ids, idx in qg.structure.size_classes:
        seg = coeffs[idx]
        w = np.trace(seg, axis1=1, axis2=2) / n
        if np.any(np.abs(w.imag) > STRUCTURE_TOL) or np.any(w.real <= HAAR_WEIGHT_FLOOR):
            raise StructuralError("Haar state is not faithful and positive")
        if np.abs(seg - w[:, None, None] * np.eye(n)).max() > STRUCTURE_TOL:
            raise StructuralError("Haar state is not tracial")
        weights[ids] = w.real
    coeffs = np.repeat(weights, [n * n for n in qg.structure.dims]) * unit.real
    if np.abs(dk3.transpose(2, 0, 1) @ coeffs - np.outer(coeffs, unit)).max() > STRUCTURE_TOL:
        raise StructuralError("Haar state is not right invariant")
    if np.abs(qg.antipode.T @ coeffs - coeffs).max() > STRUCTURE_TOL:
        raise StructuralError("Haar state is not antipode invariant")
    return coeffs, tuple(weights.tolist())


def ref_group_algebra_comul(qg):
    """C[G]'s Delta as one product: column g of delta_cols is delta^g (x) delta^g."""
    basis, basis_inv = qg.realization.basis, qg.realization.basis_inv
    delta_cols = (basis[:, None, :] * basis[None, :, :]).reshape(-1, len(basis))
    return delta_cols @ basis_inv


_HAAR_CASES = {
    **{f"F(C{n})": (lambda n=n: function_algebra(cyclic_group(n))) for n in (16, 32, 48, 64)},
    **{f"C[C{n}]": (lambda n=n: group_algebra(cyclic_group(n))) for n in (16, 32, 48, 64)},
    "KP": kac_paljutkin,
    "C[S3]": lambda: group_algebra(symmetric_group(3)),
    "F(S4)": lambda: function_algebra(symmetric_group(4)),
    "F(D6)": lambda: function_algebra(dihedral_group(6)),
}


@pytest.mark.parametrize("build", _HAAR_CASES.values(), ids=_HAAR_CASES.keys())
def test_haar_solve_matches_the_full_svd(build):
    qg = build()
    coeffs, weights = ref_solve_haar(qg)
    assert np.abs(qg.haar.coeffs - coeffs).max() <= 1e-15
    assert np.allclose(qg.haar_weights, weights, rtol=0, atol=1e-15)
    if qg.dim ** 3 <= hopf._HAAR_BATCH:  # one block of rows is the whole system
        assert np.array_equal(qg.haar.coeffs, coeffs) and qg.haar_weights == weights


def _transported_kp(kp, linv):
    """KP's Delta moved to (L (x) id) Delta L^-1: its left-invariant state is h L^-1."""
    return np.kron(np.linalg.inv(linv), np.eye(kp.dim)) @ kp.comul_kron @ linv


def _broken_kp_maps(kp):
    """(comultiplication, antipode, refusal) of KP with one identity of the solve broken."""
    D = kp.dim
    primitive = np.zeros((D * D, D), dtype=complex)  # Delta(e_f) = e_f (x) 1: every h solves
    primitive.reshape(D, D, D)[np.arange(D), :, np.arange(D)] = kp.unit.coords()
    negative, rescaled, mixed = np.eye(D), np.eye(D), np.eye(D)
    negative[1, 1] = -1  # h L^-1 has weight -1/8 on the second 1x1 block
    rescaled[1, 1] = 2  # faithful and tracial, but not right invariant
    mixed[4, 5] = 0.5  # h L^-1 reads an off-diagonal entry of the 2x2 block
    dimension = ("invariance system has a {}-dimensional solution space; "
                 "the structure maps do not define a quantum group")
    return [
        (primitive, kp.antipode, dimension.format(8)),
        (1.001 * kp.comul_kron, kp.antipode, dimension.format(0)),
        (_transported_kp(kp, negative), kp.antipode, "Haar state is not faithful and positive"),
        (_transported_kp(kp, mixed), kp.antipode, "Haar state is not tracial"),
        (_transported_kp(kp, rescaled), kp.antipode, "Haar state is not right invariant"),
        (kp.comul_kron, 1.001 * kp.antipode, "Haar state is not antipode invariant"),
    ]


@pytest.mark.parametrize("batch", [hopf._HAAR_BATCH, 1])
def test_haar_solve_refuses_broken_structure_as_the_full_svd_did(monkeypatch, kp, batch):
    monkeypatch.setattr(hopf, "_HAAR_BATCH", batch)  # the whole system, or one f per block
    for comul, antipode, message in _broken_kp_maps(kp):
        qg = FiniteQuantumGroup(kp.structure, comul, kp.counit, antipode, validate=False)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            ref_solve_haar(qg)
        with pytest.raises(StructuralError, match=f"^{message}$"):
            FiniteQuantumGroup(kp.structure, comul, kp.counit, antipode)


@pytest.mark.parametrize("build", [
    lambda: group_algebra(cyclic_group(48)),
    lambda: group_algebra(symmetric_group(3)),
    kac_paljutkin,
], ids=["C[C48]", "C[S3]", "KP"])
def test_haar_solve_with_one_f_per_block_matches_the_full_svd(monkeypatch, build):
    monkeypatch.setattr(hopf, "_HAAR_BATCH", 1)
    qg = build()
    assert np.abs(qg.haar.coeffs - ref_solve_haar(qg)[0]).max() <= 1e-15


@pytest.mark.parametrize("batch", [catalog._DELTA_BATCH, 1])
@pytest.mark.parametrize("group", [
    lambda: cyclic_group(16), lambda: cyclic_group(48), lambda: symmetric_group(3),
], ids=["C16", "C48", "S3"])
def test_group_algebra_comultiplication_matches_the_one_shot_product(monkeypatch, batch, group):
    monkeypatch.setattr(catalog, "_DELTA_BATCH", batch)  # a few first-factor rows, or one
    qg = group_algebra(group())
    want = ref_group_algebra_comul(qg)
    if qg.dim ** 3 <= batch:
        assert np.array_equal(qg.comul_kron, want)
    assert np.abs(qg.comul_kron - want).max() <= 1e-15


def _traced_peak(call):
    """What ``call()`` returns, its peak of traced allocations and what it still holds, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, held


@pytest.mark.parametrize("build", [
    lambda: function_algebra(cyclic_group(64)),
    lambda: group_algebra(cyclic_group(64)),
], ids=["F(C64)", "C[C64]"])
def test_haar_solve_transient_stays_near_d_squared(build):
    # the full SVD held the (D^2, D) system and its U factor: 8.3 MiB at D = 64
    qg = build()
    _, peak, _ = _traced_peak(qg._solve_haar)
    assert peak < 2 * 2 ** 20


def test_group_algebra_build_peaks_near_what_the_entry_holds():
    # the one-shot build peaked at 4.6 times the entry: delta_cols, its product, the SVD's U;
    # with Delta stored as a copy of the one built it still peaked at 2.15 times
    group = cyclic_group(64)
    group_algebra(group)  # the irrep table and lazy imports are cached before tracing
    qg, peak, held = _traced_peak(lambda: group_algebra(group))
    assert held >= qg.comul_kron.nbytes
    assert peak <= 1.5 * held


def test_function_algebra_build_peaks_near_what_the_entry_holds():
    # with Delta built as floats and stored as a complex copy it peaked at 1.67 times
    group = cyclic_group(64)
    function_algebra(group)  # lazy imports are cached before tracing
    qg, peak, held = _traced_peak(lambda: function_algebra(group))
    assert held >= qg.comul_kron.nbytes
    assert peak <= 1.5 * held


def test_census_build_peaks_a_few_times_the_stored_delta():
    # F(S4) stacks 30 candidates at D = 24; gated in one call, with (30, 24, 24) defect
    # intermediates, the census peaked at 5.1 times the stored Delta, and gated 7 rows
    # at a time at 2.7 times
    group = function_algebra(symmetric_group(4))
    function_algebra(symmetric_group(4)).census()  # lazy imports are cached before tracing
    census, peak, _ = _traced_peak(group.census)
    assert len(census[0]) == 30
    assert peak <= 3 * group.comul_kron.nbytes


def test_census_of_64_characters_peaks_below_the_stored_delta():
    # the character table reads the rows of Delta for all 64^2 pairs of characters;
    # read at once, and copied again for their evaluations, they peaked at 10.5 MB,
    # 2.5 times the stored 4.2 MB Delta, and read 64 rows at a time at 0.75 MB
    group = function_algebra(cyclic_group(64))
    function_algebra(symmetric_group(4)).census()  # lazy imports are cached before tracing
    census, peak, _ = _traced_peak(group.census)
    assert len(census[0]) == 7  # the subgroups of C64
    assert peak < group.comul_kron.nbytes


def test_a_writable_structure_map_is_copied(f_s3):
    # a caller's writable array may change later, so the quantum group keeps its own copy
    comul = np.array(f_s3.comul_kron)
    antipode = np.array(f_s3.antipode)
    qg = FiniteQuantumGroup(f_s3.structure, comul, f_s3.counit, antipode)
    for given, kept in ((comul, qg.comul_kron), (antipode, qg.antipode)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
        assert np.array_equal(given, kept)
    # a read-only complex array that owns its data is kept as it is
    again = FiniteQuantumGroup(qg.structure, qg.comul_kron, qg.counit, qg.antipode)
    assert again.comul_kron is qg.comul_kron and again.antipode is qg.antipode


@pytest.mark.parametrize("build", [cyclic_group, dihedral_group, symmetric_group])
@pytest.mark.parametrize("n, message", [
    (True, "^n = True is a boolean, not an integer$"),
    (np.True_, "^n = np.True_ is a boolean, not an integer$"),
    (4.0, "^n = 4.0 is not an integer$"),
    ("3", "^n = '3' is not an integer$"),
], ids=["True", "np.True_", "4.0", "'3'"])
def test_group_constructors_refuse_an_order_that_is_not_an_integer(build, n, message):
    # cyclic_group(4.0) raised TypeError: 'float' object cannot be interpreted as an integer
    with pytest.raises(GroupValidationError, match=message):
        build(n)


def test_group_constructors_take_numpy_integers():
    assert cyclic_group(np.int64(4)).order == 4
    assert dihedral_group(np.int32(3)).order == 6
    assert symmetric_group(np.int64(3)).order == 6
