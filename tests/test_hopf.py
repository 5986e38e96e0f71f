import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qergodic

from qergodic.blocks import (
    AlgebraMap,
    BlockStructure,
    DomainError,
    is_projection,
    p_norm,
    random_element,
    random_positive,
)
from qergodic.catalog import chi_subgroup, function_algebra, group_algebra
from qergodic.groups import (
    Irrep,
    IrrepTable,
    cyclic_group,
    dihedral_group,
    group_from_cayley,
    subgroups,
    symmetric_group,
)
from qergodic.hopf import (
    _START_TOL,
    FiniteQuantumGroup,
    StructuralError,
    UnsupportedError,
    _bloch_assemble,
    _bloch_monomials,
    _grid_minima,
)

RNG = np.random.default_rng(777)


def test_classical_c2_axioms_exact(f_c2):
    report = f_c2.verify_axioms()
    assert report.max_residual < 1e-12


def test_catalog_axioms(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        assert entry.verify_axioms().passed(1e-10)


def test_corrupted_comultiplication_is_detected(f_c4):
    matrix = f_c4.comul.matrix.copy()
    matrix[3, 2] += 1e-3
    broken = FiniteQuantumGroup(
        f_c4.structure,
        AlgebraMap(f_c4.structure, f_c4.split.product, matrix),
        f_c4.counit,
        f_c4.antipode,
        validate=False,
    )
    report = broken.verify_axioms()
    assert report.residuals["coassociativity"] > 1e-4


def test_haar_uniform_on_classical(f_s3):
    # h(delta_t) = 1/|G| for every t
    assert np.abs(f_s3.haar.coeffs - 1.0 / 6).max() < 1e-12
    assert all(abs(w - 1.0 / 6) < 1e-12 for w in f_s3.haar_weights)


def test_haar_dual_is_identity_coefficient(dual_s3, s3):
    real = dual_s3.realization
    for g in range(6):
        delta = real.delta_element(dual_s3.structure, g)
        expected = 1.0 if g == s3.identity else 0.0
        assert abs(dual_s3.haar(delta) - expected) < 1e-10


def test_haar_kp_weights_positive_and_invariant(kp):
    assert all(w > 0 for w in kp.haar_weights)
    assert np.allclose(kp.haar_weights, [1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 4], atol=1e-10)
    # invariance residual, recomputed directly
    D = kp.dim
    unit = kp.unit.coords()
    worst = 0.0
    for f in range(D):
        W = kp.comul_kron[:, f].reshape(D, D)
        lhs = kp.haar.coeffs @ W
        worst = max(worst, np.abs(lhs - kp.haar.coeffs[f] * unit).max())
    assert worst < 1e-10


def test_haar_antipode_invariance(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        pulled = entry.antipode.transpose_on_functional(entry.haar)
        assert np.abs(pulled.coeffs - entry.haar.coeffs).max() < 1e-10


def test_haar_element(f_s3, dual_s3, kp, s3):
    # classical: delta_e; dual: the trivial-representation block; KP: eta
    assert np.abs(f_s3.haar_element.coords() -
                  np.eye(6)[s3.identity]).max() < 1e-12
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.abs(dual_s3.haar_element.coords() - expected).max() < 1e-12
    assert abs(dual_s3.counit(dual_s3.haar_element) - 1.0) < 1e-12
    eta = np.zeros(8)
    eta[0] = 1.0
    assert np.abs(kp.haar_element.coords() - eta).max() < 1e-12


def test_counit_is_multiplicative(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        basis = entry.structure.basis()
        for s, t in itertools.product(range(entry.dim), repeat=2):
            lhs = entry.counit(basis[s] * basis[t])
            rhs = entry.counit(basis[s]) * entry.counit(basis[t])
            assert abs(lhs - rhs) < 1e-10


def test_counit_composed_with_comul(dual_s3):
    # (eps (x) eps) Delta(f) = eps(f)
    split = dual_s3.split
    both = split.functional(dual_s3.counit, dual_s3.counit)
    for _ in range(10):
        f = random_element(dual_s3.structure, RNG)
        assert abs(both(dual_s3.delta(f)) - dual_s3.counit(f)) < 1e-10


def test_commutativity_flags(f_s3, dual_s3, kp):
    assert f_s3.is_commutative() and not f_s3.is_cocommutative()
    assert dual_s3.is_cocommutative() and not dual_s3.is_commutative()
    assert not kp.is_commutative() and not kp.is_cocommutative()


# -- group-like projections ----------------------------------------------------


def test_unit_is_group_like(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        assert entry.is_group_like_projection(entry.unit)


def test_chi_H_group_like(dual_s3, s3):
    for H in subgroups(s3):
        chi = chi_subgroup(dual_s3, H)
        assert is_projection(chi, 1e-10)
        assert dual_s3.is_group_like_projection(chi)


def test_non_subgroup_indicator_not_group_like(f_s3, s3):
    coords = np.zeros(6)
    for name in ("e", "(12)", "(13)"):
        coords[s3.index_of(name)] = 1.0
    p = f_s3.structure.from_coords(coords)
    assert is_projection(p)
    assert not f_s3.is_group_like_projection(p)


def test_group_like_requires_projection(f_s3):
    with pytest.raises(DomainError):
        f_s3.is_group_like_projection(0.5 * f_s3.unit)


def quaternion_group():
    """Q8 from its Cayley table: +-1, +-i, +-j, +-k as 2x2 complex matrices."""
    i, j = np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
    mats = np.array([s * m for s in (1, -1) for m in (np.eye(2), i, j, i @ j)])
    prods = mats[:, None] @ mats[None, :]
    table = np.abs(prods[:, :, None] - mats).sum(axis=(3, 4)).argmin(axis=2)
    return group_from_cayley(table, label="Q8")


def dihedral5_dual():
    """C[D5] from trivial, sign and the rotation/reflection representations rho1, rho2.

    Blocks (1, 1, 2, 2): the census has to place two rank-1 2x2 blocks at once.
    """
    d5 = dihedral_group(5)
    sign = np.repeat([1.0, -1.0], 5).reshape(10, 1, 1)
    irreps = [Irrep("trivial", 1, np.ones((10, 1, 1), dtype=complex)),
              Irrep("sign", 1, sign + 0j)]
    for k in (1, 2):
        a = 2 * np.pi * k * np.arange(5) / 5
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]).transpose(2, 0, 1)
        # dihedral_group has s_i = r_i s_0, and s_0 is the reflection diag(1, -1)
        mats = np.concatenate([rot, rot @ np.diag([1.0, -1.0])])
        irreps.append(Irrep(f"rho{k}", 2, mats + 0j))
    return group_algebra(d5, IrrepTable(d5, irreps))


def test_classical_census_is_subgroup_indicators(s3):
    for group, count in ((s3, 6), (dihedral_group(4), 10), (quaternion_group(), 6)):
        fg = function_algebra(group)
        n = group.order
        found = fg.find_group_like_projections()
        expected = []
        for H in subgroups(group):
            coords = np.zeros(n)
            coords[list(H)] = 1.0
            expected.append(fg.structure.from_coords(coords))
        assert len(found) == len(expected) == count
        for p in found:
            assert min((p - q).norm_inf() for q in expected) < 1e-8
        # independent cross-check: every subset indicator that is group-like is a subgroup
        for bits in itertools.product((0.0, 1.0), repeat=n):
            if not any(bits):
                continue
            p = fg.structure.from_coords(np.array(bits))
            if fg.is_group_like_projection(p):
                support = tuple(i for i, b in enumerate(bits) if b)
                assert support in subgroups(group)


def test_dual_census_is_chi_H(dual_s3):
    # C[D5] has two 2x2 blocks; its five {e, s_i} projections are rank 1 in both
    for dual, count in ((dual_s3, 6), (group_algebra(cyclic_group(4)), 3),
                        (group_algebra(cyclic_group(6)), 4), (dihedral5_dual(), 8)):
        found = dual.find_group_like_projections()
        chis = [chi_subgroup(dual, H) for H in subgroups(dual.realization.group)]
        assert len(found) == len(chis) == count
        for q in chis:
            assert min((p - q).norm_inf() for p in found) < 1e-8


def test_large_classical_census_is_subgroup_indicators():
    # 2^32 and more 0/1 choices on the 1x1 blocks: only subgroups are tried
    for group, count in ((cyclic_group(32), 6), (cyclic_group(64), 7),
                         (symmetric_group(4), 30), (dihedral_group(8), 19)):
        fg = function_algebra(group)
        found = np.array([p.coords() for p in fg.find_group_like_projections()])
        expected = np.zeros((len(subgroups(group)), group.order))
        for row, H in zip(expected, subgroups(group)):
            row[list(H)] = 1.0
        assert len(found) == len(expected) == count
        assert sorted(map(tuple, found.real)) == sorted(map(tuple, expected))
        assert not found.imag.any()


def test_census_refuses_past_the_subgroup_bound():
    with pytest.raises(UnsupportedError, match="bounded at order 64"):
        function_algebra(cyclic_group(65)).find_group_like_projections()


def element_orders(group):
    orders = []
    for g in range(group.order):
        k, h = 1, g
        while h != 0:
            k, h = k + 1, group.mul(h, g)
        orders.append(k)
    return orders


def test_character_group_of_a_function_algebra_is_the_group(s3):
    for group in (s3, dihedral_group(4), quaternion_group()):
        chars = function_algebra(group).character_group()
        assert np.array_equal(chars.cayley, group.cayley)


def test_character_group_of_duals_and_kp(dual_s3, kp):
    # KP: the Klein four-group; C[S3]: trivial and sign; C[C6]: cyclic of order 6
    assert sorted(element_orders(kp.character_group())) == [1, 2, 2, 2]
    assert dual_s3.character_group().cayley.tolist() == [[0, 1], [1, 0]]
    assert max(element_orders(group_algebra(cyclic_group(6)).character_group())) == 6


def test_character_group_rejects_broken_comultiplication(f_c4):
    D = f_c4.dim
    swapped = f_c4.comul_kron.copy()
    swapped[[1 * D + 2, 1 * D + 3]] = swapped[[1 * D + 3, 1 * D + 2]]
    perturbed = f_c4.comul_kron.copy()
    perturbed[1 * D + 2, 0] += 1e-3
    for kron in (swapped, perturbed):
        matrix = np.empty_like(kron)
        matrix[f_c4.split.inv_perm] = kron
        broken = FiniteQuantumGroup(
            f_c4.structure,
            AlgebraMap(f_c4.structure, f_c4.split.product, matrix),
            f_c4.counit,
            f_c4.antipode,
            validate=False,
        )
        with pytest.raises(StructuralError):
            broken.character_group()


def test_group_like_search_rejects_large_blocks():
    # a 3x3 block; three 2x2 blocks (refused before any grid is built)
    for dims in ([1, 3], [1, 1, 2, 2, 2]):
        big = FiniteQuantumGroup.__new__(FiniteQuantumGroup)  # only structure is consulted
        big.structure = BlockStructure(dims)
        with pytest.raises(UnsupportedError):
            FiniteQuantumGroup.find_group_like_projections(big)


def test_bloch_assembly_matches_per_point_formula():
    structure = BlockStructure([1, 2, 2])
    base = random_element(structure, RNG).coords()
    offsets = np.array([1, 5])
    angles = RNG.uniform(0.0, 2 * np.pi, size=(50, 4))
    coords = _bloch_assemble(base, offsets, angles)
    for row, (t1, p1, t2, p2) in zip(coords, angles):
        expected = base.copy()
        for off, th, ph in ((1, t1, p1), (5, t2, p2)):
            nx, ny, nz = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
            expected[off:off + 4] = 0.5 * np.array([1 + nz, nx - 1j * ny, nx + 1j * ny, 1 - nz])
        assert np.abs(row - expected).max() <= 1e-15


def test_polarized_scan_matches_direct_defects(kp):
    # one rank-1 block (Kac-Paljutkin) and two (C[D5]), around a random base
    for qg in (kp, dihedral5_dual()):
        st = qg.structure
        offsets = np.array([off for off, n in zip(st.offsets, st.dims) if n == 2])
        base = 0.5 * (RNG.uniform(-1, 1, st.dim) + 1j * RNG.uniform(-1, 1, st.dim))
        angles = RNG.uniform(0.0, 2 * np.pi, size=(300, 2 * len(offsets)))
        direct = qg._group_like_defect_batch(_bloch_assemble(base, offsets, angles))
        scan = _bloch_monomials(angles) @ qg._defect_terms(base, offsets)
        polarized = scan[:, :st.dim ** 2] + 1j * scan[:, st.dim ** 2:]
        assert np.abs(polarized - direct).max() <= 1e-12
        assert np.abs(np.sqrt(np.vecdot(scan, scan)) - np.linalg.norm(direct, axis=1)).max() <= 1e-12


def neighbour_minima(vals):
    """Grid points below _START_TOL and no larger than each neighbour, one point at a time.

    Theta axes (even) stop at their ends, phi axes (odd) wrap around.
    """
    keep = np.zeros(vals.shape, dtype=bool)
    for point in itertools.product(*map(range, vals.shape)):
        ok = vals[point] < _START_TOL
        for axis, size in enumerate(vals.shape):
            for step in (1, -1):
                other = list(point)
                other[axis] += step
                if axis % 2 == 0 and not 0 <= other[axis] < size:
                    continue
                other[axis] %= size
                ok = ok and vals[point] <= vals[tuple(other)]
        keep[point] = ok
    return keep


@pytest.mark.parametrize("jitter", [0.0, 1e-16])
def test_grid_minima_start_once_per_pole(jitter):
    rng = np.random.default_rng(5)
    # one sphere: both pole rows flat (or jittered) below _START_TOL, three interior minima
    vals = rng.uniform(0.3, 0.5, size=(12, 12))
    vals[[0, -1]] = 0.2 + jitter * rng.standard_normal((2, 12))
    planted = [(1, 4), (5, 0), (10, 11)]
    for point in planted:
        vals[point] = 0.1
    keep = _grid_minima(vals)
    assert sorted(zip(*np.nonzero(keep))) == sorted([(0, 0), (11, 0)] + planted)
    assert np.array_equal(keep[1:-1], neighbour_minima(vals)[1:-1])

    # two spheres: both at their north poles is one point; sphere 1 at its south pole is one
    # point for each (theta_2, phi_2), and only the planted one is a minimum there
    vals = rng.uniform(0.3, 0.5, size=(6,) * 4)
    vals[0, :, 0, :] = 0.1 + jitter * rng.standard_normal((6, 6))
    vals[-1, :, 3, 2] = 0.15 + jitter * rng.standard_normal(6)
    vals[2, 3, 4, 1] = 0.05
    keep = _grid_minima(vals)
    assert sorted(zip(*np.nonzero(keep))) == [(0, 0, 0, 0), (2, 3, 4, 1), (5, 0, 3, 2)]
    inner = (slice(1, -1), slice(None)) * 2
    assert np.array_equal(keep[inner], neighbour_minima(vals)[inner])


def test_census_matches_the_recorded_reference(kp, dual_s3):
    # coordinates recorded before the census scan was rewritten as a polarized product
    path = os.path.join(os.path.dirname(__file__), "data", "census_reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    for qg in (kp, dual_s3):
        found = np.array([p.coords() for p in qg.find_group_like_projections()])
        expected = np.array(reference[qg.label]["re"]) + 1j * np.array(reference[qg.label]["im"])
        assert found.shape == expected.shape
        assert np.abs(found - expected).max() <= 1e-12


def test_census_without_2x2_blocks_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(qergodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from qergodic.catalog import function_algebra; "
            "from qergodic.groups import cyclic_group, symmetric_group; "
            "found = function_algebra(symmetric_group(3)).find_group_like_projections(); "
            "wide = function_algebra(cyclic_group(64)).find_group_like_projections(); "
            "print(len(found), len(wide), 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["6", "7", "False"]


def test_group_like_consequences(dual_s3, s3):
    for H in subgroups(s3):
        chi = chi_subgroup(dual_s3, H)
        assert abs(dual_s3.counit(chi) - 1.0) < 1e-10
        assert (dual_s3.antipode(chi) - chi).norm_inf() < 1e-10
        assert dual_s3.haar(chi).real > 0


# -- box convolution -------------------------------------------------------------


def test_box_convolve_unit_absorbs_state_densities(f_s3, dual_s3, kp):
    from qergodic.walks import random_state

    for entry in (f_s3, dual_s3, kp):
        for _ in range(5):
            nu = random_state(entry, RNG)
            out = entry.box_convolve(nu.density, entry.unit)
            assert (out - entry.unit).norm_inf() < 1e-10


def test_box_convolve_is_bilinear(kp):
    f1 = random_element(kp.structure, RNG)
    f2 = random_element(kp.structure, RNG)
    g = random_element(kp.structure, RNG)
    lhs = kp.box_convolve(f1 + 2 * f2, g)
    rhs = kp.box_convolve(f1, g) + 2 * kp.box_convolve(f2, g)
    assert (lhs - rhs).norm_inf() < 1e-10


def test_box_convolve_young_inequality(f_s3, dual_s3, kp):
    # ||f (*) g||_1 <= ||f||_1 ||g||_1
    for entry in (f_s3, dual_s3, kp):
        for _ in range(10):
            f = random_element(entry.structure, RNG)
            g = random_element(entry.structure, RNG)
            lhs = p_norm(entry.box_convolve(f, g), entry.haar, 1)
            rhs = p_norm(f, entry.haar, 1) * p_norm(g, entry.haar, 1)
            assert lhs <= rhs + 1e-9


def test_haar_solver_rejects_broken_structure(f_c4):
    matrix = f_c4.comul.matrix.copy()
    matrix[3, 2] += 1e-3
    broken = FiniteQuantumGroup(
        f_c4.structure,
        AlgebraMap(f_c4.structure, f_c4.split.product, matrix),
        f_c4.counit,
        f_c4.antipode,
        validate=False,
    )
    with pytest.raises(StructuralError):
        broken.haar
