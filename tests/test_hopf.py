import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qergodic
from qergodic import hopf
from qergodic.blocks import (
    BlockStructure,
    DomainError,
    LinearFunctional,
    p_norm,
    random_element,
    random_positive,
)
from qergodic.catalog import chi_subgroup, function_algebra, group_algebra, kac_paljutkin
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
    FiniteQuantumGroup,
    StructuralError,
    UnsupportedError,
    _moment_vectors,
)
from qergodic.tolerances import PROJECTION_EQ_TOL

from conftest import projection_defects

RNG = np.random.default_rng(777)


def test_classical_c2_axioms_exact(f_c2):
    report = f_c2.verify_axioms()
    assert report.max_residual < 1e-12


def test_catalog_axioms(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        assert entry.verify_axioms().passed(1e-10)


def test_corrupted_comultiplication_is_detected(f_c4):
    matrix = f_c4.comul_kron.copy()
    matrix[3, 2] += 1e-3
    broken = FiniteQuantumGroup(
        f_c4.structure,
        matrix,
        f_c4.counit,
        f_c4.antipode,
        validate=False,
    )
    report = broken.verify_axioms()
    assert report.residuals["coassociativity"] > 1e-4


def broken_kp(kp, comul=None, counit=None, antipode=None):
    """Kac-Paljutkin with some of its structure maps replaced, unvalidated."""
    st = kp.structure
    return FiniteQuantumGroup(
        st,
        kp.comul_kron if comul is None else comul,
        kp.counit if counit is None else LinearFunctional(st, counit),
        kp.antipode if antipode is None else antipode,
        validate=False,
    )


def test_each_broken_identity_is_detected(kp):
    antipode = kp.antipode.copy()
    antipode[5, 6] += 1e-3
    counit = kp.counit.coeffs.copy()
    counit[1] += 1e-3
    laws = {"counit_left", "counit_right", "antipode_left", "antipode_right"}
    cases = [
        (broken_kp(kp, antipode=antipode),
         {"antipode_left", "antipode_right", "antipode_involutive"}),
        (broken_kp(kp, counit=counit), laws),
        # a phase keeps Delta coassociative but not a *-map (nor multiplicative)
        (broken_kp(kp, comul=np.exp(1e-3j) * kp.comul_kron),
         laws | {"comul_star", "comul_multiplicative"}),
        # a real scale keeps Delta a coassociative *-map, not a multiplicative one
        (broken_kp(kp, comul=1.001 * kp.comul_kron), laws | {"comul_multiplicative"}),
    ]
    for broken, raised in cases:
        residuals = broken.verify_axioms().residuals
        assert {name for name, value in residuals.items() if value > 1e-4} == raised
        assert all(residuals[name] <= 1e-12 for name in residuals.keys() - raised)


def axioms_by_pairs(qg):
    """The Hopf residuals from a structure-constant table and a loop over basis pairs."""
    D = qg.dim
    st = qg.structure
    mult = np.zeros((D,) * 3, dtype=complex)  # mult[s, t] = coords(e_s e_t)
    for _, _, idx in st.size_classes:
        mult[idx[:, :, :, None], idx[:, None, :, :], idx[:, :, None, :]] = 1.0
    dk = qg.comul_kron
    ceps = qg.counit.coeffs
    smat = qg.antipode
    unit = qg.unit.coords()
    star = st.star_perm
    sq = dict.fromkeys(("coassociativity", "counit_left", "counit_right", "antipode_left",
                        "antipode_right", "comul_star", "comul_multiplicative"), 0.0)
    for f in range(D):
        W = dk[:, f].reshape(D, D)
        sq["coassociativity"] += np.linalg.norm((dk @ W).reshape(-1) - (W @ dk.T).reshape(-1)) ** 2
        sq["counit_left"] += np.linalg.norm(ceps @ W - np.eye(D)[f]) ** 2
        sq["counit_right"] += np.linalg.norm(W @ ceps - np.eye(D)[f]) ** 2
        target = ceps[f] * unit
        sq["antipode_left"] += np.linalg.norm(
            np.einsum("st,stk->k", smat @ W, mult) - target) ** 2
        sq["antipode_right"] += np.linalg.norm(
            np.einsum("st,stk->k", W @ smat.T, mult) - target) ** 2
        sq["comul_star"] += np.linalg.norm(
            dk[:, star[f]] - W.conj()[np.ix_(star, star)].reshape(-1)) ** 2
    cm = dk[qg.split.perm]  # rows in the product structure's coordinates
    cols = [qg.split.product.from_coords(cm[:, f]) for f in range(D)]
    for s, t in itertools.product(range(D), repeat=2):
        sq["comul_multiplicative"] += np.linalg.norm(
            (cols[s] * cols[t]).coords() - cm @ mult[s, t]) ** 2
    residuals = {name: np.sqrt(value) for name, value in sq.items()}
    residuals["antipode_involutive"] = np.linalg.norm(smat @ smat - np.eye(D))
    return residuals


def test_stacked_axioms_match_the_pair_loop(f_s3, dual_s3, kp):
    for qg in (f_s3, dual_s3, group_algebra(cyclic_group(6)), kp,
               function_algebra(cyclic_group(32)), group_algebra(cyclic_group(32))):
        got = qg.verify_axioms().residuals
        want = axioms_by_pairs(qg)
        assert list(got) == list(want)
        assert all(abs(got[name] - want[name]) <= 1e-12 for name in want), qg.label
        assert max(want.values()) <= 1e-9


def test_haar_uniform_on_classical(f_s3):
    # h(delta_t) = 1/|G| for every t
    assert np.abs(f_s3.haar.coeffs - 1.0 / 6).max() < 1e-12
    assert all(abs(w - 1.0 / 6) < 1e-12 for w in f_s3.haar_weights)


def test_haar_dual_is_identity_coefficient(dual_s3, s3):
    real = dual_s3.realization
    for g in range(6):
        delta = dual_s3.structure.from_coords(real.basis[:, g])
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
        pulled = entry.antipode.T @ entry.haar.coeffs
        assert np.abs(pulled - entry.haar.coeffs).max() < 1e-10


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
    ceps = dual_s3.counit.coeffs
    for _ in range(10):
        f = random_element(dual_s3.structure, RNG)
        assert abs(ceps @ dual_s3.delta_kron(f) @ ceps - dual_s3.counit(f)) < 1e-10


def _is_cocommutative(entry):
    dk3 = entry.comul_kron.reshape((entry.dim,) * 3)  # [s, t, f]
    return np.abs(dk3 - dk3.transpose(1, 0, 2)).max() <= 1e-10


def _is_commutative(entry):
    return set(entry.structure.dims) == {1}


def test_commutativity_flags(f_s3, dual_s3, kp, f_c4):
    for abelian in (f_c4, group_algebra(cyclic_group(4))):
        assert _is_commutative(abelian) and _is_cocommutative(abelian)
    assert _is_commutative(f_s3) and not _is_cocommutative(f_s3)
    assert _is_cocommutative(dual_s3) and not _is_commutative(dual_s3)
    assert not _is_commutative(kp) and not _is_cocommutative(kp)


# -- group-like projections ----------------------------------------------------


def test_unit_is_group_like(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        assert entry.is_group_like_projection(entry.unit)


def test_chi_H_group_like(dual_s3, s3):
    for H in subgroups(s3):
        chi = chi_subgroup(dual_s3, H)
        assert max(projection_defects(chi)) <= 1e-10
        assert dual_s3.is_group_like_projection(chi)


def test_non_subgroup_indicator_not_group_like(f_s3, s3):
    coords = np.zeros(6)
    for name in ("e", "(12)", "(13)"):
        coords[s3.index_of(name)] = 1.0
    p = f_s3.structure.from_coords(coords)
    assert max(projection_defects(p)) <= 1e-9
    assert not f_s3.is_group_like_projection(p)


def test_group_likeness_gates_the_frobenius_norm_of_the_defect(kp):
    # a rank-1 group-like projection of KP with its 2x2 block turned by 4e-9 rad: the
    # defect's operator norm in A (x) A is under PROJECTION_EQ_TOL, its Frobenius norm,
    # sqrt(5) times larger here, over it; the census gates the Frobenius norm, and so
    # does is_group_like_projection
    st = kp.structure
    block = slice(st.offsets[4], st.offsets[5])
    p = next(q for q in kp.find_group_like_projections()
             if abs(np.trace(q.blocks[4]) - 1.0) < 1e-12)
    theta = 4e-9
    turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    coords = p.coords().copy()
    coords[block] = (turn @ p.blocks[4] @ turn.T).ravel()
    turned = st.from_coords(coords)
    assert max(projection_defects(turned)) <= 1e-15
    defect = kp._group_like_defect_batch(coords)[0]
    assert kp.split.from_kron_coords(defect).norm_inf() < PROJECTION_EQ_TOL
    assert np.linalg.norm(defect) > PROJECTION_EQ_TOL
    assert not kp.is_group_like_projection(turned)
    assert kp.is_group_like_projection(p)


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


def dihedral5_dual(diagonal=False, unitaries=(None, None)):
    """C[D5] from trivial, sign and the two-dimensional representations rho1, rho2.

    Blocks (1, 1, 2, 2): the census has to place two rank-1 2x2 blocks at once.
    rho_k is written with rotations and reflections, or with diagonal complex
    rotations rho_k(r_j) = diag(w^jk, w^-jk) and rho_k(s_0) the swap when
    ``diagonal``; a unitary V in ``unitaries`` conjugates rho_k to V rho_k V*.
    """
    d5 = dihedral_group(5)
    sign = np.repeat([1.0, -1.0], 5).reshape(10, 1, 1)
    irreps = [Irrep("trivial", 1, np.ones((10, 1, 1), dtype=complex)),
              Irrep("sign", 1, sign + 0j)]
    for k, V in zip((1, 2), unitaries):
        a = 2 * np.pi * k * np.arange(5) / 5
        if diagonal:
            rot = np.array([np.diag([w, w.conj()]) for w in np.exp(1j * a)])
            s0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        else:
            rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]).transpose(2, 0, 1)
            s0 = np.diag([1.0, -1.0])
        # dihedral_group has s_i = r_i s_0
        mats = np.concatenate([rot, rot @ s0]) + 0j
        if V is not None:
            mats = V @ mats @ V.conj().T
        irreps.append(Irrep(f"rho{k}", 2, mats))
    return group_algebra(d5, IrrepTable(d5, irreps))


def random_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def test_census_gates_each_candidate_once(kp, monkeypatch):
    # the census stacks its 0/1 choices and the candidates Jennrich's method recovers,
    # and gates the stack once, in chunks of at most _GATE_BATCH entries of Delta(p):
    # all 6 rows of F(S3) (D = 6) at once, the 30 of F(S4) (D = 24) 7 at a time; KP has
    # ten 0/1 choices (two per subgroup of C2 x C2), and the only other defect rows are
    # the polarization terms of its five rank-1 choices, ten rows each
    rows = []
    defect = FiniteQuantumGroup._group_like_defect_batch
    monkeypatch.setattr(FiniteQuantumGroup, "_group_like_defect_batch",
                        lambda self, coords: rows.append(len(coords)) or defect(self, coords))
    for group, chunks in ((symmetric_group(3), [6]), (symmetric_group(4), [7, 7, 7, 7, 2])):
        rows.clear()
        assert len(function_algebra(group).find_group_like_projections()) == sum(chunks)
        assert rows == chunks
    rows.clear()
    found = kp.find_group_like_projections()
    rank_one = sum(abs(np.trace(p.blocks[4]) - 1.0) < 1e-12 for p in found)
    assert len(found) == 8 and rank_one == 2
    assert rows == [10] * 5 + [10 + rank_one]


def test_census_holds_the_search_and_its_idempotent_states(monkeypatch):
    # q / h(q) is the idempotent state of q: its functional is x -> h(q x) / h(q)
    group = kac_paljutkin()
    found = group.find_group_like_projections()
    projections, masses, states = group.census()
    assert np.array_equal(projections, [q.coords() for q in found])
    assert np.array_equal(masses, [group.haar(q).real for q in found])
    x = random_element(group.structure, RNG)
    assert np.allclose(states @ x.coords(), [group.haar(q * x) / group.haar(q) for q in found],
                       rtol=0, atol=1e-14)
    assert group._idempotent_rows(states).all()
    assert not any(a.flags.writeable for a in (projections, masses, states))
    # held: a second call runs no search
    monkeypatch.setattr(FiniteQuantumGroup, "find_group_like_projections", None)
    assert group.census()[0] is projections
    # a convex mixture of two idempotent states is not idempotent
    assert not group._idempotent_rows(0.5 * (states[:1] + states[-1:]))[0]


def test_census_is_none_where_the_search_refuses():
    assert function_algebra(cyclic_group(65)).census() is None


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


# the table reads the rows of Delta for the pairs of characters in chunks of at most
# hopf._GATE_BATCH entries; one and five rows a chunk put a chunk edge everywhere
ROWS_PER_CHUNK = (None, 1, 5)


def test_character_group_of_a_function_algebra_is_the_group(s3, monkeypatch):
    for group in (s3, dihedral_group(4), quaternion_group()):
        qg = function_algebra(group)
        for rows in ROWS_PER_CHUNK:
            if rows is not None:
                monkeypatch.setattr(hopf, "_GATE_BATCH", rows * qg.dim)
            assert np.array_equal(qg.character_group().cayley, group.cayley)


def test_character_group_of_duals_and_kp(dual_s3, kp):
    # KP: the Klein four-group; C[S3]: trivial and sign; C[C6]: cyclic of order 6
    assert sorted(element_orders(kp.character_group())) == [1, 2, 2, 2]
    assert dual_s3.character_group().cayley.tolist() == [[0, 1], [1, 0]]
    assert max(element_orders(group_algebra(cyclic_group(6)).character_group())) == 6


def test_character_group_rejects_broken_comultiplication(f_c4, monkeypatch):
    D = f_c4.dim
    swapped = f_c4.comul_kron.copy()
    swapped[[1 * D + 2, 1 * D + 3]] = swapped[[1 * D + 3, 1 * D + 2]]
    perturbed = f_c4.comul_kron.copy()
    perturbed[1 * D + 2, 0] += 1e-3
    for kron, message in ((swapped, "characters do not form a group: Cayley table is not a Latin"),
                          (perturbed, "a product of characters is not a character$")):
        broken = FiniteQuantumGroup(
            f_c4.structure,
            kron,
            f_c4.counit,
            f_c4.antipode,
            validate=False,
        )
        for rows in ROWS_PER_CHUNK:
            if rows is not None:
                monkeypatch.setattr(hopf, "_GATE_BATCH", rows * D)
            with pytest.raises(StructuralError, match=f"^{message}"):
                broken.character_group()


def test_group_like_search_rejects_large_blocks():
    # a 3x3 block; three 2x2 blocks (refused before any census work)
    for dims in ([1, 3], [1, 1, 2, 2, 2]):
        big = FiniteQuantumGroup.__new__(FiniteQuantumGroup)  # only structure is consulted
        big.structure = BlockStructure(dims)
        with pytest.raises(UnsupportedError):
            FiniteQuantumGroup.find_group_like_projections(big)


def test_polarized_scan_matches_direct_defects(kp):
    # one rank-1 block (Kac-Paljutkin) and two (C[D5]), around a random base
    for qg in (kp, dihedral5_dual()):
        st = qg.structure
        offsets = [off for off, n in zip(st.offsets, st.dims) if n == 2]
        base = 0.5 * (RNG.uniform(-1, 1, st.dim) + 1j * RNG.uniform(-1, 1, st.dim))
        n = RNG.standard_normal((300, len(offsets), 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        coords = np.tile(base, (len(n), 1))
        for j, off in enumerate(offsets):
            nx, ny, nz = n[:, j].T
            coords[:, off:off + 4] = 0.5 * np.stack([1 + nz, nx - 1j * ny, nx + 1j * ny, 1 - nz], axis=1)
        direct = qg._group_like_defect_batch(coords)
        cols, terms = qg._defect_terms(base, offsets)
        m = np.concatenate([np.ones((len(n), 1)), n.reshape(len(n), -1)], axis=1)
        assert np.abs(m @ cols - coords).max() <= 1e-15
        iu, iv = np.triu_indices(m.shape[1])
        scan = (m[:, iu] * m[:, iv]) @ terms
        polarized = scan[:, :st.dim ** 2] + 1j * scan[:, st.dim ** 2:]
        assert np.abs(polarized - direct).max() <= 1e-12
        assert np.abs(np.sqrt(np.vecdot(scan, scan)) - np.linalg.norm(direct, axis=1)).max() <= 1e-12


def monomial_basis(moments, rng):
    """An orthonormal basis, mixed at random, of the span of the monomials m_u m_v, u <= v."""
    iu, iv = np.triu_indices(moments.shape[1])
    q, _ = np.linalg.qr((moments[:, iu] * moments[:, iv]).T @ rng.standard_normal((len(moments),) * 2))
    return q


def test_moment_vectors_recover_the_monomial_span():
    rng = np.random.default_rng(3)
    for K, r in ((4, 1), (4, 3), (4, 4), (7, 2), (7, 7)):
        moments = np.concatenate([np.ones((r, 1)), rng.uniform(-1, 1, (r, K - 1))], axis=1)
        moments *= rng.uniform(0.5, 2.0, (r, 1))
        got = _moment_vectors(monomial_basis(moments, rng), K)
        want = moments / moments[:, :1]
        assert got.shape == want.shape
        # the same vectors up to order
        assert np.abs(got[np.argsort(got[:, 1])] - want[np.argsort(want[:, 1])]).max() <= 1e-10


def test_moment_vectors_refuse_what_they_cannot_separate():
    rng = np.random.default_rng(4)
    moments = rng.uniform(-1, 1, (5, 4))
    with pytest.raises(UnsupportedError, match="exceeds"):
        _moment_vectors(monomial_basis(moments, rng), 4)
    dependent = moments[:3].copy()
    dependent[2] = dependent[0] + dependent[1]
    with pytest.raises(UnsupportedError, match="independent"):
        _moment_vectors(monomial_basis(dependent, rng), 4)
    at_infinity = moments[:2].copy()
    at_infinity[1, 0] = 0.0
    with pytest.raises(UnsupportedError, match="m_0"):
        _moment_vectors(monomial_basis(at_infinity, rng), 4)


def test_two_block_census_does_not_depend_on_the_basis():
    # the 8 chi_H of C[D5] in six bases of its two 2x2 blocks
    rng = np.random.default_rng(1)
    bases = [dihedral5_dual(), dihedral5_dual(diagonal=True)]
    bases += [dihedral5_dual(unitaries=(random_unitary(rng), random_unitary(rng))) for _ in range(4)]
    for dual in bases:
        found = dual.find_group_like_projections()
        chis = [chi_subgroup(dual, H) for H in subgroups(dual.realization.group)]
        assert len(found) == len(chis) == 8
        for q in chis:
            assert min((p - q).norm_inf() for p in found) < 1e-8


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


def test_census_leaves_scipy_unloaded():
    tests = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(qergodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from qergodic.catalog import function_algebra, kac_paljutkin; "
            "from qergodic.groups import cyclic_group, symmetric_group; "
            "from test_hopf import dihedral5_dual; "
            "print(*(len(qg.find_group_like_projections()) for qg in (function_algebra("
            "symmetric_group(3)), function_algebra(cyclic_group(64)), kac_paljutkin(), "
            "dihedral5_dual(diagonal=True))), any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["6", "7", "8", "8", "False"]


def test_group_like_consequences(dual_s3, s3):
    for H in subgroups(s3):
        chi = chi_subgroup(dual_s3, H)
        assert abs(dual_s3.counit(chi) - 1.0) < 1e-10
        moved = dual_s3.structure.from_coords(dual_s3.antipode @ chi.coords()) - chi
        assert moved.norm_inf() < 1e-10
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
    matrix = f_c4.comul_kron.copy()
    matrix[3, 2] += 1e-3
    with pytest.raises(StructuralError, match=r"^invariance system has a 0-dimensional solution "
                       r"space; the structure maps do not define a quantum group$"):
        FiniteQuantumGroup(f_c4.structure, matrix, f_c4.counit, f_c4.antipode)


def test_structure_maps_of_the_wrong_shape_are_refused_by_name(kp):
    with pytest.raises(StructuralError,
                       match=r"^comultiplication has shape \(8, 64\), expected \(64, 8\)$"):
        FiniteQuantumGroup(kp.structure, kp.comul_kron.T, kp.counit, kp.antipode)
    with pytest.raises(StructuralError, match=r"^antipode has shape \(4, 8\), expected \(8, 8\)$"):
        FiniteQuantumGroup(kp.structure, kp.comul_kron, kp.counit, kp.antipode[:4])


def test_structure_maps_are_read_only_copies(kp):
    comul, antipode = kp.comul_kron.copy(), kp.antipode.copy()
    qg = FiniteQuantumGroup(kp.structure, comul, kp.counit, antipode)
    comul[:] = antipode[:] = 0
    for held, want in ((qg.comul_kron, kp.comul_kron), (qg.antipode, kp.antipode)):
        assert not held.flags.writeable and held.flags.c_contiguous
        assert held.dtype == complex and np.array_equal(held, want)


def _held(obj):
    """The attributes of ``obj``, or the items of a tuple or list."""
    if isinstance(obj, (tuple, list)):
        return list(obj)
    names = list(getattr(obj, "__dict__", ()))
    names += [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
    return [getattr(obj, n) for n in names if hasattr(obj, n)]


@pytest.mark.parametrize("build", [
    lambda: function_algebra(cyclic_group(32)),
    lambda: group_algebra(cyclic_group(16)),
    kac_paljutkin,
], ids=["F(C32)", "C[C16]", "KP"])
def test_an_entry_holds_its_comultiplication_once(build):
    # the arrays of at least D^3 entries held by the entry or one level down: Delta alone
    qg = build()
    held = [a for top in _held(qg) for a in [top] + _held(top)]
    big = {id(a) for a in held if isinstance(a, np.ndarray) and a.size >= qg.dim ** 3}
    assert big == {id(qg.comul_kron)}
