import itertools

import numpy as np
import pytest

from qergodic.groups import (
    GroupValidationError,
    Irrep,
    IrrepTable,
    build_group,
    cyclic_group,
    cyclic_irreps,
    dihedral_group,
    group_from_cayley,
    irreps_for,
    is_normal,
    is_subgroup,
    normal_subgroups,
    permutation_matrices,
    s3_irreps,
    s3_standard_integral,
    subgroups,
    symmetric_group,
)

from qergodic.catalog import function_algebra, group_algebra

from conftest import perm_rep_matrices


def test_cyclic_basics():
    c2 = cyclic_group(2)
    assert c2.order == 2
    assert c2.inverse == [0, 1]
    c5 = cyclic_group(5)
    assert c5.inverse == [0, 4, 3, 2, 1]


def test_symmetric3_shape():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert s3.names == ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    orders = []
    for g in range(6):
        k, cur = 1, g
        while cur != 0:
            cur = s3.mul(cur, g)
            k += 1
        orders.append(k)
    assert orders.count(2) == 3 and orders.count(3) == 2


def test_symmetric_composition_convention():
    # (123) o (12) = (13) under (a b)(x) = a(b(x))
    s3 = symmetric_group(3)
    assert s3.mul(s3.index_of("(123)"), s3.index_of("(12)")) == s3.index_of("(13)")
    assert s3.mul(s3.index_of("(12)"), s3.index_of("(123)")) == s3.index_of("(23)")


def test_dihedral():
    d4 = dihedral_group(4)
    assert d4.order == 8
    # reflections square to the identity
    for i in range(4, 8):
        assert d4.mul(i, i) == 0


def test_from_cayley_rejects_non_latin():
    with pytest.raises(GroupValidationError):
        group_from_cayley([[0, 0], [1, 1]])
    with pytest.raises(GroupValidationError):
        group_from_cayley([[0, 1], [1, 1]])


def test_from_cayley_rejects_identity_not_at_zero():
    # the Latin square of C2 with element 1 as the identity
    with pytest.raises(GroupValidationError, match="element 0 does not act as the identity"):
        group_from_cayley([[1, 0], [0, 1]])


def test_from_cayley_rejects_entries_out_of_range():
    for table in ([[0, 1], [1, 2]], [[0, 1], [1, -1]]):
        with pytest.raises(GroupValidationError, match="Cayley table entries out of range"):
            group_from_cayley(table)


def test_from_cayley_rejects_non_integer_entries():
    # the entries were truncated, which made this table C2
    with pytest.raises(GroupValidationError,
                       match="^Cayley table entry 1.7 in row 0, column 1 is not an integer$"):
        group_from_cayley([[0, 1.7], [1.2, 0]])
    with pytest.raises(GroupValidationError, match="entry nan in row 1, column 0 is not"):
        group_from_cayley([[0, 1], [float("nan"), 0]])
    assert group_from_cayley([[0.0, 1.0], [1.0, 0.0]]).cayley.tolist() == [[0, 1], [1, 0]]


def test_from_cayley_rejects_nonassociative():
    # a Latin square (quasigroup) that is not a group: build from a loop of order 5
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupValidationError):
        group_from_cayley(table)


def test_from_cayley_accepts_klein():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = build_group("cayley", table=klein)
    assert g.order == 4
    assert all(g.inv(x) == x for x in range(4))


def _brute_force_subgroups(group):
    found = set()
    for r in range(1, group.order + 1):
        for subset in itertools.combinations(range(group.order), r):
            if is_subgroup(group, subset):
                found.add(subset)
    return sorted(found)


def test_subgroups_s3_against_brute_force():
    s3 = symmetric_group(3)
    subs = subgroups(s3)
    assert len(subs) == 6
    assert subs == _brute_force_subgroups(s3)
    normals = normal_subgroups(s3)
    assert len(normals) == 3
    a3 = tuple(sorted([0, s3.index_of("(123)"), s3.index_of("(132)")]))
    assert a3 in normals


def _brute_force_normal(group, elems):
    return all(group.mul(group.mul(g, h), group.inv(g)) in elems
               for g in range(group.order) for h in elems)


def _brute_force_classes(group):
    orbits = {tuple(sorted({group.mul(group.mul(h, g), group.inv(h))
                            for h in range(group.order)}))
              for g in range(group.order)}
    return sorted(list(c) for c in orbits)


@pytest.mark.parametrize("group", [dihedral_group(4), cyclic_group(8)], ids=["D4", "C8"])
def test_subgroups_normality_and_classes_against_brute_force(group):
    brute = []
    for r in range(1, group.order + 1):
        for subset in itertools.combinations(range(group.order), r):
            closed = all(group.mul(a, b) in subset for a in subset for b in subset)
            if 0 in subset and closed:
                brute.append(subset)
    assert subgroups(group) == sorted(brute)
    for subset in itertools.combinations(range(group.order), 3):
        assert is_subgroup(group, subset) == (subset in brute)
        # unsorted, with a repeat
        assert is_subgroup(group, subset[::-1] + subset[1:2]) == (subset in brute)
    assert not is_subgroup(group, [])
    normal = [h for h in brute if _brute_force_normal(group, h)]
    assert [h for h in brute if is_normal(group, h)] == normal
    assert normal_subgroups(group) == sorted(normal)
    assert sorted(group.conjugacy_classes()) == _brute_force_classes(group)


def test_subgroups_c4():
    c4 = cyclic_group(4)
    assert subgroups(c4) == [(0,), (0, 1, 2, 3), (0, 2)]


def test_subgroups_c6_and_d4_counts():
    assert len(subgroups(cyclic_group(6))) == 4
    assert len(subgroups(dihedral_group(4))) == 10


def test_is_normal():
    s3 = symmetric_group(3)
    assert is_normal(s3, [0, s3.index_of("(123)"), s3.index_of("(132)")])
    assert not is_normal(s3, [0, s3.index_of("(12)")])


def test_conjugacy_classes_s3():
    s3 = symmetric_group(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_cyclic_irreps_orthogonality():
    c6 = cyclic_group(6)
    table = cyclic_irreps(c6)
    assert table.dims == (1,) * 6


def test_cyclic_irreps_are_the_scalar_powers():
    for n in (5, 12, 48):
        c = cyclic_group(n)
        omega = np.exp(2j * np.pi / n)
        for j, r in enumerate(cyclic_irreps(c).irreps):
            assert r.matrices.shape == (n, 1, 1)
            assert all(r.matrices[g, 0, 0] == omega ** (j * g) for g in range(n))


def _c_table(n, chars):
    return IrrepTable(cyclic_group(n), [
        Irrep(f"chi{j}", 1, np.asarray(v, dtype=complex).reshape(n, 1, 1))
        for j, v in enumerate(chars)
    ])


def test_irrep_table_rejects_broken_representations():
    w = np.exp(2j * np.pi / 3)
    with pytest.raises(GroupValidationError, match="irrep chi1 is not unitary at 1"):
        _c_table(2, [[1, 1], [1, 2]])
    # unitary scalars that break the group law
    with pytest.raises(GroupValidationError, match="irrep chi1 is not a homomorphism"):
        _c_table(3, [[1, 1, 1], [1, w, w], [1, w * w, w]])
    # the first element in index order decides which law is reported
    with pytest.raises(GroupValidationError, match="irrep chi1 is not a homomorphism"):
        _c_table(3, [[1, 1, 1], [1, w, 2], [1, w * w, w]])
    with pytest.raises(GroupValidationError, match="irrep chi1 is not unitary at 1"):
        _c_table(3, [[1, 1, 1], [1, 2, w], [1, w * w, w]])
    with pytest.raises(GroupValidationError, match="character orthogonality fails"):
        _c_table(2, [[1, 1], [1, 1]])


def test_irrep_table_reports_the_first_broken_irrep_in_list_order():
    # the 1-dimensional irreps are checked in one pass and the 2-dimensional one in another;
    # the table still names the first broken irrep of its own list
    s3 = symmetric_group(3)
    trivial, sign, standard = s3_irreps(s3).irreps
    twisted = Irrep("standard", 2, standard.matrices[[0, 2, 1, 3, 4, 5]])
    stretched = Irrep("sign", 1, sign.matrices * np.array([2, 1, 1, 1, 1, 1])[:, None, None])
    with pytest.raises(GroupValidationError, match="^irrep standard is not a homomorphism$"):
        IrrepTable(s3, [trivial, twisted, stretched])
    with pytest.raises(GroupValidationError, match="^irrep sign is not unitary at 0$"):
        IrrepTable(s3, [trivial, stretched, twisted])


@pytest.mark.parametrize("build, calls", [
    (lambda: cyclic_irreps(cyclic_group(48)), 1),
    (lambda: s3_irreps(symmetric_group(3)), 2),
    (lambda: function_algebra(cyclic_group(48)), 1),
    (lambda: group_algebra(cyclic_group(32)), 1),
    (lambda: group_algebra(symmetric_group(3)), 2),
], ids=["C48", "S3", "F(C48)", "C[C32]", "C[S3]"])
def test_irrep_tables_are_checked_once_per_dimension(monkeypatch, build, calls):
    # one representation_defect call per irrep made 48 for C48 and 32 for C[C32]
    from qergodic import groups

    seen = []
    check = groups.representation_defect
    monkeypatch.setattr(groups, "representation_defect",
                        lambda *args: seen.append(1) or check(*args))
    build()
    assert len(seen) == calls


def test_permutation_matrices():
    for n in (1, 3, 4):
        group = symmetric_group(n)
        assert np.array_equal(permutation_matrices(group), perm_rep_matrices(group))


def test_s3_irreps():
    s3 = symmetric_group(3)
    table = s3_irreps(s3)
    assert table.dims == (1, 1, 2)
    std = table.irreps[2]
    # character of the standard representation: 2 at e, 0 at swaps, -1 at 3-cycles
    chi = std.character().real
    assert np.isclose(chi[0], 2) and np.isclose(chi[1], 0) and np.isclose(chi[4], -1)


def _s3_integral_by_search(group):
    """The integral standard representation generated from its images of (12) and (123)."""
    gens = {group.index_of("(12)"): np.array([[-1.0, 1.0], [0.0, 1.0]]),
            group.index_of("(123)"): np.array([[0.0, -1.0], [1.0, -1.0]])}
    mats = {group.index_of("e"): np.eye(2)}
    frontier = list(mats)
    while frontier:
        nxt = []
        for g in frontier:
            for gi, gm in gens.items():
                h = group.mul(gi, g)
                if h not in mats:
                    mats[h] = gm @ mats[g]
                    nxt.append(h)
        frontier = nxt
    return [mats[g] for g in range(group.order)]


def test_s3_standard_integral_matches_homomorphism():
    s3 = symmetric_group(3)
    mats = s3_standard_integral(s3)
    for g in range(6):
        for h in range(6):
            assert np.abs(mats[g] @ mats[h] - mats[s3.mul(g, h)]).max() < 1e-12
    assert np.abs(mats[s3.index_of("(12)")] - np.array([[-1, 1], [0, 1]])).max() < 1e-12
    assert np.abs(mats[s3.index_of("(123)")] - np.array([[0, -1], [1, -1]])).max() < 1e-12
    # the closed form is bitwise the breadth-first search over the generators, signs of zero too
    assert [m.tobytes() for m in mats] == [m.tobytes() for m in _s3_integral_by_search(s3)]


def test_irreps_for_unknown_group():
    with pytest.raises(GroupValidationError):
        irreps_for(symmetric_group(4))
