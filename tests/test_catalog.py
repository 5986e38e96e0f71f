import re

import numpy as np
import pytest

from qergodic.blocks import is_positive, is_projection
from qergodic.catalog import (
    bloch_vector,
    chi_subgroup,
    classical_state,
    dual_state_from_values,
    dual_subgroup_state,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    kp_pure_state,
    state_from_positive_definite,
)
from qergodic.groups import (
    cyclic_group,
    is_normal,
    s3_standard_integral,
    subgroups,
    symmetric_group,
)
from qergodic.walks import convolve, counit_state, haar_state, total_variation

from conftest import perm_rep_matrices, projection_defects

RNG = np.random.default_rng(31)


def test_function_algebra_c2_comultiplication(f_c2):
    # Delta(delta_1) = delta_0 (x) delta_1 + delta_1 (x) delta_0
    d1 = f_c2.structure.basis_element(1)
    w = f_c2.delta_kron(d1)
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(w - expected).max() < 1e-14


@pytest.mark.parametrize("n", [3, 4])
def test_function_algebra_comultiplication_against_loop(n):
    from qergodic.groups import dihedral_group

    group = dihedral_group(n)
    fg = function_algebra(group)
    for s in range(group.order):
        expected = np.zeros((group.order, group.order))
        for t in range(group.order):
            expected[group.mul(s, group.inv(t)), t] = 1.0  # delta^(s t^-1) (x) delta^t
        assert np.array_equal(fg.delta_kron(fg.structure.basis_element(s)), expected)
        antipode = fg.antipode @ fg.structure.basis_element(s).coords()
        assert np.array_equal(antipode, np.eye(group.order)[group.inv(s)])


def test_function_algebra_antipode_and_counit(f_s3, s3):
    for g in range(6):
        d = f_s3.structure.basis_element(g)
        assert np.array_equal(f_s3.antipode @ d.coords(), np.eye(6)[s3.inv(g)])
        assert f_s3.counit(d) == (1.0 if g == s3.identity else 0.0)


def test_group_algebra_c2_blocks():
    dual = group_algebra(cyclic_group(2))
    assert dual.structure.dims == (1, 1)
    real = dual.realization
    assert np.allclose(real.basis[:, 1], [1.0, -1.0])


def test_group_algebra_s3_blocks_and_multiplicativity(dual_s3, s3):
    assert dual_s3.structure.dims == (1, 1, 2)
    real = dual_s3.realization
    st = dual_s3.structure
    for g in range(6):
        for h in range(6):
            prod = st.from_coords(real.basis[:, g]) * st.from_coords(real.basis[:, h])
            target = st.from_coords(real.basis[:, s3.mul(g, h)])
            assert (prod - target).norm_inf() < 1e-12


def test_group_algebra_comultiplication_is_diagonal(dual_s3):
    real = dual_s3.realization
    split = dual_s3.split
    for g in range(6):
        d = dual_s3.structure.from_coords(real.basis[:, g])
        defect = dual_s3.delta_kron(d) - np.outer(d.coords(), d.coords())
        assert split.from_kron_coords(defect.ravel()).norm_inf() < 1e-12


def test_group_algebra_requires_complete_irreps(s3):
    from qergodic.groups import s3_irreps, IrrepTable

    table = s3_irreps(s3)
    partial = IrrepTable.__new__(IrrepTable)
    partial.group = s3
    partial.irreps = table.irreps[:2]
    with pytest.raises(Exception):
        group_algebra(s3, partial)


def test_chi_identity_is_unit(dual_s3):
    chi = chi_subgroup(dual_s3, [0])
    assert (chi - dual_s3.unit).norm_inf() < 1e-12


def test_chi_central_iff_normal(dual_s3, s3):
    basis = dual_s3.structure.basis()
    for H in subgroups(s3):
        chi = chi_subgroup(dual_s3, H)
        central = all((chi * b - b * chi).norm_inf() < 1e-9 for b in basis)
        assert central == is_normal(s3, H)


def test_chi_rejects_non_subgroup(dual_s3, s3):
    with pytest.raises(ValueError):
        chi_subgroup(dual_s3, [0, s3.index_of("(123)")])


@pytest.mark.parametrize("elems, message", [
    ([0, -3], "element index -3 is outside 0..5"),  # -3 wrapped to 3, giving chi of {e, (23)}
    ([0, 99], "element index 99 is outside 0..5"),
    ([0, 1.0], "element index 1.0 is not an integer"),
    # numpy read a boolean as a mask: [0, True] and [False] ended in a ShapeError
    ([0, True], "element index True is a boolean, not an integer"),
    ([False], "element index False is a boolean, not an integer"),
    ([0, np.True_], "element index np.True_ is a boolean, not an integer"),
])
def test_chi_refuses_an_element_index_outside_the_group(dual_s3, elems, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        chi_subgroup(dual_s3, elems)


def test_chi_rejects_a_repeated_element(dual_s3):
    # [0, 0, 1] gave the coordinates (1, 1/3, 1/3, 0, 0, 1), which are not a projection
    with pytest.raises(ValueError, match="^the subgroup lists element 'e' more than once$"):
        chi_subgroup(dual_s3, [0, 0, 1])
    # the smallest repeated element is named
    with pytest.raises(ValueError, match=r"^the subgroup lists element '\(123\)' more than once$"):
        chi_subgroup(dual_s3, [5, 4, 0, 5, 4])


def test_permutation_rep_state_values(perm_state, dual_s3, s3):
    values = dual_s3.realization.u_values(perm_state)
    expected = {"e": 1.0, "(12)": -1.0, "(13)": 0.5, "(23)": 0.5,
                "(123)": -0.5, "(132)": -0.5}
    for name, val in expected.items():
        assert abs(values[s3.index_of(name)] - val) < 1e-12
    assert is_positive(perm_state.density)


def test_twodim_quoted_coefficients(twodim_state, dual_s3, s3):
    values = dual_s3.realization.u_values(twodim_state)
    r2 = np.sqrt(2)
    expected = {"e": 1.0, "(12)": (r2 + 1) / 3, "(23)": (r2 - 1) / 3,
                "(13)": -2 * r2 / 3, "(123)": -2 / 3, "(132)": -1 / 3}
    for name, val in expected.items():
        assert abs(values[s3.index_of(name)] - val) < 1e-12


def test_twodim_quoted_values_are_not_positive_definite(dual_s3, s3):
    # the quoted coefficient set is not Hermitian-symmetric (u((123)) != conj u((132)))
    # so the density it defines is not positive; building it checked must fail
    xi = np.array([1.0, np.sqrt(2)]) / np.sqrt(3)
    values = np.array([xi @ m @ xi for m in s3_standard_integral(s3)])
    with pytest.raises(ValueError):
        dual_state_from_values(dual_s3, values, check=True)


def test_trivial_rep_gives_all_ones_state(dual_s3, s3):
    mats = [np.eye(1) for _ in range(6)]
    u = state_from_positive_definite(dual_s3, mats, [1.0])
    values = dual_s3.realization.u_values(u)
    assert np.abs(values - 1.0).max() < 1e-12
    # u == 1 is the idempotent state supported on chi_G
    from qergodic.walks import support_projection

    chi_g = chi_subgroup(dual_s3, list(range(6)))
    assert (support_projection(u) - chi_g).norm_inf() < 1e-8


def test_positive_definite_validation(dual_s3, s3):
    mats = perm_rep_matrices(s3)
    with pytest.raises(ValueError):
        state_from_positive_definite(dual_s3, mats, [1.0, 1.0, 0.0])  # not unit
    bad = [m.copy() for m in mats]
    bad[3] = np.eye(3) * 2.0
    with pytest.raises(ValueError):
        state_from_positive_definite(dual_s3, bad, [1.0, 0.0, 0.0])
    bad[0] = np.eye(3) * 2.0
    with pytest.raises(ValueError, match="rho is not unitary"):
        state_from_positive_definite(dual_s3, bad, [1.0, 0.0, 0.0])
    # unitary, but two elements trade matrices
    swapped = [mats[i] for i in (0, 1, 2, 3, 5, 4)]
    with pytest.raises(ValueError, match="rho is not a homomorphism"):
        state_from_positive_definite(dual_s3, swapped, [1.0, 0.0, 0.0])


def test_classical_point_identity_is_counit(f_s3):
    nu = classical_state(f_s3, ("point", "e"))
    eps = counit_state(f_s3)
    assert total_variation(nu, eps) < 1e-12
    other = classical_state(f_s3, ("point", "(123)"))
    assert total_variation(convolve(eps, other), other) < 1e-12
    assert total_variation(convolve(other, eps), other) < 1e-12


def test_classical_uniform_is_haar(f_s3):
    nu = classical_state(f_s3, ("uniform", list(range(6))))
    assert total_variation(nu, haar_state(f_s3)) < 1e-12


def test_classical_transposition_density(f_s3, s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"]))
    coords = nu.density.coords().real
    for name in ("(12)", "(13)", "(23)"):
        assert abs(coords[s3.index_of(name)] - 2.0) < 1e-12
    assert abs(coords[s3.identity]) < 1e-12


def test_classical_weights_validation(f_s3):
    with pytest.raises(ValueError):
        classical_state(f_s3, ("weights", {"e": 0.5, "(12)": 0.4}))
    with pytest.raises(ValueError):
        classical_state(f_s3, ("weights", {"e": 1.5, "(12)": -0.5}))
    with pytest.raises(ValueError, match="weight of 'e' is not a number"):
        classical_state(f_s3, ("weights", {"e": None}))


@pytest.mark.parametrize("spec, message", [
    # numpy read True as a mask and set every weight; [False, True] ended in an IndexError
    (("point", True), "element index True is a boolean, not an element"),
    (("uniform", [False, True]), "element index False is a boolean, not an element"),
    (("point", np.True_), "element index np.True_ is a boolean, not an element"),
    (("weights", {True: 1.0}), "element index True is a boolean, not an element"),
    # float() read them as numbers
    (("weights", {0: True}), "weight of 0 is not a number: True"),
    (("weights", {0: "0.5", 1: "0.5"}), "weight of 0 is not a number: '0.5'"),
    (("weights", {"e": 0.5, "(12)": b"0.5"}), r"weight of '\(12\)' is not a number: b'0.5'"),
], ids=["point_true", "uniform_bools", "point_numpy_bool", "weight_key_true", "weight_true",
        "weight_text", "weight_bytes"])
def test_classical_state_refuses_booleans_and_strings(f_s3, spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        classical_state(f_s3, spec)


@pytest.mark.parametrize("spec", [("point", 6), ("point", -1), ("uniform", [0, 6]),
                                  ("weights", {-1: 1.0})])
def test_classical_index_out_of_range(f_s3, spec):
    with pytest.raises(ValueError, match=r"element index -?\d+ is outside 0\.\.5"):
        classical_state(f_s3, spec)


@pytest.mark.parametrize("payload, name", [([1, 1, 3], "(12)"), (["(13)", 0, 2], "(13)")],
                         ids=["index_twice", "name_and_index"])
def test_uniform_state_refuses_a_repeated_element(f_s3, payload, name):
    # a repeat was weighted 1/len(list) but counted once, so the density did not sum to one
    with pytest.raises(ValueError, match=rf"uniform state lists element '{re.escape(name)}' twice"):
        classical_state(f_s3, ("uniform", payload))


def test_function_algebra_lets_irreps_faults_through(monkeypatch):
    # only "no bundled table" means no irreducibles; any other fault propagates
    import qergodic.catalog

    assert function_algebra(symmetric_group(4)).realization.irreps is None

    def broken(group):
        raise RuntimeError("irreps_for failed")

    monkeypatch.setattr(qergodic.catalog, "irreps_for", broken)
    with pytest.raises(RuntimeError, match="irreps_for failed"):
        function_algebra(cyclic_group(4))


# -- Kac-Paljutkin ------------------------------------------------------------------


def test_kp_block_dims(kp):
    assert kp.structure.dims == (1, 1, 1, 1, 2)


def test_kp_axioms(kp):
    assert kp.verify_axioms().passed(1e-9)


def test_kp_block_relations(kp):
    """Delta(A1) in A1(x)A1 + B(x)B and Delta(B) in A1(x)B + B(x)A1."""
    D = kp.dim
    a1 = list(range(4))  # kron indices of the four one-dimensional factors
    b = list(range(4, 8))
    worst_a = worst_b = 0.0
    for f in range(D):
        W = kp.delta_kron(kp.structure.basis_element(f))
        legal_a = np.zeros((D, D))
        legal_a[np.ix_(a1, a1)] = 1.0
        legal_a[np.ix_(b, b)] = 1.0
        legal_b = np.zeros((D, D))
        legal_b[np.ix_(a1, b)] = 1.0
        legal_b[np.ix_(b, a1)] = 1.0
        if f < 4:
            worst_a = max(worst_a, np.abs(W * (1 - legal_a)).max())
        else:
            worst_b = max(worst_b, np.abs(W * (1 - legal_b)).max())
    assert worst_a < 1e-10 and worst_b < 1e-10


def test_kp_group_like_census(kp):
    found = kp.find_group_like_projections()
    assert len(found) == 8
    from qergodic.ergodicity import quasi_subgroup_is_subgroup

    central = [quasi_subgroup_is_subgroup(kp, p) for p in found]
    assert central.count(False) >= 2
    trivial = 0
    for p in found:
        if (p - kp.unit).norm_inf() < 1e-8 or (p - kp.haar_element).norm_inf() < 1e-8:
            trivial += 1
    assert trivial == 2  # six of the eight are non-trivial


def test_kp_pure_states_are_states(kp):
    for block in range(4):
        nu = kp_pure_state(kp, block)
        assert abs(nu.expect(kp.unit) - 1.0) < 1e-12
    xi = np.array([0.6, 0.8j])
    nu = kp_pure_state(kp, 4, xi)
    assert is_positive(nu.density)
    # pure state support is a minimal projection in the M2 block
    from qergodic.walks import support_projection

    p = support_projection(nu)
    assert is_projection(p)
    assert abs(np.trace(p.blocks[4]).real - 1.0) < 1e-8


def test_kp_pure_state_coordinates_are_the_scalar_products(kp):
    xi = bloch_vector(0.8, 1.1)
    coeffs = kp_pure_state(kp, 4, xi).functional.coeffs
    loop = [xi[c] * np.conj(xi[r]) for r in range(2) for c in range(2)]  # <E_rc xi, xi>
    assert coeffs[4:].tobytes() == np.array(loop).tobytes()
    assert not coeffs[:4].any()


@pytest.mark.parametrize("block", [-2, -1, 5])
def test_kp_pure_state_refuses_a_block_outside_the_algebra(kp, block):
    # -2 gave the pure state on E11 of the 2x2 block; -1 and 5 raised an IndexError
    with pytest.raises(ValueError, match=rf"^block {block} is outside 0\.\.4$"):
        kp_pure_state(kp, block, bloch_vector(0.8, 1.1))


@pytest.mark.parametrize("block, message", [
    # True was taken as block 1, labelled "pure block True"; 1.0 raised a raw TypeError
    (True, "block True is a boolean, not an integer"),
    (np.False_, "block np.False_ is a boolean, not an integer"),
    (1.0, "block 1.0 is not an integer"),
    ("4", "block '4' is not an integer"),
])
def test_kp_pure_state_refuses_a_block_that_is_not_an_integer(kp, block, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kp_pure_state(kp, block)


def test_dual_subgroup_state_density(dual_s3, s3):
    st = dual_subgroup_state(dual_s3, [0, s3.index_of("(12)")])
    chi = chi_subgroup(dual_s3, [0, s3.index_of("(12)")])
    expected = chi * (1.0 / dual_s3.haar(chi).real)
    assert (st.density - expected).norm_inf() < 1e-12


def test_half_difference_of_deltas_is_projection(dual_s3, s3):
    # (delta^e - delta^(12)) / 2 in C[S3]: the second cyclic projection
    real = dual_s3.realization
    p = dual_s3.structure.from_coords(
        0.5 * (real.basis[:, 0] - real.basis[:, s3.index_of("(12)")])
    )
    assert max(projection_defects(p)) <= 1e-12
    chi = chi_subgroup(dual_s3, [0, s3.index_of("(12)")])
    assert (p - (dual_s3.unit - chi)).norm_inf() < 1e-12


def test_faithful_density_has_positive_spectrum(kp):
    from qergodic.blocks import spectral_decomposition
    from qergodic.walks import random_state

    nu = random_state(kp, RNG, ridge=0.1)
    parts = spectral_decomposition(nu.density)
    assert min(lam for lam, _ in parts) > 0


def test_f_c2_one_norm_of_sign_vector(f_c2):
    from qergodic.blocks import p_norm

    a = f_c2.structure.from_coords(np.array([1.0, -1.0]))
    assert abs(p_norm(a, f_c2.haar, 1) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_constructors_refuse_non_finite_input(bad, f_c2, dual_s3, s3, kp):
    # refused by name before any norm, SVD or eigendecomposition sees the value
    mats = perm_rep_matrices(s3)
    broken_mats = np.array(mats, dtype=complex)
    broken_mats[1, 0, 0] = bad
    cases = [
        ("xi", lambda: state_from_positive_definite(dual_s3, mats, [bad, 0, 0])),
        ("rho", lambda: state_from_positive_definite(dual_s3, broken_mats, [1, 0, 0])),
        ("values", lambda: dual_state_from_values(dual_s3, [1.0] + [bad] * 5)),
        ("values", lambda: dual_state_from_values(dual_s3, [bad] * 6, check=False)),
        ("xi", lambda: kp_pure_state(kp, 4, [bad, 0.0])),
        ("xi", lambda: kp_pure_state(kp, 4, [1.0, 1j * bad])),
        ("weights", lambda: classical_state(f_c2, ("weights", {0: 1.0, 1: bad}))),
    ]
    for name, build in cases:
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            build()
