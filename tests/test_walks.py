import itertools
import re

import numpy as np
import pytest

from qergodic import walks
from qergodic.blocks import (
    DomainError,
    norms_inf,
    products,
    random_element,
    random_positive,
    spectral_decomposition,
)
from qergodic.catalog import (
    chi_subgroup,
    classical_state,
    dual_state_from_values,
    dual_subgroup_state,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    kp_pure_state,
)
from qergodic.ergodicity import classify
from qergodic.groups import cyclic_group, dihedral_group, symmetric_group
from qergodic.hopf import FiniteQuantumGroup
from qergodic.tolerances import PERIPHERAL_TOL, PROJECTION_EQ_TOL, ROOT_OF_UNITY_TOL
from qergodic.walks import (
    NumericError,
    WalkState,
    _cesaro_spectral,
    cesaro_limit,
    check_states,
    convolution_coeffs,
    convolution_power,
    convolve,
    counit_state,
    distances_to_random,
    eigenvalues,
    functionals_from_densities,
    haar_state,
    random_state,
    settled_power,
    spectrum_peripheral,
    stochastic_operator,
    support_projection,
    support_projections,
    total_variation,
)

from classical_oracle import convolve_weights
from conftest import projection_defects

RNG = np.random.default_rng(2024)


def test_density_functional_roundtrip(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        for _ in range(10):
            nu = random_state(entry, RNG)
            back = WalkState.from_functional_coeffs(entry, nu.functional.coeffs)
            assert (back.density - nu.density).norm_inf() < 1e-12
            again = WalkState.from_density(entry, nu.density)
            assert np.abs(again.functional.coeffs - nu.functional.coeffs).max() < 1e-12


def test_unit_density_is_haar(f_s3):
    nu = WalkState.from_density(f_s3, f_s3.unit)
    assert total_variation(nu, haar_state(f_s3)) < 1e-12


def test_eta_density_is_counit(kp):
    eta = kp.haar_element
    nu = WalkState.from_density(kp, eta * (1.0 / kp.haar(eta).real))
    eps = counit_state(kp)
    assert np.abs(nu.functional.coeffs - eps.functional.coeffs).max() < 1e-12


def test_random_density_gives_state(kp):
    for _ in range(20):
        nu = random_state(kp, RNG)
        a = random_element(kp.structure, RNG)
        val = nu.expect(a.adjoint() * a)
        assert val.real > -1e-10 and abs(val.imag) < 1e-10


def test_invalid_density_rejected(f_s3):
    with pytest.raises(DomainError):
        WalkState.from_density(f_s3, -1 * f_s3.unit)
    with pytest.raises(DomainError):
        WalkState.from_density(f_s3, 2 * f_s3.unit)


def test_a_state_takes_one_of_density_and_functional(f_c4):
    # the two faces are not checked against each other, so a state takes only one
    for faces in ({"density": f_c4.unit, "functional": f_c4.counit}, {}):
        with pytest.raises(ValueError, match="^provide one of a density and a functional$"):
            WalkState(f_c4, **faces)


@pytest.mark.parametrize("k, value", [(5, np.nan), (0, np.inf), (7, complex(0, -np.inf))])
def test_non_finite_states_are_refused_by_name(kp, k, value):
    # the 2x2 block of the Haar density holds coordinates 4-7; 0 is the first 1x1 block
    density = kp.unit.coords().copy()
    density[k] = value
    coeffs = kp.haar.coeffs.copy()
    coeffs[k] = value
    for check in (True, False):  # a formal state skips positivity, not finiteness
        with pytest.raises(DomainError, match=f"density coordinate {k} is not finite"):
            WalkState.from_density(kp, kp.structure.from_coords(density), check=check)
        with pytest.raises(DomainError, match=f"functional coefficient {k} is not finite"):
            WalkState.from_functional_coeffs(kp, coeffs, check=check)
    stack = np.stack([kp.unit.coords(), density])
    with pytest.raises(DomainError, match=f"density coordinate {k} of row 1 is not finite"):
        check_states(kp, stack, np.stack([kp.haar.coeffs, coeffs]))


def test_state_checks_and_supports_of_a_stack_match_row_by_row(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        states = [random_state(entry, RNG) for _ in range(4)] + [haar_state(entry)]
        densities = np.stack([nu.density.coords() for nu in states])
        functionals = np.stack([nu.functional.coeffs for nu in states])
        assert np.array_equal(functionals_from_densities(entry, densities), functionals)
        supports = support_projections(entry, densities, functionals)
        for nu, p in zip(states, supports):
            assert np.array_equal(p, support_projection(nu).coords())
        pairs = convolution_coeffs(entry, functionals, functionals[::-1])
        for nu, mu, row in zip(states, states[::-1], pairs):
            assert np.abs(row - convolve(nu, mu).functional.coeffs).max() <= 1e-12
        with pytest.raises(DomainError, match="not positive"):
            check_states(entry, -densities, -functionals)


def test_convolution_identity_and_invariance(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        eps = counit_state(entry)
        pi = haar_state(entry)
        for _ in range(5):
            nu = random_state(entry, RNG)
            assert total_variation(convolve(eps, nu), nu) < 1e-10
            assert total_variation(convolve(nu, eps), nu) < 1e-10
            assert total_variation(convolve(pi, nu), pi) < 1e-10
            assert total_variation(convolve(nu, pi), pi) < 1e-10


def test_classical_c2_group_law(f_c2):
    p1 = classical_state(f_c2, ("point", 1))
    p0 = classical_state(f_c2, ("point", 0))
    assert total_variation(convolve(p1, p1), p0) < 1e-12


def test_van_daele_identity(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        for _ in range(20):
            nu = random_state(entry, RNG)
            mu = random_state(entry, RNG)
            out = convolve(nu, mu)
            boxed = entry.box_convolve(nu.density, mu.density)
            assert (out.density - boxed).norm_inf() < 1e-10


def test_convolution_power_basics(f_s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(123)"]))
    assert total_variation(convolution_power(nu, 1), nu) == 0
    assert total_variation(convolution_power(nu, 0), counit_state(f_s3)) < 1e-12
    two = convolution_power(nu, 2)
    assert total_variation(two, convolve(nu, nu)) < 1e-10


@pytest.mark.parametrize("k, message", [
    # True was read as 1 and returned nu itself; 2.0 met numpy's bare exponent error
    (True, "k True is a boolean, not an integer"),
    (np.False_, "k np.False_ is a boolean, not an integer"),
    (2.0, "k 2.0 is not an integer"),
    ("2", "k '2' is not an integer"),
])
def test_convolution_power_refuses_a_k_that_is_not_an_integer(f_s3, k, message):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(123)"]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convolution_power(nu, k)


def test_convolution_power_takes_numpy_integers(f_s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(123)"]))
    assert np.array_equal(convolution_power(nu, np.int64(3)).functional.coeffs,
                          convolution_power(nu, 3).functional.coeffs)


def test_convolution_power_matches_classical_oracle(f_s3, s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"]))
    w = np.zeros(6)
    for name in ("(12)", "(13)", "(23)"):
        w[s3.index_of(name)] = 1.0 / 3
    wk = w
    for k in (2, 3, 4):
        wk = convolve_weights(s3, w, wk)
        got = convolution_power(nu, k).density.coords().real / 6
        assert np.abs(got - wk).max() < 1e-10
    # k = 2 is uniform on A3
    two = convolution_power(nu, 2).density.coords().real
    a3 = [0, s3.index_of("(123)"), s3.index_of("(132)")]
    expected = np.zeros(6)
    expected[a3] = 2.0
    assert np.abs(two - expected).max() < 1e-10


def test_dual_powers_are_pointwise(dual_s3, perm_state):
    values = dual_s3.realization.u_values(perm_state)
    for k in (2, 3, 5, 8):
        got = dual_s3.realization.u_values(convolution_power(perm_state, k))
        assert np.abs(got - values ** k).max() < 1e-10
    two = dual_s3.realization.u_values(convolution_power(perm_state, 2))
    assert np.abs(two - np.array([1, 1, 0.25, 0.25, 0.25, 0.25])).max() < 1e-10


# -- stochastic operator -----------------------------------------------------------


def _apply(T, x):
    """T(x) for an algebra element x."""
    return x.structure.from_coords(T @ x.coords())


def test_T_of_counit_is_identity(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        T = stochastic_operator(counit_state(entry))
        assert np.abs(T - np.eye(entry.dim)).max() < 1e-10


def test_T_is_a_read_only_matrix(kp):
    T = stochastic_operator(random_state(kp, np.random.default_rng(23)))
    assert type(T) is np.ndarray and T.shape == (kp.dim, kp.dim) and T.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        T[0, 0] = 0


def test_eigenvalues_sort_by_modulus_then_argument():
    T = np.diag(np.array([1j, -1, 0.5, 1, -0.5j]))
    assert np.allclose(eigenvalues(T), [-0.5j, 0.5, 1, 1j, -1], rtol=0, atol=1e-15)


def test_T_diagonal_on_dual(dual_s3, perm_state):
    real = dual_s3.realization
    values = real.u_values(perm_state)
    T = stochastic_operator(perm_state)
    for g in range(6):
        d = dual_s3.structure.from_coords(real.basis[:, g])
        assert (_apply(T, d) - values[g] * d).norm_inf() < 1e-10


def test_T_classical_coordinates(f_s3, s3):
    # coefficient of delta_i in T(delta_j) is nu({s_j s_i^-1})
    nu = classical_state(f_s3, ("weights", {"e": 0.1, "(12)": 0.5, "(123)": 0.4}))
    w = nu.density.coords().real / 6
    T = stochastic_operator(nu)
    for i in range(6):
        for j in range(6):
            assert abs(T[i, j].real - w[s3.mul(j, s3.inv(i))]) < 1e-12


def test_T_properties_i_to_viii(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        nu = random_state(entry, RNG)
        mu = random_state(entry, RNG)
        T = stochastic_operator(nu)
        # i. mu T = nu * mu
        pulled = T.T @ mu.functional.coeffs
        assert np.abs(pulled - convolve(nu, mu).functional.coeffs).max() < 1e-10
        # ii. T^k = T_{nu^(*k)}
        T3 = np.linalg.matrix_power(T, 3)
        assert np.abs(T3 - stochastic_operator(convolution_power(nu, 3))).max() < 1e-10
        # iii. eps T^k = nu^(*k), k <= 20
        eps = counit_state(entry).functional.coeffs
        acc = np.eye(entry.dim)
        for k in range(1, 21):
            acc = acc @ T
            assert np.abs(acc.T @ eps -
                          convolution_power(nu, k).functional.coeffs).max() < 1e-9
        # iv. unital and positive
        assert (_apply(T, entry.unit) - entry.unit).norm_inf() < 1e-10
        for _ in range(5):
            sq = random_positive(entry.structure, RNG)
            vals = np.concatenate([
                np.linalg.eigvalsh((b + b.conj().T) / 2) for b in _apply(T, sq).blocks
            ])
            assert vals.min() > -1e-9
        # vi. haar o T = haar
        pulled = T.T @ entry.haar.coeffs
        assert np.abs(pulled - entry.haar.coeffs).max() < 1e-10
        # vii. T(g) = S(f_nu) (*) g
        sf = entry.structure.from_coords(entry.antipode @ nu.density.coords())
        for _ in range(5):
            g = random_element(entry.structure, RNG)
            assert (_apply(T, g) - entry.box_convolve(sf, g)).norm_inf() < 1e-10
        # viii. ||T|| = 1, estimated on the positive cone
        best = (_apply(T, entry.unit)).norm_inf() / entry.unit.norm_inf()
        for _ in range(20):
            a = random_positive(entry.structure, RNG)
            best = max(best, _apply(T, a).norm_inf() / a.norm_inf())
        assert abs(best - 1.0) < 1e-8


def test_T_complete_positivity(kp, dual_s3):
    for entry in (kp, dual_s3):
        T = stochastic_operator(random_state(entry, RNG))
        for m in (2, 3):
            X = [[random_element(entry.structure, RNG) for _ in range(m)] for _ in range(m)]
            F = [[None] * m for _ in range(m)]
            for r in range(m):
                for c in range(m):
                    acc = entry.structure.zero()
                    for k in range(m):
                        acc = acc + X[k][r].adjoint() * X[k][c]
                    F[r][c] = acc
            TF = [[_apply(T, F[r][c]) for c in range(m)] for r in range(m)]
            for i, n in enumerate(entry.structure.dims):
                big = np.zeros((m * n, m * n), dtype=complex)
                for r in range(m):
                    for c in range(m):
                        big[r * n:(r + 1) * n, c * n:(c + 1) * n] = TF[r][c].blocks[i]
                assert np.linalg.eigvalsh((big + big.conj().T) / 2).min() > -1e-9


# -- distances ----------------------------------------------------------------------


def test_tv_of_state_with_itself(f_s3):
    nu = random_state(f_s3, RNG)
    assert total_variation(nu, nu) == 0


def test_tv_point_mass_on_c2(f_c2):
    nu = classical_state(f_c2, ("point", 1))
    assert abs(total_variation(nu, haar_state(f_c2)) - 0.5) < 1e-12


def test_tv_counit_vs_haar_s3(f_s3):
    assert abs(total_variation(counit_state(f_s3), haar_state(f_s3)) - 5.0 / 6) < 1e-12


def test_tv_sup_over_projections_oracle(f_s3, dual_s3, kp):
    # sup over projections of |nu(p) - mu(p)| is attained at the positive-part
    # spectral projection of the density difference
    from qergodic.blocks import spectral_decomposition

    for entry in (f_s3, dual_s3, kp):
        for _ in range(10):
            nu = random_state(entry, RNG)
            mu = random_state(entry, RNG)
            tv = total_variation(nu, mu)
            diff = nu.density - mu.density
            best = 0.0
            pos = entry.structure.zero()
            for lam, p in spectral_decomposition(diff):
                if lam > 0:
                    pos = pos + p
            best = abs(nu.expect(pos) - mu.expect(pos))
            assert abs(tv - best) < 1e-10
            # sampled projections never beat it
            for _ in range(10):
                h = random_element(entry.structure, RNG)
                _, p = spectral_decomposition(h + h.adjoint())[-1]
                assert abs(nu.expect(p) - mu.expect(p)) <= tv + 1e-10


def test_trace_of_haar_is_zero(f_s3):
    rows = distances_to_random(haar_state(f_s3), 5)
    for _, tv, l2, qsd in rows:
        assert tv < 1e-12 and l2 < 1e-12 and qsd < 1e-12


@pytest.mark.parametrize("kmax, message", [
    # True was read as 1 and gave one row; 2.5 met a bare "cannot be interpreted" error
    (True, "kmax True is a boolean, not an integer"),
    (2.5, "kmax 2.5 is not an integer"),
    (3.0, "kmax 3.0 is not an integer"),
])
def test_trace_refuses_a_kmax_that_is_not_an_integer(f_s3, kmax, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        distances_to_random(haar_state(f_s3), kmax)


def test_trace_takes_numpy_integers(f_s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(123)"]))
    assert distances_to_random(nu, np.int32(4)) == distances_to_random(nu, 4)


def test_binary_chain_qsd_closed_form(f_c2):
    for p in (0.2, 0.35, 0.75):
        nu = classical_state(f_c2, ("weights", {"0": p, "1": 1 - p}))
        rows = distances_to_random(nu, 12)
        for k, tv, l2, qsd in rows:
            assert abs(qsd - abs(2 * p - 1) ** k) < 1e-10


def test_twodim_l2_plancherel(dual_s3, twodim_state):
    values = dual_s3.realization.u_values(twodim_state)
    rows = distances_to_random(twodim_state, 10)
    for k, tv, l2, qsd in rows:
        expected = np.sqrt(sum(abs(values[g] ** k) ** 2 for g in range(1, 6)))
        assert abs(l2 - expected) < 1e-10


def test_monotone_distances_random_states(f_s3, kp):
    for entry in (f_s3, kp):
        for _ in range(10):
            nu = random_state(entry, RNG)
            rows = distances_to_random(nu, 30)  # raises internally on violation
            tvs = [r[1] for r in rows]
            qsds = [r[3] for r in rows]
            assert all(b <= a + 1e-10 for a, b in zip(tvs, tvs[1:]))
            assert all(b <= a + 1e-10 for a, b in zip(qsds, qsds[1:]))


# -- supports and limits ----------------------------------------------------------


def test_support_of_faithful_state(kp):
    nu = random_state(kp, RNG, ridge=0.2)
    assert (support_projection(nu) - kp.unit).norm_inf() < 1e-10


def test_support_is_the_range_projection_of_the_density(kp, dual_s3):
    # a density compressed by a spectral projection q: its support p spans f and lies under q
    for entry in (kp, dual_s3):
        q = spectral_decomposition(random_state(entry, RNG).density)[-1][1]
        f = q * random_positive(entry.structure, RNG) * q
        f = f * (1.0 / entry.haar(f).real)
        p = support_projection(WalkState.from_density(entry, f))
        assert max(projection_defects(p)) <= 1e-9
        assert (p * f - f).norm_inf() < 1e-9 and (f * p - f).norm_inf() < 1e-9
        assert (q * p - p).norm_inf() < 1e-9


def test_support_of_idempotent_is_group_like(dual_s3, s3):
    for H in [(0, 1), (0, 4, 5)]:
        phi = dual_subgroup_state(dual_s3, list(H))
        p = support_projection(phi)
        chi = chi_subgroup(dual_s3, list(H))
        assert (p - chi).norm_inf() < 1e-8
        assert dual_s3.is_group_like_projection(p)


def test_support_of_point_mass(f_s3, s3):
    nu = classical_state(f_s3, ("point", "(13)"))
    expected = np.zeros(6)
    expected[s3.index_of("(13)")] = 1.0
    assert np.abs(support_projection(nu).coords() - expected).max() < 1e-10


def test_support_null_space_cross_check(kp, dual_s3):
    # N_nu = {g : nu(g* g) = 0} must equal F(G) q with q = 1 - p_nu
    for entry in (kp, dual_s3):
        for _ in range(5):
            raw = random_state(entry, RNG)
            h = raw.density
            # compress onto a nontrivial projection to get a degenerate state
            parts = spectral_decomposition(h + h.adjoint())
            p = parts[-1][1]
            d = p * h * p
            if entry.haar(d).real < 1e-6:
                continue
            nu = WalkState.from_density(entry, d * (1.0 / entry.haar(d).real))
            pnu = support_projection(nu)
            D = entry.dim
            basis = entry.structure.basis()
            gram = np.empty((D, D), dtype=complex)
            for a in range(D):
                for b in range(D):
                    gram[a, b] = nu.expect(basis[a].adjoint() * basis[b])
            vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
            kernel = [vecs[:, i] for i in range(D) if vals[i] < 1e-10]
            # dimension count: dim F(G)q = sum_i n_i (n_i - rank p_i)
            expected_dim = sum(
                n * (n - int(round(np.trace(pnu.blocks[i]).real)))
                for i, n in enumerate(entry.structure.dims)
            )
            assert len(kernel) == expected_dim
            for v in kernel:
                g = entry.structure.from_coords(v)
                assert (g * pnu).norm_inf() < 1e-6


def test_cesaro_limit_of_ergodic_walk(f_s3):
    nu = classical_state(f_s3, ("weights", {"e": 0.3, "(12)": 0.4, "(123)": 0.3}))
    limit, support = cesaro_limit(f_s3, stochastic_operator(nu))
    assert total_variation(limit, haar_state(f_s3)) < 1e-9
    assert (support - f_s3.unit).norm_inf() < 1e-9


def test_cesaro_limit_c4_point2(f_c4):
    nu = classical_state(f_c4, ("point", 2))
    limit, support = cesaro_limit(f_c4, stochastic_operator(nu))
    expected = classical_state(f_c4, ("uniform", [0, 2]))
    assert total_variation(limit, expected) < 1e-9
    target = np.array([1.0, 0.0, 1.0, 0.0])
    assert np.abs(support.coords() - target).max() < 1e-8


def test_cesaro_limit_of_periodic_dual_walk(dual_s3, perm_state, s3):
    # the walk is irreducible, so its own Cesaro limit is the Haar state;
    # the chi projection shows up as the Cesaro support of the squared walk
    limit, support = cesaro_limit(dual_s3, stochastic_operator(perm_state))
    assert total_variation(limit, haar_state(dual_s3)) < 1e-9
    assert (support - dual_s3.unit).norm_inf() < 1e-9
    _, support2 = cesaro_limit(dual_s3, stochastic_operator(convolution_power(perm_state, 2)))
    chi = chi_subgroup(dual_s3, [0, s3.index_of("(12)")])
    assert (support2 - chi).norm_inf() < 1e-8


@pytest.mark.parametrize("n, weights, error, message", [
    (6, {2: 1 - 1e-8, 3: 1e-8}, NumericError,
     "spectral Cesaro limit of support 1 is not the Haar state: "
     "distance 1.9e-09 above the 1e-09 gate"),
    (12, {4: 0.5 - 1e-8, 8: 0.5, 3: 1e-8}, DomainError,
     "density is not normalized: the spectral Cesaro limit fails the state check"),
])
def test_spectral_cesaro_refusals_name_the_value_and_the_gate(n, weights, error, message):
    # T has an eigenvalue about KERNEL_TOL from 1; both refusals once ended at the prefix
    nu = classical_state(function_algebra(cyclic_group(n)), ("weights", weights))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        classify(nu)


@pytest.mark.parametrize("T, message", [
    (0.5 * np.eye(3), "eigenvalue 1 eigenspaces are inconsistent: kernels of T - I and "
     "T* - I have dimensions 0 and 0; the singular value nearest the 1e-08 gate is 5.0e-01"),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "eigenvalue 1 of the stochastic operator is not "
     "semisimple: Gram condition number inf above 1e+08"),
])
def test_spectral_cesaro_gates_name_the_value_and_the_gate(T, message):
    with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
        _cesaro_spectral(T)


CENSUS_ENTRIES = {
    "F(C6)": lambda: function_algebra(cyclic_group(6)),
    "F(S3)": lambda: function_algebra(symmetric_group(3)),
    "F(S4)": lambda: function_algebra(symmetric_group(4)),
    "F(D6)": lambda: function_algebra(dihedral_group(6)),
    "C[C6]": lambda: group_algebra(cyclic_group(6)),
    "C[S3]": lambda: group_algebra(symmetric_group(3)),
    "KP": kac_paljutkin,
}


@pytest.mark.parametrize("label", list(CENSUS_ENTRIES))
def test_census_is_closed_under_joins(label):
    # the Cesaro support of (phi + psi)/2, from the spectral route alone, is the
    # quasi-subgroup that phi and psi generate, each an idempotent state sigma_p of the
    # census or a point mass at a character (a 1x1 block); a census that missed it would
    # show its least projection above both as a larger one
    group = CENSUS_ENTRIES[label]()
    st = group.structure
    projections, masses, states = group.census()
    characters = np.array(st.offsets[:-1])[np.array(st.dims) == 1]
    generators = np.concatenate([states, np.eye(st.dim)[characters]])
    # carries[g, r]: projection r carries generator g: p_g <= p_r, or p_r = 1 at the character
    carries = np.concatenate([
        norms_inf(st, products(st, projections[None], projections[:, None]) - projections[:, None])
        <= PROJECTION_EQ_TOL,
        np.abs(projections[:, characters].T - 1.0) <= PROJECTION_EQ_TOL])
    for i, j in itertools.combinations_with_replacement(range(len(generators)), 2):
        nu = WalkState.from_functional_coeffs(group, 0.5 * (generators[i] + generators[j]))
        c_spec = _cesaro_spectral(stochastic_operator(nu)).T @ group.counit.coeffs
        support = support_projection(WalkState.from_functional_coeffs(group, c_spec)).coords()
        above = np.flatnonzero(carries[i] & carries[j])
        join = above[np.argmin(masses[above])]
        assert carries[join, above].all(), (label, i, j)
        assert norms_inf(st, support - projections[join]) <= PROJECTION_EQ_TOL, (label, i, j)


def _raise_squared_route(*args):
    raise AssertionError("the squared Cesaro route ran")


def test_census_entries_classify_without_the_squared_route(monkeypatch, f_s3, dual_s3, kp,
                                                           f_c4, perm_state, twodim_state):
    f_c6, dual_c6 = function_algebra(cyclic_group(6)), group_algebra(cyclic_group(6))
    rng = np.random.default_rng(31)
    nus = [
        classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"])),
        classical_state(f_s3, ("uniform", ["e", "(123)"])),
        classical_state(f_s3, ("point", "(123)")),
        classical_state(f_c4, ("point", 2)),
        classical_state(f_c4, ("point", 1)),
        classical_state(f_c6, ("weights", {1: 0.5, 3: 0.5})),
        classical_state(f_c6, ("weights", {0: 0.2, 2: 0.3, 3: 0.5})),
        dual_subgroup_state(dual_s3, [0, 1]),
        dual_subgroup_state(dual_c6, [0, 3]),
        perm_state,
        twodim_state,
        *(kp_pure_state(kp, block) for block in range(4)),
        *(random_state(entry, rng, ridge=0.2) for entry in (f_s3, dual_s3, kp, dual_c6)),
    ]
    monkeypatch.setattr(walks, "settled_power", _raise_squared_route)
    monkeypatch.setattr(walks, "idempotent_support", _raise_squared_route)
    tags = [classify(nu).tag for nu in nus]
    assert set(tags) == {"ergodic", "reducible", "periodic"}
    # C[C96] has no census, as its character group has order 96 > 64: the squared
    # route still decides its reducible walk
    monkeypatch.undo()
    calls = []
    for name in ("settled_power", "idempotent_support"):
        monkeypatch.setattr(walks, name, lambda *args, fn=getattr(walks, name), name=name:
                            calls.append(name) or fn(*args))
    omega = np.exp(2j * np.pi / 96)
    dual_c96 = group_algebra(cyclic_group(96))
    values = [0.5 * omega ** (2 * k) + 0.5 * omega ** (4 * k) for k in range(96)]
    assert classify(dual_state_from_values(dual_c96, values)).tag == "reducible"
    assert dual_c96.census() is None
    assert calls == ["settled_power", "idempotent_support"]


def test_census_is_built_once_and_not_for_support_one(monkeypatch):
    group = function_algebra(cyclic_group(6))
    built = []
    search = FiniteQuantumGroup.find_group_like_projections
    monkeypatch.setattr(FiniteQuantumGroup, "find_group_like_projections",
                        lambda self: built.append(self) or search(self))
    assert classify(classical_state(group, ("weights", {0: 0.5, 1: 0.5}))).ergodic
    assert built == []
    assert classify(classical_state(group, ("point", 2))).tag == "reducible"
    assert classify(classical_state(group, ("weights", {1: 0.5, 3: 0.5}))).tag == "periodic"
    assert built == [group]


def test_settled_power_limit_and_roundoff_refusal():
    # a non-normal matrix: eigenvalue 1 and a Jordan block at 1/2
    M = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    with np.errstate(over="raise", invalid="raise"):
        P = settled_power(M)
        assert np.abs(P - np.diag([1.0, 0.0, 0.0])).max() < 1e-12
        # rate 1 - 1e-7 needs about 2^28 steps; the roundoff floor 2^k * 2 * eps
        # passes 1e-9 after 21 squarings, so the powers are refused
        with pytest.raises(NumericError, match="roundoff floor .* passes the 1e-09 gate"):
            settled_power(np.diag([1.0, 1.0 - 1e-7]))


def test_spectrum_perm_state(perm_state):
    T = stochastic_operator(perm_state)
    ev, per = spectrum_peripheral(T)
    expected = sorted([1.0, -1.0, 0.5, 0.5, -0.5, -0.5])
    assert np.abs(np.sort(ev.real) - expected).max() < 1e-10
    assert np.abs(ev.imag).max() < 1e-10
    assert len(per) == 2
    assert sorted(np.round(per.real)) == [-1, 1]


def test_spectrum_twodim_state(twodim_state):
    T = stochastic_operator(twodim_state)
    _, per = spectrum_peripheral(T)
    assert len(per) == 1 and abs(per[0] - 1.0) < 1e-10


def test_spectrum_haar_rank_one(f_s3):
    T = stochastic_operator(haar_state(f_s3))
    ev, per = spectrum_peripheral(T)
    assert len(per) == 1
    assert np.abs(np.sort(np.abs(ev)) - np.array([0, 0, 0, 0, 0, 1.0])).max() < 1e-10


def _roots_match_greedily(peripheral):
    # the root-by-root greedy match the one comparison replaced
    d = len(peripheral)
    remaining = list(peripheral)
    for root in np.exp(2j * np.pi * np.arange(d) / d):
        j = int(np.argmin([abs(z - root) for z in remaining]))
        if abs(remaining[j] - root) > ROOT_OF_UNITY_TOL:
            return False
        remaining.pop(j)
    return True


@pytest.mark.parametrize("diagonal, cyclic", [
    ([1, 1j, -1, -1j], True),
    ([1, -1, 0.5, 0], True),
    ([1, np.exp(0.3j), 0.5, 0], False),
    ([1, -1, -1, 0], False),
])
def test_peripheral_spectrum_must_be_roots_of_unity(diagonal, cyclic):
    T = np.diag(np.array(diagonal, dtype=complex))
    ev = eigenvalues(T)
    peripheral = ev[np.abs(ev) >= 1 - PERIPHERAL_TOL]
    assert _roots_match_greedily(peripheral) == cyclic
    if cyclic:
        assert spectrum_peripheral(T)[1].tobytes() == peripheral.tobytes()
    else:
        with pytest.raises(NumericError, match="^peripheral spectrum is not a cyclic group"):
            spectrum_peripheral(T)


def test_convolution_is_associative(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        nu = random_state(entry, RNG)
        mu = random_state(entry, RNG)
        rho = random_state(entry, RNG)
        left = convolve(convolve(nu, mu), rho)
        right = convolve(nu, convolve(mu, rho))
        assert total_variation(left, right) < 1e-10
