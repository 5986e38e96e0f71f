import time

import numpy as np
import pytest

from qergodic.blocks import DomainError
from qergodic.catalog import (
    bloch_vector,
    chi_subgroup,
    classical_state,
    dual_subgroup_state,
    function_algebra,
    kp_pure_state,
    state_from_positive_definite,
)
from qergodic.ergodicity import (
    baraquin_check,
    classify,
    cyclic_partition,
    freslon_check,
    is_idempotent_state,
    is_irreducible,
    quasi_subgroup_is_subgroup,
    zhang_criterion,
)
from qergodic.hopf import UnsupportedError
from qergodic.groups import cyclic_group, permutation_matrices, subgroups, symmetric_group
from qergodic.walks import (
    NumericError,
    convolution_power,
    counit_state,
    haar_state,
    random_state,
    support_projection,
    total_variation,
)

from classical_oracle import classify_weights

RNG = np.random.default_rng(55)


def test_idempotent_states(f_s3, dual_s3, s3):
    assert is_idempotent_state(haar_state(f_s3))
    assert is_idempotent_state(counit_state(f_s3))
    assert not is_idempotent_state(classical_state(f_s3, ("point", "(12)")))
    for H in subgroups(s3):
        assert is_idempotent_state(dual_subgroup_state(dual_s3, list(H)))


def test_irreducible_dual_perm_walk(perm_state):
    res = is_irreducible(perm_state)
    assert bool(res)
    assert (res.cesaro_support - perm_state.group.unit).norm_inf() < 1e-8


def test_reducible_c4_point2(f_c4):
    nu = classical_state(f_c4, ("point", 2))
    res = is_irreducible(nu)
    assert not bool(res)
    assert np.abs(res.cesaro_support.coords() - np.array([1, 0, 1, 0])).max() < 1e-8
    assert len(res.fixed_projections) >= 1


def test_faithful_states_irreducible(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        for _ in range(3):
            assert bool(is_irreducible(random_state(entry, RNG, ridge=0.2)))


def test_three_routes_on_mixed_corpus(f_s3, dual_s3, kp, s3):
    # is_irreducible raises if its three routes ever disagree
    states = [
        classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"])),
        classical_state(f_s3, ("uniform", ["e", "(123)"])),
        classical_state(f_s3, ("point", "(123)")),
        dual_subgroup_state(dual_s3, [0, 1]),
        kp_pure_state(kp, 1),
        kp_pure_state(kp, 4, bloch_vector(0.8, 1.1)),
    ]
    for nu in states:
        is_irreducible(nu)


def test_cyclic_partition_dual_perm(perm_state, dual_s3, s3):
    part = cyclic_partition(perm_state, 2)
    chi = chi_subgroup(dual_s3, [0, s3.index_of("(12)")])
    assert part.period == 2
    assert (part.projections[0] - chi).norm_inf() < 1e-8
    assert (part.projections[1] - (dual_s3.unit - chi)).norm_inf() < 1e-8
    for p in part.projections:
        assert abs(dual_s3.haar(p).real - 0.5) < 1e-8


def test_cyclic_partition_classical_parity(f_s3, s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"]))
    part = cyclic_partition(nu, 2)
    even = np.zeros(6)
    even[[0, s3.index_of("(123)"), s3.index_of("(132)")]] = 1.0
    assert np.abs(part.projections[0].coords() - even).max() < 1e-8
    assert np.abs(part.projections[1].coords() - (1 - even)).max() < 1e-8
    for p in part.projections:
        assert abs(f_s3.haar(p).real - 0.5) < 1e-8


def test_classify_twodim_ergodic(twodim_state):
    verdict = classify(twodim_state)
    assert verdict.tag == "ergodic"
    assert len(verdict.peripheral) == 1


def test_classify_perm_periodic(perm_state, dual_s3, s3):
    verdict = classify(perm_state)
    assert verdict.tag == "periodic"
    assert verdict.partition.period == 2
    chi = chi_subgroup(dual_s3, [0, s3.index_of("(12)")])
    assert (verdict.partition.projections[0] - chi).norm_inf() < 1e-8
    assert sorted(np.round(verdict.peripheral.real)) == [-1, 1]
    # nu(p_1) = 1 and the walk returns to p_1 every d steps
    p1 = verdict.partition.projections[1]
    assert abs(perm_state.expect(p1) - 1.0) < 1e-8
    for k in range(1, 11):
        mass = convolution_power(perm_state, 2 * k + 1).expect(p1)
        assert abs(mass - 1.0) < 1e-8


def test_classify_reducible_certificate(f_c4):
    nu = classical_state(f_c4, ("point", 2))
    verdict = classify(nu)
    assert verdict.tag == "reducible"
    assert abs(nu.expect(verdict.quasi_subgroup) - 1.0) < 1e-8
    assert (verdict.quasi_subgroup - f_c4.unit).norm_inf() > 1e-3


def test_classify_matches_classical_oracle_quick(f_s3, s3):
    for name, w in [
        ("transpositions", {"(12)": 1 / 3, "(13)": 1 / 3, "(23)": 1 / 3}),
        ("lazy", {"e": 0.5, "(123)": 0.5}),
        ("point", {"(12)": 1.0}),
        ("a3", {"(123)": 0.5, "(132)": 0.5}),
    ]:
        weights = np.zeros(6)
        for k, v in w.items():
            weights[s3.index_of(k)] = v
        oracle = classify_weights(s3, weights)
        verdict = classify(classical_state(f_s3, ("weights", w)))
        if oracle[0] == "ergodic":
            assert verdict.tag == "ergodic"
        elif oracle[0] == "reducible":
            assert verdict.tag == "reducible"
        else:
            assert verdict.tag == "periodic"
            assert verdict.partition.period == oracle[1]


def test_kp_pure_states_not_ergodic(kp):
    for block in range(4):
        assert classify(kp_pure_state(kp, block)).tag != "ergodic"
    for theta, phi in [(0.7, 0.3), (1.9, 4.0), (np.pi / 2, 0.0)]:
        verdict = classify(kp_pure_state(kp, 4, bloch_vector(theta, phi)))
        assert verdict.tag != "ergodic"


def test_kp_pure_state_support_alternation(kp):
    # supports of powers of an M2-block pure state alternate between the
    # one-dimensional part and the matrix part
    p_a = kp.structure.from_coords(np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float))
    p_b = kp.unit - p_a
    nu = kp_pure_state(kp, 4, bloch_vector(1.234, 0.77))
    for k in range(1, 7):
        p = support_projection(convolution_power(nu, k))
        inside = p_b if k % 2 == 1 else p_a
        assert (inside * p - p).norm_inf() < 1e-8


def test_zhang_lazy_subgroup_walk(f_s3):
    nu = classical_state(f_s3, ("weights", {"e": 0.5, "(12)": 0.5}))
    report = zhang_criterion(nu)
    assert report.applies and report.spectral_ball_ok and report.converges
    target = classical_state(f_s3, ("uniform", ["e", "(12)"]))
    assert total_variation(report.limit, target) < 1e-9
    # convergence without ergodicity
    assert total_variation(report.limit, haar_state(f_s3)) > 0.1
    assert classify(nu).tag == "reducible"


def test_zhang_silent_without_eta_mass(f_s3):
    nu = classical_state(f_s3, ("point", "(12)"))
    report = zhang_criterion(nu)
    assert not report.applies
    assert abs(report.nu_eta) < 1e-12


def test_zhang_ball_on_random_states(f_s3, kp):
    for entry in (f_s3, kp):
        for _ in range(30):
            nu = random_state(entry, RNG)
            report = zhang_criterion(nu)
            if report.applies:
                assert report.spectral_ball_ok


def test_slow_dual_walk_cesaro_routes_agree(dual_s3, s3):
    # u((23)) = 0.9983: the averaged operator contracts at a rate within about
    # 1e-3 of 1, where a fixed 1e-12 stopping step left an error above 1e-9
    xi = np.array([-0.1213, -0.7222, -0.6810])
    nu = state_from_positive_definite(dual_s3, permutation_matrices(s3), xi / np.linalg.norm(xi))
    with np.errstate(over="raise", invalid="raise"):
        assert classify(nu).tag == "ergodic"
    assert freslon_check(nu).ergodic


@pytest.mark.parametrize("n, weights", [
    (8, {2: 0.5 - 1e-5, 6: 0.5, 1: 1e-5}),  # near-reducible
    (4, {0: 1e-10, 1: 1 - 1e-10}),  # near-periodic
    (4, {0: 1e-12, 1: 1 - 1e-12}),
])
def test_slow_walks_end_promptly(n, weights):
    nu = classical_state(function_algebra(cyclic_group(n)), ("weights", weights))
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):
        try:
            assert classify(nu).tag in ("ergodic", "reducible", "periodic")
        except NumericError:
            pass
    assert time.perf_counter() - start < 1.0


def test_zhang_slow_walk_refuses_without_overflow(f_c4):
    # nu(eta) = eps > 0 guarantees convergence, at a rate 1 - 2 eps too slow to
    # reach within the roundoff floor of repeated squaring; at eps = 1e-12 the
    # first squares barely move and must not pass for the limit
    with np.errstate(over="raise", invalid="raise"):
        for eps in (1e-6, 1e-12):
            nu = classical_state(f_c4, ("weights", {0: eps, 1: 1 - eps}))
            with pytest.raises(NumericError, match="did not settle"):
                zhang_criterion(nu)
        lazy = zhang_criterion(classical_state(f_c4, ("weights", {0: 1e-4, 1: 1 - 1e-4})))
    assert lazy.converges
    assert total_variation(lazy.limit, haar_state(f_c4)) < 1e-9


def test_freslon_perm_witness(perm_state, s3):
    report = freslon_check(perm_state)
    assert not report.ergodic
    assert set(report.witness) == {0, s3.index_of("(12)")}


def test_freslon_twodim_no_witness(twodim_state):
    report = freslon_check(twodim_state)
    assert report.ergodic and report.witness is None
    mods = sorted(np.abs(report.u_values))[:-1]
    assert max(mods) < 1 - 1e-6


def test_freslon_trivial_rep_witness_is_whole_group(dual_s3, s3):
    from qergodic.catalog import state_from_positive_definite

    u = state_from_positive_definite(dual_s3, [np.eye(1)] * 6, [1.0])
    report = freslon_check(u)
    assert not report.ergodic
    assert len(report.witness) == 6


def test_freslon_unsupported_on_classical(f_s3):
    with pytest.raises(UnsupportedError):
        freslon_check(haar_state(f_s3))


def test_baraquin_transposition_walk(f_s3):
    nu = classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"]))
    report = baraquin_check(nu)
    assert report.central
    coeffs = dict((name, c) for name, c, d in report.coefficients)
    assert abs(coeffs["sign"] - (-1.0)) < 1e-10
    assert abs(coeffs["trivial"] - 1.0) < 1e-10
    assert abs(coeffs["standard"]) < 1e-10
    assert report.ergodic is False
    assert classify(nu).tag == "periodic"


def test_baraquin_a3_supported_walk(f_s3):
    nu = classical_state(f_s3, ("uniform", ["e", "(123)", "(132)"]))
    report = baraquin_check(nu)
    assert report.central
    coeffs = dict((name, c) for name, c, d in report.coefficients)
    assert abs(coeffs["sign"] - 1.0) < 1e-10
    assert report.ergodic is False
    assert classify(nu).tag == "reducible"


def test_baraquin_non_central_density(f_s3):
    nu = classical_state(f_s3, ("weights", {"e": 0.5, "(12)": 0.5}))
    report = baraquin_check(nu)
    assert not report.central
    assert report.ergodic is None


def test_baraquin_dual_coefficients_are_u_values(dual_s3, twodim_state, s3):
    report = baraquin_check(twodim_state)
    assert report.central
    values = dual_s3.realization.u_values(twodim_state)
    coeffs = dict((name, c) for name, c, d in report.coefficients)
    for g in range(6):
        assert abs(coeffs[s3.names[g]] - values[s3.inv(g)]) < 1e-10
    assert report.ergodic is True


def test_quasi_subgroup_centrality(dual_s3, f_s3, s3):
    a3 = [0, s3.index_of("(123)"), s3.index_of("(132)")]
    assert quasi_subgroup_is_subgroup(dual_s3, chi_subgroup(dual_s3, a3))
    assert not quasi_subgroup_is_subgroup(dual_s3, chi_subgroup(dual_s3, [0, 1]))
    for H in subgroups(s3):
        coords = np.zeros(6)
        coords[list(H)] = 1.0
        p = f_s3.structure.from_coords(coords)
        assert quasi_subgroup_is_subgroup(f_s3, p)
    with pytest.raises(DomainError):
        quasi_subgroup_is_subgroup(f_s3, f_s3.structure.basis_element(1)
                                   + f_s3.structure.basis_element(2))


def test_s4_optional_oracle_agreement():
    # the optional larger classical entry: order 24, still exact
    s4 = symmetric_group(4)
    fg = function_algebra(s4)
    cases = [
        {"(12)": 1.0},
        {"(1234)": 1.0},
        {"(12)": 0.5, "(123)": 0.5},
        {"(12)": 0.5, "(1234)": 0.5},
        {"e": 0.25, "(12)": 0.25, "(1234)": 0.5},
    ]
    for weights in cases:
        vec = np.zeros(24)
        for name, w in weights.items():
            vec[s4.index_of(name)] = w
        oracle = classify_weights(s4, vec)
        verdict = classify(classical_state(fg, ("weights", weights)))
        assert verdict.tag == {"ergodic": "ergodic", "reducible": "reducible",
                               "periodic": "periodic"}[oracle[0]], weights
        if oracle[0] == "periodic":
            assert verdict.partition.period == oracle[1]
            mask = np.zeros(24)
            mask[list(oracle[2])] = 1.0
            assert np.abs(verdict.partition.projections[0].coords() - mask).max() <= 1e-8
        if oracle[0] == "reducible":
            mask = np.zeros(24)
            mask[list(oracle[1])] = 1.0
            assert np.abs(verdict.quasi_subgroup.coords() - mask).max() <= 1e-8
