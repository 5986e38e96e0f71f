import re
import time

import numpy as np
import pytest

from qergodic.blocks import DomainError, hermitian_part, is_projection, spectral_decomposition
from qergodic.catalog import (
    ClassicalRealization,
    DualRealization,
    bloch_vector,
    chi_subgroup,
    classical_state,
    dual_subgroup_state,
    function_algebra,
    group_algebra,
    kp_pure_state,
    state_from_positive_definite,
)
from qergodic.ergodicity import (
    ClassificationError,
    _reachability_projections,
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
from qergodic.groups import (
    cyclic_group,
    normal_subgroups,
    permutation_matrices,
    subgroups,
    symmetric_group,
)
from qergodic.walks import (
    NumericError,
    _cesaro_limit,
    _tv_to_haar,
    cesaro_limit,
    convolution_power,
    counit_state,
    haar_state,
    random_state,
    stochastic_operator,
    support_projection,
    total_variation,
)
from qergodic.tolerances import (
    CHARACTER_SPAN_TOL,
    COEFF_MARGIN,
    GAP_DECAY_TARGET,
    KERNEL_TOL,
    PERIPHERAL_TOL,
    PROJECTION_EQ_TOL,
    TRIVIAL_CHAR_TOL,
    ZERO_ELEMENT_TOL,
)

from classical_oracle import classify_weights
from test_hopf import dihedral5_dual

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
    rng = np.random.default_rng(13)
    faithful = [random_state(entry, rng, ridge=0.2) for entry in (f_s3, dual_s3, kp)]
    for i, nu in enumerate(states + faithful):
        res = is_irreducible(nu)
        T = stochastic_operator(nu)
        unit = nu.group.unit
        # every listed fixed projection is a T-fixed projection other than 0 and 1
        for p in res.fixed_projections:
            assert is_projection(p)
            assert p.norm_inf() > 0.5 and (unit - p).norm_inf() > 0.5
            assert (p.structure.from_coords(T @ p.coords()) - p).norm_inf() <= KERNEL_TOL
        assert bool(res) == (len(res.fixed_projections) == 0)
        if i >= len(states):
            assert res.fixed_projections == []


def _reachability_projections_by_element(group):
    # the element-by-element transcription the stacked function replaced
    out, seen = [], []
    for b in group.structure.basis():
        for h in (hermitian_part(b), hermitian_part(b * (-1j))):
            if h.norm_inf() < ZERO_ELEMENT_TOL:
                continue
            for _, p in spectral_decomposition(h):
                key = np.round(p.coords(), 9).tobytes()
                if key not in seen:
                    seen.append(key)
                    out.append(p.coords())
    return out


def test_stacked_reachability_projections_match_element_by_element(f_s3, dual_s3, kp):
    for entry in (f_s3, dual_s3, kp):
        stacked = _reachability_projections(entry)
        loop = _reachability_projections_by_element(entry)
        assert len(stacked) == len(loop)
        assert {row.tobytes() for row in stacked} == {row.tobytes() for row in loop}


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


def _cyclic_partition_by_element(nu, d):
    # the element-by-element transcription the stacked checks replaced, ending with
    # the T^d(p_1) = p_1 check that classify made after it; p_0 comes as the library
    # takes it, from the Cesaro limit of T^d
    group = nu.group
    T = stochastic_operator(nu)
    _, p0 = _cesaro_limit(group, np.linalg.matrix_power(T, d))

    def clean(raw):
        out = group.structure.zero()
        for lam, p in spectral_decomposition(hermitian_part(raw)):
            if lam > 0.5:
                out = out + p
        if (out - raw).norm_inf() > PROJECTION_EQ_TOL:
            raise ClassificationError("operator image is not a projection")
        return out

    chain = [p0]
    for _ in range(d - 1):
        chain.append(clean(group.structure.from_coords(T @ chain[-1].coords())))
    projections = [p0] + chain[1:][::-1]
    total = group.structure.zero()
    for p in projections:
        total = total + p
    if (total - group.unit).norm_inf() > PROJECTION_EQ_TOL:
        raise ClassificationError("cyclic projections do not sum to the unit")
    for i, p in enumerate(projections):
        for q in projections[i + 1:]:
            if (p * q).norm_inf() > PROJECTION_EQ_TOL:
                raise ClassificationError("cyclic projections are not orthogonal")
        image = p.structure.from_coords(T @ p.coords())
        if (image - projections[(i - 1) % d]).norm_inf() > PROJECTION_EQ_TOL:
            raise ClassificationError("projections are not T-cyclic")
        if abs(group.haar(p).real - 1.0 / d) > PROJECTION_EQ_TOL:
            raise ClassificationError("cyclic projection Haar mass is not 1/d")
    if abs(group.counit(p0) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("counit mass of p_0 is not 1")
    if abs(nu.expect(projections[1]) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("nu is not concentrated on p_1")
    if not group.is_group_like_projection(p0):
        raise ClassificationError("p_0 is not group-like")
    p1 = projections[1]
    Td = np.linalg.matrix_power(T, d)
    if (group.structure.from_coords(Td @ p1.coords()) - p1).norm_inf() > PROJECTION_EQ_TOL:
        raise ClassificationError("T^d does not fix p_1")
    return projections


def test_stacked_cyclic_partition_matches_element_by_element(f_s3, f_c4, perm_state, kp):
    walks = [  # (walk, period, largest distance of p_0 from the nu^(*d) route)
        (classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"])), 2, 0.0),
        (classical_state(f_c4, ("point", 1)), 4, 0.0),
        (classical_state(function_algebra(cyclic_group(6)), ("point", 1)), 6, 0.0),
        (perm_state, 2, 1e-14),
        (kp_pure_state(kp, 4, bloch_vector(0.8, 1.1)), 2, 0.0),
    ]
    for nu, d, moved in walks:
        loop = [p.coords().tobytes() for p in _cyclic_partition_by_element(nu, d)]
        verdict = classify(nu)
        assert verdict.tag == "periodic"
        for part in (verdict.partition, cyclic_partition(nu, d)):
            assert part.period == d
            assert [p.coords().tobytes() for p in part.projections] == loop
        # p_0 once came from the Cesaro limit of the state nu^(*d), with its own T
        _, p0 = cesaro_limit(convolution_power(nu, d))
        ours = verdict.partition.projections[0].coords()
        if moved:
            assert np.abs(ours - p0.coords()).max() <= moved
        else:
            assert ours.tobytes() == p0.coords().tobytes()


@pytest.mark.parametrize("d", [3, 8])
def test_cyclic_partition_refuses_a_wrong_period(f_c4, d):
    # the point mass at 1 on F(C4) has period 4
    nu = classical_state(f_c4, ("point", 1))
    for build in (cyclic_partition, _cyclic_partition_by_element):
        with pytest.raises(ClassificationError,
                           match="^cyclic projections do not sum to the unit$"):
            build(nu, d)


@pytest.mark.parametrize("d, message", [
    # 4.0 met numpy's bare "exponent must be an integer"
    (4.0, "d 4.0 is not an integer"),
    (True, "d True is a boolean, not an integer"),
    (np.True_, "d np.True_ is a boolean, not an integer"),
])
def test_cyclic_partition_refuses_a_period_that_is_not_an_integer(f_c4, d, message):
    nu = classical_state(f_c4, ("point", 1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cyclic_partition(nu, d)


def test_cyclic_partition_takes_a_numpy_integer_period(f_c4):
    nu = classical_state(f_c4, ("point", 1))
    assert cyclic_partition(nu, np.int64(4)).period == 4


def _tv_by_loop(nu, ks):
    """TV from nu^(*k) to the Haar state, one checked convolution power at a time."""
    haar = haar_state(nu.group)
    return [total_variation(convolution_power(nu, k), haar) for k in ks]


def _k_star(spectrum):
    """The step count at which an ergodic verdict checks TV, from its spectral gap."""
    gap = max((abs(x) for x in spectrum if abs(x) < 1 - PERIPHERAL_TOL), default=0.0)
    if gap == 0.0:
        return 1
    return min(int(np.ceil(np.log(GAP_DECAY_TARGET) / np.log(gap))) + 1, 2 ** 50)


def _tv_walks(f_s3, kp, twodim_state):
    return {
        "F(S3) transpositions": (classical_state(f_s3, ("uniform", ["(12)", "(13)", "(23)"])),
                                 "periodic"),
        "F(C8) {2, 6}": (classical_state(function_algebra(cyclic_group(8)),
                                         ("weights", {2: 0.5, 6: 0.5})), "reducible"),
        "KP faithful": (random_state(kp, np.random.default_rng(19), ridge=0.05), "ergodic"),
        "C[S3] formal": (twodim_state, "ergodic"),
        "F(C1) point": (classical_state(function_algebra(cyclic_group(1)), ("point", 0)),
                        "ergodic"),
    }


def test_tv_samples_equal_the_per_power_loop(f_s3, kp, twodim_state):
    for name, (nu, tag) in _tv_walks(f_s3, kp, twodim_state).items():
        verdict = classify(nu)
        assert verdict.tag == tag, name
        ks = [k for k, _ in verdict.tv_samples]
        assert ks == [1, 2, 4, 8], name
        assert [tv.hex() for _, tv in verdict.tv_samples] == [
            tv.hex() for tv in _tv_by_loop(nu, ks)], name
        if tag == "ergodic":
            k_star = _k_star(verdict.spectrum)
            assert (k_star == 1) == (name == "F(C1) point"), name  # F(C1): no power to stack
            far = _tv_to_haar(nu, stochastic_operator(nu), (k_star,))
            assert [tv.hex() for tv in far] == [tv.hex() for tv in _tv_by_loop(nu, [k_star])]


def test_classify_builds_the_stochastic_operator_once(monkeypatch, f_s3, kp, twodim_state):
    from qergodic import ergodicity, walks

    built = []
    build = walks.stochastic_operator

    def counting_build(state):
        built.append(state)
        return build(state)

    def no_power(nu, k):
        raise AssertionError("classify took a convolution power")

    for module in (walks, ergodicity):
        monkeypatch.setattr(module, "stochastic_operator", counting_build)
        monkeypatch.setattr(module, "convolution_power", no_power, raising=False)
    # a periodic walk's partition takes its p_0 from T^d, not from a second T
    for name, (nu, tag) in _tv_walks(f_s3, kp, twodim_state).items():
        built.clear()
        assert classify(nu).tag == tag, name
        assert len(built) == 1, name
        built.clear()
        is_irreducible(nu)
        assert len(built) == 1, name


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
    (6, {1: 1 - 1e-10, 2: 1e-10}),
    (8, {1: 1 - 1e-10, 2: 5e-11, 3: 5e-11}),
])
def test_slow_walks_end_promptly(n, weights):
    # a slow walk may be refused, but a verdict must be the oracle's
    group = cyclic_group(n)
    nu = classical_state(function_algebra(group), ("weights", weights))
    start = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):
        try:
            verdict = classify(nu)
        except NumericError:
            verdict = None
    assert time.perf_counter() - start < 1.0
    if verdict is not None:
        vec = np.zeros(n)
        vec[list(weights)] = list(weights.values())
        oracle = classify_weights(group, vec, tol=0.0)
        assert verdict.tag == oracle[0]
        if oracle[0] == "periodic":
            assert verdict.partition.period == oracle[1]


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


def test_freslon_refuses_past_the_subgroup_bound():
    with pytest.raises(UnsupportedError, match="bounded at order 64"):
        freslon_check(haar_state(group_algebra(cyclic_group(65))))


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


def _baraquin_by_element(nu):
    # the element-by-element transcription the stacked expansion replaced
    group = nu.group
    real = group.realization
    chars = []
    if isinstance(real, DualRealization):
        g = real.group
        for s in range(g.order):
            chars.append((g.names[s], group.structure.from_coords(real.basis[:, s]),
                          1, s == g.identity))
    else:
        for r in real.irreps.irreps:
            vals = r.character()
            trivial = bool(np.abs(vals - 1.0).max() < TRIVIAL_CHAR_TOL)
            chars.append((r.name, group.structure.from_coords(vals), r.dim, trivial))
    f = nu.density
    coefficients = []
    recon = group.structure.zero()
    for name, chi, d, trivial in chars:
        coeff = complex(group.haar(chi.adjoint() * f))
        coefficients.append((name, coeff, d, trivial))
        recon = recon + coeff * chi
    central = (recon - f).norm_inf() <= CHARACTER_SPAN_TOL
    ergodic = None
    if central:
        ergodic = all(abs(c) < d - COEFF_MARGIN for _, c, d, trivial in coefficients
                      if not trivial)
    return central, [(n, c, d) for n, c, d, _ in coefficients], ergodic


def test_stacked_baraquin_matches_element_by_element(f_s3, dual_s3):
    rng = np.random.default_rng(15)
    for entry in (function_algebra(cyclic_group(6)), f_s3, group_algebra(cyclic_group(6)),
                  dual_s3):
        real = entry.realization
        states = [random_state(entry, rng) for _ in range(4)]
        if isinstance(real, ClassicalRealization):
            for _ in range(4):  # central: weights constant on conjugacy classes
                w = np.zeros(real.group.order)
                for cls in real.group.conjugacy_classes():
                    w[cls] = rng.random()
                states.append(classical_state(entry, ("weights", dict(enumerate(w / w.sum())))))
        else:
            states.extend(dual_subgroup_state(entry, list(H)) for H in subgroups(real.group))
        for nu in states:
            report = baraquin_check(nu)
            # repr tells the types apart (np.True_ from True, np.int64(1) from 1) and
            # prints each complex coefficient exactly
            assert repr((report.central, report.coefficients, report.ergodic)) == repr(
                _baraquin_by_element(nu))


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


def test_array_checks_match_element_by_element(dual_s3, kp, s3, perm_state, twodim_state):
    # element-by-element transcriptions of freslon_check's subgroup scan and of
    # quasi_subgroup_is_subgroup, which now run as array comparisons
    trivial = state_from_positive_definite(dual_s3, [np.eye(1)] * 6, [1.0])
    for u in (perm_state, twodim_state, trivial, dual_subgroup_state(dual_s3, [0, 1])):
        values = dual_s3.realization.u_values(u)
        witness = None
        for H in sorted(subgroups(s3), key=lambda h: (-len(h), h)):
            if len(H) > 1 and all(abs(abs(values[h]) - 1.0) <= 1e-9 for h in H) and all(
                    abs(values[s3.mul(a, b)] - values[a] * values[b]) <= 1e-9
                    for a in H for b in H):
                witness = tuple(H)
                break
        assert freslon_check(u).witness == witness
    # the commutators with the basis are the reference for the block-by-block centrality
    # test; on a group algebra, chi_H is central exactly when H is normal
    for entry in (dual_s3, kp, function_algebra(symmetric_group(4)),
                  group_algebra(cyclic_group(12)), dihedral5_dual(),
                  dihedral5_dual(diagonal=True)):
        flags = []
        for p in entry.find_group_like_projections():
            central = all((p * b - b * p).norm_inf() <= 1e-9 for b in entry.structure.basis())
            flags.append(quasi_subgroup_is_subgroup(entry, p))
            assert flags[-1] == central, entry.label
        if isinstance(entry.realization, DualRealization):
            assert sum(flags) == len(normal_subgroups(entry.realization.group)), entry.label


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
