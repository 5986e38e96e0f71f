"""Classification of random walks: ergodic, reducible, or periodic, with certificates.

The trichotomy follows the support of the Cesaro limit first (reducible onto a
proper quasi-subgroup when it is not the unit) and the peripheral spectrum of
the stochastic operator second (a d-point peripheral spectrum certifies period
d, and the cyclic partition of unity is then constructed and verified).  The
partial criteria -- a positive mass at the Haar element (convergence), the
character test on dual groups, and the central-state coefficient test -- live
here as well and must agree with the classifier wherever they apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    DomainError,
    adjoints,
    cluster_projections,
    eighs,
    hermitian_part,
    is_central,
    norms_inf,
    products,
    spectral_clusters,
    spectral_decomposition,
    supports_of_positive,
)
from .catalog import ClassicalRealization, DualRealization
from .groups import GroupValidationError, subgroups
from .hopf import UnsupportedError
from .tolerances import (
    CHARACTER_SPAN_TOL,
    CHARACTER_TOL,
    COEFF_MARGIN,
    ERGODIC_TV_TOL,
    GAP_DECAY_TARGET,
    KERNEL_TOL,
    PARTITION_SNAP,
    PERIPHERAL_TOL,
    PROJECTION_EQ_TOL,
    REACH_MASS_FLOOR,
    TRIVIAL_CHAR_TOL,
    ZERO_ELEMENT_TOL,
    ZHANG_BALL_TOL,
    ZHANG_MASS_FLOOR,
)
from .walks import (
    WalkState,
    _census_index,
    _null_space,
    _orbit,
    _power_coeffs,
    _require_integer,
    _tv_to_haar,
    cesaro_limit,
    eigenvalues,
    settled_power,
    spectrum_peripheral,
    stochastic_operator,
)


class ClassificationError(RuntimeError):
    """Internal consistency failure while classifying a walk."""


@dataclass
class CyclicPartition:
    """Projections p_0..p_{d-1} with T(p_i) = p_{i-1} (indices mod d)."""

    period: int
    projections: list


@dataclass
class IrreducibilityResult:
    irreducible: bool
    cesaro_support: object
    fixed_projections: list = field(default_factory=list)

    def __bool__(self):
        return bool(self.irreducible)


@dataclass
class ErgodicityVerdict:
    """Tagged outcome of the classifier, with its numeric certificates."""

    tag: str  # "ergodic" | "reducible" | "periodic"
    quasi_subgroup: object = None
    partition: CyclicPartition | None = None
    peripheral: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    cesaro_support: object = None
    tv_samples: list = field(default_factory=list)

    @property
    def ergodic(self):
        return self.tag == "ergodic"


def _fixed_point_projections(group, T):
    """Nontrivial projections in the fixed-point space of T.

    T is unital and completely positive and keeps the faithful Haar state, so
    by the Schwarz inequality its fixed points form a unital *-subalgebra.  The
    spectral projections of a Hermitian fixed point lie in it, and when the
    space is more than the scalars a generic one (a fixed-seed complex
    combination of a basis, Hermitianized) has at least two of them.
    """
    kernel = _null_space(T - np.eye(group.dim))
    if kernel.shape[1] <= 1:
        return []
    rng = np.random.default_rng(7)
    mix = rng.standard_normal(kernel.shape[1]) + 1j * rng.standard_normal(kernel.shape[1])
    h = hermitian_part(group.structure.from_coords(kernel @ mix))
    found = [p for _, p in spectral_decomposition(h)]
    if len(found) < 2 or any((p.structure.from_coords(T @ p.coords()) - p).norm_inf() > KERNEL_TOL
                             for p in found):
        raise ClassificationError(
            "fixed-point space has dimension > 1 but a generic fixed point gives no "
            "nontrivial T-fixed projections"
        )
    return found


def _reachability_projections(group):
    """Spectral projections of the nonzero Hermitian parts of e_k and -i e_k, (M, D).

    Each is kept at its first occurrence; rows equal to 9 decimals are one.
    """
    st = group.structure
    basis = np.repeat(np.eye(st.dim, dtype=complex), 2, axis=0)
    basis[1::2] *= -1j
    herm = (basis + adjoints(st, basis)) * 0.5
    herm = herm[norms_inf(st, herm) >= ZERO_ELEMENT_TOL]
    eigs = eighs(st, herm)
    cluster, means = spectral_clusters(eigs)
    proj = cluster_projections(st, eigs, cluster, means.shape[-1])[means > -np.inf]
    _, first = np.unique(np.round(proj, 9), axis=0, return_index=True)
    return proj[np.sort(first)]


def is_irreducible(nu):
    """Irreducibility, established three independent ways that must agree.

    (a) the Cesaro-limit support equals the unit; (b) the stochastic operator
    has no nontrivial subharmonic (fixed) projection; (c) every spectral
    projection of every Hermitianized basis element gets positive mass from
    some convolution power nu^(*k), k <= sum of block sizes.
    """
    group = nu.group
    T = stochastic_operator(nu)
    _, support = cesaro_limit(group, T)
    route_a = bool((support - group.unit).norm_inf() <= PROJECTION_EQ_TOL)

    fixed = _fixed_point_projections(group, T)
    route_b = len(fixed) == 0

    masses = _orbit(T.T, nu.functional.coeffs, sum(group.structure.dims))
    reach = np.vecdot(np.conj(masses)[:, None], _reachability_projections(group)).real
    route_c = bool((reach > REACH_MASS_FLOOR).any(0).all())

    if not (route_a == route_b == route_c):
        raise ClassificationError(
            f"irreducibility routes disagree: cesaro={route_a}, "
            f"subharmonic={route_b}, reachability={route_c}"
        )
    return IrreducibilityResult(route_a, support, fixed)


def cyclic_partition(nu, T, d):
    """Construct and verify the T-cyclic partition of unity for a period-d walk; T is T_nu.

    p_0 is the support of the Cesaro limit of nu^(*d), whose operator is T^d:
    on a group with a census (:meth:`FiniteQuantumGroup.census`), the least
    census projection that carries eps T^d (:func:`walks._census_index`),
    otherwise the support that :func:`cesaro_limit` gives.  The remaining
    projections are its images under T: p_{d-j} = T^j(p_0) for j = 1..d-1,
    formed as one orbit and snapped as one stack to the sums of their
    spectral projections above ``PARTITION_SNAP``.  The defining invariants,
    T^d(p_1) = p_1 among them, are checked on the (d, D) stack of the
    projections before returning; they certify p_0 as well.
    """
    _require_integer("d", d)
    if d < 2:
        raise ValueError("cyclic partitions need d >= 2")
    group = nu.group
    st = group.structure
    Td = np.linalg.matrix_power(T, d)  # the stochastic operator of nu^(*d)
    census = group.census()
    if census is None:
        p0 = cesaro_limit(group, Td)[1].coords()
    else:
        p0 = census[0][_census_index(group, census, Td, d)]
    raw = _orbit(T, p0, d)[1:]  # row j - 1 is T^j(p_0)
    chain = supports_of_positive(st, (raw + adjoints(st, raw)) * 0.5, PARTITION_SNAP)
    if (norms_inf(st, chain - raw) > PROJECTION_EQ_TOL).any():
        raise ClassificationError("operator image is not a projection")
    P = np.concatenate([p0[None], chain[::-1]])  # chain[j - 1] = p_{d-j}; reorder to p_0..p_{d-1}
    if norms_inf(st, P.cumsum(0)[-1] - group.unit.coords()) > PROJECTION_EQ_TOL:
        raise ClassificationError("cyclic projections do not sum to the unit")
    overlaps = norms_inf(st, products(st, P[:, None], P[None]))
    if (overlaps[~np.eye(d, dtype=bool)] > PROJECTION_EQ_TOL).any():
        raise ClassificationError("cyclic projections are not orthogonal")
    if (norms_inf(st, P @ T.T - np.roll(P, 1, axis=0)) > PROJECTION_EQ_TOL).any():
        raise ClassificationError("projections are not T-cyclic")
    if (abs(group.haar.values(P).real - 1.0 / d) > PROJECTION_EQ_TOL).any():
        raise ClassificationError("cyclic projection Haar mass is not 1/d")
    if abs(group.counit.values(P[0]) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("counit mass of p_0 is not 1")
    if abs(nu.functional.values(P[1]) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("nu is not concentrated on p_1")
    if norms_inf(st, Td @ P[1] - P[1]) > PROJECTION_EQ_TOL:
        raise ClassificationError("T^d does not fix p_1")
    return CyclicPartition(d, [st.from_coords(p) for p in P])


def classify(nu):
    """The Ergodic Theorem verdict: Ergodic, Reducible(certificate) or Periodic(partition).

    Reducibility is decided first from the Cesaro support; for irreducible
    walks the peripheral spectrum of the stochastic operator fixes the period.
    An Ergodic verdict is additionally verified empirically by driving the
    total variation distance below ``ERGODIC_TV_TOL`` at a step count k set by
    the spectral gap, on nu^(*k) formed as h + eps (T - P)^k.  T is built once,
    and every stage reads it.
    """
    group = nu.group
    T = stochastic_operator(nu)
    _, support = cesaro_limit(group, T)
    evals, peripheral = spectrum_peripheral(T)
    ks = (1, 2, 4, 8)
    tv_samples = list(zip(ks, _tv_to_haar(nu, ks, _power_coeffs(group, T, ks[1:]))))

    if (support - group.unit).norm_inf() > PROJECTION_EQ_TOL:
        if abs(nu.expect(support) - 1.0) > PROJECTION_EQ_TOL:
            raise ClassificationError("walk has positive mass outside its Cesaro support")
        return ErgodicityVerdict(
            "reducible", quasi_subgroup=support, peripheral=peripheral,
            spectrum=evals, cesaro_support=support, tv_samples=tv_samples,
        )

    if len(peripheral) == 1:
        gap_lambda = max((abs(x) for x in evals if abs(x) < 1 - PERIPHERAL_TOL), default=0.0)
        if gap_lambda == 0.0:
            k_star = 1
        else:
            k_star = min(int(np.ceil(np.log(GAP_DECAY_TARGET) / np.log(gap_lambda))) + 1, 2 ** 50)
        # nu^(*k) = h + eps (T - P)^k for P(x) = h(x) 1, as T P = P T = P P = P: the powers of
        # T - P decay, where the eigenvalue-1 part of T^k carries about k eps of roundoff
        deflated = T - np.outer(group.unit.coords(), group.haar.coeffs)
        far = _power_coeffs(group, deflated, [k_star] if k_star > 1 else [])
        [tv_far] = _tv_to_haar(nu, (k_star,), group.haar.coeffs + far)
        if tv_far > ERGODIC_TV_TOL:
            raise ClassificationError(
                f"spectral gap promises convergence but TV at k={k_star} is {tv_far:.2e}"
            )
        return ErgodicityVerdict(
            "ergodic", peripheral=peripheral, spectrum=evals,
            cesaro_support=support, tv_samples=tv_samples,
        )

    return ErgodicityVerdict(
        "periodic", partition=cyclic_partition(nu, T, len(peripheral)),
        peripheral=peripheral, spectrum=evals, cesaro_support=support, tv_samples=tv_samples,
    )


# -- partial criteria -----------------------------------------------------------


@dataclass
class ZhangReport:
    nu_eta: float
    applies: bool
    spectral_ball_ok: bool
    converges: bool | None = None
    limit: WalkState | None = None


def zhang_criterion(nu):
    """Convergence from positive mass at the Haar element.

    When nu(eta) > 0 every eigenvalue of T lies in the closed ball of radius
    1 - nu(eta) centred at nu(eta), so the powers (T^k) converge; the report
    carries the verified ball containment and the computed limit state.
    When the powers settle too slowly to be computed within roundoff,
    ``settled_power`` raises NumericError.
    """
    group = nu.group
    nu_eta = float(nu.expect(group.haar_element).real)
    T = stochastic_operator(nu)
    evals = eigenvalues(T)
    ball_ok = bool(np.all(np.abs(evals - nu_eta) <= 1 - nu_eta + ZHANG_BALL_TOL))
    report = ZhangReport(nu_eta=nu_eta, applies=nu_eta > ZHANG_MASS_FLOOR, spectral_ball_ok=ball_ok)
    if not report.applies:
        return report
    P = settled_power(T)
    report.converges = True
    report.limit = WalkState.from_functional_coeffs(group, P.T @ group.counit.coeffs,
                                                    check=nu.checked)
    return report


@dataclass
class FreslonReport:
    ergodic: bool
    witness: tuple | None
    u_values: np.ndarray


def freslon_check(u):
    """Dual-group ergodicity by characters on subgroups.

    The walk fails to be ergodic exactly when its positive-definite function
    restricts to a character (|u| = 1, multiplicative) on some subgroup with
    more than one element; that subgroup is returned as the witness.
    """
    real = u.group.realization
    if not isinstance(real, DualRealization):
        raise UnsupportedError("the character criterion applies to group algebras only")
    group = real.group
    values = real.u_values(u)
    try:
        candidates = subgroups(group)
    except GroupValidationError as exc:
        raise UnsupportedError(f"the character criterion on {group.label}: {exc}") from exc
    witness = None
    # scan from the largest subgroup down so the reported witness is maximal
    for H in sorted(candidates, key=lambda h: (-len(h), h)):
        if len(H) <= 1:
            continue
        h = np.array(H)
        if (np.all(np.abs(np.abs(values[h]) - 1.0) <= CHARACTER_TOL)
                and np.all(np.abs(values[group.cayley[h][:, h]] - np.outer(values[h], values[h]))
                           <= CHARACTER_TOL)):
            witness = tuple(H)
            break
    return FreslonReport(ergodic=witness is None, witness=witness, u_values=values)


@dataclass
class BaraquinReport:
    central: bool
    coefficients: list  # (name, f_alpha, d_alpha)
    ergodic: bool | None


def baraquin_check(nu):
    """Central-state ergodicity from character coefficients.

    Writes the density as sum_a f_a chi_a over the irreducible characters
    (group characters for a classical entry, the delta^g basis for a dual
    entry) and reports ergodic iff |f_a| < d_a for every non-trivial a.
    Reports central=False, no verdict, when the density leaves the span.
    """
    group = nu.group
    st = group.structure
    real = group.realization
    if isinstance(real, DualRealization):
        g = real.group
        names = g.names
        chars = real.basis.T
        dims = np.ones(g.order, dtype=int)
        trivial = np.arange(g.order) == g.identity
    elif isinstance(real, ClassicalRealization) and real.irreps is not None:
        irreps = real.irreps.irreps
        names = [r.name for r in irreps]
        chars = np.array([r.character() for r in irreps])
        dims = np.array([r.dim for r in irreps])
        trivial = np.abs(chars - 1.0).max(-1) < TRIVIAL_CHAR_TOL
    else:
        raise UnsupportedError("no character data for this entry")

    f = nu.density.coords()
    coeffs = group.haar.values(products(st, adjoints(st, chars), f))
    recon = (coeffs[:, None] * chars).cumsum(0)[-1]  # summed in order, as a loop would
    central = norms_inf(st, recon - f) <= CHARACTER_SPAN_TOL
    verdict = None
    if central:
        verdict = bool((abs(coeffs) < dims - COEFF_MARGIN)[~trivial].all())
    return BaraquinReport(
        central=central,
        coefficients=list(zip(names, coeffs.tolist(), dims.tolist())),
        ergodic=verdict,
    )


def quasi_subgroup_is_subgroup(group, p):
    """A quasi-subgroup is a subgroup iff its group-like projection is central, block by block."""
    if not group.is_group_like_projection(p):
        raise DomainError("centrality test expects a group-like projection")
    return is_central(p)
