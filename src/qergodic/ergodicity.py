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

from .blocks import DomainError, hermitian_part, spectral_decomposition
from .catalog import ClassicalRealization, DualRealization
from .groups import subgroups
from .hopf import UnsupportedError
from .walks import (
    WalkState,
    cesaro_limit,
    convolution_power,
    convolve,
    haar_state,
    settled_power,
    spectrum_peripheral,
    stochastic_operator,
    support_projection,
    total_variation,
)

PROJECTION_EQ_TOL = 1e-8


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


def is_idempotent_state(phi, tol=1e-9):
    """phi = phi * phi; when true, the density must be p / haar(p) for a group-like p."""
    if total_variation(convolve(phi, phi), phi) > tol:
        return False
    group = phi.group
    p = support_projection(phi)
    expected = p * (1.0 / group.haar(p).real)
    if (phi.density - expected).norm_inf() > max(tol, 1e-7):
        raise ClassificationError("idempotent state density is not p / haar(p)")
    if not group.is_group_like_projection(p, PROJECTION_EQ_TOL):
        raise ClassificationError("idempotent state support is not group-like")
    return True


def _fixed_point_projections(group, T, atol=1e-8):
    """Nontrivial projections in the fixed-point space of T.

    The fixed-point space is a *-subalgebra; its projections are found among
    spectral projections of Hermitian fixed elements (each basis vector of the
    space, Hermitianized, plus a few generic real combinations).
    """
    D = group.dim
    _, sing, vh = np.linalg.svd(T.matrix - np.eye(D))
    kernel = vh[sing <= atol].conj()
    if kernel.shape[0] <= 1:
        return []
    hermitians = []
    for row in kernel:
        e = group.structure.from_coords(row)
        for h in (hermitian_part(e), hermitian_part(e * (-1j))):
            if h.norm_inf() > 1e-10:
                hermitians.append(h)
    rng = np.random.default_rng(7)
    for _ in range(3):
        mix = group.structure.zero()
        for h in hermitians[: 2 * (kernel.shape[0])]:
            mix = mix + float(rng.standard_normal()) * h
        hermitians.append(mix)
    unit = group.unit
    found = []
    for h in hermitians:
        for _, p in spectral_decomposition(h):
            if p.norm_inf() < 0.5 or (p - unit).norm_inf() < PROJECTION_EQ_TOL:
                continue
            if (T.apply(p) - p).norm_inf() <= atol:
                if all((p - q).norm_inf() > 1e-6 for q in found):
                    found.append(p)
    if not found:
        raise ClassificationError(
            "fixed-point space has dimension > 1 but no nontrivial projection was found"
        )
    return found


def _reachability_projections(group):
    """Spectral projections of the Hermitianized coordinate basis."""
    out = []
    seen = []
    for b in group.structure.basis():
        for h in (hermitian_part(b), hermitian_part(b * (-1j))):
            if h.norm_inf() < 1e-10:
                continue
            for _, p in spectral_decomposition(h):
                key = np.round(p.coords(), 9).tobytes()
                if key not in seen:
                    seen.append(key)
                    out.append(p)
    return out


def is_irreducible(nu):
    """Irreducibility, established three independent ways that must agree.

    (a) the Cesaro-limit support equals the unit; (b) the stochastic operator
    has no nontrivial subharmonic (fixed) projection; (c) every spectral
    projection of every Hermitianized basis element gets positive mass from
    some convolution power nu^(*k), k <= sum of block sizes.
    """
    group = nu.group
    _, support = cesaro_limit(nu)
    route_a = bool((support - group.unit).norm_inf() <= PROJECTION_EQ_TOL)

    T = stochastic_operator(nu)
    fixed = _fixed_point_projections(group, T)
    route_b = len(fixed) == 0

    k0 = sum(group.structure.dims)
    coeffs = nu.functional.coeffs
    masses = []
    for _ in range(k0):
        masses.append(coeffs)
        coeffs = T.matrix.T @ coeffs
    route_c = True
    for q in _reachability_projections(group):
        qc = q.coords()
        if not any(float((m @ qc).real) > 1e-12 for m in masses):
            route_c = False
            break

    if not (route_a == route_b == route_c):
        raise ClassificationError(
            f"irreducibility routes disagree: cesaro={route_a}, "
            f"subharmonic={route_b}, reachability={route_c}"
        )
    return IrreducibilityResult(route_a, support, fixed)


def _clean_projection(group, raw):
    """Snap an almost-projection to the nearest exact spectral projection."""
    h = hermitian_part(raw)
    out = group.structure.zero()
    for lam, p in spectral_decomposition(h):
        if lam > 0.5:
            out = out + p
    if (out - raw).norm_inf() > PROJECTION_EQ_TOL:
        raise ClassificationError("operator image is not a projection")
    return out


def cyclic_partition(nu, d):
    """Construct and verify the T-cyclic partition of unity for a period-d walk.

    p_0 is the support of the Cesaro limit of nu^(*d); the remaining
    projections are its images under T: p_{d-1} = T(p_0), p_{d-2} = T(p_{d-1}),
    and so on.  All defining invariants are verified before returning.
    """
    if d < 2:
        raise ValueError("cyclic partitions need d >= 2")
    group = nu.group
    T = stochastic_operator(nu)
    phi = convolution_power(nu, d)
    _, p0 = cesaro_limit(phi)
    chain = [p0]
    for _ in range(d - 1):
        chain.append(_clean_projection(group, T.apply(chain[-1])))
    projections = [p0] + chain[1:][::-1]  # chain[j] = p_{d-j}; reorder to p_0..p_{d-1}

    total = group.structure.zero()
    for p in projections:
        total = total + p
    if (total - group.unit).norm_inf() > PROJECTION_EQ_TOL:
        raise ClassificationError("cyclic projections do not sum to the unit")
    for i, p in enumerate(projections):
        for q in projections[i + 1:]:
            if (p * q).norm_inf() > PROJECTION_EQ_TOL:
                raise ClassificationError("cyclic projections are not orthogonal")
        if (T.apply(p) - projections[(i - 1) % d]).norm_inf() > PROJECTION_EQ_TOL:
            raise ClassificationError("projections are not T-cyclic")
        if abs(group.haar(p).real - 1.0 / d) > PROJECTION_EQ_TOL:
            raise ClassificationError("cyclic projection Haar mass is not 1/d")
    if abs(group.counit(p0) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("counit mass of p_0 is not 1")
    if abs(nu.expect(projections[1]) - 1.0) > PROJECTION_EQ_TOL:
        raise ClassificationError("nu is not concentrated on p_1")
    if not group.is_group_like_projection(p0, PROJECTION_EQ_TOL):
        raise ClassificationError("p_0 is not group-like")
    return CyclicPartition(d, projections)


def classify(nu):
    """The Ergodic Theorem verdict: Ergodic, Reducible(certificate) or Periodic(partition).

    Reducibility is decided first from the Cesaro support; for irreducible
    walks the peripheral spectrum of the stochastic operator fixes the period.
    An Ergodic verdict is additionally verified empirically by driving the
    total variation distance below 1e-6 at a step count set by the spectral gap.
    """
    group = nu.group
    limit, support = cesaro_limit(nu)
    T = stochastic_operator(nu)
    evals, peripheral = spectrum_peripheral(T)
    haar = haar_state(group)
    tv_samples = [(k, total_variation(convolution_power(nu, k), haar)) for k in (1, 2, 4, 8)]

    if (support - group.unit).norm_inf() > PROJECTION_EQ_TOL:
        if abs(nu.expect(support) - 1.0) > PROJECTION_EQ_TOL:
            raise ClassificationError("walk has positive mass outside its Cesaro support")
        return ErgodicityVerdict(
            "reducible", quasi_subgroup=support, peripheral=peripheral,
            spectrum=evals, cesaro_support=support, tv_samples=tv_samples,
        )

    if len(peripheral) == 1:
        gap_lambda = max((abs(x) for x in evals if abs(x) < 1 - 1e-9), default=0.0)
        if gap_lambda == 0.0:
            k_star = 1
        else:
            k_star = min(int(np.ceil(np.log(1e-12) / np.log(gap_lambda))) + 1, 2 ** 50)
        tv_far = total_variation(convolution_power(nu, k_star), haar)
        if tv_far > 1e-6:
            raise ClassificationError(
                f"spectral gap promises convergence but TV at k={k_star} is {tv_far:.2e}"
            )
        return ErgodicityVerdict(
            "ergodic", peripheral=peripheral, spectrum=evals,
            cesaro_support=support, tv_samples=tv_samples,
        )

    d = len(peripheral)
    partition = cyclic_partition(nu, d)
    p1 = partition.projections[1]
    Td = np.linalg.matrix_power(T.matrix, d)
    if (group.structure.from_coords(Td @ p1.coords()) - p1).norm_inf() > PROJECTION_EQ_TOL:
        raise ClassificationError("T^d does not fix p_1")
    return ErgodicityVerdict(
        "periodic", partition=partition, peripheral=peripheral,
        spectrum=evals, cesaro_support=support, tv_samples=tv_samples,
    )


# -- partial criteria -----------------------------------------------------------


@dataclass
class ZhangReport:
    nu_eta: float
    applies: bool
    spectral_ball_ok: bool
    converges: bool | None = None
    limit: WalkState | None = None


def zhang_criterion(nu, tol=1e-9):
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
    evals = T.eigenvalues
    ball_ok = bool(np.all(np.abs(evals - nu_eta) <= 1 - nu_eta + tol))
    report = ZhangReport(nu_eta=nu_eta, applies=nu_eta > 1e-12, spectral_ball_ok=ball_ok)
    if not report.applies:
        return report
    P = settled_power(T.matrix)
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
    witness = None
    # scan from the largest subgroup down so the reported witness is maximal
    for H in sorted(subgroups(group), key=lambda h: (-len(h), h)):
        if len(H) <= 1:
            continue
        if any(abs(abs(values[h]) - 1.0) > 1e-9 for h in H):
            continue
        if all(
            abs(values[group.mul(h1, h2)] - values[h1] * values[h2]) <= 1e-9
            for h1 in H for h2 in H
        ):
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
    real = group.realization
    chars = []
    if isinstance(real, DualRealization):
        g = real.group
        for s in range(g.order):
            chars.append((g.names[s], group.structure.from_coords(real.basis[:, s]),
                          1, s == g.identity))
    elif isinstance(real, ClassicalRealization) and real.irreps is not None:
        g = real.group
        for r in real.irreps.irreps:
            vals = r.character()
            elem = group.structure.from_coords(vals)
            trivial = bool(np.abs(vals - 1.0).max() < 1e-12)
            chars.append((r.name, elem, r.dim, trivial))
    else:
        raise UnsupportedError("no character data for this entry")

    f = nu.density
    coefficients = []
    recon = group.structure.zero()
    for name, chi, d, trivial in chars:
        coeff = complex(group.haar(chi.adjoint() * f))
        coefficients.append((name, coeff, d, trivial))
        recon = recon + coeff * chi
    central = (recon - f).norm_inf() <= 1e-9
    verdict = None
    if central:
        verdict = all(
            abs(coeff) < d - 1e-9 for name, coeff, d, trivial in coefficients if not trivial
        )
    return BaraquinReport(
        central=central,
        coefficients=[(n, c, d) for n, c, d, _ in coefficients],
        ergodic=verdict,
    )


def quasi_subgroup_is_subgroup(group, p):
    """A quasi-subgroup is a subgroup iff its group-like projection is central."""
    if not group.is_group_like_projection(p, PROJECTION_EQ_TOL):
        raise DomainError("centrality test expects a group-like projection")
    return all(
        (p * b - b * p).norm_inf() <= 1e-9 for b in group.structure.basis()
    )
