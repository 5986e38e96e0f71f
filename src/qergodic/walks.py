"""States as random walks: densities, convolution semigroups, stochastic operators.

A walk is a state nu on the algebra of functions, stored through both faces of
the density/functional duality: nu(g) = haar(f_nu * g).  Because the Haar state
is tracial with strictly positive block weights w_i, the two faces are related
by a per-block transpose (the ``star_perm`` gather) and a per-coordinate scale
by the weight of the coordinate's block, which keeps every conversion exact.
The conversions, the state checks, supports and convolution also take
(N, D) stacks of densities or functionals, one state a row.
"""

from __future__ import annotations

import numpy as np

from .blocks import (
    DomainError,
    LinearFunctional,
    ShapeError,
    eighs,
    hermitian_defects,
    lp_norms,
    p_norm,
    positive_rows,
    random_positive,
    support_of_positive,
    supports_of_positive,
)
from .tolerances import (
    AGREEMENT_TOL,
    IDEMPOTENCE_TOL,
    IMPLIED_IDENTITY_TOL,
    KERNEL_TOL,
    MONOTONE_SLACK,
    PERIPHERAL_TOL,
    POSITIVITY_TOL,
    ROOT_OF_UNITY_TOL,
    SEMISIMPLE_COND_MAX,
    SETTLE_STEP_FLOOR,
    STATE_NORM_TOL,
    SUPPORT_CUTOFF,
)

_TRACE_BATCH = 16384  # coordinates per chunk of the distance trace: 256 KiB of complex


class NumericError(RuntimeError):
    """A numeric identity that theory guarantees failed to hold."""


def functionals_from_densities(group, densities):
    """Functional coefficients of each density row of a (D,) or (N, D) stack."""
    return group.haar_coord_weights * densities.take(group.structure.star_perm, axis=-1)


def densities_from_functionals(group, coeffs):
    """Density coordinates of each functional row of a (D,) or (N, D) stack."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return coeffs.take(group.structure.star_perm, axis=-1) / group.haar_coord_weights


def density_from_functional(group, coeffs):
    return group.structure.from_coords(densities_from_functionals(group, coeffs))


def _require_integer(what, value):
    """Refuse ``value`` by name unless it is an integer; a boolean is not."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} {value!r} is a boolean, not an integer")
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")


def _require_finite(values, what):
    """DomainError naming the first non-finite entry of a (D,) or (N, D) stack."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        *row, k = np.argwhere(~finite)[0].tolist()
        where = f" of row {row[0]}" if row else ""
        raise DomainError(f"{what} {k}{where} is not finite: {values[(*row, k)]}")


def check_states(group, densities, functionals, eigs=None, defects=None):
    """DomainError unless each row of the (D,) or (N, D) stacks is a state.

    A row is a state when its density coordinates are finite, its density is
    positive, haar(f) = 1 and nu(1) = 1 (within ``STATE_NORM_TOL``).
    ``densities`` and ``functionals`` are the two faces of the same rows;
    ``eigs`` and ``defects`` are those of the densities, computed here unless
    given.  Returns ``(eigs, defects)``.
    """
    _require_finite(densities, "density coordinate")
    st = group.structure
    eigs = eighs(st, densities) if eigs is None else eigs
    defects = hermitian_defects(st, densities) if defects is None else defects
    positive = positive_rows(st, densities, eigs, defects, POSITIVITY_TOL)
    normalized = abs(group.haar.values(densities) - 1.0) <= STATE_NORM_TOL
    unital = abs(functionals @ group.unit.coords() - 1.0) <= STATE_NORM_TOL
    ok = positive & normalized & unital
    if np.count_nonzero(ok) < ok.size:  # the first check that fails, in this order
        raise DomainError(
            "density is not positive" if np.count_nonzero(positive) < ok.size
            else "density is not normalized" if np.count_nonzero(normalized) < ok.size
            else "functional is not unital")
    return eigs, defects


def support_projections(group, densities, functionals):
    """Support projection of each state of the stacks, after :func:`check_states`."""
    eigs, defects = check_states(group, densities, functionals)
    return supports_of_positive(group.structure, densities, SUPPORT_CUTOFF, eigs, defects)


class WalkState:
    """A state nu with its density f_nu; the walk itself.

    ``checked`` records whether the defining positivity/normalization
    invariants were verified.  Formal (non-positive) functionals can be
    carried with ``check=False``; distance monotonicity guarantees and
    support projections only apply to checked states.
    """

    __slots__ = ("group", "density", "functional", "checked", "label")

    def __init__(self, group, density=None, functional=None, check=True, label=""):
        if (density is None) == (functional is None):
            raise ValueError("provide one of a density and a functional")
        # NaN and inf are refused, formal states too, ahead of the conversion that would spread them
        if density is None:
            _require_finite(functional.coeffs, "functional coefficient")
            density = density_from_functional(group, functional.coeffs)
        else:
            _require_finite(density.coords(), "density coordinate")
            functional = LinearFunctional(
                group.structure, functionals_from_densities(group, density.coords())
            )
        if density.structure != group.structure:
            raise ShapeError("density does not live on the group's algebra")
        self.group = group
        self.density = density
        self.functional = functional
        self.label = label
        self.checked = bool(check)
        if check:
            check_states(group, density.coords(), functional.coeffs,
                         density._eighs(), density._hermitian_defect())

    @classmethod
    def from_density(cls, group, density, check=True, label=""):
        return cls(group, density=density, check=check, label=label)

    @classmethod
    def from_functional_coeffs(cls, group, coeffs, check=True, label=""):
        return cls(group, functional=LinearFunctional(group.structure, coeffs),
                   check=check, label=label)

    def expect(self, element):
        return self.functional(element)

    def __repr__(self):
        tag = self.label or "state"
        return f"WalkState({tag!r} on {self.group.label!r})"


def counit_state(group):
    """The convolution identity: density eta / haar(eta)."""
    eta = group.haar_element
    return WalkState(group, density=eta * (1.0 / group.haar(eta).real), label="counit")


def haar_state(group):
    return WalkState(group, density=group.unit, label="haar")


def stochastic_operator(state):
    """T_nu = (nu (x) id) o Delta as a read-only (D, D) matrix acting on coordinates."""
    group = state.group
    D = group.dim
    dk3 = group.comul_kron.reshape(D, D, D)  # [s, t, f]
    matrix = np.einsum("s,stf->tf", state.functional.coeffs, dk3)
    matrix.flags.writeable = False
    return matrix


def eigenvalues(T):
    """Full spectrum of T with algebraic multiplicity, sorted by (modulus, argument)."""
    ev = np.linalg.eigvals(T)
    return ev[np.lexsort((np.angle(ev), np.abs(ev)))]


def _orbit(M, x, n):
    """The (n, D) stack x, Mx, ..., M^(n-1) x, one matrix-vector product per row."""
    rows = np.empty((n, len(x)), dtype=complex)
    rows[0] = x
    for j in range(1, n):
        np.matmul(M, rows[j - 1], out=rows[j])
    return rows


def convolve(nu, mu):
    """nu * mu = (nu (x) mu) o Delta."""
    if nu.group is not mu.group and nu.group.structure != mu.group.structure:
        raise ShapeError("states live on different quantum groups")
    group = nu.group
    coeffs = convolution_coeffs(group, nu.functional.coeffs, mu.functional.coeffs)
    return WalkState.from_functional_coeffs(group, coeffs, check=nu.checked and mu.checked)


def convolution_coeffs(group, nu, mu):
    """Coefficients of nu * mu for the rows of two (D,) or (N, D) functional stacks.

    The rows of the outer products nu (x) mu, (N, D^2), make one product with
    ``comul_kron``.
    """
    outer = nu[..., :, None] * mu[..., None, :]
    return outer.reshape(outer.shape[:-2] + (group.dim ** 2,)) @ group.comul_kron


def convolution_power(nu, k):
    """nu^(*k) via operator powers: eps T^k = nu^(*k).  k = 0 returns the counit."""
    _require_integer("k", k)
    if k < 0:
        raise ValueError("convolution powers need k >= 0")
    if k == 0:
        return counit_state(nu.group)
    if k == 1:
        return nu
    group = nu.group
    T = stochastic_operator(nu)
    tk = np.linalg.matrix_power(T, k)
    return WalkState.from_functional_coeffs(group, tk.T @ group.counit.coeffs, check=nu.checked)


def _tv_to_haar(nu, T, ks):
    """TV from nu^(*k) to the Haar state for each k >= 1 of ``ks``; ``T`` is T_nu.

    The rows eps T^k, k > 1, are :func:`convolution_power`'s, refused if not
    finite and checked as one stack when nu is checked; row k = 1 is nu's density.
    """
    group = nu.group
    powers = np.array([np.linalg.matrix_power(T, k).T @ group.counit.coeffs
                       for k in ks if k > 1]).reshape(-1, group.dim)
    _require_finite(powers, "functional coefficient")
    densities = densities_from_functionals(group, powers)
    if nu.checked:
        check_states(group, densities, powers)
    rows = iter(densities)
    stack = np.array([nu.density.coords() if k == 1 else next(rows) for k in ks])
    l1, _, _ = lp_norms(group.structure, stack - group.unit.coords(), group.haar_weights)
    return (0.5 * l1).tolist()


def total_variation(nu, mu):
    """Half the L1 distance between the densities."""
    if nu.group.structure != mu.group.structure:
        raise ShapeError("states live on different quantum groups")
    return 0.5 * p_norm(nu.density - mu.density, nu.group.haar, 1)


def distances_to_random(nu, kmax):
    """Rows (k, tv, l2, qsd) for k = 1..kmax, kmax >= 1.

    The functionals nu^(*k) = nu T^(k-1) come one matrix-vector product per
    step into a (steps, D) coefficient stack, in chunks of at most
    ``_TRACE_BATCH`` coordinates, so memory does not grow with kmax.  Each
    chunk turns into densities minus the unit at once, and all three
    distances of all its steps come from one SVD per block size over the
    whole stack (see ``lp_norms``).  For checked states the TV and QSD columns
    are verified non-increasing (within ``MONOTONE_SLACK``), as the theory requires.
    """
    _require_integer("kmax", kmax)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    group = nu.group
    st = group.structure
    step = stochastic_operator(nu).T
    unit = group.unit.coords()
    chunk = max(1, _TRACE_BATCH // st.dim)
    rows = []
    coeffs = nu.functional.coeffs
    prev_tv = prev_qsd = np.inf  # the step before the chunk; step 1 has none
    for first in range(1, kmax + 1, chunk):
        orbit = _orbit(step, coeffs, min(chunk, kmax + 1 - first) + 1)
        stack, coeffs = orbit[:-1], orbit[-1]
        l1, l2, qsd = lp_norms(st, densities_from_functionals(group, stack) - unit,
                               group.haar_weights)
        tv = 0.5 * l1
        if nu.checked:
            rise = np.flatnonzero((tv > np.append(prev_tv, tv[:-1]) + MONOTONE_SLACK)
                                  | (qsd > np.append(prev_qsd, qsd[:-1]) + MONOTONE_SLACK))
            if len(rise):
                raise NumericError(f"distance trace increased at step {first + rise[0]}")
            prev_tv, prev_qsd = tv[-1], qsd[-1]
        rows.extend(zip(range(first, first + len(tv)), tv.tolist(), l2.tolist(), qsd.tolist()))
    return rows


def support_projection(state):
    """Smallest projection p with nu(p) = 1: the range projection of the density."""
    if not state.checked:
        raise DomainError("support projections are defined for genuine states")
    return support_of_positive(state.density, SUPPORT_CUTOFF)


def _null_space(matrix):
    _, sing, vh = np.linalg.svd(matrix)
    sing = np.concatenate([sing, np.zeros(matrix.shape[1] - len(sing))])
    return vh[sing <= KERNEL_TOL].conj().T


def _cesaro_spectral(T):
    """Riesz projection of T onto eigenvalue 1 (semisimple by norm one)."""
    D = T.shape[0]
    eye = np.eye(D)
    V = _null_space(T - eye)
    W = _null_space(T.conj().T - eye)
    if V.shape[1] == 0 or V.shape[1] != W.shape[1]:
        raise NumericError("eigenvalue 1 eigenspaces are inconsistent")
    gram = W.conj().T @ V
    if np.linalg.cond(gram) > SEMISIMPLE_COND_MAX:
        raise NumericError("eigenvalue 1 of the stochastic operator is not semisimple")
    return V @ np.linalg.solve(gram, W.conj().T)


def settled_power(M):
    """lim M^(2^k) by repeated squaring, for M whose powers converge.

    Each squaring at most doubles the roundoff carried by the eigenvalue-1
    part, so after k squarings the entries are known only to about
    2^k * D * eps (D the size of M, eps the machine epsilon).  The first
    square whose step falls below max(SETTLE_STEP_FLOOR, 2^k * D * eps) is accepted; once
    that floor passes ``AGREEMENT_TOL`` no later square can be trusted to it,
    and NumericError is raised instead.
    """
    unit_roundoff = M.shape[0] * np.finfo(float).eps
    k = 1
    step = np.inf
    while (floor := 2.0 ** k * unit_roundoff) <= AGREEMENT_TOL:
        M2 = M @ M
        step = np.abs(M2 - M).max()
        if step < max(SETTLE_STEP_FLOOR, floor):
            return M2
        M = M2
        k += 1
    raise NumericError(
        f"powers did not settle in {k - 1} squarings: last step {step:.1e}, "
        f"roundoff floor {floor:.1e} passes the {AGREEMENT_TOL:.0e} gate"
    )


def cesaro_limit(nu):
    """Limit of (1/n) sum nu^(*k) and the support of the limit.

    Computed twice -- spectral projection onto eigenvalue 1, and powers of
    the averaged operator (I + T)/2 -- and the two must agree within
    ``AGREEMENT_TOL``.  The limit is verified idempotent, with density
    p / haar(p) for its group-like support p (:func:`_idempotent_support`).
    """
    return _cesaro_limit(nu.group, stochastic_operator(nu))


def _cesaro_limit(group, T):
    P_spec = _cesaro_spectral(T)
    # the spectrum of (I + T)/2 sits strictly inside the unit disc except at
    # 1, so its powers converge to the eigenvalue-1 projection even for
    # periodic walks, where plain powers of T do not converge at all
    P_iter = settled_power(0.5 * (np.eye(T.shape[0]) + T))
    eps = group.counit.coeffs
    c_spec = P_spec.T @ eps
    c_iter = P_iter.T @ eps
    if np.abs(c_spec - c_iter).max() > AGREEMENT_TOL:
        raise NumericError("spectral and iterative Cesaro limits disagree")
    limit = WalkState.from_functional_coeffs(group, c_spec, check=True, label="cesaro limit")
    support = _idempotent_support(limit)
    if support is None:
        raise NumericError("Cesaro limit is not idempotent")
    return limit, support


def _idempotent_support(phi):
    """The support p of phi when phi * phi = phi (within ``IDEMPOTENCE_TOL``), else None.

    The density must then be p / haar(p) with p group-like, or NumericError is raised.
    """
    if total_variation(convolve(phi, phi), phi) > IDEMPOTENCE_TOL:
        return None
    p = support_projection(phi)
    if (phi.density - p * (1.0 / phi.group.haar(p).real)).norm_inf() > IMPLIED_IDENTITY_TOL:
        raise NumericError("idempotent state density is not p / haar(p)")
    if not phi.group.is_group_like_projection(p):
        raise NumericError("idempotent state support is not group-like")
    return p


def spectrum_peripheral(T):
    """Spectrum of the stochastic operator split into (all, peripheral).

    Asserts the spectrum sits in the closed unit disc; when 1 is a simple
    eigenvalue the peripheral set must be the d-th roots of unity.  These lie
    2 sin(pi/d) >> 2 ``ROOT_OF_UNITY_TOL`` apart, so the d peripheral
    eigenvalues match them one to one when each root has one of them nearby.
    """
    ev = eigenvalues(T)
    if np.abs(ev).max() > 1 + PERIPHERAL_TOL:
        raise NumericError("stochastic operator spectrum leaves the unit disc")
    peripheral = ev[np.abs(ev) >= 1 - PERIPHERAL_TOL]
    ones = np.sum(np.abs(ev - 1.0) <= PERIPHERAL_TOL)
    if ones == 1 and len(peripheral) > 0:
        roots = np.exp(2j * np.pi * np.arange(len(peripheral)) / len(peripheral))
        if not (abs(peripheral[:, None] - roots) <= ROOT_OF_UNITY_TOL).any(0).all():
            raise NumericError("peripheral spectrum is not a cyclic group of roots of unity")
    return ev, peripheral


def random_state(group, rng, ridge=0.0):
    """A random state; ridge > 0 guarantees faithfulness."""
    d = random_positive(group.structure, rng)
    if ridge > 0:
        d = d + ridge * group.unit
    d = d * (1.0 / group.haar(d).real)
    return WalkState(group, density=d, label="random")
