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
    norms_inf,
    p_norm,
    positive_rows,
    random_positive,
    supports_of_positive,
)
from .tolerances import (
    AGREEMENT_TOL,
    CENSUS_MASS_FACTOR,
    IMPLIED_IDENTITY_TOL,
    KERNEL_TOL,
    MONOTONE_SLACK,
    PERIPHERAL_TOL,
    PROJECTION_EQ_TOL,
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


def _require_integer(what, value):
    """Refuse ``value`` by name unless it is an integer; a boolean is not."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} {value!r} is a boolean, not an integer")
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")


def _require_finite(values, what, first_step=None):
    """DomainError naming the first non-finite entry of a (D,) or (N, D) stack.

    A stack's rows are named by index, or as steps ``first_step``,
    ``first_step + 1``, ... when it is given.
    """
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        *row, k = np.argwhere(~finite)[0].tolist()
        if not row:
            where = ""
        elif first_step is None:
            where = f" of row {row[0]}"
        else:
            where = f" of step {first_step + row[0]}"
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
    positive = positive_rows(st, densities, eigs, defects)
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
    return _supports(group, densities, *check_states(group, densities, functionals))


def _supports(group, densities, eigs, defects):
    """Sum of each positive density's spectral projections above ``SUPPORT_CUTOFF``.

    ``eigs`` and ``defects`` are :func:`eighs` and :func:`hermitian_defects`
    of the densities.
    """
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
            density = group.structure.from_coords(
                densities_from_functionals(group, functional.coeffs))
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
    """The (n, D) stack x, Mx, ..., M^(n-1) x, one matrix-vector product per row.

    M is complex: a stochastic operator or its transpose view.  Its ``dot``
    is bound once, and each step writes into the next preallocated row.
    That is the zgemv call ``np.matmul(M, prev, out=row)`` makes, so every
    row is bitwise the matmul loop's, without the ufunc dispatch that cost
    about 1 us a step at D <= 32, more than the product itself.
    """
    rows = np.empty((n, len(x)), dtype=complex)
    rows[0] = x
    dot = M.dot
    for prev, row in zip(rows, rows[1:]):
        dot(prev, out=row)
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
    coeffs = _power_coeffs(nu.group, stochastic_operator(nu), k)
    return WalkState.from_functional_coeffs(nu.group, coeffs, check=nu.checked)


def _power_coeffs(group, M, ks):
    """The functionals eps M^k, refused if not finite: nu^(*k) for M = T_nu.

    ``ks`` is one k, giving a (D,) row, or a sequence, giving a (len(ks), D) stack.
    """
    eps = group.counit.coeffs
    powers = np.array([np.linalg.matrix_power(M, k).T @ eps for k in np.ravel(ks)])
    powers = powers.reshape(np.shape(ks) + (group.dim,))
    _require_finite(powers, "functional coefficient")
    return powers


def _tv_to_haar(nu, ks, powers):
    """TV from nu^(*k) to the Haar state for each k >= 1 of ``ks``.

    ``powers`` holds the functionals nu^(*k) of the k > 1 of ``ks``, in order,
    as :func:`_power_coeffs` forms them; they are checked as one stack when
    nu is checked.  Row k = 1 is nu's density.
    """
    group = nu.group
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
    whole stack (see ``lp_norms``).  A chunk whose functionals overflow is
    refused with DomainError naming the step, as :func:`_power_coeffs`
    refuses a power.  For
    checked states the TV and QSD columns are verified non-increasing (within
    ``MONOTONE_SLACK``), as the theory requires.
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
        _require_finite(stack, "functional coefficient", first_step=first)
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
    f = state.density
    return f.structure.from_coords(_supports(state.group, f.coords(), f._eighs(),
                                             f._hermitian_defect()))


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
        sing = np.linalg.svd(np.stack([T - eye, T.conj().T - eye]), compute_uv=False)
        near = sing.flat[np.abs(sing - KERNEL_TOL).argmin()]
        raise NumericError(
            f"eigenvalue 1 eigenspaces are inconsistent: kernels of T - I and T* - I have "
            f"dimensions {V.shape[1]} and {W.shape[1]}; the singular value nearest the "
            f"{KERNEL_TOL:.0e} gate is {near:.1e}")
    gram = W.conj().T @ V
    if (cond := np.linalg.cond(gram)) > SEMISIMPLE_COND_MAX:
        raise NumericError("eigenvalue 1 of the stochastic operator is not semisimple: "
                           f"Gram condition number {cond:.1e} above {SEMISIMPLE_COND_MAX:.0e}")
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


def cesaro_limit(group, T):
    """Limit of (1/n) sum nu^(*k) and the support of the limit, for T = T_nu.

    The limit is the spectral projection of T onto eigenvalue 1, applied to
    the counit, and its support p is that of its density.  A second route,
    chosen by p, must give the same limit within ``AGREEMENT_TOL``:

    - p = 1: the Haar state.  An eigenvalue near 1 wrongly merged with 1 can
      only make p smaller, never the unit.
    - p < 1 on a group with a census (:meth:`FiniteQuantumGroup.census`):
      q / h(q) for the least census projection q that the walk lives on,
      with the roundoff bound of k = 1, which must be p (:func:`_census_state`,
      :func:`_census_index`).
    - p < 1 on a group without one: powers of the averaged operator
      (I + T)/2, and the limit is verified idempotent, with density p / h(p)
      for a group-like p (:func:`idempotent_support`).
    """
    eps = group.counit.coeffs
    c_spec = _cesaro_spectral(T).T @ eps
    try:
        limit = WalkState.from_functional_coeffs(group, c_spec, check=True, label="cesaro limit")
    except DomainError as exc:
        raise DomainError(f"{exc}: the spectral Cesaro limit fails the state check") from exc
    support = support_projection(limit)
    if (support - group.unit).norm_inf() <= PROJECTION_EQ_TOL:
        if (gap := np.abs(c_spec - group.haar.coeffs).max()) > AGREEMENT_TOL:
            raise NumericError("spectral Cesaro limit of support 1 is not the Haar state: "
                               f"distance {gap:.1e} above the {AGREEMENT_TOL:.0e} gate")
        return limit, support
    census = group.census()
    if census is not None:
        if np.abs(c_spec - _census_state(group, census, T, support)).max() > AGREEMENT_TOL:
            raise NumericError("spectral Cesaro limit is not q / h(q) of its census projection")
        return limit, support
    # the spectrum of (I + T)/2 sits strictly inside the unit disc except at
    # 1, so its powers converge to the eigenvalue-1 projection even for
    # periodic walks, where plain powers of T do not converge at all
    c_iter = settled_power(0.5 * (np.eye(T.shape[0]) + T)).T @ eps
    if np.abs(c_spec - c_iter).max() > AGREEMENT_TOL:
        raise NumericError("spectral and iterative Cesaro limits disagree")
    if idempotent_support(limit) is None:
        raise NumericError("Cesaro limit is not idempotent")
    return limit, support


def _census_state(group, census, T, support):
    """The functional of q / h(q) for the least census projection q the walk lives on.

    q is :func:`_census_index`'s; NumericError is raised also when q is not
    the spectral support.
    """
    projections, _, states = census
    least = _census_index(group, census, T, 1)
    if norms_inf(group.structure, support.coords() - projections[least]) > PROJECTION_EQ_TOL:
        raise NumericError("spectral Cesaro support is not its census projection")
    return states[least]


def _census_index(group, census, T, power):
    """Row of the least census projection q the walk lives on.

    T is the operator of nu^(*k), k = ``power``.  The walk lives on q when
    the mass it leaves outside, 1 - (eps T)(q), is at most the roundoff
    bound c k D eps (c = ``CENSUS_MASS_FACTOR``, eps the machine epsilon).
    NumericError is raised when a mass lies between that bound and
    ``PROJECTION_EQ_TOL``, too close to tell, and when the projections of
    least Haar mass that carry the walk are not one.
    """
    projections, masses, _ = census
    bound = CENSUS_MASS_FACTOR * power * group.dim * np.finfo(float).eps
    outside = 1.0 - (projections @ (T.T @ group.counit.coeffs)).real
    unclear = (outside > bound) & (outside <= PROJECTION_EQ_TOL)
    if unclear.any():
        raise NumericError(
            f"walk leaves mass {outside[unclear].min():.1e} outside a group-like projection: "
            f"above the roundoff bound {bound:.1e}, within {PROJECTION_EQ_TOL:.0e} of 0")
    carried = np.flatnonzero(outside <= bound)
    least = carried[masses[carried] - masses[carried].min(initial=np.inf) <= PROJECTION_EQ_TOL]
    if len(least) != 1:
        raise NumericError(f"{len(least)} census projections of least Haar mass carry the walk")
    return least[0]


def idempotent_support(phi):
    """The support p of phi when phi * phi = phi (within ``IDEMPOTENCE_TOL``), else None.

    The density must then be p / haar(p) with p group-like, or NumericError is raised.
    """
    group = phi.group
    if not group._idempotent_rows(phi.functional.coeffs[None])[0]:
        return None
    p = support_projection(phi)
    if (phi.density - p * (1.0 / group.haar(p).real)).norm_inf() > IMPLIED_IDENTITY_TOL:
        raise NumericError("idempotent state density is not p / haar(p)")
    if not group.is_group_like_projection(p):
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
