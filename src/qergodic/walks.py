"""States as random walks: densities, convolution semigroups, stochastic operators.

A walk is a state nu on the algebra of functions, stored through both faces of
the density/functional duality: nu(g) = haar(f_nu * g).  Because the Haar state
is tracial with strictly positive block weights w_i, the two faces are related
by a per-block transpose (the ``star_perm`` gather) and a per-coordinate scale
by the weight of the coordinate's block, which keeps every conversion exact.
"""

from __future__ import annotations

import numpy as np

from .blocks import (
    DomainError,
    LinearFunctional,
    ShapeError,
    is_positive,
    lp_norms,
    p_norm,
    random_positive,
    support_of_positive,
)
STATE_TOL = 1e-9
AGREEMENT_TOL = 1e-9  # spectral vs iterative Cesaro limit, and the most settled_power may err


class NumericError(RuntimeError):
    """A numeric identity that theory guarantees failed to hold."""


def functional_coeffs_from_density(group, density):
    return group.haar_coord_weights * density.coords()[group.structure.star_perm]


def density_from_functional(group, coeffs):
    st = group.structure
    return st.from_coords(np.asarray(coeffs, dtype=complex)[st.star_perm]
                          / group.haar_coord_weights)


class WalkState:
    """A state nu with its density f_nu; the walk itself.

    ``checked`` records whether the defining positivity/normalization
    invariants were verified.  Formal (non-positive) functionals can be
    carried with ``check=False``; distance monotonicity guarantees and
    support projections only apply to checked states.
    """

    __slots__ = ("group", "density", "functional", "checked", "label")

    def __init__(self, group, density=None, functional=None, check=True, label=""):
        if density is None and functional is None:
            raise ValueError("provide a density or a functional")
        if density is None:
            density = density_from_functional(group, functional.coeffs)
        if functional is None:
            functional = LinearFunctional(
                group.structure, functional_coeffs_from_density(group, density)
            )
        if density.structure != group.structure:
            raise ShapeError("density does not live on the group's algebra")
        self.group = group
        self.density = density
        self.functional = functional
        self.label = label
        self.checked = bool(check)
        if check:
            if not is_positive(density, STATE_TOL):
                raise DomainError("density is not positive")
            if abs(group.haar(density) - 1.0) > 1e-8:
                raise DomainError("density is not normalized")
            if abs(functional(group.unit) - 1.0) > 1e-8:
                raise DomainError("functional is not unital")

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


def state_from_density(group, density, check=True):
    return WalkState.from_density(group, density, check=check)


class StochasticOperator:
    """The linear action T_nu = (nu (x) id) o Delta on the algebra."""

    __slots__ = ("group", "matrix", "_eigenvalues")

    def __init__(self, group, matrix):
        self.group = group
        matrix = np.asarray(matrix, dtype=complex).copy()
        matrix.flags.writeable = False
        self.matrix = matrix
        self._eigenvalues = None

    @property
    def eigenvalues(self):
        """Full spectrum with algebraic multiplicity, sorted by (modulus, argument)."""
        if self._eigenvalues is None:
            ev = np.linalg.eigvals(self.matrix)
            order = np.lexsort((np.angle(ev), np.abs(ev)))
            ev = ev[order]
            ev.flags.writeable = False
            self._eigenvalues = ev
        return self._eigenvalues

    def apply(self, element):
        return self.group.structure.from_coords(self.matrix @ element.coords())

    def __call__(self, element):
        return self.apply(element)

    def transpose_functional(self, functional):
        """phi |-> phi o T, i.e. phi T in the walk notation."""
        return LinearFunctional(self.group.structure, self.matrix.T @ functional.coeffs)


def stochastic_operator(state):
    group = state.group
    D = group.dim
    dk3 = group.comul_kron.reshape(D, D, D)  # [s, t, f]
    matrix = np.einsum("s,stf->tf", state.functional.coeffs, dk3)
    return StochasticOperator(group, matrix)


def convolve(nu, mu):
    """nu * mu = (nu (x) mu) o Delta."""
    if nu.group is not mu.group and nu.group.structure != mu.group.structure:
        raise ShapeError("states live on different quantum groups")
    group = nu.group
    coeffs = group.comul_kron.T @ np.kron(nu.functional.coeffs, mu.functional.coeffs)
    return WalkState.from_functional_coeffs(group, coeffs, check=nu.checked and mu.checked)


def convolution_power(nu, k):
    """nu^(*k) via operator powers: eps T^k = nu^(*k).  k = 0 returns the counit."""
    if k < 0:
        raise ValueError("convolution powers need k >= 0")
    if k == 0:
        return counit_state(nu.group)
    if k == 1:
        return nu
    group = nu.group
    T = stochastic_operator(nu)
    tk = np.linalg.matrix_power(T.matrix, k)
    return WalkState.from_functional_coeffs(group, tk.T @ group.counit.coeffs, check=nu.checked)


def total_variation(nu, mu):
    """Half the L1 distance between the densities."""
    if nu.group.structure != mu.group.structure:
        raise ShapeError("states live on different quantum groups")
    return 0.5 * p_norm(nu.density - mu.density, nu.group.haar, 1)


def distances_to_random(nu, kmax):
    """Rows (k, tv, l2, qsd) for k = 1..kmax.

    For checked states the TV and QSD columns are verified non-increasing
    (within 1e-10 slack), as the theory requires.  All three distances of a
    step come from one SVD per block size (see ``lp_norms``).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    group = nu.group
    T = stochastic_operator(nu)
    unit = group.unit
    rows = []
    coeffs = nu.functional.coeffs
    prev_tv = prev_qsd = None
    for k in range(1, kmax + 1):
        diff = density_from_functional(group, coeffs) - unit
        l1, l2, qsd = lp_norms(diff, group.haar_weights)
        tv = 0.5 * l1
        if nu.checked and prev_tv is not None:
            if tv > prev_tv + 1e-10 or qsd > prev_qsd + 1e-10:
                raise NumericError(f"distance trace increased at step {k}")
        prev_tv, prev_qsd = tv, qsd
        rows.append((k, tv, l2, qsd))
        coeffs = T.matrix.T @ coeffs
    return rows


def support_projection(state):
    """Smallest projection p with nu(p) = 1: the range projection of the density."""
    if not state.checked:
        raise DomainError("support projections are defined for genuine states")
    return support_of_positive(state.density, 1e-8)


def _null_space(matrix, atol=1e-8):
    _, sing, vh = np.linalg.svd(matrix)
    sing = np.concatenate([sing, np.zeros(matrix.shape[1] - len(sing))])
    return vh[sing <= atol].conj().T


def _cesaro_spectral(T):
    """Riesz projection of T onto eigenvalue 1 (semisimple by norm one)."""
    D = T.shape[0]
    eye = np.eye(D)
    V = _null_space(T - eye)
    W = _null_space(T.conj().T - eye)
    if V.shape[1] == 0 or V.shape[1] != W.shape[1]:
        raise NumericError("eigenvalue 1 eigenspaces are inconsistent")
    gram = W.conj().T @ V
    if np.linalg.cond(gram) > 1e8:
        raise NumericError("eigenvalue 1 of the stochastic operator is not semisimple")
    return V @ np.linalg.solve(gram, W.conj().T)


def settled_power(M):
    """lim M^(2^k) by repeated squaring, for M whose powers converge.

    Each squaring at most doubles the roundoff carried by the eigenvalue-1
    part, so after k squarings the entries are known only to about
    2^k * D * eps (D the size of M, eps the machine epsilon).  The first
    square whose step falls below max(1e-12, 2^k * D * eps) is accepted; once
    that floor passes ``AGREEMENT_TOL`` no later square can be trusted to it,
    and NumericError is raised instead.
    """
    unit_roundoff = M.shape[0] * np.finfo(float).eps
    k = 1
    step = np.inf
    while (floor := 2.0 ** k * unit_roundoff) <= AGREEMENT_TOL:
        M2 = M @ M
        step = np.abs(M2 - M).max()
        if step < max(1e-12, floor):
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
    ``AGREEMENT_TOL``.  The limit is verified idempotent and its support
    group-like.
    """
    group = nu.group
    T = stochastic_operator(nu).matrix
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
    support = support_of_positive(limit.density, 1e-8)
    if total_variation(convolve(limit, limit), limit) > 1e-9:
        raise NumericError("Cesaro limit is not idempotent")
    if not group.is_group_like_projection(support, 1e-8):
        raise NumericError("Cesaro support is not group-like")
    return limit, support


def spectrum_peripheral(T, tol=1e-9):
    """Spectrum of the stochastic operator split into (all, peripheral).

    Asserts the spectrum sits in the closed unit disc; when 1 is a simple
    eigenvalue the peripheral set must be the d-th roots of unity.
    """
    ev = T.eigenvalues
    if np.abs(ev).max() > 1 + tol:
        raise NumericError("stochastic operator spectrum leaves the unit disc")
    peripheral = ev[np.abs(ev) >= 1 - tol]
    ones = np.sum(np.abs(ev - 1.0) <= tol)
    if ones == 1 and len(peripheral) > 0:
        d = len(peripheral)
        remaining = list(peripheral)
        for root in np.exp(2j * np.pi * np.arange(d) / d):
            j = int(np.argmin([abs(z - root) for z in remaining]))
            if abs(remaining[j] - root) > 1e-7:
                raise NumericError(
                    "peripheral spectrum is not a cyclic group of roots of unity"
                )
            remaining.pop(j)
    return ev, peripheral


def random_state(group, rng, ridge=0.0):
    """A random state; ridge > 0 guarantees faithfulness."""
    d = random_positive(group.structure, rng)
    if ridge > 0:
        d = d + ridge * group.unit
    d = d * (1.0 / group.haar(d).real)
    return WalkState(group, density=d, label="random")
