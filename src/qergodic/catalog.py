"""Concrete quantum groups: classical function algebras, group algebras, Kac-Paljutkin.

Function algebras F(G) are built from the Cayley table; group algebras CG are
realized concretely through the block decomposition g |-> (+)_a rho_a(g) given
by a complete table of irreducible unitary representations.  The eight
dimensional Kac-Paljutkin entry is loaded from bundled structure constants
(see data/kac_paljutkin.json) and is validated purely by machine checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .blocks import BlockStructure, LinearFunctional, is_positive
from .groups import (
    FiniteGroup,
    GroupValidationError,
    IrrepTable,
    irreps_for,
    is_subgroup,
    representation_defect,
)
from .hopf import FiniteQuantumGroup, StructuralError
from .tolerances import INPUT_NORM_TOL, USER_REP_TOL, WEIGHT_SIGN_TOL
from .walks import WalkState, _require_integer

_DELTA_BATCH = 16384  # entries per block of rows of C[G]'s Delta: 256 KiB of complex


@dataclass
class ClassicalRealization:
    """Marks a FiniteQuantumGroup as F(G) for a classical group G."""

    group: FiniteGroup
    irreps: IrrepTable | None = None


@dataclass
class DualRealization:
    """Marks a FiniteQuantumGroup as the group algebra CG in block coordinates.

    ``basis`` has column g equal to the coordinates of delta^g, i.e. of
    (+)_a rho_a(g); ``basis_inv`` is its inverse.
    """

    group: FiniteGroup
    irreps: IrrepTable
    basis: np.ndarray
    basis_inv: np.ndarray

    def u_values(self, state):
        """The positive-definite-function face of a state: u(s) = nu(delta^s)."""
        return self.basis.T @ state.functional.coeffs


def function_algebra(group):
    """F(G): one 1x1 block per group element, Hopf maps dual to the group maps."""
    n = group.order
    structure = BlockStructure([1] * n)
    elems = np.arange(n)
    inverse = np.asarray(group.inverse)
    # delta^s |-> sum_t delta^(s t^-1) (x) delta^t: row (s t^-1, t), column s
    dk = np.zeros((n * n, n), dtype=complex)
    dk[group.cayley[:, inverse] * n + elems, elems[:, None]] = 1.0
    eps = np.zeros(n)
    eps[group.identity] = 1.0
    counit = LinearFunctional(structure, eps)
    smat = np.zeros((n, n), dtype=complex)
    smat[inverse, elems] = 1.0
    dk.flags.writeable = smat.flags.writeable = False  # read-only: stored without a copy
    try:
        irreps = irreps_for(group)
    except GroupValidationError:  # no bundled table for this group
        irreps = None
    return FiniteQuantumGroup(
        structure, dk, counit, smat,
        label=f"F({group.label})",
        realization=ClassicalRealization(group, irreps),
    )


def group_algebra(group, irreps=None):
    """CG, the dual quantum group, in multi-matrix coordinates.

    delta^g is realized as the direct sum of rho_a(g); comultiplication
    delta^g |-> delta^g (x) delta^g, counit delta^g |-> 1 and antipode
    delta^g |-> delta^(g^-1) are transported through that basis change.
    """
    irreps = irreps or irreps_for(group)
    structure = BlockStructure(irreps.dims)
    if structure.dim != group.order:
        raise StructuralError("irrep table is incomplete")
    basis = np.concatenate(
        [r.matrices.reshape(group.order, -1) for r in irreps.irreps], axis=1
    ).T
    basis_inv = np.linalg.inv(basis)
    D = group.order
    # Delta = delta_cols @ basis_inv, where column g of delta_cols is delta^g (x) delta^g,
    # taken a few first-factor rows s at a time so delta_cols is never formed whole
    comul = np.empty((D * D, D), dtype=complex)
    rows = max(1, _DELTA_BATCH // (D * D))
    for start in range(0, D, rows):
        stop = min(start + rows, D)
        cols = (basis[start:stop, None, :] * basis[None, :, :]).reshape(-1, D)
        np.matmul(cols, basis_inv, out=comul[start * D:stop * D])
    counit = LinearFunctional(structure, np.linalg.solve(basis.T, np.ones(D)))
    smat = basis[:, group.inverse] @ basis_inv
    comul.flags.writeable = smat.flags.writeable = False  # read-only: stored without a copy
    return FiniteQuantumGroup(
        structure, comul, counit, smat,
        label=f"C[{group.label}]",
        realization=DualRealization(group, irreps, basis, basis_inv),
    )


def chi_subgroup(dual, subgroup_elems):
    """chi_H = (1/|H|) sum_{h in H} delta^h, a group-like projection in CG."""
    real = dual.realization
    if not isinstance(real, DualRealization):
        raise StructuralError("chi_H lives on a group algebra")
    for h in subgroup_elems:
        _check_index("element index", h, real.group.order)
    if not is_subgroup(real.group, subgroup_elems):
        raise ValueError("the given subset is not closed under the group law")
    elems = np.sort(np.asarray(subgroup_elems, dtype=int))
    repeated = elems[1:][elems[1:] == elems[:-1]]
    if len(repeated):
        repeated = real.group.names[repeated[0]]
        raise ValueError(f"the subgroup lists element {repeated!r} more than once")
    coords = sum(real.basis[:, h] for h in subgroup_elems) / len(subgroup_elems)
    return dual.structure.from_coords(coords)


def _check_index(what, value, count):
    """Refuse ``value`` by name unless it is an integer in 0..count - 1; a boolean is not."""
    _require_integer(what, value)
    if not 0 <= value < count:
        raise ValueError(f"{what} {value} is outside 0..{count - 1}")


# -- states -----------------------------------------------------------------------


def _finite(name, values):
    """``values`` as a complex array; a NaN or infinite entry is refused by name."""
    arr = np.asarray(values, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def classical_state(fg, spec):
    """A probability on a classical group as a walk state on F(G).

    ``spec`` is ("point", g), ("uniform", iterable of distinct g) or
    ("weights", map g -> probability); elements may be names or indices.
    The density is f(s) = |G| mu({s}).
    """
    real = fg.realization
    if not isinstance(real, ClassicalRealization):
        raise StructuralError("classical states live on a function algebra")
    group = real.group

    def resolve(g):
        if isinstance(g, (bool, np.bool_)):
            raise ValueError(f"element index {g!r} is a boolean, not an element")
        if not isinstance(g, int):
            return group.index_of(g)
        if not 0 <= g < group.order:
            raise ValueError(f"element index {g} is outside 0..{group.order - 1}")
        return g

    kind, payload = spec
    weights = np.zeros(group.order)
    if kind == "point":
        weights[resolve(payload)] = 1.0
    elif kind == "uniform":
        idx = [resolve(g) for g in payload]
        if not idx:
            raise ValueError("uniform state needs a nonempty support")
        for k, g in enumerate(idx):
            if g in idx[:k]:
                raise ValueError(f"uniform state lists element {group.names[g]!r} twice")
        weights[idx] = 1.0 / len(idx)
    elif kind == "weights":
        for g, w in payload.items():
            try:
                if isinstance(w, (bool, np.bool_, str, bytes)):  # float() would read them
                    raise TypeError(w)
                w = float(w)
            except (TypeError, ValueError):
                raise ValueError(f"weight of {g!r} is not a number: {w!r}") from None
            weights[resolve(g)] = w
        _finite("weights", weights)
        if weights.min() < -WEIGHT_SIGN_TOL:
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > INPUT_NORM_TOL:
            raise ValueError("weights must sum to one")
    else:
        raise ValueError(f"unknown classical state kind {kind!r}")
    density = fg.structure.from_coords(group.order * weights)
    return WalkState(fg, density=density, label=f"{kind}")


def state_from_positive_definite(dual, rho, xi):
    """State on CG from a unitary representation and a unit vector.

    u(s) = <rho(s) xi, xi> with the inner product conjugate-linear on the
    right; the density is sum_t u(t^-1) delta^t.
    """
    real = dual.realization
    if not isinstance(real, DualRealization):
        raise StructuralError("positive-definite states live on a group algebra")
    group = real.group
    mats = _finite("rho", rho)
    xi = _finite("xi", xi)
    if abs(np.linalg.norm(xi) - 1.0) > INPUT_NORM_TOL:
        raise ValueError("xi must be a unit vector")
    defect = representation_defect(group, mats, USER_REP_TOL)
    if defect is not None:
        raise ValueError("rho is not unitary" if defect[0] == "unitary"
                         else "rho is not a homomorphism")
    values = np.array([np.vdot(xi, mats[g] @ xi) for g in range(group.order)])
    return dual_state_from_values(dual, values)


def dual_state_from_values(dual, values, check=True, label=""):
    """State on CG from the values u(s); density sum_t u(t^-1) delta^t.

    With ``check`` the density is verified positive, i.e. u is verified to be
    a positive-definite function.
    """
    real = dual.realization
    if not isinstance(real, DualRealization):
        raise StructuralError("u-value states live on a group algebra")
    group = real.group
    values = _finite("values", values)
    density_coords = sum(
        values[group.inv(t)] * real.basis[:, t] for t in range(group.order)
    )
    density = dual.structure.from_coords(density_coords)
    if check and not is_positive(density):
        raise ValueError("the given values are not a positive-definite function")
    return WalkState(dual, density=density, check=check, label=label or "dual state")


def dual_subgroup_state(dual, subgroup_elems):
    """The idempotent state with density chi_H / haar(chi_H)."""
    chi = chi_subgroup(dual, subgroup_elems)
    return WalkState(dual, density=chi * (1.0 / dual.haar(chi).real), label="chi_H state")


def kp_pure_state(kp, block, xi=None):
    """A pure state of the Kac-Paljutkin algebra on one matrix factor.

    For a one-dimensional factor the state is evaluation of that coordinate;
    for the 2x2 factor supply a unit vector xi and get a |-> <a_5 xi, xi>.
    """
    st = kp.structure
    _check_index("block", block, len(st.dims))
    n = st.dims[block]
    coeffs = np.zeros(st.dim, dtype=complex)
    if n == 1:
        coeffs[st.index(block, 0, 0)] = 1.0
    else:
        if xi is not None:
            xi = _finite("xi", xi)
        if xi is None or xi.shape != (n,) or abs(np.linalg.norm(xi) - 1.0) > INPUT_NORM_TOL:
            raise ValueError(f"xi must be a unit vector of length {n}")
        # <E_rc xi, xi> = xi[c] * conj(xi[r]); einsum multiplies as the scalars would,
        # where np.outer's SIMD loop may fuse the multiply-adds and move the last bit
        coeffs[st.offsets[block]:st.offsets[block + 1]] = np.einsum(
            "c,r->rc", xi, np.conj(xi)).ravel()
    return WalkState.from_functional_coeffs(kp, coeffs, label=f"pure block {block}")


def bloch_vector(theta, phi):
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


# -- Kac-Paljutkin ------------------------------------------------------------------


def _complex(pair):
    return complex(pair[0], pair[1])


def kac_paljutkin():
    """The eight-dimensional Kac-Paljutkin quantum group.

    Blocks (1,1,1,1,2) with basis eta, e2, e3, e4, E11, E12, E21, E22; the
    comultiplication, counit and antipode coordinates are loaded from
    data/kac_paljutkin.json (format documented there and in the README) and
    validated downstream by the Hopf axiom checker.
    """
    raw = json.loads(
        resources.files("qergodic").joinpath("data/kac_paljutkin.json").read_text()
    )
    dims = raw["block_dims"]
    structure = BlockStructure(dims)
    names = raw["basis"]
    D = structure.dim
    if len(names) != D:
        raise StructuralError("basis names do not match the block dimensions")
    dk = np.zeros((D * D, D), dtype=complex)
    eps = np.zeros(D, dtype=complex)
    smat = np.zeros((D, D), dtype=complex)
    for f, name in enumerate(names):
        entry = raw["maps"][name]
        for row in entry["delta"]:
            s, t, pair = row
            dk[s * D + t, f] = _complex(pair)
        eps[f] = _complex(entry["counit"])
        for k, pair in enumerate(entry["antipode"]):
            smat[k, f] = _complex(pair)
    dk.flags.writeable = smat.flags.writeable = False  # read-only: stored without a copy
    return FiniteQuantumGroup(structure, dk, LinearFunctional(structure, eps), smat,
                              label="Kac-Paljutkin")
