"""The batched distance trace against the per-step loop it replaces.

``distances_to_random`` stacks the functionals nu^(*k) chunk by chunk and
takes the norms of a whole chunk from one SVD per block size.  The oracle
below is the per-step loop: one density, one subtraction and one single-row
``lp_norms`` call per k.  Rows must agree exactly, so batching changes no
printed digit of a trace.  The orbit under the stepping must be bitwise the
``np.matmul`` loop it replaced, and a walk on C_n must give the trace of its
Pontryagin dual on C[C_n].
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergodic import walks
from qergodic.blocks import BlockStructure, DomainError, lp_norms, random_element
from qergodic.catalog import (
    classical_state,
    dual_state_from_values,
    function_algebra,
    group_algebra,
)
from qergodic.groups import cyclic_group, s3_standard_integral
from qergodic.walks import NumericError, WalkState, distances_to_random, random_state


def reference_trace(nu, kmax):
    """Rows (k, tv, l2, qsd) one step at a time, with the monotonicity guard per step."""
    group = nu.group
    T = walks.stochastic_operator(nu)
    unit = group.unit
    rows = []
    coeffs = nu.functional.coeffs
    prev_tv = prev_qsd = None
    for k in range(1, kmax + 1):
        diff = group.structure.from_coords(walks.densities_from_functionals(group, coeffs)) - unit
        l1, l2, qsd = lp_norms(group.structure, diff.coords(), group.haar_weights)
        tv = 0.5 * l1
        if nu.checked and prev_tv is not None:
            if tv > prev_tv + 1e-10 or qsd > prev_qsd + 1e-10:
                raise NumericError(f"distance trace increased at step {k}")
        prev_tv, prev_qsd = tv, qsd
        rows.append((k, tv, l2, qsd))
        coeffs = T.T @ coeffs
    return rows


@pytest.fixture(scope="module")
def f_c48():
    return function_algebra(cyclic_group(48))


@pytest.fixture(scope="module")
def trace_walks(f_c48, perm_state, kp, twodim_state):
    """A checked walk on F(C48), C[S3] and Kac-Paljutkin, and the formal two-dim walk."""
    rng = np.random.default_rng(11)
    return {
        "F(C48)": random_state(f_c48, rng, ridge=0.05),
        "C[S3]": perm_state,
        "KP": random_state(kp, rng, ridge=0.05),
        "two-dim": twodim_state,
    }


def formal_twodim_checked(dual_s3, s3):
    """A fresh copy of the two-dim walk, marked checked although it is not positive."""
    xi = np.array([1.0, np.sqrt(2)]) / np.sqrt(3)
    values = np.array([xi @ m @ xi for m in s3_standard_integral(s3)])
    nu = dual_state_from_values(dual_s3, values, check=False, label="two-dim walk")
    nu.checked = True
    return nu


@pytest.mark.parametrize("name", ["F(C48)", "C[S3]", "KP", "two-dim"])
def test_rows_equal_the_per_step_loop(trace_walks, name):
    nu = trace_walks[name]
    chunk = walks._TRACE_BATCH // nu.group.dim
    for kmax in (1, 2 * chunk + 5):  # the second crosses two chunk boundaries
        rows = distances_to_random(nu, kmax)
        assert rows == reference_trace(nu, kmax)
        assert all(type(k) is int and type(tv) is float for k, tv, _, _ in rows)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_rows_do_not_depend_on_the_chunk_length(trace_walks, monkeypatch, steps):
    for nu in trace_walks.values():
        want = reference_trace(nu, 10)
        monkeypatch.setattr(walks, "_TRACE_BATCH", steps * nu.group.dim)
        assert distances_to_random(nu, 10) == want


@pytest.mark.parametrize("steps", [None, 1, 2, 5])
def test_guard_names_the_first_rising_step(dual_s3, s3, monkeypatch, steps):
    # TV falls but QSD rises from 2.105 to 2.111 at step 2; chunks of one step
    # put the rise across a chunk boundary, where the (tv, qsd) carried from
    # the previous chunk must catch it
    nu = formal_twodim_checked(dual_s3, s3)
    with pytest.raises(NumericError, match="increased at step 2$"):
        reference_trace(nu, 12)
    if steps is not None:
        monkeypatch.setattr(walks, "_TRACE_BATCH", steps * nu.group.dim)
    with pytest.raises(NumericError, match="increased at step 2$"):
        distances_to_random(nu, 12)


@pytest.mark.parametrize("dims", [(1, 1, 1, 1, 2), (1, 1, 2), (1,) * 8, (3, 1, 2, 2, 3), (2,)])
def test_stacked_lp_norms_equal_row_by_row_calls(dims):
    structure = BlockStructure(dims)
    rng = np.random.default_rng(sum(dims))
    weights = rng.random(len(dims)) + 0.1
    stack = np.array([random_element(structure, rng).coords() for _ in range(7)])
    l1, l2, linf = lp_norms(structure, stack, weights)
    assert l1.shape == l2.shape == linf.shape == (7,)
    rows = [lp_norms(structure, c, weights) for c in stack]
    assert all(type(x) is float for row in rows for x in row)
    assert list(zip(l1.tolist(), l2.tolist(), linf.tolist())) == rows


def test_one_svd_per_chunk(kp, monkeypatch):
    # KP has four 1x1 blocks (closed form, no SVD) and one 2x2 block
    nu = random_state(kp, np.random.default_rng(5), ridge=0.05)
    kp.haar_weights  # the Haar solve makes SVDs of its own; keep it out of the count
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    distances_to_random(nu, 100)
    assert calls == [(100, 1, 2, 2)]
    calls.clear()
    monkeypatch.setattr(walks, "_TRACE_BATCH", 30 * kp.dim)
    distances_to_random(nu, 100)
    assert calls == [(30, 1, 2, 2)] * 3 + [(10, 1, 2, 2)]


def matmul_orbit(M, x, n):
    """The orbit as one ``np.matmul`` ufunc call per step, the loop ``_orbit`` replaced."""
    rows = np.empty((n, len(x)), dtype=complex)
    rows[0] = x
    for j in range(1, n):
        np.matmul(M, rows[j - 1], out=rows[j])
    return rows


@pytest.mark.parametrize("name", ["F(C48)", "C[S3]", "KP", "two-dim"])
@pytest.mark.parametrize("n", [1, 2, 3, 101])
def test_orbit_is_bitwise_the_matmul_loop(trace_walks, name, n):
    nu = trace_walks[name]
    T = walks.stochastic_operator(nu)
    x = nu.functional.coeffs
    # the C-order operator, as cyclic_partition passes it, and its transpose view,
    # as distances_to_random, is_irreducible and experiment pass it
    for M in (T, T.T):
        rows = walks._orbit(M, x, n)
        assert rows.shape == (n, len(x)) and rows.flags.c_contiguous
        assert rows.tobytes() == matmul_orbit(M, x, n).tobytes()


@functools.cache
def cyclic_pair(n):
    """F(C_n) and C[C_n], built once per n."""
    return function_algebra(cyclic_group(n)), group_algebra(cyclic_group(n))


@st.composite
def cyclic_measures(draw):
    """A probability vector on C_n, n = 4..16; zero weights and point masses included."""
    n = draw(st.integers(4, 16))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if weights.sum() < 1e-3:
        weights[draw(st.integers(0, n - 1))] = 1.0
    return weights / weights.sum()


@settings(max_examples=60, deadline=None)
@given(cyclic_measures())
def test_trace_of_a_cyclic_walk_is_the_trace_of_its_pontryagin_dual(mu):
    # C[C_n] is F of the dual group, and j -> (k -> w^(jk)) identifies it with C_n,
    # so mu and u(k) = sum_j mu(j) w^(jk) are one walk up to a Hopf *-isomorphism,
    # and every distance to the Haar state is the same.  The two routes round apart
    # by about k n eps times the distance, and a point mass has QSD n - 1, so the
    # bound is relative to distances above 1
    n = len(mu)
    f_cn, c_cn = cyclic_pair(n)
    nu = classical_state(f_cn, ("weights", dict(enumerate(mu.tolist()))))
    u = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) @ mu
    dual = dual_state_from_values(c_cn, u)
    rows, dual_rows = distances_to_random(nu, 60), distances_to_random(dual, 60)
    assert [r[0] for r in rows] == [r[0] for r in dual_rows] == list(range(1, 61))
    rows, dual_rows = np.array(rows), np.array(dual_rows)
    assert (np.abs(rows - dual_rows) <= 1e-12 * np.maximum(1.0, np.abs(rows))).all()


@pytest.mark.parametrize("size, step", [(1e200, 2), (1e40, 8)])
@pytest.mark.parametrize("steps", [None, 1, 3])
def test_a_trace_that_overflows_is_refused(f_c4, dual_s3, monkeypatch, size, step, steps):
    # a formal functional of size 1e200 overflows to inf and NaN at its second step
    # (1e40 at its eighth), which on 1x1 blocks gave NaN rows and on a 2x2 block an
    # SVD that did not converge; chunks of one or three steps put the overflow past
    # the first chunk, and the refusal must still name the step, not the chunk's row
    one_by_one = WalkState.from_functional_coeffs(f_c4, np.array([size, size, 0, 0]),
                                                  check=False)
    two_by_two = dual_state_from_values(dual_s3, [size] * 6, check=False)
    for nu in (one_by_one, two_by_two):
        if steps is not None:
            monkeypatch.setattr(walks, "_TRACE_BATCH", steps * nu.group.dim)
        with np.errstate(all="ignore"):
            with pytest.raises(DomainError,
                               match=f"^functional coefficient 0 of step {step} is not finite"):
                distances_to_random(nu, 10)
            # the steps before the overflow are finite
            assert len(distances_to_random(nu, step - 1)) == step - 1
