"""The batched distance trace against the per-step loop it replaces.

``distances_to_random`` stacks the functionals nu^(*k) chunk by chunk and
takes the norms of a whole chunk from one SVD per block size.  The oracle
below is the per-step loop: one density, one subtraction and one single-row
``lp_norms`` call per k.  Rows must agree exactly, so batching changes no
printed digit of a trace.
"""

import numpy as np
import pytest

from qergodic import walks
from qergodic.blocks import BlockStructure, lp_norms, random_element
from qergodic.catalog import dual_state_from_values, function_algebra
from qergodic.groups import cyclic_group, s3_standard_integral
from qergodic.walks import NumericError, distances_to_random, random_state


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
