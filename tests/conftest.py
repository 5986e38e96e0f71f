import numpy as np
import pytest

from qergodic.catalog import function_algebra, group_algebra, kac_paljutkin
from qergodic.groups import cyclic_group, symmetric_group


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def f_s3(s3):
    return function_algebra(s3)


@pytest.fixture(scope="session")
def dual_s3(s3):
    return group_algebra(s3)


@pytest.fixture(scope="session")
def f_c2():
    return function_algebra(cyclic_group(2))


@pytest.fixture(scope="session")
def f_c4():
    return function_algebra(cyclic_group(4))


@pytest.fixture(scope="session")
def kp():
    return kac_paljutkin()


@pytest.fixture(scope="session")
def catalog_all(f_s3, dual_s3, kp):
    """The full acceptance roll: F(C2..C8), F(S3), C[C2..C8], C[S3], Kac-Paljutkin."""
    entries = [function_algebra(cyclic_group(n)) for n in range(2, 9)]
    entries.append(f_s3)
    entries.extend(group_algebra(cyclic_group(n)) for n in range(2, 9))
    entries.append(dual_s3)
    entries.append(kp)
    return entries


def projection_defects(p):
    """(||p - p*||, ||p - p p||): both at most tol is what a projection test at tol checks."""
    return (p - p.adjoint()).norm_inf(), (p - p * p).norm_inf()


def perm_rep_matrices(group):
    mats = []
    for p in group.perms:
        m = np.zeros((len(p), len(p)))
        for i, x in enumerate(p):
            m[x, i] = 1.0
        mats.append(m)
    return mats


@pytest.fixture(scope="session")
def perm_state(dual_s3, s3):
    """The dual-S3 walk from the permutation representation and (1,-1,0)/sqrt(2)."""
    from qergodic.catalog import state_from_positive_definite

    xi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    return state_from_positive_definite(dual_s3, perm_rep_matrices(s3), xi)


@pytest.fixture(scope="session")
def twodim_state(dual_s3, s3):
    """The dual-S3 walk with the quoted two-dimensional-representation coefficients.

    The coefficient set comes from the integer form of the standard
    representation with xi = (1, sqrt(2))/sqrt(3); it is carried as an
    unchecked functional (see the catalog docs).
    """
    from qergodic.catalog import dual_state_from_values
    from qergodic.groups import s3_standard_integral

    xi = np.array([1.0, np.sqrt(2)]) / np.sqrt(3)
    values = np.array([xi @ m @ xi for m in s3_standard_integral(s3)])
    return dual_state_from_values(dual_s3, values, check=False, label="two-dim walk")
