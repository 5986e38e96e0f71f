"""Every numeric threshold of the library, each named once.

A gate compares a measured quantity with one of these constants; no function
takes a tolerance that only ever had one value.  Each constant has one
comment line: what it gates and why it has that size.  "Chosen" means the
value was picked by hand with room above the roundoff the gate sees, not
derived from a bound.  Gates that happen to share a value keep separate
names, so that one can move without the others.
"""

# -- elements, states and inputs -------------------------------------------------

# ||a - a*|| and the most negative block eigenvalue of a positive a: chosen, far above D * eps
POSITIVITY_TOL = 1e-9
# eigenvalues closer than this form one spectral projection, or one spectrum cluster: chosen
CLUSTER_TOL = 1e-8
# density eigenvalues above this span the support projection: chosen, not yet a roundoff bound
SUPPORT_CUTOFF = 1e-8
# haar(f) = 1 and nu(1) = 1 of a checked state: chosen, looser than positivity
STATE_NORM_TOL = 1e-8
# given classical weights sum to 1 and a given xi has norm 1: chosen, above input rounding
INPUT_NORM_TOL = 1e-9
# a given classical weight may be this negative and count as 0: chosen, float roundoff of input
WEIGHT_SIGN_TOL = 1e-12
# the CLI rescales a config's xi only when its norm is this close to 1: chosen for 4-digit xi
XI_NORM_GATE = 1e-3
# a user-supplied representation is unitary and multiplicative to this: chosen
USER_REP_TOL = 1e-9
# bundled irreducible representations, built in closed form, pass the same laws to this: chosen
IRREP_TOL = 1e-10
# the Gram matrix of the irreducible characters is the identity to this: chosen
CHAR_ORTHOGONALITY_TOL = 1e-9

# -- Hopf structure ----------------------------------------------------------------

# singular values of the Haar invariance system below this times the largest are null: chosen
HAAR_NULL_RTOL = 1e-10
# identities of the structure maps checked at build time (Haar state, counit, characters): chosen
STRUCTURE_TOL = 1e-9
# each Haar block weight must exceed this, or the Haar state is not faithful: chosen
HAAR_WEIGHT_FLOOR = 1e-12
# p = p* = p^2, projections are equal, and a group-like defect's Frobenius norm, within this: chosen
PROJECTION_EQ_TOL = 1e-8
# identities a passed gate implies (counit(p) = 1, S(p) = p, density p / h(p)); failure is a bug
IMPLIED_IDENTITY_TOL = 1e-7
# census singular values at most this times the largest are null: chosen; measured 7e-16 vs 0.26
CENSUS_NULL_RTOL = 1e-9

# -- walks and the Cesaro limit ----------------------------------------------------

# singular values of T - I at most this span the fixed points of T, and T(p) = p to this: chosen
KERNEL_TOL = 1e-8
# above this condition number of the eigenvalue-1 Gram matrix, 1 is not semisimple: chosen
SEMISIMPLE_COND_MAX = 1e8
# spectral vs Haar, census or squared Cesaro limits: chosen; caps settled_power's 2^k D eps floor
AGREEMENT_TOL = 1e-9
# settled_power accepts a square whose step is below the larger of this and its floor: chosen
SETTLE_STEP_FLOOR = 1e-12
# c of c k D eps, the roundoff nu^(*k) leaves outside its census projection: chosen, measured <= 4.1
CENSUS_MASS_FACTOR = 16
# TV(phi * phi, phi) of an idempotent state: each census q / h(q), a Cesaro limit with none: chosen
IDEMPOTENCE_TOL = 1e-9
# a TV or QSD step of the distance trace may rise by this roundoff: chosen
MONOTONE_SLACK = 1e-10
# |lambda| >= 1 - this is on the unit circle, and |lambda| <= 1 + this is in the disc: chosen
PERIPHERAL_TOL = 1e-9
# each peripheral eigenvalue matches a d-th root of unity to this: chosen, looser than the cut
ROOT_OF_UNITY_TOL = 1e-7
# the cyclic partition snaps T(p) to its spectral projections above this: halfway from 0 to 1
PARTITION_SNAP = 0.5

# -- the verdict and the partial criteria ------------------------------------------

# k_star is the first step at which |lambda_2|^k falls below this
GAP_DECAY_TARGET = 1e-12
# TV(nu^(*k_star), haar) must be below this for an ergodic verdict: chosen, far above the target
ERGODIC_TV_TOL = 1e-6
# a projection is reached when some nu^(*k) gives it more mass than this: chosen
REACH_MASS_FLOOR = 1e-12
# Hermitian parts of basis elements below this norm are zero: chosen
ZERO_ELEMENT_TOL = 1e-10
# Zhang: every eigenvalue lies in the ball of radius 1 - nu(eta) about nu(eta), plus this
ZHANG_BALL_TOL = 1e-9
# Zhang's criterion applies when nu(eta) exceeds this: chosen
ZHANG_MASS_FLOOR = 1e-12
# Freslon: |u| = 1 and u multiplicative on a subgroup, to this: chosen
CHARACTER_TOL = 1e-9
# a character equal to 1 everywhere is the trivial one; characters are closed forms
TRIVIAL_CHAR_TOL = 1e-12
# Baraquin: the density equals its expansion over the characters, so the state is central
CHARACTER_SPAN_TOL = 1e-9
# Baraquin: ergodic when |f_a| < d_a - this for every non-trivial a: chosen
COEFF_MARGIN = 1e-9
# p is central when 2 ||p_k - (tr p_k / n_k) I|| <= this per block; it bounds ||[p, E_ij]||: chosen
COMMUTATOR_TOL = 1e-9

# -- the CLI's experiment probes ---------------------------------------------------

# the cyclic comultiplication identity is reported as holding at most this ("holds_at_1e-8")
CYCLIC_COMUL_TOL = 1e-8
# a random compressed density with Haar mass below this is skipped: chosen
PROBE_MASS_FLOOR = 1e-8
# p_nu <= p_mu is taken to hold when ||p_mu p_nu - p_nu|| is at most this: chosen
PROBE_ORDER_TOL = 1e-9
# ||p_mu2 p_nu2 - p_nu2|| above this counts as a violation of support monotonicity: chosen
PROBE_VIOLATION_TOL = 1e-7
