"""Seeded inputs of the three workloads, in plain Python (no numpy, no library).

A corpus is JSON data: the catalog entries, and one record per operation with
the walk to build (``state``), the call to make and what the independent
oracles expect.  Walks that depend on a random draw are grouped into classes
by their oracle verdict (tag and period) and one walk is drawn per class, so a
seed changes which walks run but not how many of each verdict, which keeps the
cost of a pass the same from seed to seed.

Regenerate and print a corpus with ``python3 perfbench/corpus.py <workload> <seed>``.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import sys

import groups_ref
import oracle

TRACE_KMAX = 100
CLI_KMAX = 60

ENTRIES = {
    "F(C4)": ("classical", "cyclic", 4),
    "F(C6)": ("classical", "cyclic", 6),
    "F(C8)": ("classical", "cyclic", 8),
    "F(C12)": ("classical", "cyclic", 12),
    "F(C16)": ("classical", "cyclic", 16),
    "F(C32)": ("classical", "cyclic", 32),
    "F(C48)": ("classical", "cyclic", 48),
    "F(S3)": ("classical", "symmetric", 3),
    "F(S4)": ("classical", "symmetric", 4),
    "F(D6)": ("classical", "dihedral", 6),
    "C[C6]": ("dual", "cyclic", 6),
    "C[C8]": ("dual", "cyclic", 8),
    "C[C12]": ("dual", "cyclic", 12),
    "C[C16]": ("dual", "cyclic", 16),
    "C[C32]": ("dual", "cyclic", 32),
    "C[S3]": ("dual", "symmetric", 3),
    "KP": ("kp", None, None),
}

# walks of F(C4) with mass eps on the identity and 1 - eps on the generator
EPS_WALKS = (1e-6, 1e-7, 1e-8, 1e-9)

KP_COUNIT_WEIGHT = 1 / 8  # Haar weight of each 1x1 block of Kac-Paljutkin
KP_MATRIX_WEIGHT = 1 / 4  # Haar weight of its 2x2 block


def ref_group(entry):
    kind, family, n = ENTRIES[entry]
    return groups_ref.build(family, n)


def cpair(z):
    z = complex(z)
    return [z.real, z.imag]


# -- random draws --------------------------------------------------------------------


def normalized(values):
    total = sum(values)
    return [v / total for v in values]


def random_unit_vector(rng, n):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [x / norm for x in v]


def random_psd2(rng, ridge):
    """A A* + ridge I for a random complex 2x2 A."""
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
    return [[sum(a[r][k] * a[c][k].conjugate() for k in range(2)) + (ridge if r == c else 0)
             for c in range(2)] for r in range(2)]


def outer(v):
    return [[v[r] * v[c].conjugate() for c in range(len(v))] for r in range(len(v))]


def pick_per_class(rng, candidates):
    """One candidate per oracle class, drawn with ``rng``; classes in a fixed order."""
    classes = {}
    for cand in candidates:
        key = (cand["expect"]["tag"], cand["expect"]["d"])
        classes.setdefault(key, []).append(cand)
    return [rng.choice(classes[key]) for key in sorted(classes)]


# -- walks on F(G) ----------------------------------------------------------------------


def classical_walk(group, weights, via="weights", payload=None):
    """A walk on F(G) from a weight vector; ``payload`` overrides the state spec."""
    if payload is None:
        payload = {group.names[g]: w for g, w in enumerate(weights) if w > 0}
    expect = oracle.classify_weights(group, weights)
    expect["sub"] = [group.names[g] for g in expect["sub"]]
    expect["proj"] = "names"
    return {"state": {"via": via, "payload": payload}, "expect": expect,
            "weights": {group.names[g]: w for g, w in enumerate(weights)}}


def point_mass(group, g):
    w = [0.0] * group.order
    w[g] = 1.0
    return w


def uniform_on(group, elems):
    w = [0.0] * group.order
    for g in elems:
        w[g] = 1.0 / len(elems)
    return w


def random_faithful_weights(rng, group):
    return normalized([rng.uniform(0.05, 1.0) for _ in range(group.order)])


def random_sparse_weights(rng, group):
    """Mass on the identity and on a third of the other elements.

    The weight floor keeps the walk away from near-reducible ones; on cyclic groups,
    whose spectrum is at hand, slow draws are also redrawn.
    """
    while True:
        others = rng.sample(range(1, group.order), max(1, group.order // 3))
        w = [0.0] * group.order
        for g in [0] + others:
            w[g] = rng.uniform(0.3, 1.0)
        w = normalized(w)
        if not (group.label.startswith("C") and oracle.slow(oracle.cyclic_eigenvalues(w))):
            return w


def lazy_weights(rng, group, steps):
    lam = rng.uniform(0.6, 0.8)
    w = [0.0] * group.order
    w[0] = lam
    for g in steps:
        w[group.index[g]] += (1 - lam) / len(steps)
    return w


LAZY_STEPS = {"cyclic": lambda g: ["1", str(g.order - 1)],
              "symmetric": lambda g: ["(12)", "(123)" if g.order == 6 else "(1234)"],
              "dihedral": lambda g: ["r1", "s0"]}


def verdict_classical(rng, entry):
    group = ref_group(entry)
    subs = groups_ref.subgroups(group)
    ops = []

    def add(kind, walks):
        for walk in walks:
            ops.append(dict(walk, entry=entry, kind=kind))

    add("point", pick_per_class(rng, [
        classical_walk(group, point_mass(group, g), "point", group.names[g])
        for g in range(group.order)]))
    add("subgroup_uniform", pick_per_class(rng, [
        classical_walk(group, uniform_on(group, h), "subgroup_uniform",
                       [group.names[x] for x in sorted(h)])
        for h in subs]))
    add("coset_uniform", pick_per_class(rng, [
        classical_walk(group, uniform_on(group, c), "uniform", [group.names[x] for x in sorted(c)])
        for h in subs if 1 < len(h) < group.order
        for c in groups_ref.cosets(group, h) if 0 not in c]))
    lazies = []
    for g in range(1, group.order):
        w = [0.0] * group.order
        w[0] = w[g] = 0.5
        lazies.append(classical_walk(group, w))
    add("lazy", pick_per_class(rng, lazies))
    pairs = []
    for a in range(group.order):
        for b in range(a + 1, group.order):
            w = [0.0] * group.order
            w[a] = rng.uniform(0.2, 0.8)
            w[b] = 1.0 - w[a]
            pairs.append(classical_walk(group, w))
    add("sparse_weights", pick_per_class(rng, pairs))
    add("random_faithful", [classical_walk(group, random_faithful_weights(rng, group))
                            for _ in range(2)])
    add("random_nonfaithful", [classical_walk(group, random_sparse_weights(rng, group))
                               for _ in range(2)])
    return ops


# -- walks on group algebras --------------------------------------------------------------


def u_from_blocks(group, reps, blocks):
    """u(s) = sum_a (d_a/|G|) tr(F_a rho_a(s)): the function of the density (+)_a F_a."""
    u = []
    for s in range(group.order):
        total = 0j
        for rep, f in zip(reps, blocks):
            d = len(f)
            m = rep[s]
            total += d / group.order * sum(f[r][c] * m[c][r] for r in range(d) for c in range(d))
        u.append(total)
    return u


def dual_walk(group, u, via="u_values", extra=None):
    """A walk on C[G] given by its positive-definite function u."""
    state = {"via": via, "values": {group.names[s]: cpair(u[s]) for s in range(group.order)}}
    state.update(extra or {})
    walk = {"state": state, "u": [cpair(z) for z in u]}
    if group.label.startswith("C"):
        # Fourier: block j of the density is d_j = sum_s u(s) omega^(-js), the weight d_j/n
        # of character j, and characters multiply like Z_n
        n = group.order
        w = [sum(u[s] * cmath.exp(-2j * math.pi * j * s / n) for s in range(n)).real / n
             for j in range(n)]
        walk["weights"] = [max(x, 0.0) for x in w]
        walk["expect"] = oracle.classify_weights(groups_ref.cyclic(n), walk["weights"])
        walk["expect"]["proj"] = "blocks"
    else:
        walk["expect"] = oracle.classify_u(group, u)
        walk["expect"]["proj"] = "ranks"
        walk["expect"]["ranks"] = oracle.chi_ranks(groups_ref.irreps(group), walk["expect"]["sub"])
    return walk


def cyclic_u(n, weights):
    """u of the C[C_n] walk whose character weights are ``weights``."""
    return [sum(weights[j] * cmath.exp(2j * math.pi * j * s / n) for j in range(n))
            for s in range(n)]


def random_dual_blocks(rng, reps, faithful):
    """Random positive blocks F_a normalized to sum_a (d_a/|G|) tr F_a = 1."""
    blocks = []
    for a, rep in enumerate(reps):
        d = len(rep[0])
        if d == 1:
            keep = faithful or a == 0
            blocks.append([[rng.uniform(0.05, 1.0) if keep else 0.0]])
        elif faithful:
            blocks.append(random_psd2(rng, 0.05))
        else:
            blocks.append(outer(random_unit_vector(rng, d)))
    order = sum(len(rep[0]) ** 2 for rep in reps)
    norm = sum(len(f) / order * sum(f[i][i] for i in range(len(f))).real for f in blocks)
    return [[[x / norm for x in row] for row in f] for f in blocks]


def random_dual_walk(rng, group, faithful):
    """A random walk on C[G]; its eigenvalues are the values of u, and slow ones are redrawn."""
    reps = groups_ref.irreps(group)
    while True:
        if group.label.startswith("C"):
            w = (random_faithful_weights(rng, group) if faithful
                 else random_sparse_weights(rng, group))
            u = cyclic_u(group.order, w)
        else:
            u = u_from_blocks(group, reps, random_dual_blocks(rng, reps, faithful))
        if not oracle.slow(u):
            return dual_walk(group, u)


def s3_readme_walks(group):
    """The two dual-S3 walks of the README."""
    xi = [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0]
    u = [sum(xi[p[i]] * xi[i] for i in range(3)) for p in group.perms]
    perm_walk = dual_walk(group, u, "positive_definite", {"rep": "permutation", "xi": xi})
    # the integer form of the standard representation, generated by
    # (12) -> [[-1, 1], [0, 1]] and (123) -> [[0, -1], [1, -1]]
    gens = {group.index["(12)"]: ((-1, 1), (0, 1)), group.index["(123)"]: ((0, -1), (1, -1))}
    mats = {0: ((1, 0), (0, 1))}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for h, m in gens.items():
                k = group.mul(h, g)
                if k not in mats:
                    a = mats[g]
                    mats[k] = tuple(tuple(sum(m[r][x] * a[x][c] for x in range(2)) for c in range(2))
                                    for r in range(2))
                    nxt.append(k)
        frontier = nxt
    v = (1 / math.sqrt(3), math.sqrt(2) / math.sqrt(3))
    u2 = [sum(v[r] * mats[s][r][c] * v[c] for r in range(2) for c in range(2))
          for s in range(group.order)]
    return [dict(perm_walk, kind="readme_permutation"),
            dict(dual_walk(group, u2, "u_values_unchecked"), kind="readme_twodim")]


def verdict_dual(rng, entry):
    group = ref_group(entry)
    ops = []
    for h in groups_ref.subgroups(group):
        walk = dual_walk(group, [1.0 if s in h else 0.0 for s in range(group.order)], "chi",
                         {"subgroup": [group.names[x] for x in sorted(h)]})
        ops.append(dict(walk, kind="chi_subgroup"))
    for faithful, kind in ((True, "random_faithful"), (False, "random_nonfaithful")):
        for _ in range(2):
            ops.append(dict(random_dual_walk(rng, group, faithful), kind=kind))
    if group.label == "S3":
        ops.extend(s3_readme_walks(group))
    return [dict(op, entry=entry) for op in ops]


# -- Kac-Paljutkin ---------------------------------------------------------------------------


def kp_density(scalars, matrix):
    return [[[cpair(x)]] for x in scalars] + [[[cpair(x) for x in row] for row in matrix]]


def kp_normalize(scalars, matrix):
    norm = KP_COUNIT_WEIGHT * sum(scalars) + KP_MATRIX_WEIGHT * (matrix[0][0] + matrix[1][1]).real
    return [x / norm for x in scalars], [[x / norm for x in row] for row in matrix]


def bloch(rng):
    theta = rng.uniform(0.35, math.pi - 0.35)
    phi = rng.uniform(0.0, 2 * math.pi)
    return [complex(math.cos(theta / 2)), cmath.exp(1j * phi) * math.sin(theta / 2)]


def kp_expect(tag, coords, d=0):
    return {"tag": tag, "d": d, "sub": coords, "proj": "coords"}


def kp_random(rng, support):
    """A KP density: random positive scalars on ``support`` (1x1 blocks), plus the 2x2 block
    when ``support`` is None (faithful)."""
    if support is None:
        scalars, matrix = [rng.uniform(0.05, 1.0) for _ in range(4)], random_psd2(rng, 0.05)
        expect = kp_expect("ergodic", list(range(8)))
    else:
        scalars = [rng.uniform(0.05, 1.0) if b in support else 0.0 for b in range(4)]
        matrix = [[0j, 0j], [0j, 0j]]
        # eta + e_b, and the sum of the 1x1 blocks, are group-like
        expect = kp_expect("reducible", sorted(support))
    scalars, matrix = kp_normalize(scalars, matrix)
    return {"state": {"via": "density", "blocks": kp_density(scalars, matrix)},
            "expect": expect}


def verdict_kp(rng):
    ops = []
    for b in range(4):
        # the pure state on a 1x1 block b is reducible onto eta + e_b (eta is block 0)
        ops.append({"state": {"via": "kp_pure", "block": b, "xi": None},
                    "expect": kp_expect("reducible", sorted({0, b})), "kind": "kp_pure"})
    for _ in range(2):
        ops.append({"state": {"via": "kp_pure", "block": 4, "xi": [cpair(x) for x in bloch(rng)]},
                    "expect": kp_expect("periodic", [0, 1, 2, 3], 2), "kind": "kp_pure"})
    for _ in range(2):
        ops.append(dict(kp_random(rng, None), kind="random_faithful"))
    ops.append(dict(kp_random(rng, {0, rng.randrange(1, 4)}), kind="random_nonfaithful"))
    ops.append(dict(kp_random(rng, {0, 1, 2, 3}), kind="random_nonfaithful"))
    return [dict(op, entry="KP") for op in ops]


# -- the three corpora ------------------------------------------------------------------------


VERDICT_ENTRIES = ["F(C6)", "F(C8)", "F(C12)", "F(C16)", "F(S3)", "F(S4)", "F(D6)",
                   "C[C6]", "C[C8]", "C[C12]", "C[S3]", "KP", "F(C4)"]


def verdict_corpus(rng):
    ops = []
    for entry in VERDICT_ENTRIES[:7]:
        ops.extend(verdict_classical(rng, entry))
    for entry in VERDICT_ENTRIES[7:11]:
        ops.extend(verdict_dual(rng, entry))
    ops.extend(verdict_kp(rng))
    c4 = ref_group("F(C4)")
    for eps in EPS_WALKS:
        walk = classical_walk(c4, [eps, 1 - eps, 0.0, 0.0])
        ops.append(dict(walk, entry="F(C4)", kind="near_periodic"))
    return ops


TRACE_ENTRIES = ["F(S3)", "F(S4)", "F(D6)", "F(C16)", "F(C32)", "F(C48)",
                 "C[C16]", "C[C32]", "C[S3]", "KP"]
# cheap entries that carry a second faithful and non-faithful walk, so that the
# corpus has 40 operations and its tail percentile ten samples beyond it
TRACE_DOUBLED = ["F(S3)", "F(D6)", "F(C16)", "C[S3]", "KP"]


def trace_walks(rng, entry, lazy):
    kind, family, n = ENTRIES[entry]
    if kind == "kp":
        walks = [kp_random(rng, None), kp_random(rng, {0, 1, 2, 3})]
        if lazy:
            lam = rng.uniform(0.6, 0.8)
            # lam * (counit density 8 eta) + (1 - lam) * (pure state xi on the 2x2 block)
            pure = outer(bloch(rng))
            scalars = [lam / KP_COUNIT_WEIGHT, 0.0, 0.0, 0.0]
            matrix = [[(1 - lam) / KP_MATRIX_WEIGHT * x for x in row] for row in pure]
            walks.append({"state": {"via": "density", "blocks": kp_density(scalars, matrix)},
                          "expect": kp_expect("ergodic", list(range(8)))})
        return walks
    group = ref_group(entry)
    if kind == "classical":
        walks = [classical_walk(group, random_faithful_weights(rng, group)),
                 classical_walk(group, random_sparse_weights(rng, group))]
        if lazy:
            walks.append(classical_walk(group, lazy_weights(rng, group, LAZY_STEPS[family](group))))
        return walks
    walks = [random_dual_walk(rng, group, True), random_dual_walk(rng, group, False)]
    if lazy:
        if family == "cyclic":
            u = cyclic_u(n, lazy_weights(rng, group, LAZY_STEPS[family](group)))
        else:
            lam = rng.uniform(0.6, 0.8)
            std = groups_ref.irreps(group)[2]
            xi = random_unit_vector(rng, 2)
            u = [lam + (1 - lam) * sum(xi[r].conjugate() * std[s][r][c] * xi[c]
                                       for r in range(2) for c in range(2))
                 for s in range(group.order)]
        walks.append(dual_walk(group, u))
    return walks


def trace_corpus(rng):
    ops = []
    kinds = ["random_faithful", "random_nonfaithful", "lazy"]
    for entry in TRACE_ENTRIES:
        for kind, walk in zip(kinds, trace_walks(rng, entry, True)):
            ops.append(dict(walk, entry=entry, kind=kind))
    for entry in TRACE_DOUBLED:
        for kind, walk in zip(kinds, trace_walks(rng, entry, False)):
            ops.append(dict(walk, entry=entry, kind=kind))
    return ops


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdict":
        ops = verdict_corpus(rng)
    elif workload == "trace":
        ops = trace_corpus(rng)
    elif workload == "cli":
        import cli_corpus

        ops = cli_corpus.cli_corpus(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, op in enumerate(ops):
        op["id"] = i
    entries = sorted({op["entry"] for op in ops if "entry" in op})
    return {"workload": workload, "seed": seed, "kmax": TRACE_KMAX, "entries": entries,
            "ops": ops}


if __name__ == "__main__":
    corpus = build(sys.argv[1], int(sys.argv[2]))
    json.dump(corpus, sys.stdout, indent=1)
    sys.stdout.write("\n")
