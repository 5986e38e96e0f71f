"""Seeded configs of the ``cli`` workload, in plain Python (no numpy, no library).

Each operation is one ``qergodic <command> --config <file> --out <dir>`` call.
Together they cover the four group sources, the six state kinds and the six
commands.  ``describe`` stays at D <= 8 and ``grouplikes`` at D <= 8, where
each call takes at most about two seconds.
"""

from __future__ import annotations

import cmath
import math

import corpus
import groups_ref
import oracle

Q8_FILE = "<q8-cayley-file>"  # replaced by the path of the table the set-up writes


def classical_expect(group, weights):
    exp = oracle.classify_weights(group, weights)
    return {"tag": exp["tag"], "d": exp["d"],
            "weights": {group.names[g]: w for g, w in enumerate(weights)}}


def dual_expect(group, u):
    walk = corpus.dual_walk(group, u)
    out = {"tag": walk["expect"]["tag"], "d": walk["expect"]["d"], "u": walk["u"]}
    if "weights" in walk:
        out["weights"] = walk["weights"]
    return out


def s3_central_density(rng):
    """f = trivial + s sign + t standard, which stays positive for these ranges."""
    s, t = rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)
    group = groups_ref.symmetric(3)
    chars = {"e": (1, 2), "(12)": (-1, 0), "(13)": (-1, 0), "(23)": (-1, 0),
             "(123)": (1, -1), "(132)": (1, -1)}
    f = [1 + s * chars[name][0] + t * chars[name][1] for name in group.names]
    return {"trivial": 1.0, "sign": s, "standard": t}, [x / 6 for x in f]


def cyclic_central_density(rng, n):
    """f = chi_0 + c chi_j + conj(c) chi_{-j} with |c| < 1/2, so f > 0."""
    j = rng.randrange(1, n // 2)
    c = cmath.rect(rng.uniform(0.1, 0.45), rng.uniform(0, 2 * math.pi))
    f = [1 + 2 * (c * cmath.exp(2j * math.pi * j * s / n)).real for s in range(n)]
    coeffs = {"chi0": 1.0, f"chi{j}": corpus.cpair(c), f"chi{n - j}": corpus.cpair(c.conjugate())}
    return coeffs, [x / n for x in f]


def kp_random_density(rng, support):
    walk = corpus.kp_random(rng, support)
    coords = []
    for block in walk["state"]["blocks"]:
        for row in block:
            coords.extend(row)
    return coords, walk["expect"]["tag"]


def cli_corpus(rng):
    ops = []

    def add(entry, config, commands, expect, extra=()):
        for cmd in commands:
            ops.append({"entry": entry, "command": cmd, "config": dict(config, schema=1),
                        "extra": list(extra), "expect": expect})

    c6, c8, c4, c12 = (groups_ref.cyclic(n) for n in (6, 8, 4, 12))
    s3, d4, q8 = groups_ref.symmetric(3), groups_ref.dihedral(4), groups_ref.quaternion()
    family = lambda fam, n: {"classical": {"family": fam, "n": n}}
    dual = lambda fam, n: {"dual": {"family": fam, "n": n}}

    # classical family sources with point, weights, uniform and central states
    g = rng.randrange(1, 6)
    add("F(C6)", {"group": family("cyclic", 6), "state": {"point": g}},
        ["verdict", "trace", "spectrum"], classical_expect(c6, corpus.point_mass(c6, g)))
    w = corpus.random_sparse_weights(rng, c8)
    add("F(C8)", {"group": family("cyclic", 8),
         "state": {"weights": {c8.names[x]: p for x, p in enumerate(w) if p > 0}}},
        ["verdict", "spectrum", "describe"], classical_expect(c8, w))
    subs = [h for h in groups_ref.subgroups(s3) if len(h) > 1]
    coset = sorted(rng.choice(groups_ref.cosets(s3, rng.choice(subs))))
    add("F(S3)", {"group": family("symmetric", 3), "state": {"uniform": [s3.names[x] for x in coset]}},
        ["verdict", "grouplikes", "experiment"], classical_expect(s3, corpus.uniform_on(s3, coset)))
    w = corpus.random_faithful_weights(rng, d4)
    add("F(D4)", {"group": family("dihedral", 4), "kmax": corpus.CLI_KMAX,
         "state": {"weights": dict(zip(d4.names, w))}},
        ["trace", "verdict", "describe", "grouplikes"], classical_expect(d4, w))
    coeffs, w = s3_central_density(rng)
    add("F(S3)", {"group": family("symmetric", 3), "state": {"central": {"coefficients": coeffs}}},
        ["verdict", "spectrum"], classical_expect(s3, w))
    coeffs, w = cyclic_central_density(rng, 12)
    add("F(C12)", {"group": family("cyclic", 12), "state": {"central": {"coefficients": coeffs}}},
        ["verdict", "trace"], classical_expect(c12, w), ["--format", "json"])

    # a Cayley-table source: the quaternion group, which no catalog family builds
    g = rng.randrange(1, 8)
    add("F(Q8)", {"group": {"classical": {"cayley_file": Q8_FILE}}, "state": {"point": q8.names[g]}},
        ["verdict", "spectrum"], classical_expect(q8, corpus.point_mass(q8, g)))
    w = corpus.random_faithful_weights(rng, q8)
    add("F(Q8)", {"group": {"classical": {"cayley_file": Q8_FILE}},
         "state": {"weights": dict(zip(q8.names, w))}},
        ["trace", "describe", "grouplikes"], classical_expect(q8, w), ["--kmax", "40"])

    # dual sources with positive-definite, central and density states
    k = rng.randrange(1, 8)
    add("C[C8]", {"group": dual("cyclic", 8),
         "state": {"positive_definite": {"rep": f"character:{k}", "xi": [1.0]}}},
        ["verdict", "trace", "spectrum"],
        dual_expect(c8, [cmath.exp(2j * math.pi * k * s / 8) for s in range(8)]))
    while True:  # u((ij)) = 1 - (xi_i - xi_j)^2 is slow when xi_i ~ xi_j
        xi = corpus.random_unit_vector(rng, 3)
        xi = [abs(x) * (1 if x.real >= 0 else -1) for x in xi]
        u = [sum(xi[p[i]] * xi[i] for i in range(3)) for p in s3.perms]
        if not oracle.slow(u):
            break
    add("C[S3]", {"group": dual("symmetric", 3),
         "state": {"positive_definite": {"rep": "permutation", "xi": xi}}},
        ["verdict", "trace", "experiment"], dual_expect(s3, u))
    std = groups_ref.irreps(s3)[2]
    while True:
        xi = corpus.random_unit_vector(rng, 2)
        u = [sum(xi[r].conjugate() * std[s][r][c] * xi[c] for r in range(2) for c in range(2))
             for s in range(6)]
        if not oracle.slow(u):
            break
    add("C[S3]", {"group": dual("symmetric", 3),
         "state": {"positive_definite": {"rep": "standard", "xi": [corpus.cpair(x) for x in xi]}}},
        ["verdict", "spectrum", "grouplikes"], dual_expect(s3, u), ["--format", "json"])
    w = corpus.random_faithful_weights(rng, c6)
    u = corpus.cyclic_u(6, w)
    # a dual entry's central coefficients are those of delta^g in the density: u(g^-1)
    add("C[C6]", {"group": dual("cyclic", 6),
         "state": {"central": {"coefficients": {c6.names[s]: corpus.cpair(u[c6.inv(s)])
                                                for s in range(6)}}}},
        ["verdict", "describe"], dual_expect(c6, u))
    reps = groups_ref.irreps(s3)
    blocks = corpus.random_dual_blocks(rng, reps, True)
    coords = [x for f in blocks for row in f for x in row]
    add("C[S3]", {"group": dual("symmetric", 3), "state": {"density": [corpus.cpair(x) for x in coords]}},
        ["verdict", "trace"], {"tag": "ergodic", "d": 0, "properties": True})
    add("C[C4]", {"group": dual("cyclic", 4),
         "state": {"positive_definite": {"rep": "character:2", "xi": [1.0]}}},
        ["grouplikes", "verdict"],
        dual_expect(c4, [cmath.exp(2j * math.pi * 2 * s / 4) for s in range(4)]))

    # Kac-Paljutkin, and a density state on a classical entry
    coords, tag = kp_random_density(rng, None)
    add("KP", {"group": {"kac_paljutkin": {}}, "state": {"density": coords}},
        ["verdict", "trace", "spectrum", "describe", "grouplikes", "experiment"],
        {"tag": tag, "d": 0, "properties": True})
    coords, tag = kp_random_density(rng, {0, rng.randrange(1, 4)})
    add("KP", {"group": {"kac_paljutkin": {}}, "state": {"density": coords}},
        ["verdict"], {"tag": tag, "d": 0})
    w = corpus.random_faithful_weights(rng, c4)
    add("F(C4)", {"group": family("cyclic", 4), "state": {"density": [4 * x for x in w]}},
        ["spectrum", "experiment"], classical_expect(c4, w))
    return ops
