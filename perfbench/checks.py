"""Checks of the library's outputs against the oracles, made with numpy alone.

Every check returns None when the output is right and a one-line reason when
it is not.  Nothing here calls the library: outputs are read as plain numbers
(coordinates, rows, the bytes of a CLI file) and compared with what the
reference groups and the corpus' expectations give.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import corpus
import groups_ref

PROJ_TOL = 1e-8
DIST_TOL = 1e-9
SPECTRUM_TOL = 1e-6
MONOTONE_SLACK = 1e-10


def ref_group(entry):
    if entry == "F(Q8)":
        return groups_ref.quaternion()
    family, n = {"C": "cyclic", "S": "symmetric", "D": "dihedral"}[entry[2]], int(entry[3:-1])
    return groups_ref.build(family, n)


def block_dims(entry):
    if entry == "KP":
        return [1, 1, 1, 1, 2]
    if entry == "C[S3]":
        return [1, 1, 2]
    return [1] * ref_group(entry).order


def haar_weights(entry):
    """Closed forms: 1/|G| on F(G), d_a/|G| on C[G], (1/8, 1/8, 1/8, 1/8, 1/4) on KP."""
    if entry == "KP":
        return [corpus.KP_COUNIT_WEIGHT] * 4 + [corpus.KP_MATRIX_WEIGHT]
    dims = block_dims(entry)
    order = sum(d * d for d in dims)
    return [(d if entry.startswith("C") else 1) / order for d in dims]


def split_blocks(coords, dims):
    out, pos = [], 0
    for d in dims:
        out.append(np.asarray(coords[pos:pos + d * d]).reshape(d, d))
        pos += d * d
    return out


# -- classical and character-side computations ----------------------------------------------


def weight_vector(group, weights):
    if isinstance(weights, dict):
        return np.array([weights[name] for name in group.names], dtype=float)
    return np.asarray(weights, dtype=float)


def transition(group, w):
    """P[x, x s] = w(s): one step of the walk x -> x s."""
    table = np.asarray(group.table)
    P = np.zeros((group.order, group.order))
    for s in np.nonzero(w)[0]:
        P[np.arange(group.order), table[:, s]] += w[s]
    return P


def classical_distances(group, w, kmax):
    """Rows (k, tv, l2, qsd) of the classical walk: mu_k = w * ... * w (k factors)."""
    P = transition(group, w)
    n = group.order
    mu = w.copy()
    rows = []
    for k in range(1, kmax + 1):
        dev = n * mu - 1.0
        rows.append((k, 0.5 * np.abs(mu - 1.0 / n).sum(), np.sqrt(np.mean(dev ** 2)),
                     np.abs(dev).max()))
        mu = mu @ P
    return rows


def reps_array(group):
    return [np.array(rep, dtype=complex) for rep in groups_ref.irreps(group)]


def u_distances(group, u, kmax):
    """Rows from the k-th pointwise power of u, assembled through the irreducibles.

    The density of nu^(*k) is sum_t u(t^-1)^k delta^t, and delta^e is the unit.
    """
    reps = reps_array(group)
    weights = [rep.shape[1] / group.order for rep in reps]
    u_inv = np.array([u[group.inv(t)] for t in range(group.order)])
    rows = []
    for k in range(1, kmax + 1):
        c = u_inv ** k
        c[0] -= 1.0
        tv = l2sq = qsd = 0.0
        for rep, w in zip(reps, weights):
            sing = np.linalg.svd(np.tensordot(c, rep, axes=1), compute_uv=False)
            tv += 0.5 * w * sing.sum()
            l2sq += w * (sing ** 2).sum()
            qsd = max(qsd, sing.max())
        rows.append((k, tv, np.sqrt(l2sq), qsd))
    return rows


def expected_rows(entry, expect, kmax):
    """Oracle rows, or None where only the distance properties can be checked.

    ``expect`` holds the walk's classical or Fourier ``weights``, or its function ``u``.
    """
    if expect.get("properties") or entry == "KP":
        return None
    group = ref_group(entry)
    if "weights" in expect:  # F(G), and C[C_n] through the Fourier identification
        if entry.startswith("C["):
            group = groups_ref.cyclic(group.order)
        return classical_distances(group, weight_vector(group, expect["weights"]), kmax)
    u = np.array([complex(*z) for z in expect["u"]])
    return u_distances(group, u, kmax)


def expected_spectrum(entry, expect):
    group = ref_group(entry)
    if entry.startswith("C["):
        # the stochastic operator of C[G] is delta^s -> u(s) delta^s
        return np.array([complex(*z) for z in expect["u"]])
    return np.linalg.eigvals(transition(group, weight_vector(group, expect["weights"])))


# -- distances ------------------------------------------------------------------------------


def check_rows(rows, kmax, expected):
    rows = [tuple(float(x) for x in row) for row in rows]
    if len(rows) != kmax or [int(r[0]) for r in rows] != list(range(1, kmax + 1)):
        return f"expected rows k = 1..{kmax}"
    for k, tv, l2, qsd in rows:
        if not (-MONOTONE_SLACK <= tv <= 1 + MONOTONE_SLACK
                and 2 * tv <= l2 + MONOTONE_SLACK and l2 <= qsd + MONOTONE_SLACK):
            return f"row {int(k)} breaks 0 <= TV <= 1 or 2 TV <= L2 <= QSD"
    for a, b in zip(rows, rows[1:]):
        if b[1] > a[1] + MONOTONE_SLACK or b[3] > a[3] + MONOTONE_SLACK:
            return f"TV or QSD increased at row {int(b[0])}"
    if expected is not None:
        got = np.array([r[1:] for r in rows])
        want = np.array([r[1:] for r in expected])
        err = np.abs(got - want).max()
        if err > DIST_TOL:
            return f"distances differ from the oracle by {err:.2e}"
    return None


# -- verdicts -------------------------------------------------------------------------------


def check_projection(entry, expect, coords, lib_names):
    """Compare the certificate projection with the oracle's subgroup."""
    coords = np.asarray(coords)
    kind = expect["proj"]
    if kind == "ranks":  # C[S3]: ranks of chi_H block by block are basis free
        ranks = []
        for block in split_blocks(coords, block_dims(entry)):
            if np.abs(block - block.conj().T).max() > PROJ_TOL or \
                    np.abs(block @ block - block).max() > PROJ_TOL:
                return "certificate is not a projection"
            ranks.append(int(round(np.trace(block).real)))
        return None if ranks == expect["ranks"] else f"block ranks {ranks} != {expect['ranks']}"
    if kind == "names":
        want = np.array([1.0 if name in expect["sub"] else 0.0 for name in lib_names])
    else:  # "blocks" (C[C_n], block j is character j) and "coords" (KP's 1x1 blocks)
        want = np.zeros(len(coords))
        want[expect["sub"]] = 1.0
    err = np.abs(coords - want).max()
    return None if err <= PROJ_TOL else f"certificate differs from the oracle by {err:.2e}"


def check_verdict(op, verdict, lib_names):
    expect = op["expect"]
    if verdict.tag != expect["tag"]:
        return f"tag {verdict.tag} != oracle {expect['tag']}"
    if expect["tag"] == "reducible":
        return check_projection(op["entry"], expect, verdict.quasi_subgroup.coords(), lib_names)
    if expect["tag"] == "periodic":
        if verdict.partition.period != expect["d"]:
            return f"period {verdict.partition.period} != oracle {expect['d']}"
        return check_projection(op["entry"], expect, verdict.partition.projections[0].coords(),
                                lib_names)
    return None


# -- CLI outputs ----------------------------------------------------------------------------


def parse_output(command, text):
    """Parse a CLI output file: JSON for every command, or the CSV of trace/spectrum."""
    if text.startswith("{"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    header = {"trace": ["k", "tv", "l2", "qsd"], "spectrum": ["re", "im", "multiplicity"]}
    if rows[0] != header[command]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    return rows[1:]


def match_spectrum(got, want):
    remaining = list(got)
    for z in want:
        j = int(np.argmin([abs(z - g) for g in remaining]))
        if abs(z - remaining[j]) > SPECTRUM_TOL:
            return f"eigenvalue {z:.6g} is missing from the spectrum"
        remaining.pop(j)
    return None


def check_cli(op, text, kmax):
    """Check one CLI output file's content against the oracles."""
    command, entry, expect = op["command"], op["entry"], op["expect"]
    try:
        out = parse_output(command, text)
    except (ValueError, IndexError) as exc:
        return f"output does not parse: {exc}"
    if command == "verdict":
        if out["tag"] != expect["tag"]:
            return f"tag {out['tag']} != oracle {expect['tag']}"
        if expect["tag"] == "periodic" and out["d"] != expect["d"]:
            return f"period {out['d']} != oracle {expect['d']}"
        return None
    if command == "trace":
        rows = ([(r["k"], r["tv"], r["l2"], r["qsd"]) for r in out["rows"]]
                if isinstance(out, dict) else out)
        return check_rows(rows, kmax, expected_rows(entry, expect, kmax))
    if command == "spectrum":
        rows = ([(r["re"], r["im"], r["multiplicity"]) for r in out["eigenvalues"]]
                if isinstance(out, dict) else out)
        got = [complex(float(re), float(im)) for re, im, m in rows for _ in range(int(m))]
        if len(got) != sum(d * d for d in block_dims(entry)):
            return "multiplicities do not add up to the dimension"
        if entry == "KP":
            ok = max(abs(z) for z in got) <= 1 + 1e-9 and min(abs(z - 1) for z in got) <= 1e-9
            return None if ok else "spectrum leaves the unit disc or misses 1"
        return match_spectrum(got, expected_spectrum(entry, expect))
    if command == "describe":
        if out["block_dims"] != block_dims(entry):
            return f"block dims {out['block_dims']}"
        if float(out["max_residual"]) > 1e-9:
            return f"Hopf residual {out['max_residual']}"
        weights = np.array([float(w) for w in out["haar_block_weights"]])
        if np.abs(weights - haar_weights(entry)).max() > 1e-12:
            return "Haar weights differ from the closed form"
        # the Haar element is the first coordinate: the identity of F(G), the trivial
        # representation of C[G], eta of KP
        eta = np.array([complex(float(a), float(b)) for a, b in out["haar_element"]])
        want = np.zeros(len(eta))
        want[0] = 1.0
        return None if np.abs(eta - want).max() <= 1e-9 else "Haar element is not the counit block"
    if command == "grouplikes":
        return check_grouplikes(entry, out)
    if command == "experiment":
        cyc = out["cyclic_comultiplication"]
        if expect["tag"] == "periodic":
            if cyc is None or cyc["period"] != expect["d"]:
                return "experiment reports no or another period"
        elif cyc is not None:
            return "experiment reports a period for an aperiodic walk"
        mono = out["support_monotonicity"]
        if mono["trials"] + mono["skipped"] != 40 or len(out["cesaro_chain"]) != 12:
            return "experiment probe counts are off"
        return None
    return f"unknown command {command}"


def check_grouplikes(entry, out):
    projections = out["projections"]
    if out["count"] != len(projections):
        return "count does not match the listed projections"
    if entry == "KP":
        nonc = sum(1 for p in projections if not p["central"])
        return None if out["count"] == 8 and nonc >= 2 else "KP census is not 8 with 2 non-central"
    group = ref_group(entry)
    subs = groups_ref.subgroups(group)
    if entry.startswith("F("):
        want = sorted((len(h) / group.order, True) for h in subs)
    else:
        # chi_H has Haar mass 1/|H| and is central exactly when H is normal
        want = sorted((1 / len(h), all(group.mul(group.mul(g, x), group.inv(g)) in h
                                       for g in range(group.order) for x in h)) for h in subs)
    got = sorted((float(p["haar_mass"]), p["central"]) for p in projections)
    if len(got) != len(want):
        return f"{len(got)} group-like projections, {len(want)} subgroups"
    for (gm, gc), (wm, wc) in zip(got, want):
        if abs(gm - wm) > 1e-9 or gc != wc:
            return "Haar masses or centrality differ from the subgroups"
    return None
