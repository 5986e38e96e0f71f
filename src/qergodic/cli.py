"""Batch front door: parse a walk configuration, run diagnostics, emit results.

Every command is a thin composition of library calls.  Output is bit-stable:
floats are printed with 17 significant digits, rows come in a fixed order,
and the experiment probes use a fixed seed, so identical configs produce
byte-identical files.

Exit codes: 0 success, 2 malformed configuration, 3 unsupported combination,
4 unwritable destination.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import blocks, catalog, ergodicity, walks
from .groups import build_group, permutation_matrices, s3_standard_integral
from .hopf import UnsupportedError
from .tolerances import (
    CLUSTER_TOL,
    CYCLIC_COMUL_TOL,
    POSITIVITY_TOL,
    PROBE_MASS_FLOOR,
    PROBE_ORDER_TOL,
    PROBE_VIOLATION_TOL,
    XI_NORM_GATE,
)

SCHEMA_VERSION = 1
PROBE_TRIALS = 40  # support-monotonicity trials of experiment
CHAIN_LENGTH = 12  # Cesaro averages in experiment's chain

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["group", "state"],
    "properties": {
        "schema": {"const": 1},
        "kmax": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "group": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "classical": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "family": {"enum": ["cyclic", "symmetric", "dihedral"]},
                        "n": {"type": "integer", "minimum": 1},
                        "cayley_file": {"type": "string"},
                    },
                },
                "dual": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family", "n"],
                    "properties": {
                        "family": {"enum": ["cyclic", "symmetric"]},
                        "n": {"type": "integer", "minimum": 1},
                    },
                },
                "kac_paljutkin": {"type": "object", "additionalProperties": False},
            },
        },
        "state": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "point": {"type": ["string", "integer"]},
                "uniform": {"type": "array", "items": {"type": ["string", "integer"]},
                            "minItems": 1},
                "weights": {"type": "object"},
                "positive_definite": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["rep", "xi"],
                    "properties": {"rep": {"type": "string"}, "xi": {"type": "array"}},
                },
                "density": {"type": "array"},
                "central": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["coefficients"],
                    "properties": {"coefficients": {"type": "object"}},
                },
            },
        },
    },
}


class ConfigError(Exception):
    exit_code = 2


class UnsupportedCombination(Exception):
    exit_code = 3


# what building a group or a state raises on input it refuses: GroupValidationError,
# DomainError and ShapeError are ValueErrors, a Cayley entry that is not a number is a TypeError,
# and an order too large to allocate is a MemoryError; any other exception is a fault
_REFUSALS = (ValueError, TypeError, MemoryError)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, where):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or an [re, im] pair, got {value!r}")


def parse_config(source):
    """Validate a config (dict, JSON text, or path) against the documented schema."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if not source.lstrip().startswith("{"):
            try:
                with open(source) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
        try:
            raw = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}")
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise
    error = best_match(_config_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"config field {path}: {error.message}")
    return raw


def _reject_constant(name):
    # json.loads takes NaN, Infinity and -Infinity by default; NaN passes every x > tol refusal
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON value")


@functools.cache
def _config_validator():
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def build_quantum_group(group_spec):
    if "kac_paljutkin" in group_spec:
        return catalog.kac_paljutkin()
    if "classical" in group_spec:
        g = group_spec["classical"]
        if "cayley_file" in g:
            if "family" in g or "n" in g:
                raise ConfigError("classical group: give a family or a cayley_file, not both")
            try:
                with open(g["cayley_file"]) as fh:
                    payload = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot load cayley_file: {exc}")
            if isinstance(payload, dict) and "table" not in payload:
                raise ConfigError('cayley_file: the JSON object has no "table" field')
            table = payload["table"] if isinstance(payload, dict) else payload
            try:
                return catalog.function_algebra(build_group("cayley", table=table))
            except _REFUSALS as exc:
                raise ConfigError(f"invalid Cayley table: {exc}")
        if "family" not in g or "n" not in g:
            raise ConfigError("classical group needs a family and n, or a cayley_file")
        try:
            # JSON Schema counts 4.0 as an integer; the group constructors want an int
            return catalog.function_algebra(build_group(g["family"], n=int(g["n"])))
        except _REFUSALS as exc:
            raise ConfigError(f"cannot build classical group: {exc}")
    g = group_spec["dual"]
    try:
        return catalog.group_algebra(build_group(g["family"], n=int(g["n"])))
    except _REFUSALS as exc:
        raise UnsupportedCombination(f"cannot build the dual entry: {exc}")


def _resolve_rep(dual, name):
    real = dual.realization
    group = real.group
    if name == "permutation" and group.perms is not None:
        return permutation_matrices(group), True
    if name == "standard_integral" and group.label == "S3":
        return s3_standard_integral(group), False
    if name.startswith("character:") and group.label.startswith("C"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"positive_definite rep {name!r}: the character index "
                              "is not an integer")
        omega = np.exp(2j * np.pi / group.order)
        return [np.array([[omega ** (k * g)]]) for g in range(group.order)], True
    for irr in real.irreps.irreps:
        if irr.name == name:
            return irr.matrices, True
    raise UnsupportedCombination(f"unknown representation {name!r} for {group.label}")


def build_state(qgroup, state_spec):
    """Resolve a state spec against a catalog entry."""
    real = qgroup.realization
    kind = next(iter(state_spec))
    payload = state_spec[kind]
    if kind in ("point", "uniform", "weights"):
        if not isinstance(real, catalog.ClassicalRealization):
            raise UnsupportedCombination(f"{kind} states live on classical entries")
        try:
            return catalog.classical_state(qgroup, (kind, payload))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid {kind} state: {exc}")
    if kind == "positive_definite":
        if not isinstance(real, catalog.DualRealization):
            raise UnsupportedCombination("positive_definite states live on dual entries")
        mats, unitary = _resolve_rep(qgroup, payload["rep"])
        xi = np.array([_as_complex(v, "xi") for v in payload["xi"]])
        if xi.shape[0] != mats[0].shape[0]:
            raise ConfigError(
                f"xi has length {len(xi)} but the representation acts on C^{mats[0].shape[0]}"
            )
        nrm = np.linalg.norm(xi)
        if abs(nrm - 1.0) > XI_NORM_GATE:
            raise ConfigError(f"xi norm {nrm:.6f} is too far from 1 to auto-normalize")
        xi = xi / nrm
        if unitary:
            return catalog.state_from_positive_definite(qgroup, mats, xi)
        values = np.array([np.vdot(xi, m @ xi) for m in mats])
        return catalog.dual_state_from_values(qgroup, values, check=False,
                                              label=payload["rep"])
    if kind == "density":
        coords = np.array([_as_complex(v, "density") for v in payload])
        if coords.shape[0] != qgroup.dim:
            raise ConfigError(
                f"density has {len(coords)} coordinates, the algebra needs {qgroup.dim}"
            )
        try:
            return walks.WalkState.from_density(qgroup, qgroup.structure.from_coords(coords))
        except _REFUSALS as exc:
            raise ConfigError(f"invalid density: {exc}")
    if kind == "central":
        coeffs = {k: _as_complex(v, f"coefficients[{k}]") for k, v in payload["coefficients"].items()}
        if isinstance(real, catalog.DualRealization):
            g = real.group
            coords = qgroup.structure.zero().coords().copy()
            for name, c in coeffs.items():
                try:
                    coords = coords + c * real.basis[:, g.index_of(name)]
                except KeyError as exc:
                    raise ConfigError(str(exc))
            try:
                return walks.WalkState.from_density(qgroup, qgroup.structure.from_coords(coords))
            except _REFUSALS as exc:
                raise ConfigError(f"coefficients do not give a state: {exc}")
        if isinstance(real, catalog.ClassicalRealization) and real.irreps is not None:
            density = qgroup.structure.zero()
            names = {r.name: r for r in real.irreps.irreps}
            for name, c in coeffs.items():
                if name not in names:
                    raise ConfigError(f"unknown character {name!r}")
                density = density + c * qgroup.structure.from_coords(names[name].character())
            try:
                return walks.WalkState.from_density(qgroup, density)
            except _REFUSALS as exc:
                raise ConfigError(f"coefficients do not give a state: {exc}")
        raise UnsupportedCombination("central states need character data for the entry")
    raise ConfigError(f"unknown state kind {kind!r}")


# -- serialization -----------------------------------------------------------------


def _fmt(x):
    return format(float(x), ".17g")


def _pair(z):
    return [_fmt(z.real), _fmt(z.imag)]


def _coords_json(element):
    return [_pair(z) for z in element.coords()]


def emit(text, destination, filename):
    """Write the rendered payload; stdout when no output directory was given."""
    if destination is None:
        sys.stdout.write(text)
        return None
    try:
        os.makedirs(destination, exist_ok=True)
        path = os.path.join(destination, filename)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(4)
    return path


def _json_text(payload):
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# -- commands ----------------------------------------------------------------------


def cmd_describe(qgroup, state, args):
    report = qgroup.verify_axioms()
    payload = {
        "schema": SCHEMA_VERSION,
        "label": qgroup.label,
        "block_dims": list(qgroup.structure.dims),
        "hopf_residuals": {k: _fmt(v) for k, v in report.residuals.items()},
        "max_residual": _fmt(report.max_residual),
        "haar_block_weights": [_fmt(w) for w in qgroup.haar_weights],
        "haar_element": _coords_json(qgroup.haar_element),
    }
    return _json_text(payload), "describe.json"


def cmd_trace(qgroup, state, args):
    rows = walks.distances_to_random(state, args.kmax)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "rows": [{"k": k, "tv": _fmt(tv), "l2": _fmt(l2), "qsd": _fmt(qsd)}
                     for k, tv, l2, qsd in rows],
        }
        return _json_text(payload), "trace.json"
    lines = ["k,tv,l2,qsd"]
    for k, tv, l2, qsd in rows:
        lines.append(f"{k},{_fmt(tv)},{_fmt(l2)},{_fmt(qsd)}")
    return "\n".join(lines) + "\n", "trace.csv"


def cmd_verdict(qgroup, state, args):
    verdict = ergodicity.classify(state)
    payload = {
        "schema": SCHEMA_VERSION,
        "tag": verdict.tag,
        "peripheral": [_pair(z) for z in verdict.peripheral],
        "spectrum": [_pair(z) for z in verdict.spectrum],
        "cesaro_support": _coords_json(verdict.cesaro_support),
        "tv_samples": [[k, _fmt(tv)] for k, tv in verdict.tv_samples],
    }
    if verdict.tag == "reducible":
        payload["quasi_subgroup"] = _coords_json(verdict.quasi_subgroup)
    if verdict.tag == "periodic":
        payload["d"] = verdict.partition.period
        payload["partition"] = [_coords_json(p) for p in verdict.partition.projections]
    return _json_text(payload), "verdict.json"


def cmd_spectrum(qgroup, state, args):
    ev = walks.eigenvalues(walks.stochastic_operator(state))
    cluster_tol = args.tol if args.tol is not None else CLUSTER_TOL
    clusters = []
    for z in ev:
        for c in clusters:
            if abs(c["value"] - z) <= cluster_tol:
                c["mult"] += 1
                break
        else:
            clusters.append({"value": z, "mult": 1})
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "eigenvalues": [
                {"re": _fmt(c["value"].real), "im": _fmt(c["value"].imag),
                 "multiplicity": c["mult"]}
                for c in clusters
            ],
        }
        return _json_text(payload), "spectrum.json"
    lines = ["re,im,multiplicity"]
    for c in clusters:
        lines.append(f"{_fmt(c['value'].real)},{_fmt(c['value'].imag)},{c['mult']}")
    return "\n".join(lines) + "\n", "spectrum.csv"


def cmd_grouplikes(qgroup, state, args):
    try:
        projections = qgroup.find_group_like_projections()
    except UnsupportedError as exc:
        raise UnsupportedCombination(str(exc))
    entries = []
    for p in projections:
        entries.append({
            "coords": _coords_json(p),
            "central": blocks.is_central(p),  # p is group-like, as the census verified
            "haar_mass": _fmt(qgroup.haar(p).real),
        })
    payload = {"schema": SCHEMA_VERSION, "count": len(entries), "projections": entries}
    return _json_text(payload), "grouplikes.json"


def _support_monotonicity(qgroup, rng):
    """(trials, skipped, violations) of the probe: does p_nu <= p_mu force p_{nu*nu} <= p_{mu*mu}?

    Each trial draws a positive h, cuts ``cut1 <= cut2`` into its spectral
    clusters (a trial with one cluster draws nothing more and is skipped),
    then positive a and b: nu and mu are the states of small a small and
    big b big, with small (big) the sum of h's first cut1 (cut2) cluster
    projections.  A trial with a Haar mass below ``PROBE_MASS_FLOOR``, or
    with p_nu <= p_mu failing, is skipped.  Only the draws run trial by
    trial, in that fixed order; the rest runs once over the stack of trials.
    """
    st = qgroup.structure
    skipped = 0
    draws = []  # (h, cut1, cut2, a, b) per trial with two clusters
    for _ in range(PROBE_TRIALS):
        h = blocks.random_positive(st, rng)
        count = int(blocks.cluster_counts(h._eighs()))
        if count < 2:
            skipped += 1
            continue
        cut1 = rng.integers(1, count)
        cut2 = rng.integers(cut1, count + 1)
        draws.append((h, cut1, cut2, blocks.random_element(st, rng).coords(),
                      blocks.random_element(st, rng).coords()))
    if not draws:
        return 0, skipped, 0
    h, cut1, cut2, a, b = zip(*draws)
    if np.any(blocks.hermitian_defects(st, np.array([e.coords() for e in h])) > POSITIVITY_TOL):
        raise blocks.DomainError("spectral decomposition requires a Hermitian element")
    eigs = tuple(tuple(np.stack(arrs) for arrs in zip(*pairs))
                 for pairs in zip(*(e._eighs() for e in h)))
    cluster, means = blocks.spectral_clusters(eigs)
    parts = blocks.cluster_projections(st, eigs, cluster, means.shape[-1])
    rank = np.arange(means.shape[-1])
    small = blocks.projection_sums(parts, rank < np.array(cut1)[:, None])
    big = blocks.projection_sums(parts, rank < np.array(cut2)[:, None])
    a, b = (blocks.products(st, blocks.adjoints(st, z), z) for z in (np.array(a), np.array(b)))
    da = blocks.products(st, blocks.products(st, small, a), small)
    db = blocks.products(st, blocks.products(st, big, b), big)
    mass_a, mass_b = qgroup.haar.values(da).real, qgroup.haar.values(db).real
    heavy = (mass_a >= PROBE_MASS_FLOOR) & (mass_b >= PROBE_MASS_FLOOR)
    skipped += int(np.count_nonzero(~heavy))
    nu = da[heavy] * (1 / mass_a[heavy])[:, None]
    mu = db[heavy] * (1 / mass_b[heavy])[:, None]
    nu_f, mu_f = (walks.functionals_from_densities(qgroup, d) for d in (nu, mu))
    p_nu = walks.support_projections(qgroup, nu, nu_f)
    p_mu = walks.support_projections(qgroup, mu, mu_f)
    ordered = blocks.norms_inf(st, blocks.products(st, p_mu, p_nu) - p_nu) <= PROBE_ORDER_TOL
    skipped += int(np.count_nonzero(~ordered))

    def self_convolution_supports(f):
        c = walks.convolution_coeffs(qgroup, f, f)
        return walks.support_projections(qgroup, walks.densities_from_functionals(qgroup, c), c)

    p_nu2 = self_convolution_supports(nu_f[ordered])
    p_mu2 = self_convolution_supports(mu_f[ordered])
    violated = blocks.norms_inf(st, blocks.products(st, p_mu2, p_nu2) - p_nu2) > PROBE_VIOLATION_TOL
    return int(np.count_nonzero(ordered)), skipped, int(np.count_nonzero(violated))


def cmd_experiment(qgroup, state, args):
    """Numeric probes for the open questions; reported, never asserted."""
    rng = np.random.default_rng(0)
    payload = {"schema": SCHEMA_VERSION}

    verdict = ergodicity.classify(state)
    if verdict.tag == "periodic":
        d = verdict.partition.period
        P = np.array([p.coords() for p in verdict.partition.projections])
        # outer[i, j] = p_{i-j} (x) p_j in product coordinates, summed in order of j
        shifted = P[(np.arange(d)[:, None] - np.arange(d)) % d]
        outer = (shifted[:, :, :, None] * P[None, :, None, :]).reshape(d, d, -1)
        target = outer[..., qgroup.split.perm].cumsum(axis=1)[:, -1, :]
        deltas = P @ qgroup.comul_kron[qgroup.split.perm].T
        worst = float(blocks.norms_inf(qgroup.split.product, deltas - target).max())
        payload["cyclic_comultiplication"] = {
            "period": d,
            "max_residual": _fmt(worst),
            "holds_at_1e-8": bool(worst <= CYCLIC_COMUL_TOL),
        }
    else:
        payload["cyclic_comultiplication"] = None

    trials, skipped, violations = _support_monotonicity(qgroup, rng)
    payload["support_monotonicity"] = {
        "question": "does p_nu <= p_mu force p_{nu*nu} <= p_{mu*mu}",
        "trials": trials,
        "skipped": skipped,
        "violations": violations,
    }

    chain = []
    if state.checked:
        powers = walks._orbit(walks.stochastic_operator(state).T, state.functional.coeffs,
                              CHAIN_LENGTH)
        averages = powers.cumsum(axis=0) / np.arange(1, CHAIN_LENGTH + 1)[:, None]
        supports = walks.support_projections(
            qgroup, walks.densities_from_functionals(qgroup, averages), averages)
        chain = [{"n": n, "haar_mass": _fmt(mass.real)}
                 for n, mass in enumerate(qgroup.haar.values(supports), 1)]
    payload["cesaro_chain"] = chain
    return _json_text(payload), "experiment.json"


COMMANDS = {
    "describe": (cmd_describe, "json"),
    "trace": (cmd_trace, "csv"),
    "verdict": (cmd_verdict, "json"),
    "spectrum": (cmd_spectrum, "csv"),
    "grouplikes": (cmd_grouplikes, "json"),
    "experiment": (cmd_experiment, "json"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qergodic",
        description="Random walks on finite quantum groups: diagnostics and the ergodicity verdict.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file or inline JSON")
    parser.add_argument("--kmax", type=int, default=None, help="trace length override")
    parser.add_argument("--tol", type=float, default=None,
                        help="eigenvalue clustering tolerance of spectrum (default 1e-8)")
    parser.add_argument("--out", default=None, help="output directory (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.kmax is None:  # JSON Schema counts 3.0 as an integer; the trace wants an int
            args.kmax = int(config.get("kmax", 50))
        elif args.kmax < 1:  # the schema's bound on the config's kmax
            raise ConfigError(f"--kmax: {args.kmax} is less than the minimum of 1")
        if args.tol is None:
            args.tol = config.get("tol")  # None means spectrum's default, CLUSTER_TOL
        elif not args.tol > 0:  # the schema's bound on the config's tol; refuses nan too
            raise ConfigError(f"--tol: {args.tol} is not greater than 0")
        handler, default_format = COMMANDS[args.command]
        if args.format is None:
            args.format = default_format
        if args.format == "csv" and default_format == "json":
            raise UnsupportedCombination(f"{args.command} output is JSON only")
        qgroup = build_quantum_group(config["group"])
        state = build_state(qgroup, config["state"])
        text, filename = handler(qgroup, state, args)
    except (ConfigError, UnsupportedCombination) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    path = emit(text, args.out, filename)
    if path:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
