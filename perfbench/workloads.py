"""Set-up and operations of the three workloads, through the library's public entry points.

``setup_library`` builds every quantum group, subgroup list and walk that a
``verdict`` or ``trace`` corpus names; ``setup_cli`` writes the ``cli`` configs.
Both return the operations as zero-argument callables, which look their
library function up on the module at call time, so the tracer's wrappers
apply to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import cli_corpus
import corpus
import groups_ref


class Workload:
    """Built inputs of one workload: ``ops[i]()`` runs operation i of the corpus."""

    def __init__(self, corpus_data, ops, lib_names, tmpdir=None):
        self.corpus = corpus_data
        self.ops = ops
        self.lib_names = lib_names  # library element names of each F(G) entry
        self.tmpdir = tmpdir


def build_entry(catalog, groups, label):
    kind, family, n = corpus.ENTRIES[label]
    if kind == "kp":
        return catalog.kac_paljutkin()
    group = groups.build_group(family, n)
    if kind == "classical":
        return catalog.function_algebra(group)
    return catalog.group_algebra(group)


def build_state(qg, spec, subgroup_lists):
    """The walk a corpus record describes, built from its generated inputs."""
    import numpy as np
    from qergodic import catalog, walks

    via = spec["via"]
    if via in ("point", "uniform", "weights"):
        return catalog.classical_state(qg, (via, spec["payload"]))
    group = getattr(qg.realization, "group", None)
    if via in ("subgroup_uniform", "chi"):
        want = {group.index_of(name) for name in spec["payload" if via != "chi" else "subgroup"]}
        match = [h for h in subgroup_lists[id(group)] if set(h) == want]
        if len(match) != 1:
            raise LookupError(f"the library does not enumerate the subgroup {sorted(want)}")
        if via == "chi":
            return catalog.dual_subgroup_state(qg, list(match[0]))
        return catalog.classical_state(qg, ("uniform", list(match[0])))
    if via in ("u_values", "u_values_unchecked"):
        values = np.zeros(group.order, dtype=complex)
        for name, (re, im) in spec["values"].items():
            values[group.index_of(name)] = complex(re, im)
        return catalog.dual_state_from_values(qg, values, check=via == "u_values")
    if via == "positive_definite":  # the permutation representation of S_n
        mats = []
        for g in range(group.order):
            perm = group.perms[g]
            m = np.zeros((len(perm), len(perm)))
            m[list(perm), list(range(len(perm)))] = 1.0
            mats.append(m)
        return catalog.state_from_positive_definite(qg, mats, spec["xi"])
    if via == "density":
        blocks = [np.array([[complex(*z) for z in row] for row in b]) for b in spec["blocks"]]
        return walks.WalkState.from_density(qg, qg.structure.element(blocks))
    if via == "kp_pure":
        xi = None if spec["xi"] is None else [complex(*z) for z in spec["xi"]]
        return catalog.kp_pure_state(qg, spec["block"], xi)
    raise ValueError(f"unknown state construction {via!r}")


def setup_library(corpus_data):
    """Import the library and build the groups and walks of the verdict or trace corpus."""
    from qergodic import catalog, ergodicity, groups, walks

    entries = {label: build_entry(catalog, groups, label) for label in corpus_data["entries"]}
    subgroup_lists = {}
    for op in corpus_data["ops"]:
        if op["state"]["via"] in ("subgroup_uniform", "chi"):
            group = entries[op["entry"]].realization.group
            if id(group) not in subgroup_lists:
                subgroup_lists[id(group)] = groups.subgroups(group)
    states = [build_state(entries[op["entry"]], op["state"], subgroup_lists)
              for op in corpus_data["ops"]]
    if corpus_data["workload"] == "verdict":
        ops = [lambda nu=nu: ergodicity.classify(nu) for nu in states]
    else:
        kmax = corpus_data["kmax"]
        ops = [lambda nu=nu: walks.distances_to_random(nu, kmax) for nu in states]
    lib_names = {label: list(qg.realization.group.names) for label, qg in entries.items()
                 if label.startswith("F(")}
    return Workload(corpus_data, ops, lib_names)


def setup_cli(corpus_data, tmpdir):
    """Write each config (and the Q8 Cayley table) into ``tmpdir``; ops call ``cli.main``."""
    from qergodic import cli

    q8_path = os.path.join(tmpdir, "q8.json")
    with open(q8_path, "w") as fh:
        json.dump({"table": groups_ref.quaternion().table}, fh)
    ops = []
    for op in corpus_data["ops"]:
        config = json.loads(json.dumps(op["config"]).replace(cli_corpus.Q8_FILE, q8_path))
        cfg_path = os.path.join(tmpdir, f"config{op['id']}.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv = [op["command"], "--config", cfg_path, "--out",
                os.path.join(tmpdir, f"out{op['id']}"), *op["extra"]]
        ops.append(lambda argv=argv: run_cli(cli, argv))
    return Workload(corpus_data, ops, {}, tmpdir)


def run_cli(cli, argv):
    """One in-process CLI call; returns the path of the file it wrote."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qergodic {argv[0]} exited with code {code}")
    return sink.getvalue().strip()


def cli_kmax(op):
    extra = op["extra"]
    if "--kmax" in extra:
        return int(extra[extra.index("--kmax") + 1])
    return op["config"].get("kmax", 50)
