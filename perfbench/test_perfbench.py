"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import collections
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import groups_ref  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def weights(group, masses):
    w = [0.0] * group.order
    for name, p in masses.items():
        w[group.index[name]] = p
    return w


def names(group, elems):
    return {group.names[x] for x in elems}


# -- the oracle on hand-worked cases --------------------------------------------------------


def test_s3_transposition_walk_is_periodic_onto_a3():
    s3 = groups_ref.symmetric(3)
    got = oracle.classify_weights(s3, weights(s3, {"(12)": 1 / 3, "(13)": 1 / 3, "(23)": 1 / 3}))
    assert (got["tag"], got["d"]) == ("periodic", 2)
    assert names(s3, got["sub"]) == {"e", "(123)", "(132)"}


def test_c4_generator_walk_has_period_four():
    c4 = groups_ref.cyclic(4)
    got = oracle.classify_weights(c4, weights(c4, {"1": 1.0}))
    assert (got["tag"], got["d"], got["sub"]) == ("periodic", 4, [0])


@pytest.mark.parametrize("n", [3, 6, 16])
def test_lazy_cyclic_walk_is_ergodic(n):
    cn = groups_ref.cyclic(n)
    assert oracle.classify_weights(cn, weights(cn, {"0": 0.5, "1": 0.5}))["tag"] == "ergodic"


@pytest.mark.parametrize("eps", corpus.EPS_WALKS)
def test_near_periodic_c4_walks_are_ergodic(eps):
    c4 = groups_ref.cyclic(4)
    assert oracle.classify_weights(c4, weights(c4, {"0": eps, "1": 1 - eps}))["tag"] == "ergodic"


def test_proper_support_is_reducible_onto_its_subgroup():
    c8 = groups_ref.cyclic(8)
    got = oracle.classify_weights(c8, weights(c8, {"2": 0.5, "4": 0.5}))
    assert (got["tag"], names(c8, got["sub"])) == ("reducible", {"0", "2", "4", "6"})


def test_character_oracle_on_the_readme_permutation_walk():
    s3 = groups_ref.symmetric(3)
    walk = corpus.s3_readme_walks(s3)[0]
    assert walk["expect"]["tag"] == "periodic" and walk["expect"]["d"] == 2
    assert names(s3, walk["expect"]["sub"]) == {"e", "(12)"}
    # chi_{e,(12)}: rank 1 in the trivial and the standard block, 0 in the sign block
    assert walk["expect"]["ranks"] == [1, 0, 1]


def test_fourier_identification_of_a_dual_cyclic_walk():
    # u = character 2 of C8, s -> i^s, is the point mass at 2 of the dual Z_8:
    # reducible onto {0, 2, 4, 6}
    walk = corpus.dual_walk(groups_ref.cyclic(8), [1j ** s for s in range(8)])
    assert walk["expect"]["tag"] == "reducible" and walk["expect"]["sub"] == [0, 2, 4, 6]


def test_reference_groups_are_groups():
    for group in (groups_ref.dihedral(6), groups_ref.symmetric(4), groups_ref.quaternion()):
        n = group.order
        for a in range(n):
            assert sorted(group.table[a]) == list(range(n))
            for b in range(n):
                for c in range(n):
                    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    assert len(groups_ref.subgroups(groups_ref.symmetric(4))) == 30


# -- statistics -----------------------------------------------------------------------------


def test_tail_percentile_has_ten_samples_beyond():
    for n in (40, 46, 100, 165):
        sample = [float(x) for x in range(1, n + 1)]
        q, value = stats.tail(sample)
        assert sum(1 for x in sample if x > value) >= 10
        # one more percent would leave fewer than ten beyond
        rank = -(-(q + 1) * n // 100)
        assert n - rank < 10
    assert stats.tail([float(x) for x in range(1, 41)]) == (75, 30.0)
    assert stats.tail([float(x) for x in range(100, 0, -1)]) == (90, 90.0)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 39)


# -- corpora --------------------------------------------------------------------------------


def test_seed_changes_walks_but_not_the_verdict_mix():
    mixes = []
    for seed in (1, 2, 3):
        ops = corpus.build("verdict", seed)["ops"]
        mixes.append(collections.Counter(
            (op["entry"], op["kind"], op["expect"]["tag"], op["expect"]["d"]) for op in ops
            if op["kind"] not in ("random_nonfaithful",)))
    assert mixes[0] == mixes[1] == mixes[2]
    assert corpus.build("verdict", 1) == corpus.build("verdict", 1)
    assert corpus.build("verdict", 1) != corpus.build("verdict", 2)


def test_corpora_are_large_enough_for_a_tail():
    for workload in run.WORKLOADS:
        assert len(corpus.build(workload, 0)["ops"]) >= stats.MIN_TAIL_SAMPLES


def test_cli_corpus_covers_sources_states_and_commands():
    ops = corpus.build("cli", 0)["ops"]
    sources = {next(iter(op["config"]["group"])) + ("_file" if "cayley_file" in json.dumps(
        op["config"]["group"]) else "") for op in ops}
    assert sources == {"classical", "classical_file", "dual", "kac_paljutkin"}
    assert {next(iter(op["config"]["state"])) for op in ops} == {
        "point", "uniform", "weights", "positive_definite", "density", "central"}
    assert {op["command"] for op in ops} == {
        "describe", "trace", "verdict", "spectrum", "grouplikes", "experiment"}


# -- tracing --------------------------------------------------------------------------------


def test_self_times_partition_a_nested_call():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    inner = tracer.wrap("m.inner", inner)
    outer = tracer.wrap("m.outer", outer)
    outer()
    self_s, calls = tracer.summary()
    assert calls == {"m.outer": 1, "m.inner": 2}
    name, start, end, parent, op = tracer.spans[0]
    assert self_s["m"] == pytest.approx(end - start, abs=1e-12)
    assert self_s["m.outer"] == pytest.approx(0.01, abs=0.005)


# -- the command's metric names -------------------------------------------------------------


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in run.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = benchmark_json()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=os.path.dirname(HERE), timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert result["correct"] and result["failed"] == 0
