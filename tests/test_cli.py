import json
import os
import subprocess
import sys

import pytest

import qergodic
from qergodic import catalog, walks
from qergodic.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    build_quantum_group,
    build_state,
    main,
    parse_config,
)

CFG_41 = {
    "schema": 1,
    "group": {"dual": {"family": "symmetric", "n": 3}},
    "state": {"positive_definite": {"rep": "permutation", "xi": [0.7071, -0.7071, 0]}},
}

CFG_C4_POINT2 = {
    "schema": 1,
    "group": {"classical": {"family": "cyclic", "n": 4}},
    "state": {"point": 2},
}

CFG_C4_POINT1 = {
    "schema": 1,
    "group": {"classical": {"family": "cyclic", "n": 4}},
    "state": {"point": 1},
}

CFG_432 = {
    "schema": 1,
    "group": {"dual": {"family": "symmetric", "n": 3}},
    "state": {"positive_definite": {"rep": "standard_integral", "xi": [0.5774, 0.8165]}},
}


def run_cli(tmp_path, command, config, *extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"schema": 1, "group": {"kac_paljutkin": {}},
                      "state": {"point": 0}, "extra": True})


def test_parse_rejects_bad_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(cfg))


def test_schema_is_valid_and_the_best_error_is_reported():
    from jsonschema.validators import validator_for

    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    # kmax and tol are both out of range; jsonschema's relevance ranking picks tol
    with pytest.raises(ConfigError) as exc:
        parse_config({"group": {"kac_paljutkin": {}}, "state": {"point": 0},
                      "kmax": 0, "tol": -1})
    assert str(exc.value) == "config field tol: -1 is less than or equal to the minimum of 0"


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(qergodic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, qergodic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_weights_not_summing_to_one_exit_2(tmp_path):
    cfg = {
        "schema": 1,
        "group": {"classical": {"family": "cyclic", "n": 4}},
        "state": {"weights": {"0": 0.5, "1": 0.4}},
    }
    code, _ = run_cli(tmp_path, "verdict", cfg)
    assert code == 2


def test_unsupported_combination_exit_3(tmp_path):
    cfg = {
        "schema": 1,
        "group": {"classical": {"family": "cyclic", "n": 4}},
        "state": {"positive_definite": {"rep": "permutation", "xi": [1.0]}},
    }
    code, _ = run_cli(tmp_path, "verdict", cfg)
    assert code == 3


def test_unwritable_destination_exit_4(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CFG_C4_POINT2))
    with pytest.raises(SystemExit) as err:
        main(["verdict", "--config", str(cfg), "--out", "/dev/null/cannot"])
    assert err.value.code == 4


def test_verdict_41_periodic(tmp_path):
    code, out = run_cli(tmp_path, "verdict", CFG_41)
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["tag"] == "periodic"
    assert payload["d"] == 2
    peripheral = sorted(round(float(re)) for re, im in payload["peripheral"])
    assert peripheral == [-1, 1]
    # round-trips through json
    assert json.loads(json.dumps(payload)) == payload


def test_verdict_c4_reducible(tmp_path):
    code, out = run_cli(tmp_path, "verdict", CFG_C4_POINT2)
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["tag"] == "reducible"
    mask = [round(float(re)) for re, im in payload["quasi_subgroup"]]
    assert mask == [1, 0, 1, 0]


def test_trace_header_and_decay(tmp_path):
    code, out = run_cli(tmp_path, "trace", CFG_432, "--kmax", "300")
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,tv,l2,qsd"
    assert len(lines) == 301
    final_tv = float(lines[-1].split(",")[1])
    assert final_tv < 1e-6


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_kmax_below_one_exit_2(tmp_path, capsys, kmax):
    # --kmax 0 used to fall back to the default of 50 rows; -3 ended in a traceback
    code, out = run_cli(tmp_path, "trace", CFG_432, "--kmax", kmax)
    assert code == 2
    assert capsys.readouterr().err == f"error: --kmax: {kmax} is less than the minimum of 1\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_tol_not_positive_exit_2(tmp_path, capsys, tol):
    # argparse's float() takes all three; only spectrum reads --tol
    code, out = run_cli(tmp_path, "spectrum", CFG_C4_POINT1, "--tol", tol)
    assert code == 2
    assert capsys.readouterr().err == f"error: --tol: {float(tol)} is not greater than 0\n"
    assert not out.exists()


NAN = float("nan")


@pytest.mark.parametrize("config, constant", [
    # NaN <= 0 is false, so the schema's exclusiveMinimum alone lets it through
    (dict(CFG_C4_POINT1, tol=NAN), "NaN"),
    # NaN passes every x > tol refusal; this xi reached an SVD that does not converge
    (dict(CFG_41, state={"positive_definite": {"rep": "permutation", "xi": [NAN, 0, 0]}}), "NaN"),
    (dict(CFG_C4_POINT1, state={"weights": {"0": NAN, "1": 1.0}}), "NaN"),
    (dict(CFG_C4_POINT1, tol=float("inf")), "Infinity"),
    (dict(CFG_C4_POINT1, tol=-float("inf")), "-Infinity"),
])
def test_non_finite_config_constants_exit_2(tmp_path, capsys, config, constant):
    code, out = run_cli(tmp_path, "verdict", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config is not valid JSON: {constant} is not a JSON value\n"
    assert not out.exists()


@pytest.mark.parametrize("state, message", [
    # 99 and [0, 99] ended in an IndexError; -1 silently became the last element
    ({"point": 99}, "invalid point state: element index 99 is outside 0..3"),
    ({"point": -1}, "invalid point state: element index -1 is outside 0..3"),
    ({"uniform": [0, 99]}, "invalid uniform state: element index 99 is outside 0..3"),
    # float() of a weight ran outside the ConfigError mapping
    ({"weights": {"e": "abc"}}, "invalid weights state: weight of 'e' is not a number: 'abc'"),
    ({"weights": {"e": [1, 2]}}, "invalid weights state: weight of 'e' is not a number: [1, 2]"),
    # a repeat was refused only as "density is not normalized"
    ({"uniform": [1, 1, 3]}, "invalid uniform state: uniform state lists element '1' twice"),
    ({"uniform": ["2", 2]}, "invalid uniform state: uniform state lists element '2' twice"),
], ids=["point_99", "point_-1", "uniform_99", "weight_text", "weight_list", "uniform_repeat",
        "uniform_name_and_index"])
def test_bad_classical_state_exit_2(tmp_path, capsys, state, message):
    code, out = run_cli(tmp_path, "verdict", dict(CFG_C4_POINT1, state=state))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("group, state, message", [
    # each exited 0 with a verdict: JSON true read as 1, a numeric string read as a weight
    ({"classical": {"family": "cyclic", "n": 2}}, {"density": [True, True]},
     "density: expected a number or an [re, im] pair, got True"),
    ({"classical": {"family": "cyclic", "n": 2}}, {"density": [[1, False], 1]},
     "density: expected a number or an [re, im] pair, got [1, False]"),
    ({"classical": {"family": "cyclic", "n": 2}}, {"weights": {"0": "0.5", "1": "5e-1"}},
     "invalid weights state: weight of '0' is not a number: '0.5'"),
    ({"dual": {"family": "symmetric", "n": 3}},
     {"positive_definite": {"rep": "trivial", "xi": [True]}},
     "xi: expected a number or an [re, im] pair, got True"),
], ids=["density_true", "density_pair_false", "weights_text", "xi_true"])
def test_booleans_and_strings_as_numbers_exit_2(tmp_path, capsys, group, state, message):
    code, out = run_cli(tmp_path, "verdict", {"schema": 1, "group": group, "state": state})
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("rep", ["character:x", "character:", "character:1.5"])
def test_bad_character_index_exit_2(tmp_path, capsys, rep):
    cfg = {"schema": 1, "group": {"dual": {"family": "cyclic", "n": 4}},
           "state": {"positive_definite": {"rep": rep, "xi": [1.0]}}}
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: positive_definite rep {rep!r}: the character index is not an integer\n")
    assert not out.exists()


def test_cayley_file_without_table_exit_2(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"foo": 1}))
    cfg = dict(CFG_C4_POINT1, group={"classical": {"cayley_file": str(table)}})
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 2
    assert capsys.readouterr().err == 'error: cayley_file: the JSON object has no "table" field\n'
    assert not out.exists()


def test_cayley_table_that_is_not_a_matrix_exit_2(tmp_path, capsys):
    # refused only because a broad handler caught "tuple index out of range"
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": 5}))
    cfg = dict(CFG_C4_POINT1, group={"classical": {"cayley_file": str(table)}})
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: invalid Cayley table: Cayley table is not a 2-D array: it has 0 axes\n")
    assert not out.exists()


def test_cayley_table_with_a_non_integer_entry_exit_2(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": [[0, 1.7], [1.2, 0]]}))
    cfg = dict(CFG_C4_POINT1, group={"classical": {"cayley_file": str(table)}})
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: invalid Cayley table: Cayley table entry 1.7 in row 0, column 1 "
        "is not an integer\n")
    assert not out.exists()


def test_memory_error_building_a_group_exit_2(tmp_path, capsys, monkeypatch):
    # an order too large to allocate stays a refusal
    def too_large(group):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr(catalog, "function_algebra", too_large)
    code, out = run_cli(tmp_path, "verdict", CFG_C4_POINT1)
    assert code == 2
    assert capsys.readouterr().err == "error: cannot build classical group: cannot allocate\n"
    assert not out.exists()


def _fault(*args, **kwargs):
    raise RuntimeError("internal fault")


def test_internal_fault_building_a_group_propagates(tmp_path, monkeypatch):
    # it read as "error: cannot build classical group: internal fault", exit 2
    monkeypatch.setattr(catalog, "irreps_for", _fault)
    with pytest.raises(RuntimeError, match="^internal fault$"):
        run_cli(tmp_path, "verdict", CFG_C4_POINT1)


@pytest.mark.parametrize("group, state", [
    ({"classical": {"family": "cyclic", "n": 4}}, {"density": [4, 0, 0, 0]}),
    ({"classical": {"family": "symmetric", "n": 3}}, {"central": {"coefficients": {"trivial": 1}}}),
    ({"dual": {"family": "symmetric", "n": 3}}, {"central": {"coefficients": {"e": 1}}}),
], ids=["density", "classical_central", "dual_central"])
def test_internal_fault_checking_a_state_propagates(monkeypatch, group, state):
    qgroup = build_quantum_group(group)
    monkeypatch.setattr(walks, "check_states", _fault)
    with pytest.raises(RuntimeError, match="^internal fault$"):
        build_state(qgroup, state)


def test_kmax_one_writes_one_row(tmp_path):
    code, out = run_cli(tmp_path, "trace", CFG_432, "--kmax", "1")
    assert code == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 2


def test_config_kmax_written_as_a_float_traces_as_its_integer(tmp_path):
    # the schema's "integer" takes 3.0; the trace then ended in a TypeError traceback
    (tmp_path / "float").mkdir()
    (tmp_path / "int").mkdir()
    code, out = run_cli(tmp_path / "float", "trace", dict(CFG_432, kmax=3.0))
    assert code == 0
    _, want = run_cli(tmp_path / "int", "trace", dict(CFG_432, kmax=3))
    assert (out / "trace.csv").read_bytes() == (want / "trace.csv").read_bytes()


@pytest.mark.parametrize("group, state", [
    ({"classical": {"family": "cyclic", "n": 4.0}}, {"point": 1}),
    ({"classical": {"family": "dihedral", "n": 3.0}}, {"uniform": ["r0", "s0"]}),
    ({"dual": {"family": "cyclic", "n": 4.0}},
     {"positive_definite": {"rep": "character:1", "xi": [1.0]}}),
], ids=["classical", "dihedral", "dual"])
def test_group_order_written_as_a_float_builds_as_its_integer(tmp_path, group, state):
    # the schema's "integer" takes 4.0; the classical build printed Python's bare TypeError
    # and the dual one exited 3
    as_int = {k: {**v, "n": int(v["n"])} for k, v in group.items()}
    (tmp_path / "float").mkdir()
    (tmp_path / "int").mkdir()
    code, out = run_cli(tmp_path / "float", "verdict", {"schema": 1, "group": group, "state": state})
    assert code == 0
    _, want = run_cli(tmp_path / "int", "verdict", {"schema": 1, "group": as_int, "state": state})
    assert (out / "verdict.json").read_bytes() == (want / "verdict.json").read_bytes()


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CFG_41))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verdict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("verdict.json", "trace.csv", "spectrum.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b


def test_describe_reports_residuals(tmp_path):
    cfg = {"schema": 1, "group": {"kac_paljutkin": {}}, "state": {"density": [1] * 4 + [1, 0, 0, 1]}}
    code, out = run_cli(tmp_path, "describe", cfg)
    assert code == 0
    payload = json.loads((out / "describe.json").read_text())
    assert payload["block_dims"] == [1, 1, 1, 1, 2]
    assert float(payload["max_residual"]) < 1e-9
    assert [float(w) for w in payload["haar_block_weights"]] == pytest.approx(
        [1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 4]
    )


def test_spectrum_csv_sorted(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", CFG_41)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    moduli = [abs(complex(float(r[0]), float(r[1]))) for r in rows]
    assert moduli == sorted(moduli)
    assert sum(int(r[2]) for r in rows) == 6


def test_grouplikes_kp(tmp_path):
    cfg = {"schema": 1, "group": {"kac_paljutkin": {}},
           "state": {"density": [1] * 4 + [1, 0, 0, 1]}}
    code, out = run_cli(tmp_path, "grouplikes", cfg)
    assert code == 0
    payload = json.loads((out / "grouplikes.json").read_text())
    assert payload["count"] == 8
    central = [e["central"] for e in payload["projections"]]
    assert central.count(False) >= 2


def test_grouplikes_tests_each_projection_once(tmp_path, monkeypatch):
    # the census tests KP's two recovered rank-1 candidates as projections, then gates
    # them with its ten 0/1 choices in one stacked call; no element-level test follows,
    # and the centrality column makes neither test again
    from qergodic import hopf

    rows, calls = {"projection": [], "group-like": []}, []
    projection_rows = hopf.projection_rows
    monkeypatch.setattr(hopf, "projection_rows",
                        lambda st, x: rows["projection"].append(len(x)) or projection_rows(st, x))
    gate = hopf.FiniteQuantumGroup._group_like_rows
    monkeypatch.setattr(hopf.FiniteQuantumGroup, "_group_like_rows",
                        lambda self, c: rows["group-like"].append(len(c)) or gate(self, c))
    monkeypatch.setattr(hopf, "is_projection", lambda p: calls.append(p))
    monkeypatch.setattr(hopf.FiniteQuantumGroup, "is_group_like_projection",
                        lambda self, p: calls.append(p))
    cfg = {"schema": 1, "group": {"kac_paljutkin": {}},
           "state": {"density": [1] * 4 + [1, 0, 0, 1]}}
    code, out = run_cli(tmp_path, "grouplikes", cfg)
    assert code == 0
    assert json.loads((out / "grouplikes.json").read_text())["count"] == 8
    assert rows == {"projection": [2], "group-like": [12]}
    assert calls == []


def test_grouplikes_up_to_the_subgroup_bound(tmp_path, capsys):
    # F(C32): 2^32 0/1 choices on its 1x1 blocks, 6 subgroups; F(C65): past the
    # order-64 bound of subgroup enumeration, a refusal rather than a traceback
    cfg = {"schema": 1, "group": {"classical": {"family": "cyclic", "n": 32}},
           "state": {"point": 1}}
    code, out = run_cli(tmp_path, "grouplikes", cfg)
    assert code == 0
    assert json.loads((out / "grouplikes.json").read_text())["count"] == 6
    cfg["group"]["classical"]["n"] = 65
    code, _ = run_cli(tmp_path, "grouplikes", cfg)
    assert code == 3
    assert "bounded at order 64" in capsys.readouterr().err


def test_experiment_probes(tmp_path):
    code, out = run_cli(tmp_path, "experiment", CFG_41)
    assert code == 0
    payload = json.loads((out / "experiment.json").read_text())
    assert payload["cyclic_comultiplication"]["period"] == 2
    assert payload["support_monotonicity"]["trials"] > 0
    assert len(payload["cesaro_chain"]) == 12


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CFG_C4_POINT2))
    assert main(["verdict", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["tag"] == "reducible"


def test_inline_config():
    cfg = json.dumps(CFG_C4_POINT2)
    group = build_quantum_group(parse_config(cfg)["group"])
    assert group.label == "F(C4)"


def test_central_state_config(tmp_path):
    cfg = {
        "schema": 1,
        "group": {"classical": {"family": "symmetric", "n": 3}},
        "state": {"central": {"coefficients": {"trivial": 1.0, "sign": -1.0}}},
    }
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["tag"] == "periodic"


def test_xi_normalization_gate():
    config = parse_config(json.dumps(CFG_41))
    group = build_quantum_group(config["group"])
    state = build_state(group, config["state"])
    values = group.realization.u_values(state)
    assert abs(values[1] - (-1.0)) < 1e-12  # normalized despite 4-digit rounding
    bad = {"positive_definite": {"rep": "permutation", "xi": [0.6, -0.6, 0]}}
    with pytest.raises(ConfigError):
        build_state(group, bad)


def test_dual_values_via_central(tmp_path):
    # central coefficients on a dual entry are delta^g coefficients of the density
    cfg = {
        "schema": 1,
        "group": {"dual": {"family": "cyclic", "n": 4}},
        "state": {"central": {"coefficients": {"0": 1.0, "2": 1.0}}},
    }
    code, out = run_cli(tmp_path, "verdict", cfg)
    assert code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["tag"] == "reducible"


def test_experiment_matches_the_recorded_reference(tmp_path):
    # a periodic Kac-Paljutkin walk; the payload was recorded before support projections
    # shared one eigendecomposition per element
    path = os.path.join(os.path.dirname(__file__), "data", "kp_experiment_reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    code, out = run_cli(tmp_path, "experiment", reference["config"])
    assert code == 0
    payload = json.loads((out / "experiment.json").read_text())

    def close(got, want):
        if isinstance(want, dict):
            return got.keys() == want.keys() and all(close(got[k], want[k]) for k in want)
        if isinstance(want, list):
            return len(got) == len(want) and all(map(close, got, want))
        try:
            return abs(float(got) - float(want)) <= 1e-12
        except (TypeError, ValueError):
            return got == want

    assert close(payload, reference["payload"])


def _experiment_cases():
    path = os.path.join(os.path.dirname(__file__), "data", "experiment_reference.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", _experiment_cases(), ids=lambda case: case["name"])
def test_experiment_bytes_match_the_recorded_reference(tmp_path, case):
    # recorded while the probe still ran element by element: the stacked probe keeps
    # the draw order and the summation order of every printed quantity
    code, out = run_cli(tmp_path, "experiment", case["config"])
    assert code == 0
    assert (out / "experiment.json").read_bytes() == case["output"].encode()


def _describe_cases():
    path = os.path.join(os.path.dirname(__file__), "data", "describe_reference.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("case", _describe_cases(), ids=lambda case: case["name"])
def test_describe_bytes_match_the_recorded_reference(tmp_path, case):
    # the Hopf residuals, Haar block weights and Haar element, recorded while the
    # comultiplication was still stored in two orders
    config = case["config"]
    if "cayley_table" in case:
        table = tmp_path / "table.json"
        table.write_text(json.dumps(case["cayley_table"]))
        config = {**config, "group": {"classical": {"cayley_file": str(table)}}}
    code, out = run_cli(tmp_path, "describe", config)
    assert code == 0
    assert (out / "describe.json").read_bytes() == case["output"].encode()


def _verdict_cases():
    path = os.path.join(os.path.dirname(__file__), "data", "verdict_reference.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("command, filename", [("verdict", "verdict.json"),
                                               ("spectrum", "spectrum.csv")])
@pytest.mark.parametrize("case", _verdict_cases(), ids=lambda case: case["name"])
def test_verdict_and_spectrum_bytes_match_the_recorded_reference(tmp_path, case, command,
                                                                 filename):
    # recorded while the stochastic operator was still an object with a cached spectrum
    code, out = run_cli(tmp_path, command, case["config"])
    assert code == 0
    assert (out / filename).read_bytes() == case[command].encode()


def test_experiment_probe_runs_as_stacks(tmp_path, monkeypatch):
    # one eigh per trial for the cluster count of h, a few over stacks, and those of
    # classify; the probe element by element made 220
    import numpy as np

    case = next(c for c in _experiment_cases() if c["name"] == "KP-density")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    code, _ = run_cli(tmp_path, "experiment", case["config"])
    assert code == 0
    assert len(calls) <= 64


def _probe_element_by_element(qgroup, rng):
    """The support-monotonicity probe one element at a time, through the element API."""
    from qergodic import cli, walks
    from qergodic.blocks import random_positive, spectral_decomposition

    trials = violations = skipped = 0
    for _ in range(cli.PROBE_TRIALS):
        h = random_positive(qgroup.structure, rng)
        parts = [p for _, p in spectral_decomposition(h)]
        if len(parts) < 2:
            skipped += 1
            continue
        cut1 = rng.integers(1, len(parts))
        cut2 = rng.integers(cut1, len(parts) + 1)
        small = big = qgroup.structure.zero()
        for p in parts[:cut1]:
            small = small + p
        for p in parts[:cut2]:
            big = big + p
        a = random_positive(qgroup.structure, rng)
        b = random_positive(qgroup.structure, rng)
        da, db = small * a * small, big * b * big
        if min(qgroup.haar(da).real, qgroup.haar(db).real) < cli.PROBE_MASS_FLOOR:
            skipped += 1
            continue
        nu = walks.WalkState.from_density(qgroup, da * (1 / qgroup.haar(da).real))
        mu = walks.WalkState.from_density(qgroup, db * (1 / qgroup.haar(db).real))
        p_nu, p_mu = walks.support_projection(nu), walks.support_projection(mu)
        if (p_mu * p_nu - p_nu).norm_inf() > cli.PROBE_ORDER_TOL:
            skipped += 1
            continue
        trials += 1
        p_nu2 = walks.support_projection(walks.convolve(nu, nu))
        p_mu2 = walks.support_projection(walks.convolve(mu, mu))
        if (p_mu2 * p_nu2 - p_nu2).norm_inf() > cli.PROBE_VIOLATION_TOL:
            violations += 1
    return trials, skipped, violations


@pytest.mark.parametrize("floors", [
    {},
    {"PROBE_MASS_FLOOR": 0.1},  # some trials skipped on their Haar mass, some not
    {"PROBE_ORDER_TOL": -1.0},  # every trial skipped on the order of its supports
    {"PROBE_VIOLATION_TOL": -1.0},  # every trial a violation
])
def test_stacked_probe_matches_the_probe_element_by_element(kp, dual_s3, f_c4, monkeypatch, floors):
    import numpy as np

    from qergodic import cli

    for name, value in floors.items():
        monkeypatch.setattr(cli, name, value)
    for qgroup in (kp, dual_s3, f_c4):
        got = cli._support_monotonicity(qgroup, np.random.default_rng(0))
        want = _probe_element_by_element(qgroup, np.random.default_rng(0))
        assert got == want
        assert sum(got[:2]) == cli.PROBE_TRIALS
