"""Benchmark of qergodic: three workloads, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload verdict|trace|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (per-operation medians,
failure messages, set-up samples) go to ``perfbench/out/``; see README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 48x48 blocks (2304 x 48 for the Haar
# system), where threading buys nothing and a second thread contends for the
# second core.  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE]

import corpus  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verdict", "trace", "cli")
SETUP_SAMPLES = {"verdict": 3, "trace": 3, "cli": 5}
PROBE_TIMEOUT_S = 60

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "blocks.self_s", "blocks.p_norm.self_s", "blocks.p_norm.calls", "blocks.norm_inf.calls",
    "blocks.AlgebraElement.calls", "blocks.spectral_decomposition.calls",
    "blocks.is_positive.calls",
    "walks.self_s", "walks.distances_to_random.self_s", "walks.stochastic_operator.calls",
    "walks.eigenvalues.self_s", "walks.cesaro_limit.self_s", "walks.convolution_power.self_s",
    "walks.WalkState.calls",
    "ergodicity.self_s", "ergodicity.classify.self_s", "ergodicity.cyclic_partition.self_s",
    "hopf.is_group_like_projection.calls", "hopf.verify_axioms.self_s",
    "hopf.find_group_like_projections.self_s", "hopf.self_s", "hopf.FiniteQuantumGroup.self_s",
    "catalog.self_s", "catalog.group_algebra.self_s",
    "groups.self_s", "groups.FiniteGroup.self_s", "groups.IrrepTable.self_s",
    "groups.subgroups.self_s",
    "cli.self_s", "cli.parse_config.self_s", "cli.emit.self_s",
    "tracing.overhead_s",
]


def per_layer_unit(name):
    return "count" if name.endswith(".calls") else "s"


# -- set-up --------------------------------------------------------------------------------


def import_library():
    """Import qergodic from this checkout's ``src``, and refuse any other copy."""
    sys.path.insert(0, SRC)
    import qergodic

    if not os.path.abspath(qergodic.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qergodic was imported from {qergodic.__file__}, not from {SRC}")


def library_setup(corpus_data):
    """Import the library and build the corpus' groups and walks; returns (workload, seconds)."""
    start = time.perf_counter()
    import_library()
    built = workloads.setup_library(corpus_data)
    return built, time.perf_counter() - start


def probe_setup(corpus_path, workload):
    """Set-up time of a fresh interpreter (see README for what each workload counts)."""
    if workload == "cli":
        code = (f"import sys, time; sys.path.insert(0, {SRC!r}); import qergodic.cli; "
                "print(time.monotonic())")
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
        return float(out.stdout.split()[-1]) - start
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", corpus_path],
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
                         cwd=ROOT)
    return float(out.stdout.split()[-1])


# -- measurement -----------------------------------------------------------------------------


class Checker:
    """Checks every output of a workload and counts failed operations."""

    def __init__(self, built):
        import checks

        self.checks = checks
        self.built = built
        self.failed = 0
        self.wrong = 0
        self.reasons = {}
        self.expected_rows = {}
        self.first_bytes = {}

    def fail(self, op, reason, wrong):
        self.failed += 1
        self.wrong += wrong
        key = f"{op.get('entry')} {op.get('kind', op.get('command'))}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def check(self, op, result, error):
        if error is not None:
            self.fail(op, error, False)
            return
        try:
            reason = self.reason(op, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            reason = f"output does not have the documented form: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.fail(op, reason, True)

    def reason(self, op, result):
        checks = self.checks
        workload = self.built.corpus["workload"]
        if workload == "verdict":
            return checks.check_verdict(op, result, self.built.lib_names.get(op["entry"]))
        if workload == "trace":
            kmax = self.built.corpus["kmax"]
            if op["id"] not in self.expected_rows:
                self.expected_rows[op["id"]] = checks.expected_rows(op["entry"], op, kmax)
            return checks.check_rows(result, kmax, self.expected_rows[op["id"]])
        if not os.path.abspath(result).startswith(self.built.tmpdir + os.sep):
            return f"output path {result!r} is outside the output directory"
        with open(result, "rb") as fh:
            data = fh.read()
        if op["id"] in self.first_bytes:
            return None if data == self.first_bytes[op["id"]] else "output bytes changed"
        self.first_bytes[op["id"]] = data
        return checks.check_cli(op, data.decode(), workloads.cli_kmax(op))


def run_op(op):
    """(seconds, result, error) of one operation."""
    start = time.perf_counter()
    try:
        result, error = op(), None
    except Exception as exc:  # a failed operation is counted, and the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def run_pass(built, checker, times):
    """Run every operation once, timing each; check the outputs after the pass."""
    gc.collect()
    results = []
    for i, op in enumerate(built.ops):
        seconds, result, error = run_op(op)
        times[i].append(seconds)
        results.append((result, error))
    for op, (result, error) in zip(built.corpus["ops"], results):
        checker.check(op, result, error)
    return sum(t[-1] for t in times)


def build_workload(corpus_data, corpus_path, tmpdir):
    """(built workload, set-up samples) of the end-to-end run."""
    workload = corpus_data["workload"]
    if workload == "cli":
        samples = [probe_setup(corpus_path, workload) for _ in range(SETUP_SAMPLES[workload])]
        import_library()
        return workloads.setup_cli(corpus_data, tmpdir), samples
    built, first = library_setup(corpus_data)
    samples = [first] + [probe_setup(corpus_path, workload)
                         for _ in range(SETUP_SAMPLES[workload] - 1)]
    return built, samples


def end_to_end(corpus_data, corpus_path, seconds, tmpdir):
    built, setup_samples = build_workload(corpus_data, corpus_path, tmpdir)
    checker = Checker(built)
    n = len(built.ops)
    times = [[] for _ in range(n)]
    pass_s = []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        pass_s.append(run_pass(built, checker, times))
    medians = [statistics.median(t) for t in times]
    q, tail_s = stats.tail(medians)
    metrics = {
        "ops_per_s": n / sum(medians),
        "op_p50_ms": 1000 * statistics.median(medians),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": len(pass_s), "pass_s": pass_s, "operations": n, "tail_percentile": q,
              "setup_samples_s": setup_samples, "op_times_s": times}
    return checker, len(pass_s) * n, metrics, detail


def traced(corpus_data, tmpdir):
    """Per-layer metrics: every build and operation runs once untraced and once traced.

    The two runs of an operation are adjacent (their order alternates), so that a
    drift of the host's speed does not land in ``tracing.overhead_s``.
    """
    import tracing

    workload = corpus_data["workload"]
    import_library()
    tracer = tracing.Tracer()

    def build():
        start = time.perf_counter()
        if workload == "cli":
            built = workloads.setup_cli(corpus_data, tempfile.mkdtemp(dir=tmpdir))
        else:
            built = workloads.setup_library(corpus_data)
        return built, time.perf_counter() - start

    built, plain = build()
    tracer.install()
    traced_build = build()[1]
    tracer.uninstall()
    checker = Checker(built)
    gc.collect()
    plain_times, traced_times = [], []
    for i, (op, spec) in enumerate(zip(built.ops, corpus_data["ops"])):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.op = i
                tracer.install()
            seconds, result, error = run_op(op)
            if with_spans:
                tracer.uninstall()
                traced_times.append(seconds)
            else:
                plain_times.append(seconds)
            checker.check(spec, result, error)
    overhead = traced_build - plain + sum(traced_times) - sum(plain_times)

    self_s, calls = tracer.summary()
    totals = tracer.op_self_totals()
    for i, seconds in enumerate(traced_times):
        # self times partition each operation's root span; the rest is the call itself
        if abs(seconds - totals.get(i, 0.0)) > max(overhead, 0.0) + 1e-4:
            checker.fail(corpus_data["ops"][i], "self times do not add up to the duration", True)
    metrics = {}
    for name in PER_LAYER:
        if name == "tracing.overhead_s":
            metrics[name] = overhead
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0)
        else:
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{corpus_data['seed']}.jsonl"))
    detail = {"spans": len(tracer.spans), "self_s": self_s, "calls": calls,
              "untraced_build_s": plain, "traced_build_s": traced_build,
              "untraced_ops_s": sum(plain_times), "traced_ops_s": sum(traced_times)}
    return checker, 2 * len(built.ops), metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="CORPUS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        with open(args.setup_probe) as fh:
            corpus_data = json.load(fh)
        print(library_setup(corpus_data)[1])
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    corpus_data = corpus.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    corpus_path = os.path.join(OUT, f"corpus-{args.workload}-{args.seed}.json")
    with open(corpus_path, "w") as fh:
        json.dump(corpus_data, fh)
    tmpdir = tempfile.mkdtemp(prefix=f"cli-{args.seed}-", dir=OUT)
    try:
        if args.trace:
            checker, attempted, metrics, detail = traced(corpus_data, tmpdir)
            units = {name: per_layer_unit(name) for name in PER_LAYER}
        else:
            checker, attempted, metrics, detail = end_to_end(corpus_data, corpus_path,
                                                             args.seconds, tmpdir)
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    detail["failures"] = checker.reasons
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"metrics": metrics, **detail}, fh, indent=1)
    for reason, count in sorted(checker.reasons.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
