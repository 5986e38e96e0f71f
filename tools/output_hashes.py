"""One SHA-256 line per benchmark operation, to show that a change keeps every output bitwise.

    python3 tools/output_hashes.py [--src DIR]

The operations are those of ``perfbench``'s three workloads at seeds 1, 3, 7
and 11: its corpus and workload code build the walks, configs and calls, and
this script only runs them, once each, and hashes what they give.  ``--src``
is the library tree to import ``qergodic`` from (default: this checkout's
``src``), so the same corpus code can be run against two trees and the two
outputs compared line by line, for example with ``diff``.  Each line reads ``<workload> <seed> <op id> <entry> <kind> <sha256>``.

A hash covers every float as its hex form, every array as its dtype, shape and
bytes, every field of a verdict, the bytes of the file a CLI call writes, and
the type and message of a refusal.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py sets, before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("verdict", "trace", "cli")
SEEDS = (1, 3, 7, 11)


def encode(value):
    """Bytes that determine ``value`` exactly: floats by their hex form, arrays by their bytes."""
    import numpy as np

    if isinstance(value, BaseException):
        return f"refused {type(value).__name__}: {value}".encode()
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value).encode()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})".encode()
    if isinstance(value, bytes):
        return value
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__.encode() + encode(
            [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)])
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(encode(item) for item in value) + b"]"
    if callable(getattr(value, "coords", None)):  # an algebra element
        return b"element" + encode(value.coords())
    raise TypeError(f"no exact encoding for a {type(value).__name__}")


def hash_lines(workload, seed):
    """The lines of one workload and seed, in corpus order."""
    import corpus
    import workloads

    corpus_data = corpus.build(workload, seed)
    tmpdir = tempfile.mkdtemp(prefix="output-hashes-") if workload == "cli" else None
    try:
        if workload == "cli":
            built = workloads.setup_cli(corpus_data, tmpdir)
        else:
            built = workloads.setup_library(corpus_data)
        lines = []
        for spec, op in zip(corpus_data["ops"], built.ops):
            try:
                result = op()
                if workload == "cli":  # the call returns the path of the file it wrote
                    with open(result, "rb") as fh:
                        result = fh.read()
            except Exception as exc:  # a refusal is an output too
                result = exc
            kind = spec.get("kind", spec.get("command"))
            digest = hashlib.sha256(encode(result)).hexdigest()
            lines.append(f"{workload} {seed} {spec['id']} {spec.get('entry')} {kind} {digest}")
        return lines
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="library tree to import qergodic from (default: this checkout's src)")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path[:0] = [src, PERFBENCH]
    import qergodic

    if not os.path.abspath(qergodic.__file__).startswith(src + os.sep):
        parser.error(f"qergodic was imported from {qergodic.__file__}, not from {src}")
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("\n".join(hash_lines(workload, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
