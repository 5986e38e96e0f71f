import ast
import io
import re
import tokenize
from pathlib import Path

import qergodic

SOURCES = sorted(p for p in Path(qergodic.__file__).parent.glob("*.py")
                 if p.name != "tolerances.py")


def test_thresholds_live_in_the_tolerance_table():
    # a number like 1e-8 written outside tolerances.py is a second copy of some gate
    scattered = []
    for path in SOURCES:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                scattered.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert SOURCES
    assert scattered == []


def test_every_tolerance_has_a_reader():
    # a gate whose last reader is gone is dead code that still looks like policy
    from qergodic import tolerances

    names = {name for name in vars(tolerances) if name.isupper()}
    read = set()
    for path in SOURCES:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and tok.string in names:
                read.add(tok.string)
    assert names
    assert sorted(names - read) == []


def test_no_parameter_defaults_to_a_tolerance():
    # a tolerance argument that callers leave at its default is a second name for the constant
    from qergodic import tolerances

    names = {name for name in vars(tolerances) if name.isupper()}
    defaulted = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [pair for pair in zip(args.kwonlyargs, args.kw_defaults) if pair[1]]
            defaulted += [f"{path.name}:{node.lineno}: {arg.arg}" for arg, default in pairs
                          if getattr(default, "id", getattr(default, "attr", None)) in names]
    assert SOURCES
    assert defaulted == []
