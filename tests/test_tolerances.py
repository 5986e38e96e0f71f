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
