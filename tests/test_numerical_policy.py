"""The numerical policy: every tolerance is a named constant of ``retrosmooth.linalg``."""

import inspect
import re
from pathlib import Path

import pytest

from retrosmooth import entropy, linalg
from retrosmooth.retrodiction import ChannelRep
from retrosmooth.trajectory import discretize

SRC = Path(linalg.__file__).parent
LITERAL = re.compile(r"\d+e-\d+")
CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*(TOL|FLOOR|CLAMP|SLACK|CUT)\b\s*=", re.M)
# acceptance thresholds of the check suite and the CLI stay with their checks
THRESHOLD_MODULES = {"verify.py", "cli.py"}
ALLOWED_LINES = {("sweeps.py", "PROB_FLOOR = 1e-12")}


def modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")


def test_no_tolerance_literal_outside_linalg():
    found = [
        f"{p.name}:{n}: {line.strip()}"
        for p in modules()
        if p.name not in THRESHOLD_MODULES
        for n, line in enumerate(p.read_text().splitlines(), start=1)
        if LITERAL.search(line) and (p.name, line.strip()) not in ALLOWED_LINES
    ]
    assert not found, "\n".join(found)


def test_no_tolerance_constant_outside_linalg():
    found = [(p.name, m.group(0)) for p in modules() for m in CONSTANT.finditer(p.read_text())]
    assert found == [("sweeps.py", "PROB_FLOOR =")]


def test_docstring_table_lists_every_constant_with_its_value():
    source = Path(linalg.__file__).read_text()
    defined = re.findall(r"^([A-Z][A-Z0-9_]*) = (\d+e-\d+)$", source, re.M)
    assert len(defined) >= 17
    rows = dict(re.findall(r"^([A-Z][A-Z0-9_]*) +(\d+e-\d+) ", linalg.__doc__, re.M))
    assert rows == dict(defined)
    for name, value in defined:
        assert getattr(linalg, name) == float(value)


@pytest.mark.parametrize(
    "fn, option",
    [
        (discretize, "defect_tol"),
        (entropy.sandwich_bound, "slack"),
        (entropy.theorem1_check, "slack"),
        (ChannelRep.require_trace_preserving, "tol"),
    ],
)
def test_tolerance_is_not_an_option(fn, option):
    assert option not in inspect.signature(fn).parameters


def test_support_cut_has_one_site():
    uses = [
        p.name for p in SRC.glob("*.py") for line in p.read_text().splitlines() if "RANK_TOL *" in line
    ]
    assert uses == ["linalg.py"]


def test_entropy_keeps_support_basis():
    assert entropy.support_basis is linalg.support_basis
