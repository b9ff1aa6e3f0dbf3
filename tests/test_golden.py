"""Golden outputs: the CLI's files and ``verify`` report, pinned by sha256.

Every command is deterministic given its scenario and seed, so a change that
is meant to leave results alone must leave these bytes alone.  The manifest
``golden_sha256.json`` next to this file holds the expected digests; after an
intended output change, record it again from the repository root with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from retrosmooth.cli import main
from retrosmooth.scenario import demo_scenario, matrix_to_json

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_sha256.json")
SCENARIOS = ("driven-damped-qubit", "classical-2state", "classical-3state")


def _quoted_scenario() -> dict:
    """A qubit whose name and record labels hold ``,`` and ``"``, so written cells need CSV quoting.

    Alice reads a rotated qubit with 70/30 reliability; bob learns which
    projection the rotation ended in.
    """
    u = [[0.8, -0.6], [0.6, 0.8]]
    operations = []
    for i, alice in enumerate(('a,"0', 'a,"1')):
        for j, bob in enumerate(('b"0,', 'b"1,')):
            w = (0.7 if i == j else 0.3) ** 0.5
            kraus = [[w * u[j][c] if r == j else 0.0 for c in range(2)] for r in range(2)]
            operations.append({"alice": alice, "bob": bob, "kraus": [{"real": kraus}]})
    return {
        "name": 'quoted, "labels"',
        "system": {"type": "joint_instrument", "operations": operations},
        "rho0": "maximally_mixed",
        "steps": 3,
        "smoothing_time_index": 2,
        "prior_kinds": ["pf", "gw", "gw-variant", "clhs"],
    }


def _custom_scenario() -> dict:
    """The demo qubit smoothed at time 0 under ``pf`` and a ``custom`` prior, the maximally mixed two-qubit state.

    Its marginal is the maximally mixed ``rho0``, the filtered state of the
    empty past, so every custom row smooths.
    """
    return {
        **demo_scenario().raw,
        "name": "custom-prior",
        "smoothing_time_index": 0,
        "prior_kinds": ["pf", "custom"],
        "custom_prior": {"matrix": matrix_to_json(np.eye(4) / 4), "dim_a": 2},
    }


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def golden_outputs(work: Path) -> dict[str, str]:
    """Run every pinned command under ``work``; map output names to sha256 digests."""
    for name in ("demo", *SCENARIOS):
        source = "demo" if name == "demo" else str(ROOT / "scenarios" / f"{name}.json")
        _run(["smooth", "--scenario", source, "--enumerate", "--out", str(work / f"enumerate-{name}")])
    quoted = work / "quoted.json"
    quoted.write_text(json.dumps(_quoted_scenario()))
    _run(["smooth", "--scenario", str(quoted), "--enumerate", "--out", str(work / "enumerate-quoted")])
    _run(["entropy-scan", "--scenario", str(quoted), "--out", str(work / "entropy-quoted")])
    quoted.unlink()
    custom = work / "custom.json"
    custom.write_text(json.dumps(_custom_scenario()))
    _run(["smooth", "--scenario", str(custom), "--enumerate", "--out", str(work / "enumerate-custom")])
    _run(["entropy-scan", "--scenario", str(custom), "--out", str(work / "entropy-custom")])
    custom.unlink()
    out = work / "record-demo"
    _run(["simulate", "--scenario", "demo", "--trajectories", "30", "--out", str(out)])
    record = out / "driven-damped-qubit_trajectories.jsonl"
    _run(["smooth", "--scenario", "demo", "--record", str(record), "--out", str(out)])
    # record mode on a classical chain, whose Kraus operators are named by transition edge
    source, out = str(ROOT / "scenarios" / "classical-2state.json"), work / "record-classical-2state"
    _run(["simulate", "--scenario", source, "--trajectories", "30", "--out", str(out)])
    record = out / "classical-2state_trajectories.jsonl"
    kinds = "pf,pf-variant,clhs,gw-variant"
    _run(["smooth", "--scenario", source, "--record", str(record), "--prior", kinds, "--out", str(out)])
    _run(["entropy-scan", "--theorem1", "--demo-svb", "--out", str(work / "entropy")])
    _run(["entropy-scan", "--scenario", "demo", "--out", str(work / "entropy-demo")])
    source = str(ROOT / "scenarios" / "classical-2state.json")
    _run(["entropy-scan", "--scenario", source, "--out", str(work / "entropy-classical-2state")])
    for name in SCENARIOS[1:]:
        source = str(ROOT / "scenarios" / f"{name}.json")
        _run(["classical-limit", "--scenario", source, "--out", str(work / f"classical-{name}")])
    outputs = {
        path.relative_to(work).as_posix(): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }
    outputs["verify-2024.txt"] = _run(["verify", "--seed", "2024"]).encode()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_outputs_match_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    got = golden_outputs(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the manifest: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = golden_outputs(Path(work))
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
