"""Golden outputs: the CLI's files and ``verify`` report, pinned by sha256.

Every command is deterministic given its scenario and seed, so a change that
is meant to leave results alone must leave these bytes alone.  The manifest
``golden_sha256.json`` next to this file holds the expected digests; after an
intended output change, compare it cell by cell with the outputs of the parent
commit, unpacked by ``git archive`` into the directory ``PARENT``, and then
record it again, both from the repository root:

    PYTHONPATH=src python tests/test_golden.py --diff PARENT
    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json

The diff runs every pinned command once per tree, each in its own interpreter
on that tree's ``src``, keeps both sets of files and prints
:func:`diff_outputs` of them; it prints nothing when no cell differs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from retrosmooth.cli import main
from retrosmooth.scenario import demo_scenario, matrix_to_json

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_sha256.json")
SCENARIOS = ("driven-damped-qubit", "classical-2state", "classical-3state")
VERIFY = "verify-2024.txt"


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


def write_outputs(work: Path, root: Path = ROOT) -> None:
    """Run every pinned command under ``work``, on the scenario files of ``root``.

    ``verify``'s stdout goes to :data:`VERIFY`.
    """
    for name in ("demo", *SCENARIOS):
        source = "demo" if name == "demo" else str(root / "scenarios" / f"{name}.json")
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
    source, out = str(root / "scenarios" / "classical-2state.json"), work / "record-classical-2state"
    _run(["simulate", "--scenario", source, "--trajectories", "30", "--out", str(out)])
    record = out / "classical-2state_trajectories.jsonl"
    kinds = "pf,pf-variant,clhs,gw-variant"
    _run(["smooth", "--scenario", source, "--record", str(record), "--prior", kinds, "--out", str(out)])
    _run(["entropy-scan", "--theorem1", "--demo-svb", "--out", str(work / "entropy")])
    _run(["entropy-scan", "--scenario", "demo", "--out", str(work / "entropy-demo")])
    source = str(root / "scenarios" / "classical-2state.json")
    _run(["entropy-scan", "--scenario", source, "--out", str(work / "entropy-classical-2state")])
    for name in SCENARIOS[1:]:
        source = str(root / "scenarios" / f"{name}.json")
        _run(["classical-limit", "--scenario", source, "--out", str(work / f"classical-{name}")])
    (work / VERIFY).write_bytes(_run(["verify", "--seed", "2024"]).encode())


def _files(work: Path) -> dict[str, Path]:
    return {path.relative_to(work).as_posix(): path for path in sorted(work.rglob("*")) if path.is_file()}


def golden_outputs(work: Path) -> dict[str, str]:
    """Run every pinned command under ``work``; map output names to sha256 digests."""
    write_outputs(work)
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in _files(work).items()}


# ---------------------------------------------------------------------------
# the cell-level diff of two output trees

# CSV columns that name a row rather than hold a value; a row's status is its first STATUS_COLUMNS cell
KEY_COLUMNS = ("scenario", "prior", "past", "future", "kind", "id", "record")
STATUS_COLUMNS = ("status", "within_bounds")


def _csv_cells(text: str) -> tuple[dict, dict]:
    """``({(row key, column): cell}, {row key: status})`` of a CSV file; rows are keyed by their KEY_COLUMNS."""
    cells, status = {}, {}
    for i, row in enumerate(csv.DictReader(io.StringIO(text, newline=""))):
        key = tuple(row[c] for c in row if c in KEY_COLUMNS) or (i,)
        status[key] = next((row[c] for c in STATUS_COLUMNS if c in row), "")
        cells.update({(key, c): v for c, v in row.items() if c not in KEY_COLUMNS})
    return cells, status


def _json_cells(doc, path=()) -> dict:
    """``{(row key, column): value}`` of every scalar of a JSON value.

    A value's column is the last object key on its path and its row key is
    the rest of the path; a list item that is an object holding KEY_COLUMNS is
    keyed by their values rather than by its index.
    """
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((_item_name(i, item), item) for i, item in enumerate(doc))
    else:
        at = max((i for i, p in enumerate(path) if isinstance(p, str)), default=None)
        return {(path, "") if at is None else (path[:at] + path[at + 1 :], path[at]): doc}
    return {cell: v for k, item in items for cell, v in _json_cells(item, (*path, k)).items()}


def _item_name(i: int, item):
    """A list item's path component: its KEY_COLUMNS values for an object holding some, else its index."""
    if isinstance(item, dict) and item.keys() & set(KEY_COLUMNS):
        return ":".join(str(item[c]) for c in KEY_COLUMNS if c in item)
    return i


def _verify_cells(text: str) -> tuple[dict, dict]:
    """``({(check, field): value}, {check: PASS or FAIL})`` of ``verify``'s stdout, one row per check line."""
    cells, status = {}, {}
    for line in text.splitlines():
        word, *fields = line.split("  ")
        if not fields:
            cells[("summary",), "text"] = line
            continue
        key = (fields[0],)
        status[key] = word
        for field in fields[1:]:
            name, eq, value = field.partition("=")
            cells[key, name if eq else "detail"] = value if eq else field
    return cells, status


def _cells(path: Path, name: str) -> tuple[dict, dict]:
    text = path.read_text()
    if name.endswith(".csv"):
        return _csv_cells(text)
    if name.endswith(".json"):
        return _json_cells(json.loads(text)), {}
    if name.endswith(".jsonl"):
        return _json_cells([json.loads(line) for line in text.splitlines()]), {}
    return _verify_cells(text)


def _number(value):
    """A finite float of a JSON number or a numeric CSV cell, else ``None``."""
    if isinstance(value, bool):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def _summary(keys) -> str:
    """The row keys of a group: each position's one value, its values joined by ``|`` up to 4, or their count."""
    parts = []
    for values in map(set, zip(*keys)):
        names = sorted(map(str, values))
        parts.append("|".join(names) if len(names) <= 4 else f"({len(names)} values)")
    return ", ".join(parts)


def diff_outputs(old: Path, new: Path) -> str:
    """The cell-level report of two output trees, empty when no cell differs.

    Numeric changes are grouped by (file, column, old status -> new status),
    with their count, largest absolute and relative change and a summary of
    their row keys.  Every other changed cell (status texts included) is
    listed with both texts, as is every added or removed row, key or file.
    """
    old_files, new_files = _files(old), _files(new)
    lines = [f"{name}: removed file" for name in sorted(old_files.keys() - new_files.keys())]
    lines += [f"{name}: added file" for name in sorted(new_files.keys() - old_files.keys())]
    for name in sorted(old_files.keys() & new_files.keys()):
        (before, old_status), (after, new_status) = _cells(old_files[name], name), _cells(new_files[name], name)
        rows_before, rows_after = {key for key, _ in before}, {key for key, _ in after}
        lines += [f"{name}: removed row {key}" for key in sorted(rows_before - rows_after, key=str)]
        lines += [f"{name}: added row {key}" for key in sorted(rows_after - rows_before, key=str)]
        # a key added to or removed from a row that both trees hold
        lines += [f"{name}: removed {c}" for c in sorted(before.keys() - after.keys(), key=str) if c[0] in rows_after]
        lines += [f"{name}: added {c}" for c in sorted(after.keys() - before.keys(), key=str) if c[0] in rows_before]
        groups = defaultdict(list)
        for cell in sorted(before.keys() & after.keys(), key=str):
            (key, column), a, b = cell, before[cell], after[cell]
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                lines.append(f"{name}: {key} {column}: {a!r} -> {b!r}")
                continue
            s, t = old_status.get(key, ""), new_status.get(key, "")
            change = abs(y - x)
            groups[column, s if s == t else f"{s} -> {t}"].append((key, change, change / abs(x) if x else math.inf))
        for (column, status), changed in sorted(groups.items()):
            keys, absolute, relative = zip(*changed)
            lines.append(
                f"{name}: {column} [{status}] {len(changed)} cells, max abs {max(absolute):.3g}, "
                f"max rel {max(relative):.3g}; rows {_summary(keys)}"
            )
    return "\n".join(lines)


def _tree(root: Path, csv_rows: list[str], doc: dict, verify: str) -> Path:
    (root / "run").mkdir(parents=True)
    header = "scenario,prior,past,probability,status"
    (root / "run" / "x_smooth.csv").write_text("\r\n".join([header, *csv_rows]) + "\r\n")
    (root / "run" / "x_smooth.json").write_text(json.dumps(doc))
    (root / VERIFY).write_text(verify)
    return root


class TestDiff:
    ROWS = ["x,pf,0,0.25,ok", "x,gw,0,0.12345678901234567,ok", "x,gw,1,0.5,ok"]
    DOC = {"priors": {"gw": {"0": {"p_past": 0.5, "states": {"0": {"real": [[1, 0], [0, 0]]}}, "note": "a"}}}}
    VERIFY_TEXT = "PASS  classical-limit  residual=3.331e-16  tol=1e-09  steps=3\n1/1 checks passed\n"

    def test_a_tree_against_itself_is_an_empty_report(self, tmp_path):
        old = _tree(tmp_path / "old", self.ROWS, self.DOC, self.VERIFY_TEXT)
        new = _tree(tmp_path / "new", self.ROWS, self.DOC, self.VERIFY_TEXT)
        assert diff_outputs(old, new) == ""

    def test_every_kind_of_change_is_reported(self, tmp_path):
        old = _tree(tmp_path / "old", self.ROWS, self.DOC, self.VERIFY_TEXT)
        # the 17th digit of one number, one status, one added row, one removed JSON key, one verify residual
        rows = ["x,pf,0,0.25,ok", "x,gw,0,0.12345678901234568,ok", "x,gw,1,0.5,zero-probability", "x,gw,2,0.0,ok"]
        doc = json.loads(json.dumps(self.DOC))
        del doc["priors"]["gw"]["0"]["note"]
        doc["priors"]["gw"]["0"]["states"]["0"]["real"][1][1] = 1e-17
        verify = self.VERIFY_TEXT.replace("3.331e-16", "2.220e-16")
        new = _tree(tmp_path / "new", rows, doc, verify)
        assert diff_outputs(old, new).splitlines() == [
            "run/x_smooth.csv: added row ('x', 'gw', '2')",
            "run/x_smooth.csv: ('x', 'gw', '1') status: 'ok' -> 'zero-probability'",
            "run/x_smooth.csv: probability [ok] 1 cells, max abs 1.39e-17, max rel 1.12e-16; rows x, gw, 0",
            "run/x_smooth.json: removed (('priors', 'gw', '0'), 'note')",
            "run/x_smooth.json: real [] 1 cells, max abs 1e-17, max rel inf; rows priors, gw, 0, states, 0, 1, 1",
            "verify-2024.txt: residual [PASS] 1 cells, max abs 1.11e-16, max rel 0.334; rows classical-limit",
        ]


def test_outputs_match_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    got = golden_outputs(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs differ from the manifest: {changed}"


def diff_trees(parent: Path, work: Path) -> str:
    """:func:`diff_outputs` of the pinned commands run on ``parent``'s tree and on this one, under ``work``."""
    for name, tree in (("parent", parent), ("change", ROOT)):
        env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
        argv = [sys.executable, __file__, "--write", str(work / name), "--root", str(tree.resolve())]
        subprocess.run(argv, env=env, check=True)
    return diff_outputs(work / "parent", work / "change")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden manifest, or diff the outputs of two trees.")
    parser.add_argument("--diff", metavar="PARENT", type=Path, help="tree of the parent commit to diff against")
    parser.add_argument("--write", metavar="DIR", type=Path, help="write the outputs to DIR")
    parser.add_argument("--root", type=Path, default=ROOT, help="tree whose scenario files --write reads")
    args = parser.parse_args()
    if args.write:
        write_outputs(args.write, args.root)
    elif args.diff:
        work = Path(tempfile.mkdtemp(prefix="golden-diff-"))
        report = diff_trees(args.diff, work)
        print(f"outputs kept in {work}", file=sys.stderr)
        if report:
            print(report)
    else:
        with tempfile.TemporaryDirectory() as work:
            digests = golden_outputs(Path(work))
        sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
