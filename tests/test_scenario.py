import dataclasses
import json

import numpy as np
import pytest

from retrosmooth.classical import conditional_map
from retrosmooth.cli import _write_json
from retrosmooth.errors import ScenarioError
from retrosmooth.linalg import dag
from retrosmooth.scenario import (
    Scenario,
    classical_demo_scenario,
    demo_scenario,
    dumps_17,
    fmt17,
    matrix_from_json,
    matrix_to_json,
    named_state,
    read_trajectories,
    theorem1_config,
    write_trajectories,
)

# -0.0, non-finite values, subnormals, the smallest normal and whole numbers: every form .17g writes
AWKWARD_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310,
                  2.2250738585072014e-308, 1.0, -3.0, 1e16, 1e17, 0.1, 1 / 3, -123456789.0]


def reference_dumps(obj, indent=0):
    """The generic serializer as it was before its fast paths: one call per value, a string per level."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist(), indent)
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float, bool, str)) or v is None for v in obj):
            return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
        return "[\n" + ",\n".join(f"{inner}{reference_dumps(v, indent + 1)}" for v in obj) + "\n" + pad + "]"
    if isinstance(obj, float):
        return fmt17(obj)
    return json.dumps(obj)


class TestFloatFormat:
    def test_fmt17_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(size=200):
            assert float(fmt17(float(x))) == float(x)

    def test_dumps_17_parses_back(self):
        doc = {"a": 1 / 3, "b": [1, 2.5, "x", None, True], "c": {"d": []}}
        parsed = json.loads(dumps_17(doc))
        assert parsed["a"] == 1 / 3
        assert parsed["b"] == [1, 2.5, "x", None, True]

    def test_dumps_17_deterministic(self):
        doc = {"m": [[0.1, 0.2], [0.3, 0.4]]}
        assert dumps_17(doc) == dumps_17(doc)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = matrix_from_json(json.loads(dumps_17(matrix_to_json(m))), "m")
        np.testing.assert_array_equal(back, m)

    def test_state_json_has_dim(self):
        rho = np.eye(2, dtype=complex) / 2
        doc = json.loads(dumps_17({"dim": 2, "real": rho.real, "imag": rho.imag}))
        assert doc["dim"] == 2
        np.testing.assert_array_equal(matrix_from_json(doc, "state"), rho)

    @pytest.mark.parametrize("d", range(7))
    def test_array_state_matches_nested_lists(self, d):
        # every awkward value in the larger matrices, a different pair of them in the smaller
        state = np.zeros((d, d), dtype=complex)
        state.real, state.imag = np.resize(np.roll(AWKWARD_FLOATS, d), (2, d, d))
        arrays = {"dim": d, "real": state.real, "imag": state.imag}
        lists = {"dim": d, "real": state.real.tolist(), "imag": state.imag.tolist()}
        for indent in (0, 3):
            assert dumps_17(arrays, indent) == dumps_17(lists, indent) == reference_dumps(lists, indent)
        doc = {"states": {"0-1": arrays}, "p": [0.5, 0.25]}
        assert dumps_17(doc) == reference_dumps({"states": {"0-1": lists}, "p": [0.5, 0.25]})

    def test_streamed_file_is_the_string_form(self, tmp_path):
        stack = np.arange(12.0).reshape(3, 2, 2) * (1 - 2j) / 7
        doc = {
            "empty": {},
            "empties": [[], {}, [[]]],
            # an np.int64 makes a list one item per line, an np.float64 does not
            "flat": [True, False, None, "s", 3, np.float64(0.5), -2.5],
            "mixed": [True, None, "s", 3, np.int64(4), np.float64(0.5)],
            "nested": [[1, [2, [3.5]]], {"a": [1.0, {"b": None}]}],
            "awkward": AWKWARD_FLOATS,
            "no rows": np.zeros((0, 3)),
            "views": [m.real for m in stack],
            "imag": stack.imag[1],
            'q"uote\\back\u00e9\x01\t': "snow\u2603man\n\"",
            7: {"\u2603": np.int64(-8)},
        }
        path = tmp_path / "doc.json"
        _write_json(path, doc)
        text = path.read_text()
        assert text == dumps_17(doc) + "\n"
        assert text == reference_dumps(doc) + "\n"
        assert text.isascii()

    def test_malformed(self):
        with pytest.raises(ScenarioError):
            matrix_from_json({"real": [1, 2]}, "m")
        with pytest.raises(ScenarioError):
            matrix_from_json("nope", "m")


class TestNamedStates:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(named_state("maximally_mixed", 3), np.eye(3) / 3)

    def test_ground(self):
        np.testing.assert_allclose(named_state("ground", 2), np.diag([1.0, 0.0]))

    def test_plus_requires_qubit(self):
        np.testing.assert_allclose(named_state("plus", 2), np.full((2, 2), 0.5))
        with pytest.raises(ScenarioError):
            named_state("plus", 3)

    def test_unknown(self):
        with pytest.raises(ScenarioError):
            named_state("cat", 2)


class TestScenarioParsing:
    def test_demo_builds(self):
        sc = demo_scenario()
        assert sc.dim == 2 and sc.classical is None
        assert sc.instrument.joint.outcome_labels == (("0", "0"), ("0", "1"), ("1", "0"))
        np.testing.assert_array_equal(sc.rho0, np.eye(2) / 2)
        assert sc.theorem1 == theorem1_config({})

    def test_loaded_scenario_is_frozen(self):
        sc = demo_scenario()
        for field, value in [("seed", 5), ("rho0", np.eye(2)), ("enumeration_cap", 4), ("prior_kinds", ("pf",))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sc, field, value)
        assert dataclasses.replace(sc, seed=5).seed == 5 and sc.seed == 7

    def test_missing_steps(self):
        with pytest.raises(ScenarioError, match="steps"):
            Scenario.from_dict({"system": {}, "rho0": "ground"})

    def test_bad_time_index(self):
        doc = demo_scenario().raw | {"smoothing_time_index": 9}
        with pytest.raises(ScenarioError, match="smoothing_time_index"):
            Scenario.from_dict(doc)

    def test_bad_prior_kind(self):
        doc = demo_scenario().raw | {"prior_kinds": ["pf", "nope"]}
        with pytest.raises(ScenarioError, match="prior_kinds"):
            Scenario.from_dict(doc)

    def test_bad_system_type(self):
        doc = demo_scenario().raw | {"system": {"type": "wat"}}
        with pytest.raises(ScenarioError, match="system.type"):
            Scenario.from_dict(doc)

    def test_rho0_dimension_mismatch(self):
        doc = demo_scenario().raw | {"rho0": {"real": [[1.0]], "imag": [[0.0]]}}
        with pytest.raises(ScenarioError, match=r"rho0: shape \(1, 1\) does not match system dim 2"):
            Scenario.from_dict(doc)

    # one bad value per block, in the order from_dict checks the blocks
    BAD_BLOCKS = [
        ("theorem1", {"n_extensions": "x"}),
        ("name", "a/b"),
        ("seed", "x"),
        ("enumeration_cap", 0),
        ("n_trajectories", -1),
        ("custom_prior", 0),
        ("prior_kinds", ["pf", "custom"]),
        ("system", {"type": "wat"}),
        ("rho0", [0.5]),
    ]

    @staticmethod
    def _error(doc) -> str:
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(doc)
        return str(exc.value)

    @pytest.mark.parametrize("first", [key for key, _ in BAD_BLOCKS])
    def test_first_bad_block_is_reported(self, first):
        # with this block and every later one bad, the error is the one this block gives alone
        raw, keys = demo_scenario().raw, [key for key, _ in self.BAD_BLOCKS]
        later = self.BAD_BLOCKS[keys.index(first):]
        alone = [self._error(raw | dict([block])) for block in later]
        assert len(set(alone)) == len(alone)
        assert self._error(raw | dict(later)) == alone[0]

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            Scenario.from_file(tmp_path / "missing.json")

    def test_invalid_json_has_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="bad.json:2"):
            Scenario.from_file(p)


class TestClassicalRealization:
    def test_joint_is_complete_and_rank_one(self):
        joint = classical_demo_scenario(3).instrument.joint
        assert joint.completeness_defect() <= 1e-12
        for (y, edge), op in joint.ops.items():
            assert len(op.kraus) == 1
            x_old, x_new = map(int, edge.split(">"))
            assert op.kraus[0][x_new, x_old] != 0

    def test_marginal_reproduces_conditional_maps(self):
        # diag of Phi_y(|x'><x'|) must equal phi_y(x|x') = D(x|x') p(y|x')
        sc = classical_demo_scenario(2)
        model, inst = sc.classical, sc.instrument
        n = model.n_states
        for y in model.outcome_labels:
            got = np.zeros((n, n))
            for x_old in range(n):
                basis = np.zeros((n, n), dtype=complex)
                basis[x_old, x_old] = 1.0
                out = sum(k @ basis @ dag(k) for k in inst.op(y).kraus)
                got[:, x_old] = np.diag(out).real
            np.testing.assert_allclose(got, conditional_map(model, y), atol=1e-14)

    def test_kraus_preserve_diagonal_states(self):
        inst = classical_demo_scenario(3).instrument
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3))
        rho = np.diag(probs).astype(complex)
        for y in inst.outcome_labels:
            out = sum(k @ rho @ dag(k) for k in inst.op(y).kraus)
            assert np.abs(out - np.diag(np.diag(out))).max() <= 1e-14


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        sc = demo_scenario()
        records = [
            (("0", "0"), ("1", "0"), ("0", "1"), ("0", "0")),
            (("0", "0"), ("0", "0"), ("0", "0"), ("0", "0")),
        ]
        path = tmp_path / "t.jsonl"
        write_trajectories(path, sc, records)
        header, back = read_trajectories(path)
        assert header["n_trajectories"] == 2
        assert [tuple(r) for r in back] == [tuple(r) for r in records]

    def test_escaped_labels_match_per_line_writer(self, tmp_path):
        # labels that JSON must escape: a quote, a backslash, a non-ASCII character
        sc = demo_scenario()
        records = [
            (('a"b', "0"), ("c\\d", "é"), ("0", 'a"b')),
            (("é", "c\\d"), ('a"b', "0")),
        ]
        header = {"scenario": sc.name, "seed": sc.seed, "steps": sc.steps, "n_trajectories": 2, "kind": "joint"}
        lines = [json.dumps(header, separators=(", ", ": "))] + [
            json.dumps({"step": i, "alice": a, "bob": b}, separators=(", ", ": "))
            for record in records
            for i, (a, b) in enumerate(record)
        ]
        path = tmp_path / "t.jsonl"
        write_trajectories(path, sc, records)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        _, back = read_trajectories(path)
        assert [tuple(r) for r in back] == records

    def test_alice_only_uses_null_bob(self, tmp_path):
        # the writer always records bob; the reader still accepts alice-only files
        path = tmp_path / "t.jsonl"
        steps = [{"step": 0, "alice": "0", "bob": None}, {"step": 1, "alice": "1", "bob": None}]
        path.write_text("\n".join(json.dumps(line) for line in [{"kind": "alice"}, *steps]) + "\n")
        _, back = read_trajectories(path)
        assert back == [[("0", None), ("1", None)]]

    def test_empty_file_is_header_only(self, tmp_path):
        sc = demo_scenario()
        path = tmp_path / "t.jsonl"
        write_trajectories(path, sc, [])
        assert len(path.read_text().strip().splitlines()) == 1
        header, back = read_trajectories(path)
        assert back == []

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"scenario": "x"}\n{"step": 0, "alice": "0", "bob": null}\nnot json\n')
        with pytest.raises(ScenarioError, match=":3"):
            read_trajectories(path)
