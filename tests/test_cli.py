import csv
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from retrosmooth import sampling, verify
from retrosmooth.cli import (
    _ENTROPY_HEADER,
    _SMOOTH_HEADER,
    _entropy_line,
    _text,
    _write_lines,
    cmd_classical_limit,
    cmd_entropy_scan,
    cmd_simulate,
    cmd_smooth,
    main,
)
from retrosmooth.errors import NotClassicalLimit, ScenarioError
from retrosmooth.scenario import (
    Scenario,
    classical_demo_scenario,
    demo_scenario,
    matrix_to_json,
    read_trajectories,
)
from retrosmooth.trajectory import ConditionalOp, Instrument, enumerate_records

LN2 = float(np.log(2.0))


def run_python(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout's package; its last output line, parsed as JSON."""
    import subprocess
    import sys

    import retrosmooth

    src = str(Path(retrosmooth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_zero_trajectories_header_only(self, tmp_path):
        path = cmd_simulate(demo_scenario(), 0, tmp_path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["n_trajectories"] == 0

    def test_zero_trajectories_smooth_to_empty_tables(self, tmp_path):
        # the one input whose record table is empty
        assert main(["simulate", "--scenario", "demo", "--trajectories", "0", "--out", str(tmp_path)]) == 0
        record = tmp_path / "driven-damped-qubit_trajectories.jsonl"
        assert main(["smooth", "--scenario", "demo", "--record", str(record), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "driven-damped-qubit_smooth.csv").read_bytes() == (_SMOOTH_HEADER + "\r\n").encode()
        text = (tmp_path / "driven-damped-qubit_smooth.json").read_text()
        assert '"priors": {}' in text and json.loads(text)["priors"] == {}

    def test_deterministic_given_seed(self, tmp_path):
        sc = demo_scenario()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = cmd_simulate(sc, 20, tmp_path / "a")
        b = cmd_simulate(sc, 20, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_the_scenario_seed(self, tmp_path):
        written = {}
        for seed, flag in [(7, ["--seed", "5"]), (5, []), (7, [])]:
            case = tmp_path / f"{seed}{''.join(flag)}"
            (case / "out").mkdir(parents=True)
            (case / "sc.json").write_text(json.dumps({**demo_scenario().raw, "seed": seed}))
            args = ["simulate", "--scenario", str(case / "sc.json"), "--trajectories", "20", *flag]
            assert main([*args, "--out", str(case / "out")]) == 0
            written[case.name] = (case / "out" / "driven-damped-qubit_trajectories.jsonl").read_bytes()
        assert written["7--seed5"] == written["5"] != written["7"]

    def test_frequencies_match_enumeration(self, tmp_path):
        sc = demo_scenario()
        n = 4000
        path = cmd_simulate(sc, n, tmp_path)
        _, records = read_trajectories(path)
        counts = {}
        for rec in records:
            key = tuple((a, b) for a, b in rec)
            counts[key] = counts.get(key, 0) + 1
        for rec, p in enumerate_records(sc.instrument.joint, sc.rho0, sc.steps):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(rec, 0) / n - p) <= 4 * sigma + 2e-3


class TestSmooth:
    def test_enumerate_clhs_reproduces_filtered(self, tmp_path):
        summary = cmd_smooth(demo_scenario(), tmp_path, enumerate_futures=True)
        assert summary["max_avg_residual"]["clhs"] < 1e-10
        # clhs smoothed states all carry maximal fidelity to the filtered state
        for row in read_csv(tmp_path / "driven-damped-qubit_smooth.csv"):
            if row["prior"] == "clhs" and row["status"] == "ok":
                assert abs(float(row["fidelity_to_filtered"]) - 1.0) < 1e-8

    def test_enumerate_every_prior_averages_back(self, tmp_path):
        summary = cmd_smooth(demo_scenario(), tmp_path, enumerate_futures=True)
        for kind, residual in summary["max_avg_residual"].items():
            assert residual < 1e-8, kind

    def test_zero_probability_past_surfaced_and_run_continues(self, tmp_path):
        summary = cmd_smooth(demo_scenario(), tmp_path, enumerate_futures=True)
        entry = summary["priors"]["pf"]["1-1"]
        assert "error" in entry
        assert summary["priors"]["pf"]["0-0"]["states"]

    def test_gw_gap_reported_for_mixed_initial_state(self, tmp_path):
        summary = cmd_smooth(demo_scenario(), tmp_path, enumerate_futures=True)
        assert summary["gw_vs_gw_variant_gap"] > 1e-3

    def test_gw_matches_gw_variant_for_pure_initial_state(self, tmp_path):
        sc = Scenario.from_dict({**demo_scenario().raw, "rho0": "ground"})
        summary = cmd_smooth(sc, tmp_path, enumerate_futures=True)
        assert summary["gw_vs_gw_variant_gap"] <= 1e-9

    def test_record_mode(self, tmp_path):
        sc = demo_scenario()
        path = cmd_simulate(sc, 10, tmp_path)
        summary = cmd_smooth(sc, tmp_path, record_path=path)
        assert summary["mode"] == "records"
        rows = read_csv(tmp_path / "driven-damped-qubit_smooth.csv")
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_record_mode_smooths_every_kind_on_100_step_records(self, tmp_path):
        # 2**50 bob records per past; merged at each detected or undetected jump, at most 51 branches
        sc = Scenario.from_dict({**demo_scenario().raw, "steps": 100, "smoothing_time_index": 50, "seed": 29})
        path = cmd_simulate(sc, 30, tmp_path)
        cmd_smooth(sc, tmp_path, record_path=path, prior_kinds=("pf", "gw", "gw-variant", "pf-variant", "clhs"))
        rows = read_csv(tmp_path / "driven-damped-qubit_smooth.csv")
        assert {r["prior"] for r in rows} == {"pf", "gw", "gw-variant", "pf-variant", "clhs"}
        assert all(r["status"] == "ok" for r in rows)

    def test_record_mode_filters_each_past_once(self, tmp_path, monkeypatch):
        from collections import Counter, defaultdict

        from retrosmooth import smoothers, sweeps, trajectory

        sc = Scenario.from_dict({**demo_scenario().raw, "steps": 40, "smoothing_time_index": 20})
        path = cmd_simulate(sc, 40, tmp_path)
        records = [tuple(a for a, _ in rec) for rec in read_trajectories(path)[1]]
        passes, filtered = defaultdict(list), Counter()
        trie_levels, conjugate = trajectory._trie_levels, trajectory._conjugate

        def counting(name, propagate):
            # a pass's prefixes per level, rebuilt from its trie, and the (row, label) pairs of each stacked step
            def wrapped(instrument, *args, **kwargs):
                levels, pairs = [], []

                def counting_levels(instrument, recs, index=None):
                    keys = instrument.outcome_labels if index is None else list(index)
                    prefixes = [()]
                    for parents, labels, ends in trie_levels(instrument, recs, index):
                        if parents is not None:
                            prefixes = [prefixes[p] + (keys[y],) for p, y in zip(parents, labels)]
                            levels.append(prefixes)
                        yield parents, labels, ends

                def counting_conjugate(stacks, sigma, rows, labels):
                    pairs.append(len(labels))
                    return conjugate(stacks, sigma, rows, labels)

                with monkeypatch.context() as m:
                    m.setattr(trajectory, "_trie_levels", counting_levels)
                    m.setattr(trajectory, "_conjugate", counting_conjugate)
                    found = propagate(instrument, *args, **kwargs)
                passes[name].append((instrument, args, kwargs, levels, pairs))
                return found

            return wrapped

        def counting_filter(instrument, rho0, record):
            filtered[tuple(record)] += 1
            return trajectory.filter(instrument, rho0, record)

        monkeypatch.setattr(sweeps, "filter_records", counting("filter", trajectory.filter_records))
        monkeypatch.setattr(sweeps, "retrofilter_records", counting("retrofilter", trajectory.retrofilter_records))
        monkeypatch.setattr(smoothers, "walk_records", counting("walk", trajectory.walk_records))
        monkeypatch.setattr(smoothers, "filter_state", counting_filter)
        cmd_smooth(sc, tmp_path, record_path=path, prior_kinds=("pf", "gw", "clhs"))
        t = sc.smoothing_index
        pasts = {rec[:t] for rec in records}
        assert 1 < len(pasts) < len(records)

        # one pass each: forward for the record table and the smoothing pass of every prior kind, backward for
        # the table's futures and a bob-branch walk for gw
        assert {name: len(calls) for name, calls in passes.items()} == {"filter": 1, "retrofilter": 1, "walk": 1}
        # the forward pass steps each distinct prefix of the records, the pasts among them, exactly once ...
        *_, levels, pairs = passes["filter"][0]
        each_prefix_once = Counter({rec[:k]: 1 for rec in records for k in range(1, len(rec) + 1)})
        assert Counter(p for level in levels for p in level) == each_prefix_once
        # ... in one stacked step per level, of exactly that level's prefixes
        assert len(levels) == sc.steps
        assert pairs == [len(level) for level in levels]
        # the backward pass likewise steps each distinct suffix of the futures once, one level per step
        *_, levels, pairs = passes["retrofilter"][0]
        each_suffix_once = Counter({rec[t:][::-1][:k]: 1 for rec in records for k in range(1, sc.steps - t + 1)})
        assert Counter(p for level in levels for p in level) == each_suffix_once
        assert pairs == [len(level) for level in levels]
        # the walk steps, per level, every branch of each row's parent by every label of the row's label set
        joint, (initial, label_sets), kwargs, levels, pairs = passes["walk"][0]
        parents = list(dict.fromkeys(p[:-1] for level in levels for p in level))
        branches = dict(zip(parents, trajectory.walk_records(joint, initial, parents, **kwargs)))
        assert len(levels) == t and len(label_sets) == len(pasts)
        assert pairs == [sum(len(branches[p[:-1]][0]) * len(p[-1]) for p in level) for level in levels]
        assert max(pairs) > max(map(len, levels))
        # pf and clhs are built from the sweep's filtered state, not filtered again
        assert filtered == Counter()

    def test_memo_gives_the_bits_of_filter(self):
        # the record table's filtered pasts and probabilities against the per-step reference
        from test_trajectory import reference_filter

        from retrosmooth import sweeps
        from retrosmooth.errors import ZeroProbabilityRecord

        sc = demo_scenario()
        rng = np.random.default_rng(5)
        records = [tuple(rec) for rec in rng.choice(["0", "1"], size=(40, 6)).tolist()]
        # two detected jumps in a row are impossible on the demo qubit
        records += [("1", "1", "0"), ("1", "1"), ("1",), (), ("1", "0", "1", "1"), ("0", "1", "0")]
        records += records[:15]
        rng.shuffle(records)

        def reference(rec):
            try:
                rho, log_prob = reference_filter(sc.instrument, sc.rho0, rec)
            except ZeroProbabilityRecord:
                return None, 0.0
            return rho, float(np.exp(log_prob))

        table, outcomes = sweeps.record_table(sc, records), set()
        t = sc.smoothing_index
        assert sorted(table) == sorted({rec[:t] for rec in records})
        listed = [past + fut for past, entry in table.items() for fut, _ in entry.futures]
        assert sorted(listed) == sorted(set(records))
        for past, (rho_f, p, futures) in table.items():
            want, p_want = reference(past)
            if want is None:
                assert rho_f is None, past
            else:
                assert rho_f.tobytes() == want.tobytes(), past
            assert np.float64(p).tobytes() == np.float64(p_want).tobytes(), past
            for fut, p_rec in futures:
                p_want = reference(past + fut)[1]
                assert np.float64(p_rec).tobytes() == np.float64(p_want).tobytes(), past + fut
                outcomes.add("possible" if p_want > 0.0 else "impossible")
        assert outcomes == {"possible", "impossible"}

    def test_enumerate_is_byte_stable(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cmd_smooth(demo_scenario(), tmp_path / "a", enumerate_futures=True)
        cmd_smooth(demo_scenario(), tmp_path / "b", enumerate_futures=True)
        for name in ("driven-damped-qubit_smooth.csv", "driven-damped-qubit_smooth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_instrument_system_runs_every_prior(self, tmp_path):
        # an explicit Kraus list per outcome: gw and gw-variant branch over the Kraus indices
        inst = sampling.random_instrument(2, 2, 2, np.random.default_rng(5))
        doc = {
            "name": "random-instrument",
            "system": {
                "type": "instrument",
                "operations": {y: [matrix_to_json(k) for k in op.kraus] for y, op in inst.ops.items()},
            },
            "rho0": "maximally_mixed",
            "steps": 3,
            "smoothing_time_index": 1,
            "prior_kinds": ["pf", "gw", "gw-variant", "pf-variant", "clhs"],
        }
        path = tmp_path / "instrument.json"
        path.write_text(json.dumps(doc))
        assert main(["smooth", "--scenario", str(path), "--enumerate", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "random-instrument_smooth.json").read_text())
        residuals = summary["max_avg_residual"]
        assert sorted(residuals) == sorted(doc["prior_kinds"])
        assert all(r is not None and r <= 1e-9 for r in residuals.values()), residuals
        assert summary["gw_vs_gw_variant_gap"] > 0.0

    def test_requires_exactly_one_mode(self, tmp_path):
        with pytest.raises(ScenarioError):
            cmd_smooth(demo_scenario(), tmp_path)

    def test_metrics_take_one_call_per_table(self, tmp_path, monkeypatch):
        from collections import Counter

        from retrosmooth import cli, sweeps

        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[module.__name__, name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("purity", "entropy_vn", "fidelity"):
            count(cli, name)
        count(sweeps, "entropy_vn")
        sc = demo_scenario()
        summary = cmd_smooth(sc, tmp_path, enumerate_futures=True)
        assert sum(len(per_past) for per_past in summary["priors"].values()) == 5 * 4
        assert calls == {("retrosmooth.cli", name): 1 for name in ("purity", "entropy_vn", "fidelity")}
        calls.clear()
        rows = cmd_entropy_scan(sc, tmp_path)
        assert len(rows) == 5 * 3  # one of the four pasts is impossible, and has no row
        assert calls == {("retrosmooth.sweeps", "entropy_vn"): 1}

    def test_states_round_trip_as_density_operators(self, tmp_path):
        from retrosmooth.linalg import as_density

        cmd_smooth(demo_scenario(), tmp_path, enumerate_futures=True)
        doc = json.loads((tmp_path / "driven-damped-qubit_smooth.json").read_text())
        n = 0
        for entry in doc["priors"]["gw"].values():
            for state in entry.get("states", {}).values():
                m = np.asarray(state["real"]) + 1j * np.asarray(state["imag"])
                as_density(m)
                n += 1
        assert n > 0


class TestEntropyScan:
    def test_demo_svb_values(self, tmp_path):
        rows = cmd_entropy_scan(None, tmp_path, demo_svb=True)
        values = {r["id"]: r.get("avg_entropy") for r in rows if r["id"] != "ordering-reversal"}
        assert abs(values["gamma1-Z"] - 0.0) <= 1e-10
        assert abs(values["gamma1-X"] - LN2) <= 1e-10
        assert abs(values["gamma2-Z"] - LN2) <= 1e-10
        assert abs(values["gamma2-X"] - 0.0) <= 1e-10
        assert all(r["within_bounds"] for r in rows)

    def test_scenario_rows_recover_bounds(self, tmp_path):
        rows = cmd_entropy_scan(demo_scenario(), tmp_path)
        assert all(r["within_bounds"] for r in rows)
        by_past = {}
        for r in rows:
            by_past.setdefault(r["record"], {})[r["id"]] = r
        for past, priors in by_past.items():
            # purification of the filtered state saturates the upper bound
            clhs = priors["clhs"]
            assert abs(clhs["avg_entropy"] - clhs["upper"]) <= 1e-10
            # the trivial prior minimizes the average entropy
            for kind, row in priors.items():
                assert row["avg_entropy"] >= priors["pf"]["avg_entropy"] - 1e-9

    def test_theorem1_sweep(self, tmp_path):
        sc = Scenario.from_dict({**demo_scenario().raw, "theorem1": {"n_extensions": 25}})
        rows = [r for r in cmd_entropy_scan(sc, tmp_path, theorem1=True, seed=5) if r["kind"] == "theorem1"]
        assert len(rows) == 25
        assert all(r["within_bounds"] for r in rows)

    def test_needs_some_mode(self, tmp_path):
        with pytest.raises(ScenarioError):
            cmd_entropy_scan(None, tmp_path)


# cells csv.QUOTE_MINIMAL must quote (, " CR LF) and some it must leave alone
AWKWARD_TEXT = ["a,b", 'say "hi"', "x\r\ny", "line\nbreak", "cr\ronly", '"', ",", "", "plain", " lead", "é;",
                "\t\x00\u2028"]
AWKWARD_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310,
                  2.2250738585072014e-308, 1.0, -3.0, 1e16, 1e17, 0.1, 1 / 3, -123456789.0]


def _old_cell(value) -> str:
    """The per-cell formatter the CSV writers used before writing whole lines."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def dict_writer_csv(header: str, rows: list[dict]) -> bytes:
    """``rows`` as ``csv.DictWriter`` writes them through the old cell formatter; a missing cell is empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header.split(","))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _old_cell(row.get(k, "")) for k in writer.fieldnames})
    return buf.getvalue().encode()


class TestCsvLines:
    @pytest.mark.parametrize("text", AWKWARD_TEXT)
    def test_text_cell_is_quoted_as_csv_writer_quotes_it(self, text):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "x"])
        assert f"{_text(text)},x\r\n" == buf.getvalue()

    def test_entropy_lines_match_dict_writer(self, tmp_path):
        numbers = ("avg_entropy", "lower", "upper", "lower_margin", "upper_margin")
        rows = [
            {
                "kind": text,
                "id": f"ext-{i}",
                "record": AWKWARD_TEXT[-1 - i],
                **{k: AWKWARD_FLOATS[(3 * i + j) % len(AWKWARD_FLOATS)] for j, k in enumerate(numbers)},
                "within_bounds": i % 2 == 0,
                "detail": text,
            }
            for i, text in enumerate(AWKWARD_TEXT)
        ]
        # rows that leave cells out, as the svb, theorem-1 and failed-prior rows do
        rows += [
            {"kind": "svb", "id": "ordering-reversal", "record": "", "within_bounds": False, "detail": "e=1"},
            {"kind": "theorem1", "id": "e", "record": "", **dict.fromkeys(numbers, 2.0), "within_bounds": True},
            {"kind": "prior", "id": "gw", "record": "0-1", "detail": 'cap 4, "gw" exceeded'},
        ]
        path = tmp_path / "entropy.csv"
        _write_lines(path, _ENTROPY_HEADER, [_entropy_line(row) for row in rows])
        assert path.read_bytes() == dict_writer_csv(_ENTROPY_HEADER, rows)

    def test_smooth_lines_with_quoted_labels_match_dict_writer(self, tmp_path):
        # a projective readout: a record that switches outcome is impossible, so the
        # file holds ok rows, zero-probability rows and zero-probability pasts
        ops = [
            {"alice": alice, "bob": 'b,"0', "kraus": [{"real": kraus}]}
            for alice, kraus in (('x,"0', [[1, 0], [0, 0]]), ("y\r\n1", [[0, 0], [0, 1]]))
        ]
        system = {"type": "joint_instrument", "operations": ops}
        doc = _demo_doc(name='q, "s"', system=system, steps=3, smoothing_time_index=2,
                        prior_kinds=["pf", "gw"])
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        assert main(["smooth", "--scenario", str(path), "--enumerate", "--out", str(tmp_path)]) == 0
        written = tmp_path / 'q, "s"_smooth.csv'
        rows = read_csv(written)
        assert {r["status"] for r in rows} == {"ok", "zero-probability", "zero-probability past record"}
        assert written.read_bytes() == dict_writer_csv(_SMOOTH_HEADER, rows)


def delta_chain():
    """A static chain read out without noise, starting in state 1: only the all-"1" records are possible."""
    return Scenario.from_dict(
        {
            "name": "delta-chain",
            "system": {
                "type": "classical",
                "transition": [[1.0, 0.0], [0.0, 1.0]],
                "likelihood": {"0": [1.0, 0.0], "1": [0.0, 1.0]},
            },
            "rho0": [0.0, 1.0],
            "steps": 3,
            "smoothing_time_index": 2,
            "prior_kinds": ["pf"],
        }
    )


def per_split_reference(sc, kinds):
    """Reference: the per-split loop of ``classical_deviation`` that one table replaced.

    One record table and one ``smooth_table`` pass per split time, and one
    ``classical_smooth`` per (record, split).  Returns every smoothed state's
    bytes and ``possible`` flag by ``(kind, past, future)``, and the worst
    deviation per kind.
    """
    from retrosmooth.classical import classical_smooth
    from retrosmooth.sweeps import PROB_FLOOR, _complete_table, smooth_table

    prior0 = np.diag(sc.rho0).real
    records = [(rec, p) for rec, p in enumerate_records(sc.instrument, sc.rho0, sc.steps) if p > PROB_FLOOR]
    states, worst = {}, {kind: 0.0 for kind in kinds}
    for t in range(sc.steps + 1):
        grouped: dict = {}
        for rec, p in records:
            grouped.setdefault(rec[:t], []).append((rec[t:], p))
        for s in smooth_table(sc, _complete_table(sc.instrument, sc.rho0, grouped), kinds):
            assert s.error is None and s.possible.all()
            for (fut, _), state, possible in zip(s.futures, s.states, s.possible):
                states[s.kind, s.past, fut] = state.tobytes(), bool(possible)
                expected = classical_smooth(sc.classical, prior0, s.past, fut)
                worst[s.kind] = max(worst[s.kind], float(np.abs(np.diag(state).real - expected).max()))
    return states, worst


class TestClassicalLimit:
    def test_two_and_three_state(self, tmp_path):
        for n in (2, 3):
            report = cmd_classical_limit(classical_demo_scenario(n, steps=4), tmp_path)
            assert report["passed"]
            assert max(report["max_abs_deviation"].values()) <= 1e-9

    def test_register_kind_passes_beyond_the_unmerged_cap(self, tmp_path):
        # a 10-step past has 4**10 bob records, over the default cap, and 2 merged branches
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "classical-2state.json").read_text())
        report = cmd_classical_limit(Scenario.from_dict({**doc, "steps": 10}), tmp_path)
        assert report["passed"] and report["n_records"] == 2**10
        assert max(report["max_abs_deviation"].values()) <= 1e-9

    def test_identity_dynamics_keeps_prior(self, tmp_path):
        # static chain with a noninformative readout: both stacks return the prior
        sc = Scenario.from_dict(
            {
                "name": "static-chain",
                "system": {
                    "type": "classical",
                    "transition": [[1.0, 0.0], [0.0, 1.0]],
                    "likelihood": {"0": [0.5, 0.5], "1": [0.5, 0.5]},
                },
                "rho0": [0.3, 0.7],
                "steps": 3,
                "smoothing_time_index": 1,
                "prior_kinds": ["pf", "gw-variant"],
            }
        )
        report = cmd_classical_limit(sc, tmp_path)
        assert report["passed"]
        from retrosmooth.retrodiction import generalized_smooth
        from retrosmooth.smoothers import build_prior
        from retrosmooth.trajectory import retrofilter

        prior = build_prior("pf", rho0=sc.rho0, alice_past=("0",), instrument=sc.instrument)
        rho_s = generalized_smooth(prior, retrofilter(sc.instrument, ("1", "0")))
        np.testing.assert_allclose(np.diag(rho_s).real, [0.3, 0.7], atol=1e-12)

    def test_delta_prior_noiseless_readout_stays_delta(self, tmp_path):
        report = cmd_classical_limit(delta_chain(), tmp_path)
        assert report["passed"]

    @pytest.mark.parametrize(
        "chain",
        [
            lambda: Scenario.from_file("scenarios/classical-2state.json"),
            lambda: classical_demo_scenario(3, steps=4),
            delta_chain,
        ],
        ids=["classical-2state", "3-state", "delta-chain"],
    )
    def test_the_one_table_has_the_bits_of_one_table_per_split(self, chain, monkeypatch):
        from retrosmooth import sweeps

        sc, kinds = chain(), ("pf", "gw-variant")
        states, worst_ref = per_split_reference(sc, kinds)
        seen, smooth_table = {}, sweeps.smooth_table

        def recording(scenario, table, kinds):
            for s in smooth_table(scenario, table, kinds):
                for (fut, _), state, possible in zip(s.futures, s.states, s.possible):
                    seen[s.kind, s.past, fut] = state.tobytes(), bool(possible)
                yield s

        monkeypatch.setattr(sweeps, "smooth_table", recording)
        worst, n_records = sweeps.classical_deviation(sc, kinds)
        assert seen == states
        assert worst == worst_ref and n_records == len({past + fut for _, past, fut in states})

    def test_one_smoothing_call_per_prior(self, tmp_path, monkeypatch):
        from collections import Counter

        from retrosmooth import retrodiction, smoothers, sweeps, trajectory

        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module, name in [
            (sweeps, "build_priors"),
            (sweeps, "generalized_smooth"),
            (sweeps, "classical_smooth_all"),
            (retrodiction, "psd_sqrt"),
            (smoothers, "walk_records"),
            (trajectory, "walk"),
        ]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        state = retrodiction.FilteredGlobalState
        monkeypatch.setattr(state, "__post_init__", counting("FilteredGlobalState", state.__post_init__))
        sc = Scenario.from_file("scenarios/classical-2state.json")
        report = cmd_classical_limit(sc, tmp_path)
        assert report["passed"]
        # every (record, split) in one table, kinds pf and gw-variant: per kind one table build, one stacked
        # smoothing call and, each kind's blocks sharing one shape, one batched block square root; one
        # bob-branch pass for gw-variant; walk only for the one enumeration of every record; one
        # forward-backward pass per record for the classical posteriors at every split
        assert calls == {
            "build_priors": 2,
            "generalized_smooth": 2,
            "psd_sqrt": 2,
            "walk_records": 1,
            "walk": 1,
            "classical_smooth_all": report["n_records"],
        }
        assert report["n_records"] == 2**sc.steps
        # each kind's priors are read from its stacked table: no per-past prior object is built
        assert calls["FilteredGlobalState"] == 0

    def test_rejects_non_classical(self, tmp_path):
        with pytest.raises(NotClassicalLimit):
            cmd_classical_limit(demo_scenario(), tmp_path)


class TestVerifySuite:
    def test_all_checks_pass(self):
        results = verify.run_all(seed=11)
        assert all(r.passed for r in results)

    def test_injected_completeness_defect_fails_named_check(self):
        ground = np.diag([1.0, 0.0]).astype(complex)
        excited = np.diag([0.0, 1.0]).astype(complex)
        broken = Instrument(
            {"0": ConditionalOp((np.sqrt(1 - 1e-3) * ground,)), "1": ConditionalOp((excited,))},
            check=False,
        )
        result = verify.check_instrument("injected-defect", broken)
        assert not result.passed
        assert result.residual > 1e-4
        assert "injected-defect" in result.name

    def test_register_checks_pass_on_a_chain_whose_register_merges(self):
        # every transition of a chain resets, so the pass merges its gw branches; the posterior check
        # reads unmerged priors, the mixture check compares merged with unmerged
        sc = classical_demo_scenario(3, steps=3)
        for check in (verify.check_bob_posterior, verify.check_branch_mixture):
            result = check(sc)
            assert result.passed and "prior errors" not in result.detail, result.line()

    def test_gw_checks_fail_beyond_cap(self):
        # the 4 alice records fit the cap; 16 bob branches per past and 64 joint records do not
        sc = Scenario.from_dict({**classical_demo_scenario(2, steps=2).raw, "enumeration_cap": 4})
        mixture = verify.check_branch_mixture(sc)
        assert not mixture.passed and "prior errors=4" in mixture.detail
        posterior = verify.check_bob_posterior(sc)
        assert not posterior.passed and "exceed the cap of 4" in posterior.detail

    def test_prior_error_fails_sweep_checks(self):
        # the custom prior's marginal, I/2, is the filtered state of no possible past, so every build fails
        sc = Scenario.from_dict(_custom_doc())
        for result in (verify.check_filter_averaging(sc), verify.check_entropy_sandwich(sc)):
            assert not result.passed, result.name
            assert "prior errors" in result.detail


def _demo_doc(**overrides) -> dict:
    doc = json.loads(json.dumps(demo_scenario().raw))
    doc.update(overrides)
    return doc


def _classical_doc_with_list_likelihood() -> dict:
    doc = json.loads(Path("scenarios/classical-2state.json").read_text())
    doc["system"]["likelihood"] = [[0.8, 0.3], [0.2, 0.7]]
    return doc


def _rho0(real) -> dict:
    return {"real": real, "imag": [[0.0, 0.0], [0.0, 0.0]]}


def _lindblad_doc(**system) -> dict:
    doc = _demo_doc()
    doc["system"].update(system)
    return doc


def _efficiency_doc(value) -> dict:
    doc = _demo_doc()
    doc["system"]["jump_operators"][0]["efficiency"] = value
    return doc


def _overflowing_jump_doc() -> dict:
    doc = _demo_doc()
    doc["system"]["jump_operators"][0]["matrix"]["real"][0][1] = 1e308
    return doc


G_JSON, E_JSON = _rho0([[1.0, 0.0], [0.0, 0.0]]), _rho0([[0.0, 0.0], [0.0, 1.0]])


MIXED4_JSON = _rho0((np.eye(4) / 4).tolist())
MIXED4_JSON["imag"] = np.zeros((4, 4)).tolist()


def _custom_doc(**block) -> dict:
    """The demo with a custom prior (the maximally mixed two-qubit state) and ``block`` overrides."""
    return _demo_doc(prior_kinds=["pf", "custom"], custom_prior={"matrix": MIXED4_JSON, "dim_a": 2, **block})


def _joint_doc(*entries) -> dict:
    operations = [{"alice": a, "bob": b, "kraus": kraus} for a, b, kraus in entries]
    return _demo_doc(system={"type": "joint_instrument", "operations": operations})


# case -> (scenario document, a fragment the error line must hold)
MALFORMED_SCENARIOS = {
    "seed-not-integer": (lambda: _demo_doc(seed="x"), "seed:"),
    "seed-boolean": (lambda: _demo_doc(seed=True), "seed: expected an integer, got True"),
    "steps-not-integral": (
        lambda: _demo_doc(steps=3.7, smoothing_time_index=1),
        "steps: expected an integer, got 3.7",
    ),
    "split-not-integral": (
        lambda: _demo_doc(smoothing_time_index=1.9),
        "smoothing_time_index: expected an integer, got 1.9",
    ),
    "n-trajectories-not-integer": (lambda: _demo_doc(n_trajectories="x"), "n_trajectories:"),
    "likelihood-as-list": (_classical_doc_with_list_likelihood, "system.likelihood:"),
    "rho0-trace-1.8": (lambda: _demo_doc(rho0=_rho0([[0.9, 0.0], [0.0, 0.9]])), "trace 1.8,"),
    "rho0-negative-eigenvalue": (
        lambda: _demo_doc(rho0=_rho0([[2.0, 0.0], [0.0, -1.0]])),
        "eigenvalue -1 ",
    ),
    "prior-kinds-as-string": (lambda: _demo_doc(prior_kinds="pf"), "expected a list"),
    "negative-enumeration-cap": (lambda: _demo_doc(enumeration_cap=-5), "enumeration_cap:"),
    "dt-not-a-number": (lambda: _lindblad_doc(dt="x"), "system.dt:"),
    "efficiency-not-a-number": (lambda: _efficiency_doc("x"), "efficiency:"),
    "instrument-kraus-not-a-list": (
        lambda: _demo_doc(system={"type": "instrument", "operations": {"0": 5}}),
        "system.operations['0']:",
    ),
    "instrument-incomplete": (
        lambda: _demo_doc(system={"type": "instrument", "operations": {"0": [G_JSON]}}),
        "completeness defect",
    ),
    "joint-entry-two-kraus": (
        lambda: _joint_doc(("0", "0", [G_JSON, E_JSON])),
        "exactly one Kraus operator",
    ),
    "joint-entry-duplicate": (
        lambda: _joint_doc(("0", "0", [G_JSON]), ("1", "0", [E_JSON]), ("0", "0", [G_JSON])),
        "not distinct",
    ),
    "theorem1-not-an-object": (lambda: _demo_doc(theorem1=[200]), "theorem1: expected an object"),
    "theorem1-extensions-not-integer": (
        lambda: _demo_doc(theorem1={"n_extensions": "x"}),
        "theorem1.n_extensions: expected an integer, got 'x'",
    ),
    "theorem1-extensions-not-integral": (
        lambda: _demo_doc(theorem1={"n_extensions": 2.7}),
        "theorem1.n_extensions: expected an integer, got 2.7",
    ),
    "theorem1-extensions-boolean": (
        lambda: _demo_doc(theorem1={"n_extensions": True}),
        "theorem1.n_extensions: expected an integer, got True",
    ),
    "theorem1-extensions-negative": (
        lambda: _demo_doc(theorem1={"n_extensions": -3}),
        "theorem1.n_extensions: must be at least 0, got -3",
    ),
    "theorem1-dim-q-entry-not-integer": (
        lambda: _demo_doc(theorem1={"dim_q": [2, "q"]}),
        "theorem1.dim_q: expected an integer, got 'q'",
    ),
    "theorem1-dim-q-zero": (
        lambda: _demo_doc(theorem1={"dim_q": [0]}),
        "theorem1.dim_q: must be at least 1, got 0",
    ),
    "theorem1-dim-a-empty": (
        lambda: _demo_doc(theorem1={"dim_a": []}),
        "theorem1.dim_a: expected a nonempty list of integers",
    ),
    "theorem1-effects-zero": (
        lambda: _demo_doc(theorem1={"n_effects": [0]}),
        "theorem1.n_effects: must be at least 1, got 0",
    ),
    "custom-prior-as-list": (
        lambda: _demo_doc(custom_prior=[MIXED4_JSON]),
        "custom_prior: expected an object, got [",
    ),
    "custom-prior-as-zero": (lambda: _demo_doc(custom_prior=0), "custom_prior: expected an object, got 0"),
    "custom-prior-as-true": (
        lambda: _demo_doc(custom_prior=True),
        "custom_prior: expected an object, got True",
    ),
    "custom-prior-dim-a-not-integer": (
        lambda: _custom_doc(dim_a="x"),
        "custom_prior.dim_a: expected an integer, got 'x'",
    ),
    "custom-prior-dim-a-not-integral": (
        lambda: _custom_doc(dim_a=2.7),
        "custom_prior.dim_a: expected an integer, got 2.7",
    ),
    "custom-prior-dim-a-boolean": (
        lambda: _custom_doc(dim_a=True),
        "custom_prior.dim_a: expected an integer, got True",
    ),
    "custom-prior-dim-a-zero": (
        lambda: _custom_doc(dim_a=0),
        "custom_prior.dim_a: must be at least 1, got 0",
    ),
    "custom-prior-matrix-not-a-matrix": (
        lambda: _custom_doc(matrix="x"),
        "custom_prior.matrix: expected a matrix object",
    ),
    "custom-prior-not-a-state": (
        lambda: _custom_doc(matrix=_rho0([[2.0, 0.0], [0.0, -1.0]])),
        "custom_prior.matrix has eigenvalue -1 ",
    ),
    "custom-prior-wrong-factorization": (
        lambda: _custom_doc(dim_a=4),
        "custom_prior: dimension 4 is not 2 x dim_a=4",
    ),
    "jump-operators-not-a-list": (
        lambda: _lindblad_doc(jump_operators=float("nan")),
        "system.jump_operators: expected a list, got nan",
    ),
    "jump-operator-entry-overflows": (_overflowing_jump_doc, "system: discretized step has non-finite entries"),
    # K†K of a finite Kraus operator overflows: both forms of an explicit instrument reject it on load
    "instrument-kraus-gram-overflows": (
        lambda: _demo_doc(system={"type": "instrument", "operations": {"a": [_rho0([[1, 0], [0, -1e308]])]}}),
        "system: K†K summed over the Kraus operators has non-finite entries",
    ),
    "joint-kraus-gram-overflows": (
        lambda: _joint_doc(("a", "0", [_rho0([[1, 0], [0, -1e308]])])),
        "system: K†K summed over the Kraus operators has non-finite entries",
    ),
    "hamiltonian-imag-infinite": (
        lambda: _lindblad_doc(hamiltonian={"real": [[0, 0], [0, 0]], "imag": [[0, float("inf")], [0, 0]]}),
        "system.hamiltonian has non-finite entries",
    ),
    "rho0-probability-overflows": (
        lambda: {**classical_demo_scenario().raw, "rho0": [1e308, 0.5]},
        "rho0's Hermitian part has non-finite entries",
    ),
    "steps-beyond-an-index": (lambda: _demo_doc(steps=10**30), "steps: must be at most"),
    "custom-prior-missing": (
        lambda: _demo_doc(prior_kinds=["pf", "custom"]),
        "custom_prior: required when prior kind 'custom' is requested",
    ),
}


def _assert_config_error(capsys, code: int, fragment: str) -> None:
    """``code`` is 2 and stderr is one ``error:`` line holding ``fragment``, with no traceback."""
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and fragment in lines[0], err


class TestMainEntry:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_malformed_value_is_one_line_config_error(self, tmp_path, capsys, case):
        path = tmp_path / "bad.json"
        doc, fragment = MALFORMED_SCENARIOS[case]
        path.write_text(json.dumps(doc()))
        code = main(["smooth", "--scenario", str(path), "--enumerate", "--out", str(tmp_path)])
        _assert_config_error(capsys, code, fragment)

    @pytest.mark.parametrize("command", ["smooth", "entropy-scan", "classical-limit", "simulate"])
    def test_malformed_theorem1_block_fails_every_command(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_demo_doc(theorem1={"n_extensions": "x"})))
        extra = {"smooth": ["--enumerate"], "entropy-scan": ["--theorem1"]}.get(command, [])
        code = main([command, "--scenario", str(path), *extra, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.strip() == "error: theorem1.n_extensions: expected an integer, got 'x'"

    def test_prior_flag_custom_without_block_is_config_error(self, tmp_path, capsys):
        code = main(["smooth", "--scenario", "demo", "--enumerate", "--prior", "pf,custom", "--out", str(tmp_path)])
        _assert_config_error(capsys, code, "custom_prior: required")

    def test_custom_prior_marginal_is_checked_per_past(self, tmp_path):
        # the maximally mixed extension matches the filtered state only for the empty past
        path = tmp_path / "custom.json"
        deviates = "extension marginal deviates from the filtered state"
        for split, statuses in ((0, {"ok", "zero-probability"}), (2, {deviates, "zero-probability past record"})):
            path.write_text(json.dumps({**_custom_doc(), "smoothing_time_index": split}))
            assert main(["smooth", "--scenario", str(path), "--enumerate", "--out", str(tmp_path)]) == 0
            rows = read_csv(tmp_path / "driven-damped-qubit_smooth.csv")
            custom = {r["status"].split(" by ")[0] for r in rows if r["prior"] == "custom"}
            assert custom == statuses, custom

    @pytest.mark.parametrize("flag", ["--scenario", "--record"])
    def test_unreadable_path_is_config_error(self, tmp_path, capsys, flag):
        paths = {"--scenario": "demo", "--record": str(tmp_path / "missing.jsonl")}
        for bad in (str(tmp_path / "missing.jsonl"), str(tmp_path)):
            args = {**paths, flag: bad}
            code = main(["smooth", "--scenario", args["--scenario"], "--record", args["--record"],
                         "--out", str(tmp_path / "out")])
            _assert_config_error(capsys, code, bad)

    def test_record_label_outside_alphabet_is_config_error(self, tmp_path, capsys):
        sc = demo_scenario()
        record = tmp_path / "bad.jsonl"
        steps = [json.dumps({"step": i, "alice": "9" if i == 1 else "0", "bob": "0"}) for i in range(sc.steps)]
        record.write_text("\n".join(['{"kind": "joint"}', *steps]) + "\n")
        code = main(["smooth", "--scenario", "demo", "--record", str(record), "--out", str(tmp_path)])
        _assert_config_error(capsys, code, f"{record}: outcome '9' not in alphabet")

    @pytest.mark.parametrize(
        "case, line, message",
        [
            ("blank line", 3, "malformed record line"),
            ("two objects on one line", 2, "malformed record line"),
            ("two comma-separated objects on one line", 2, "malformed record line"),
            ("missing key", 3, "malformed record line"),
            ("step out of sequence", 4, "step index 3 out of sequence"),
            ("step too large for an integer", 3, "malformed record line"),
            # each distinct line is parsed once: neither a failed parse nor a reused one may hide a fault
            ("malformed line repeated later", 4, "malformed record line"),
            ("valid line repeated out of sequence", 4, "step index 1 out of sequence"),
            # the count of values still matches the count of lines, so the file must be read one line at a time
            ("object split across two lines, two objects on a later one", 3, "malformed record line"),
            # a value of the wrong type is not read as another type
            ("boolean step", 2, "malformed record line"),
            ("fractional step", 3, "malformed record line"),
            ("string step", 4, "malformed record line"),
            ("number for alice", 3, "malformed record line"),
            ("list for bob", 3, "malformed record line"),
        ],
    )
    def test_bad_record_line_is_config_error_naming_it(self, tmp_path, capsys, case, line, message):
        step = [json.dumps({"step": i, "alice": "0", "bob": "0"}) for i in range(4)]
        body = {
            "blank line": [step[0], "", *step[1:]],
            "two objects on one line": [f"{step[0]} {step[1]}", *step[2:]],
            "two comma-separated objects on one line": [f"{step[0]}, {step[1]}", *step[2:]],
            "missing key": [step[0], '{"step": 1, "alice": "0"}', *step[2:]],
            "step out of sequence": [step[0], step[1], step[3], step[2]],
            "step too large for an integer": [step[0], '{"step": 1e999, "alice": "0", "bob": "0"}', *step[2:]],
            "malformed line repeated later": [step[0], step[1], '{"step": 2', step[2], '{"step": 2'],
            "valid line repeated out of sequence": [step[0], step[1], step[1], step[2]],
            "object split across two lines, two objects on a later one": [
                step[0], '{"step": 1, "alice": "0"', '"bob": "0"}', f"{step[2]}, {step[3]}"
            ],
            "boolean step": ['{"step": false, "alice": "0", "bob": "0"}', *step[1:]],
            "fractional step": [step[0], '{"step": 1.9, "alice": "0", "bob": "0"}', *step[2:]],
            "string step": [step[0], step[1], '{"step": "2", "alice": "0", "bob": "0"}', step[3]],
            "number for alice": [step[0], '{"step": 1, "alice": 1, "bob": "0"}', *step[2:]],
            "list for bob": [step[0], '{"step": 1, "alice": "0", "bob": ["x"]}', *step[2:]],
        }[case]
        record = tmp_path / "bad.jsonl"
        record.write_text("\n".join(['{"kind": "joint"}', *body]) + "\n")
        code = main(["smooth", "--scenario", "demo", "--record", str(record), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.strip() == f"error: {record}:{line}: {message}", err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("record shorter than steps", "record of length 3 does not match steps=4"),
            ("empty trajectory file", "{record}: empty trajectory file"),
            ("malformed header line", "{record}:1: malformed header line"),
            ("unknown prior kind", "--prior: unknown kind 'bogus'"),
        ],
    )
    def test_bad_smooth_input_is_one_line_config_error(self, tmp_path, capsys, case, message):
        step = [json.dumps({"step": i, "alice": "0", "bob": "0"}) for i in range(4)]
        lines = {
            "record shorter than steps": ['{"kind": "joint"}', *step[:3]],
            "empty trajectory file": [],
            "malformed header line": ['{"kind": ', *step],
            "unknown prior kind": ['{"kind": "joint"}', *step],
        }[case]
        record = tmp_path / "case.jsonl"
        record.write_text("".join(line + "\n" for line in lines))
        prior = ["--prior", "pf,bogus"] if case == "unknown prior kind" else []
        code = main(["smooth", "--scenario", "demo", "--record", str(record), *prior, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.strip() == "error: " + message.format(record=record), err

    def test_no_command_imports_numpy_ma(self, tmp_path):
        # importing numpy.ma takes about 14 ms, paid by every command whose interpreter loads it
        out = str(tmp_path)
        record = str(tmp_path / "driven-damped-qubit_trajectories.jsonl")
        commands = [
            ["smooth", "--scenario", "demo", "--enumerate", "--out", out],
            ["simulate", "--scenario", "demo", "--trajectories", "5", "--out", out],
            ["smooth", "--scenario", "demo", "--record", record, "--out", out],
            ["entropy-scan", "--scenario", "demo", "--out", out],
            ["entropy-scan", "--theorem1", "--demo-svb", "--out", out],
            ["classical-limit", "--scenario", "scenarios/classical-2state.json", "--out", out],
            ["verify"],
        ]
        script = (
            "import json, sys\n"
            "from retrosmooth.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
        )
        codes, imported = run_python(script, json.dumps(commands))
        assert codes == [0] * len(commands)
        assert not imported

    def test_only_verify_imports_the_verify_suite(self):
        # the suite's module is compiled and run by the verify command alone, not at every start-up
        script = (
            "import json, sys\n"
            "from retrosmooth.cli import main\n"
            "before = 'retrosmooth.verify' in sys.modules\n"
            "code = main(['verify', '--seed', '3'])\n"
            "print(json.dumps([before, code, 'retrosmooth.verify' in sys.modules]))\n"
        )
        assert run_python(script) == [False, 0, True]

    def test_verify_exit_zero(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "14/14 checks passed" in out

    def test_negative_trajectory_count_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "demo", "--trajectories", "-3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.strip() == "error: --trajectories: must be at least 0, got -3"

    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        code = main(["smooth", "--scenario", str(tmp_path / "nope.json"), "--enumerate"])
        assert code == 2

    def test_malformed_scenario_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"steps": "many"}')
        assert main(["smooth", "--scenario", str(p), "--enumerate", "--out", str(tmp_path)]) == 2

    def test_unsupported_detection_is_config_error(self, tmp_path, capsys):
        doc = demo_scenario().raw
        doc["system"]["jump_operators"][0]["detection"] = "homodyne"
        p = tmp_path / "homodyne.json"
        p.write_text(json.dumps(doc))
        assert main(["smooth", "--scenario", str(p), "--enumerate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "detection" in err and len(err.strip().splitlines()) == 1

    def test_jobs_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["smooth", "--scenario", "demo", "--enumerate", "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_classical_limit_on_quantum_scenario_is_config_error(self, tmp_path):
        code = main(
            ["classical-limit", "--scenario", "demo", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_cap_env_var_is_enforced(self, tmp_path):
        path = tmp_path / "capped.json"
        path.write_text(json.dumps({**demo_scenario().raw, "enumeration_cap": 4}))
        code = main(["smooth", "--scenario", str(path), "--enumerate", "--out", str(tmp_path)])
        assert code == 1

    def test_full_pipeline_from_files(self, tmp_path):
        out = str(tmp_path)
        scenario_path = "scenarios/driven-damped-qubit.json"
        assert main(["simulate", "--scenario", scenario_path, "--trajectories", "3", "--out", out]) == 0
        record = str(tmp_path / "driven-damped-qubit_trajectories.jsonl")
        assert main(["smooth", "--scenario", scenario_path, "--record", record, "--out", out]) == 0
        assert main(["entropy-scan", "--scenario", scenario_path, "--demo-svb", "--out", out]) == 0
        assert main(["classical-limit", "--scenario", "scenarios/classical-2state.json", "--out", out]) == 0

    WRITING_COMMANDS = {"simulate": [], "smooth": ["--enumerate"], "entropy-scan": [], "classical-limit": []}

    @pytest.mark.parametrize("name", ["sub/dir", "nul\0name", "../escaped"])
    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_name_that_is_not_a_file_stem_is_config_error(self, tmp_path, capsys, command, name):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({**classical_demo_scenario().raw, "name": name}))
        out = tmp_path / "work" / "out"
        (out / "sub").mkdir(parents=True)
        code = main([command, "--scenario", str(scenario), *self.WRITING_COMMANDS[command], "--out", str(out)])
        _assert_config_error(capsys, code, "name: ")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [scenario]

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_scenario_that_does_not_load_creates_no_out_directory(self, tmp_path, capsys, command):
        missing, out = tmp_path / "nosuch.json", tmp_path / "out"
        code = main([command, "--scenario", str(missing), *self.WRITING_COMMANDS[command], "--out", str(out)])
        _assert_config_error(capsys, code, f"scenario file not found: {missing}")
        assert list(tmp_path.iterdir()) == []
        # a system block that loads but does not build: a NaN list, and an entry that overflows the step;
        # then an initial state that is not a density operator of the system's dimension
        raw = demo_scenario().raw
        huge = json.loads(json.dumps(raw["system"]["jump_operators"]))
        huge[0]["matrix"]["real"][0][1] = 1e308
        for change, fragment in [
            ({"system": {**raw["system"], "jump_operators": float("nan")}},
             "system.jump_operators: expected a list, got nan"),
            ({"system": {**raw["system"], "jump_operators": huge}}, "system: discretized step has non-finite entries"),
            ({"rho0": {"real": [[1.5, 0], [0, -0.5]]}}, "rho0 has eigenvalue -0.5 below -1e-10"),
            ({"rho0": {"real": [[1.0]]}}, "rho0: shape (1, 1) does not match system dim 2"),
        ]:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({**raw, **change}))
            code = main([command, "--scenario", str(path), *self.WRITING_COMMANDS[command], "--out", str(out)])
            _assert_config_error(capsys, code, fragment)
            assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_out_that_is_a_file_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("a file")
        args = [command, "--scenario", "demo", *self.WRITING_COMMANDS[command], "--out", str(out)]
        _assert_config_error(capsys, main(args), f"--out: cannot create directory {out}")
        assert [p for p in tmp_path.rglob("*")] == [out] and out.read_text() == "a file"
