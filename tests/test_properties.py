"""Properties of the library over generated inputs, checked with Hypothesis.

Every property runs a fixed, derandomized set of examples, so a run is
repeatable and takes a bounded time.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import operator
import os
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrosmooth import retrodiction, smoothers
from retrosmooth.cli import main
from retrosmooth.classical import classical_smooth_all, sample_classical_trajectories
from retrosmooth.errors import EnumerationTooLarge, RetrosmoothError
from retrosmooth.linalg import (
    BOUND_SLACK,
    PSD_CLAMP,
    WEIGHT_FLOOR,
    entropy_vn,
    fidelity,
    hermitian_part,
    kraus_gram,
    partial_trace,
    psd_sqrt,
    purity,
    tensor,
    trace_norm,
)
from retrosmooth.retrodiction import generalized_smooth
from retrosmooth.sampling import random_density, random_instrument, random_isometry
from retrosmooth.scenario import Scenario, classical_demo_scenario, demo_scenario, matrix_to_json
from retrosmooth.smoothers import build_prior, extend_ancilla, purified_initial
from retrosmooth.sweeps import ZERO_PAST, classical_deviation, entropy_rows, future_table, smooth_table
from retrosmooth.trajectory import filter as filter_state, sample_records, walk

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def density_stacks(draw, count):
    """``count`` stacks of the same random ``(n, d, d)`` shape: densities of mixed rank, d in 2..8."""
    dim = draw(st.integers(2, 8))
    ranks = draw(st.lists(st.integers(1, dim), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [np.stack([random_density(dim, rng, rank=r) for r in ranks]) for _ in range(count)]


def one_at_a_time(fn, *stacks) -> np.ndarray:
    return np.array([fn(*matrices) for matrices in zip(*stacks)])


@PROPERTY_SETTINGS
@given(density_stacks(2))
def test_a_stack_gives_the_bits_of_one_call_per_matrix(stacks):
    a, b = stacks
    for fn in (purity, entropy_vn, trace_norm):
        assert fn(a).tobytes() == one_at_a_time(fn, a).tobytes(), fn.__name__
    # one b for every matrix of a, and a stack of b aligned with a
    assert fidelity(a, b[0]).tobytes() == one_at_a_time(lambda m: fidelity(m, b[0]), a).tobytes()
    assert fidelity(a, b).tobytes() == one_at_a_time(fidelity, a, b).tobytes()


@st.composite
def monitored_systems(draw):
    """A scenario on a random instrument of dimension 2-3: 2-3 outcomes, 1-2 Kraus operators each.

    Its initial state has random rank, its records 1-4 steps, its split any
    time, and it asks for every prior kind a scenario builds on its own.
    """
    dim, n_outcomes, n_kraus = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    steps = draw(st.integers(1, 4))
    split, rank = draw(st.integers(0, steps)), draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = random_instrument(dim, n_outcomes, n_kraus, rng)
    operations = {y: [matrix_to_json(k) for k in op.kraus] for y, op in inst.ops.items()}
    return Scenario.from_dict(
        {
            "system": {"type": "instrument", "operations": operations},
            "rho0": matrix_to_json(random_density(dim, rng, rank=rank)),
            "steps": steps,
            "smoothing_time_index": split,
            "prior_kinds": ["pf", "gw", "gw-variant", "pf-variant", "clhs"],
        }
    )


@PROPERTY_SETTINGS
@given(monitored_systems())
def test_smoothed_states_are_psd_and_average_over_futures_to_the_filtered_state(sc):
    for s in smooth_table(sc, future_table(sc), sc.prior_kinds):
        if s.error == ZERO_PAST:
            continue
        assert s.error is None, (s.kind, s.past, s.error)
        states = s.states[s.possible]
        assert np.linalg.eigvalsh(states).min() >= -PSD_CLAMP, (s.kind, s.past)
        weights = np.array([p for _, p in s.futures])[s.possible] / s.p_past
        rho_f, _ = filter_state(sc.instrument, sc.rho0, s.past)
        assert trace_norm(np.einsum("i,ijk->jk", weights, states) - rho_f) <= 1e-8, (s.kind, s.past)


@PROPERTY_SETTINGS
@given(monitored_systems())
def test_every_average_entropy_lies_between_pf_s_and_the_filtered_state_s(sc):
    rows = entropy_rows(sc, future_table(sc))
    pf = {r["record"]: r["avg_entropy"] for r in rows if r["id"] == "pf"}
    for r in rows:
        assert "detail" not in r, r
        # upper is S(rho_F); clhs attains it
        assert pf[r["record"]] - BOUND_SLACK <= r["avg_entropy"] <= r["upper"] + BOUND_SLACK, r
        if r["id"] == "clhs":
            assert abs(r["avg_entropy"] - r["upper"]) <= BOUND_SLACK, r


@PROPERTY_SETTINGS
@given(monitored_systems(), st.integers(0, 2**32 - 1))
def test_smoothing_does_not_depend_on_the_purifying_ancilla(sc, seed):
    rng = np.random.default_rng(seed)
    for s in smooth_table(sc, future_table(sc), ("gw", "pf-variant", "clhs")):
        if s.error == ZERO_PAST:
            continue
        prior = s.priors.prior(s.row)
        moved = extend_ancilla(prior, random_isometry(prior.dim_a1, prior.dim_a1 + 2, rng))
        states, possible = generalized_smooth(moved.table, s.effects, [np.arange(len(s.effects))])[0]
        assert possible.tobytes() == s.possible.tobytes(), (s.kind, s.past)
        # verify's tolerance for the same check on the demo
        assert trace_norm(states[possible] - s.states[possible]).max(initial=0.0) <= 1e-9, (s.kind, s.past)


@st.composite
def systems_with_a_reset(draw):
    """:func:`monitored_systems` with 2-4 steps, whose instrument has one rank-one Kraus operator.

    One Kraus operator of a random instrument is replaced by a random
    rank-one ``|a><b|``; then every operator is multiplied on the right by
    ``S^(-1/2)``, ``S`` the new sum of ``K†K``, which makes the instrument
    complete and leaves that operator rank one, so its joint label resets.
    """
    dim, n_outcomes, n_kraus = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    steps = draw(st.integers(2, 4))
    split, rank = draw(st.integers(0, steps)), draw(st.integers(1, dim))
    y, k = draw(st.integers(0, n_outcomes - 1)), draw(st.integers(0, n_kraus - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kraus = [list(op.kraus) for op in random_instrument(dim, n_outcomes, n_kraus, rng).ops.values()]
    a, b = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    kraus[y][k] = np.outer(a, b.conj())
    inv_root = np.linalg.inv(psd_sqrt(kraus_gram([m for op in kraus for m in op])))
    operations = {str(i): [matrix_to_json(m @ inv_root) for m in op] for i, op in enumerate(kraus)}
    return Scenario.from_dict(
        {
            "system": {"type": "instrument", "operations": operations},
            "rho0": matrix_to_json(random_density(dim, rng, rank=rank)),
            "steps": steps,
            "smoothing_time_index": split,
            "prior_kinds": ["gw", "gw-variant"],
        }
    )


@PROPERTY_SETTINGS
@given(systems_with_a_reset())
def test_merged_register_smoothing_is_smoothing_over_every_bob_record(sc):
    assert (sc.instrument.joint.reset_classes >= 0).sum() == 1
    for s in smooth_table(sc, future_table(sc), sc.prior_kinds):
        if s.error == ZERO_PAST:
            continue
        assert s.error is None, (s.kind, s.past, s.error)
        # the same register, one block per bob record
        initial, rank = purified_initial(sc.rho0) if s.kind == "gw" else (sc.rho0, 1)
        (found,) = smoothers._bob_branches(sc.instrument, initial, [s.past], rank, sc.enumeration_cap)
        unmerged = smoothers._register_priors(s.kind, sc.dim, rank, [found]).prior(0)
        assert len(s.priors.prior(s.row).blocks) <= len(unmerged.blocks)
        states, possible = generalized_smooth(unmerged.table, s.effects, [np.arange(len(s.effects))])[0]
        assert possible.tobytes() == s.possible.tobytes(), (s.kind, s.past)
        assert trace_norm(states[possible] - s.states[possible]).max(initial=0.0) <= 1e-12, (s.kind, s.past)


@st.composite
def uneven_tables(draw):
    """A random instrument whose outcomes hold 1-2 Kraus operators, one split of its future table and a cap.

    The instrument is one outcome of :func:`random_instrument`, dimension 2-3,
    its Kraus operators dealt out to 2-3 outcomes, so pasts differ in their
    count of bob records.  The cap lies at or above the smallest count of the
    split's pasts and below the largest, and the last past of the table is
    made impossible.
    """
    dim, sizes = draw(st.integers(2, 3)), draw(st.permutations([1, 2, *draw(st.lists(st.integers(1, 2), max_size=1))]))
    steps = draw(st.integers(1, 3))
    split, rank = draw(st.integers(1, steps)), draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kraus = random_instrument(dim, 1, sum(sizes), rng).op("0").kraus
    cuts = np.cumsum([0, *sizes])
    operations = {str(y): [matrix_to_json(k) for k in kraus[lo:hi]] for y, (lo, hi) in enumerate(zip(cuts, cuts[1:]))}
    sc = Scenario.from_dict(
        {
            "system": {"type": "instrument", "operations": operations},
            "rho0": matrix_to_json(random_density(dim, rng, rank=rank)),
            "steps": steps,
            "smoothing_time_index": split,
            "prior_kinds": ["pf", "gw", "gw-variant", "pf-variant", "clhs"],
        }
    )
    table = future_table(sc)
    counts = [np.prod([len(sc.instrument.op(y).kraus) for y in past]) for past in table]
    cap = draw(st.integers(int(min(counts)), int(max(counts)) - 1))
    last = list(table)[-1]
    table[last] = table[last]._replace(rho_f=None, p=0.0)
    return dataclasses.replace(sc, enumeration_cap=cap), table


def one_prior_smooth(prior, effects):
    """``generalized_smooth``'s stacked sandwich on one prior as it stood before priors were stacked."""
    norms = np.trace(prior.marginal() @ effects, axis1=1, axis2=2).real
    possible = norms > WEIGHT_FLOOR
    lifted = tensor(effects[possible], np.eye(prior.dim_a1))[:, None]
    sandwiched = partial_trace(prior.roots @ lifted @ prior.roots, prior.block_dims, "Q").sum(axis=-3)
    states = np.full(effects.shape, np.nan, dtype=complex)
    states[possible] = hermitian_part(sandwiched) / norms[possible][:, None, None]
    return states, possible


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(uneven_tables())
def test_the_table_pass_has_the_bits_of_one_past_at_a_time(case):
    sc, table = case
    with mock.patch.object(retrodiction, "psd_sqrt", wraps=retrodiction.psd_sqrt) as roots, mock.patch.object(
        smoothers, "walk_records", wraps=smoothers.walk_records
    ) as bob_passes:
        units = list(smooth_table(sc, table, sc.prior_kinds))
    assert [(s.kind, s.past) for s in units] == [(kind, past) for kind in sc.prior_kinds for past in table]
    shapes = {kind: set() for kind in sc.prior_kinds}
    outcomes = set()
    for s in units:
        if s.p_past == 0.0:
            assert s.error == ZERO_PAST
            outcomes.add("impossible")
            continue
        try:
            prior = build_prior(s.kind, rho0=sc.rho0, alice_past=s.past, instrument=sc.instrument, cap=sc.enumeration_cap)
        except RetrosmoothError as exc:
            assert (type(s.error), str(s.error)) == (type(exc), str(exc)), (s.kind, s.past)
            outcomes.add(type(exc).__name__)
            continue
        assert s.error is None, (s.kind, s.past, s.error)
        got = s.priors.prior(s.row)
        assert got.blocks.tobytes() == prior.blocks.tobytes() and got.block_labels == prior.block_labels
        for states, possible in (
            generalized_smooth(prior.table, s.effects, [np.arange(len(s.effects))])[0],
            one_prior_smooth(prior, s.effects),
        ):
            assert s.states.tobytes() == states.tobytes() and s.possible.tobytes() == possible.tobytes()
        shapes[s.kind].add(got.block_dims)
        outcomes.add("smoothed")
    # one batched square root per (kind, block shape), one bob-branch pass per register kind
    assert roots.call_count == sum(map(len, shapes.values()))
    assert bob_passes.call_count == len(smoothers.REGISTERS.keys() & set(sc.prior_kinds)) == 3
    assert {"impossible", "smoothed"} <= outcomes


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(uneven_tables())
def test_the_table_bob_pass_has_the_records_and_bits_of_walk_per_past(case):
    sc, table = case
    inst, pasts = sc.instrument, list(table)
    for initial, rank in (purified_initial(sc.rho0), (sc.rho0, 1)):
        for past, found in zip(pasts, smoothers._bob_branches(inst, initial, pasts, rank, sc.enumeration_cap)):
            label_sets = [[(y, u) for u in sorted(inst.op(y).names)] for y in past]
            try:
                records, ops = walk(inst.joint, initial, label_sets, dim_extra=rank, cap=sc.enumeration_cap)
            except EnumerationTooLarge as exc:
                assert isinstance(found, EnumerationTooLarge) and str(found) == str(exc), past
                continue
            assert found[0] == [tuple(u for _, u in r) for r in records], past
            assert found[1].tobytes() == ops.tobytes(), past


# ---------------------------------------------------------------------------
# scenario fuzz: one value of a valid scenario made hostile, run through the command line

DELETE = object()  # the value is removed, not replaced
HOSTILE = [None, float("nan"), float("inf"), -float("inf"), 1e308, -1e308, -1, 0, 2.5, 10**30,
           "", "x", [], {}, True, [[1]], DELETE]


def _fuzz_bases() -> dict[str, dict]:
    """A valid 3-step scenario of each system type, with every optional block present."""
    k = [np.diag([1.0, np.sqrt(0.5)]), np.array([[0.0, 0.5], [0.0, 0.0]])]
    rotate = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    z0, z1 = np.diag([1.0, 0.0]) @ rotate, np.diag([0.0, 1.0]) @ rotate  # rotate, then read z with 80 % fidelity
    systems = {
        "lindblad": (demo_scenario().raw["system"], "maximally_mixed"),
        "joint_instrument": (
            {
                "type": "joint_instrument",
                "operations": [
                    {"alice": "0", "bob": "0", "kraus": [matrix_to_json(k[0])]},
                    {"alice": "0", "bob": "1", "kraus": [matrix_to_json(k[1])]},
                    {"alice": "1", "bob": "0", "kraus": [matrix_to_json(k[1])]},
                ],
            },
            matrix_to_json([[0.5, 0.5], [0.5, 0.5]]),
        ),
        "instrument": (
            {
                "type": "instrument",
                "operations": {
                    "a": [matrix_to_json(np.sqrt(0.8) * z0), matrix_to_json(np.sqrt(0.2) * z1)],
                    "b": [matrix_to_json(np.sqrt(0.2) * z0), matrix_to_json(np.sqrt(0.8) * z1)],
                },
            },
            matrix_to_json([[0.7, 0.1], [0.1, 0.3]]),
        ),
        "classical": (classical_demo_scenario().raw["system"], [0.6, 0.4]),
    }
    common = {
        "steps": 3,
        "smoothing_time_index": 1,
        "prior_kinds": ["pf", "gw"],
        "seed": 1,
        "enumeration_cap": 1000,
        "n_trajectories": 2,
        "theorem1": {"n_extensions": 2, "dim_q": [2], "dim_a": [2], "n_effects": [2]},
        "custom_prior": {"matrix": matrix_to_json(np.eye(4) / 4), "dim_a": 2},
    }
    return {
        kind: copy.deepcopy({"name": kind, "system": system, "rho0": rho0, **common})
        for kind, (system, rho0) in systems.items()
    }


FUZZ_BASES = _fuzz_bases()


def _positions(doc, prefix=()):
    """The path of every value in a JSON document: each key of an object and index of an array."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _positions(value, (*prefix, key))


def _with(doc, path, value) -> dict:
    """``doc`` with the value at ``path`` replaced by ``value``, or removed for :data:`DELETE`."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """An empty working directory for the fuzz runs, the current directory while they run."""
    root, cwd = tmp_path_factory.mktemp("fuzz"), os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def _run(command) -> tuple[int, str]:
    """``main(command)``'s exit code and standard error, its standard output dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(command), err.getvalue()


FUZZ_COMMANDS = (["smooth", "--enumerate"], ["entropy-scan"])


@pytest.mark.parametrize("system", sorted(FUZZ_BASES))
def test_fuzz_base_runs(fuzz_dir, system):
    (fuzz_dir / "sc.json").write_text(json.dumps(FUZZ_BASES[system]))
    for command in FUZZ_COMMANDS:
        assert _run([*command, "--scenario", "sc.json", "--out", "out"]) == (0, "")
    shutil.rmtree(fuzz_dir / "out")


@pytest.mark.parametrize("system", sorted(FUZZ_BASES))
@settings(PROPERTY_SETTINGS, max_examples=300)
@given(data=st.data())
def test_a_hostile_scenario_value_exits_0_or_2_with_one_line(fuzz_dir, system, data):
    base = FUZZ_BASES[system]
    path = data.draw(st.sampled_from(list(_positions(base))), "path")
    value = data.draw(st.sampled_from(HOSTILE), "value")
    (fuzz_dir / "sc.json").write_text(json.dumps(_with(base, path, value)))
    for command in FUZZ_COMMANDS:
        code, err = _run([*command, "--scenario", "sc.json", "--out", "out"])
        assert code in (0, 2), (command, code, err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        # every output went under --out
        assert {p.name for p in fuzz_dir.iterdir()} <= {"sc.json", "out"}
        shutil.rmtree(fuzz_dir / "out", ignore_errors=True)


# ---------------------------------------------------------------------------
# a failing property is reported as a failure


def test_a_failing_property_is_reported_not_an_internal_error(pytester):
    """A failing ``@given`` test, under this suite's conftest and warning filter, fails with its example."""
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
        """
    )
    # a fresh interpreter, where nothing has imported hypothesis.extra._patching yet
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])


@st.composite
def classical_chains(draw):
    """A scenario on a random column-stochastic chain: 2-3 states, 2-3 outcomes, a random initial law, 1-4 steps."""
    n, n_outcomes, steps = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    likelihood = rng.dirichlet(np.ones(n_outcomes), size=n).T  # (outcome, state), each state's column sums to 1
    return Scenario.from_dict(
        {
            "system": {
                "type": "classical",
                "transition": rng.dirichlet(np.ones(n), size=n).T.tolist(),
                "likelihood": {str(y): row.tolist() for y, row in enumerate(likelihood)},
            },
            "rho0": rng.dirichlet(np.ones(n)).tolist(),
            "steps": steps,
            "smoothing_time_index": draw(st.integers(0, steps)),
            "prior_kinds": ["pf", "gw-variant"],
        }
    )


@PROPERTY_SETTINGS
@given(classical_chains())
def test_quantum_smoothing_of_a_classical_chain_is_forward_backward_smoothing(sc):
    worst, n_records = classical_deviation(sc, ("pf", "gw-variant"))
    assert n_records >= 1
    assert max(worst.values()) <= 1e-9, worst


@pytest.mark.parametrize("seed", [5, 11, 2024])
def test_the_classical_oracle_smooths_long_sampled_records(seed):
    # every sampled record is possible, so its posterior at every split exists: the backward recursion's
    # power-of-two scale keeps a 200-step record's normalizer clear of WEIGHT_FLOOR
    sc = Scenario.from_file(Path(__file__).resolve().parents[1] / "scenarios" / "classical-2state.json")
    prior = np.diag(sc.rho0).real
    _, records = sample_classical_trajectories(sc.classical, prior, 200, 20, seed)
    for record in records:
        posteriors = classical_smooth_all(sc.classical, prior, record)
        assert np.abs(posteriors.sum(axis=1) - 1.0).max() <= 1e-12


def per_trajectory_record(instrument, rho, uniforms) -> tuple:
    """Reference sampler: one trajectory, one uniform per step, ``K rho K†`` summed per Kraus operator in Kraus order."""
    labels, record = instrument.outcome_labels, []
    for u in uniforms:
        outs = []
        for y in labels:
            first, *rest = instrument.op(y).kraus
            out = first @ rho @ first.conj().T
            for k in rest:
                out = out + k @ rho @ k.conj().T
            outs.append(out)
        weights = np.clip([np.trace(out).real for out in outs], 0.0, None)
        cdf = (weights / weights.sum()).cumsum()
        k = int(np.searchsorted(cdf / cdf[-1], u, side="right"))
        rho = hermitian_part(outs[k] / weights[k])
        record.append(labels[k])
    return tuple(record)


@PROPERTY_SETTINGS
@given(monitored_systems(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_sample_records_gives_the_records_of_one_trajectory_at_a_time(sc, n, seed):
    records = sample_records(sc.instrument, sc.rho0, sc.steps, n, seed)
    uniforms = np.random.default_rng(seed).random((n, sc.steps))
    assert records == [per_trajectory_record(sc.instrument, sc.rho0, row) for row in uniforms]
