"""Properties of the library over generated inputs, checked with Hypothesis.

Every property runs a fixed, derandomized set of examples, so a run is
repeatable and takes a bounded time.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrosmooth.cli import main
from retrosmooth.linalg import PSD_CLAMP, entropy_vn, fidelity, purity, trace_norm
from retrosmooth.sampling import random_density, random_instrument
from retrosmooth.scenario import Scenario, classical_demo_scenario, demo_scenario, matrix_to_json
from retrosmooth.sweeps import ZERO_PAST, future_table, smooth_table
from retrosmooth.trajectory import filter as filter_state

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
