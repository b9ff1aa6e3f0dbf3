"""Properties of the library over generated inputs, checked with Hypothesis.

Every property runs a fixed, derandomized set of examples, so a run is
repeatable and takes a bounded time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retrosmooth.linalg import PSD_CLAMP, entropy_vn, fidelity, purity, trace_norm
from retrosmooth.sampling import random_density, random_instrument
from retrosmooth.scenario import Scenario, matrix_to_json
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
    built = sc.build()
    rho0 = sc.rho0(built.dim)
    for s in smooth_table(sc, built, rho0, future_table(sc, built, rho0), sc.prior_kinds):
        if s.error == ZERO_PAST:
            continue
        assert s.error is None, (s.kind, s.past, s.error)
        states = s.states[s.possible]
        assert np.linalg.eigvalsh(states).min() >= -PSD_CLAMP, (s.kind, s.past)
        weights = np.array([p for _, p in s.futures])[s.possible] / s.p_past
        rho_f, _ = filter_state(built.instrument, rho0, s.past)
        assert trace_norm(np.einsum("i,ijk->jk", weights, states) - rho_f) <= 1e-8, (s.kind, s.past)
