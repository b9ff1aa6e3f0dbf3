"""Properties of the library over generated inputs, checked with Hypothesis.

Every property runs a fixed, derandomized set of examples, so a run is
repeatable and takes a bounded time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retrosmooth.linalg import entropy_vn, fidelity, purity, trace_norm
from retrosmooth.sampling import random_density

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
