"""One prior table per (table, kind) has the bits of one prior per past.

``smoothers.build_priors`` builds each kind's priors for a table of pasts as one
``PriorTable``: stacked blocks, validated in one pass, a failing row taking the
error of its own build.  The references below are the per-past builds the
table replaced (``build_pf``, ``build_clhs``, the register state and the custom
extension, each through the filtered global state's own check as it stood),
together with the one-prior smoothing formula.  Blocks, block roots and
smoothed states must match them bit for bit, and every failing row must raise
the reference's error with its message.
"""

import itertools
import re

import numpy as np
import pytest

from retrosmooth import linalg, sampling, smoothers
from retrosmooth.errors import InvalidMatrix, RetrosmoothError, ZeroProbabilityRecord
from retrosmooth.linalg import (
    BLOCK_HERMITIAN_TOL,
    PROB_SUM_TOL,
    WEIGHT_FLOOR,
    as_density,
    as_hermitian,
    hermitian_part,
    partial_trace,
    psd_sqrt,
    purify,
    tensor,
)
from retrosmooth.retrodiction import FilteredGlobalState, PriorTable, generalized_smooth, require_marginals
from retrosmooth.scenario import demo_scenario
from retrosmooth.smoothers import REGISTERS, build_custom, build_prior, build_priors, purified_initial
from retrosmooth.trajectory import filter as filter_state
from retrosmooth.trajectory import retrofilter_records

KINDS = ("pf", "gw", "gw-variant", "pf-variant", "clhs", "custom")
IMPOSSIBLE = ("1", "1", "0")


def reference_purify(rho) -> np.ndarray:
    """``linalg.purify`` as it stood: one matrix, one eigendecomposition."""
    w, v, keep = linalg._support(as_density(rho))
    rank = max(int(np.count_nonzero(keep)), 1)
    return (v[:, :rank] * np.sqrt(np.clip(w[:rank], 0.0, None))).reshape(-1)


def reference_state(blocks, dim_q, dim_a1, labels):
    """``FilteredGlobalState``'s check as it stood: ``(blocks, dim_q, dim_a1, labels)``, validated."""
    stack = as_hermitian(np.asarray(blocks, dtype=complex), "global-state block", tol=BLOCK_HERMITIAN_TOL)
    total = float(np.trace(stack, axis1=1, axis2=2).real.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidMatrix(f"block traces sum to {total!r}, expected 1")
    return stack, dim_q, dim_a1, tuple(tuple(label) for label in labels)


def reference_pf(rho_f):
    rho = as_density(rho_f, "rho_f")
    return reference_state((rho,), rho.shape[0], 1, ((),))


def reference_clhs(rho_f):
    rho = as_density(rho_f, "rho_f")
    psi = reference_purify(rho)
    rank = psi.size // rho.shape[0]
    block = np.outer(psi, psi.conj())
    return reference_state((block,), len(block) // rank, rank, ((),))


def reference_register(found, dim_q, dim_a1):
    """The register state of one past's bob branches: the weights, in a list, added by ``sum``."""
    if isinstance(found, RetrosmoothError):
        raise found
    records, ops = found
    total = sum([max(float(t), 0.0) for t in np.trace(ops, axis1=1, axis2=2).real])
    if total <= WEIGHT_FLOOR:
        raise ZeroProbabilityRecord("record impossible under the instrument")
    return reference_state(ops / total, dim_q, dim_a1, tuple(records))


def reference_extending(custom, rho_f):
    require_marginals(custom.marginal(), rho_f, "the filtered state")
    return custom.blocks, custom.dim_q, custom.dim_a1, custom.block_labels


def reference_smooth(blocks, roots, dims, effects):
    """One prior's smoothing of a stack of effects, as it stood before priors were stacked."""
    marginal = hermitian_part(partial_trace(blocks, dims, "Q").sum(axis=0))
    norms = np.trace(marginal @ effects, axis1=1, axis2=2).real
    possible = norms > WEIGHT_FLOOR
    lifted = tensor(effects[possible], np.eye(dims[1]))[:, None]
    sandwiched = partial_trace(roots @ lifted @ roots, dims, "Q").sum(axis=-3)
    states = np.full(effects.shape, np.nan, dtype=complex)
    states[possible] = hermitian_part(sandwiched) / norms[possible][:, None, None]
    return states, possible


def reference_priors(kind, inst, rho0, pasts, rho_fs, custom, merge):
    """Each past's reference prior, or the error its build raises, one past at a time."""
    if kind in REGISTERS:
        partition, purified = REGISTERS[kind]
        initial, rank = purified_initial(rho0) if purified else (as_density(rho0, "rho0"), 1)
        found = [
            smoothers._bob_branches(inst, initial, [past], rank, 10**6, partition, merge)[0] for past in pasts
        ]
        builds = [lambda f=f: reference_register(f, inst.dim, rank) for f in found]
    elif kind == "custom":
        builds = [lambda r=r: reference_extending(custom, r) for r in rho_fs]
    else:
        one = reference_pf if kind == "pf" else reference_clhs
        builds = [lambda r=r: one(r) for r in rho_fs]
    out = []
    for build in builds:
        try:
            out.append(build())
        except RetrosmoothError as exc:
            out.append(exc)
    return out


def table_case(system):
    """Pasts, their filtered states, a custom extension and the failures the table must attribute.

    ``demo``: demo-qubit pasts holding the impossible ``("1", "1", "0")`` and
    ``("0",) * 4``, whose unmerged register has 16 blocks.  ``random``: every
    3-step past of a random qubit instrument with three Kraus operators per
    outcome, 27 bob records each, where the sum of a past's branch weights in a
    list and numpy's pairwise sum differ in the last bit.  In both, one filtered
    state is replaced by a non-PSD matrix; on the demo another is doubled and
    the impossible past has none.  The extension's marginal is the filtered
    state of ``("0",)``, a past that appears twice or more.
    """
    rng = np.random.default_rng(31)
    if system == "demo":
        inst, rho0 = demo_scenario().instrument, np.diag([0.7, 0.3]).astype(complex)
        # possible pasts: the demo qubit cannot jump twice in a row
        pasts = [tuple(r) for r in rng.choice(["0", "1"], size=(20, 3)).tolist() if "11" not in "".join(r)][:10]
        pasts += [("0",), (), ("0",) * 4, IMPOSSIBLE, ("0",), ("1",), ("0",)]
    else:
        inst = sampling.random_instrument(2, 2, 3, rng)
        rho0 = sampling.random_density(2, rng)
        pasts = [("0",), *itertools.product(inst.outcome_labels, repeat=3), ("0",)]
    rho_fs = [None if system == "demo" and past == IMPOSSIBLE else filter_state(inst, rho0, past)[0] for past in pasts]
    rho_fs[3] = np.diag([1.2, -0.2])
    failures = {"pf": {"NotPSD"}, "clhs": {"NotPSD"}, "custom": {"InvalidExtension"}}
    if system == "demo":
        rho_fs[2] = 2 * rho_fs[2]
        failures = {"pf": {"NotPSD", "InvalidMatrix"}, "clhs": {"NotPSD", "InvalidMatrix"},
                    "custom": {"InvalidExtension"}, **dict.fromkeys(REGISTERS, {"ZeroProbabilityRecord"})}
    custom = build_custom(np.kron(rho_fs[pasts.index(("0",))], np.eye(2) / 2), (2, 2))
    return inst, rho0, pasts, rho_fs, custom, failures


def row(table: PriorTable, i: int):
    """Row ``i``'s blocks in its shape's stack, and that shape's ``A1`` dimension."""
    a1, (rows, counts, _) = next((a1, shape) for a1, shape in table.shapes.items() if i in shape[0])
    k = np.searchsorted(rows, i)
    return slice(counts[:k].sum(), counts[: k + 1].sum()), a1


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("system", ["demo", "random"])
def test_the_table_has_the_bits_of_one_past_at_a_time(system, kind, merge):
    inst, rho0, pasts, rho_fs, custom, failures = table_case(system)
    effects = np.stack(retrofilter_records(inst, list(itertools.product(inst.outcome_labels, repeat=2))))
    rng = np.random.default_rng(5)
    futures = [rng.choice(len(effects), size=3, replace=False) for _ in pasts]
    table = build_priors(kind, inst, rho0, pasts, rho_fs, custom=custom, merge=merge)
    smoothed = generalized_smooth(table, effects, futures)
    outcomes, most_blocks = set(), 0
    for i, (past, want) in enumerate(zip(pasts, reference_priors(kind, inst, rho0, pasts, rho_fs, custom, merge))):
        if isinstance(want, RetrosmoothError):
            got = table.errors[i]
            assert (type(got), str(got)) == (type(want), str(want)), (kind, past)
            assert smoothed[i] is None
            with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                table.prior(i)
            outcomes.add(type(want).__name__)
            continue
        blocks, dim_q, dim_a1, labels = want
        assert table.errors[i] is None, (kind, past, table.errors[i])
        rows, a1 = row(table, i)
        assert (table.dim_q, a1, table.labels[i]) == (dim_q, dim_a1, labels)
        assert table.shapes[a1][2][rows].tobytes() == blocks.tobytes(), (kind, past)
        roots = psd_sqrt(blocks)
        assert table.roots[a1][rows].tobytes() == roots.tobytes(), (kind, past)
        states, possible = reference_smooth(blocks, roots, (dim_q, dim_a1), effects[futures[i]])
        assert smoothed[i][0].tobytes() == states.tobytes() and smoothed[i][1].tobytes() == possible.tobytes()
        # the lazily built prior and the one-past table read the same bits
        prior = table.prior(i)
        assert prior.blocks.tobytes() == blocks.tobytes() and prior.block_labels == labels
        if kind in REGISTERS:
            one = build_prior(kind, rho0=rho0, alice_past=past, instrument=inst, merge=merge)
        else:
            one = build_priors(kind, inst, rho0, [past], [rho_fs[i]], custom=custom).prior(0)
        assert one.blocks.tobytes() == blocks.tobytes()
        most_blocks = max(most_blocks, len(blocks))
    assert outcomes == failures.get(kind, set())
    if kind in ("gw", "gw-variant") and not merge:
        # unmerged bob registers of 8 or more blocks, whose traces numpy sums pairwise
        assert most_blocks >= 8
        if system == "random":
            # and branch weights whose sum depends on the order they are added in
            initial, rank = purified_initial(rho0) if kind == "gw" else (as_density(rho0), 1)
            found = smoothers._bob_branches(inst, initial, pasts, rank, 10**6)
            weights = [np.maximum(np.trace(ops, axis1=1, axis2=2).real, 0.0) for _, ops in found]
            assert any(sum(w.tolist()) != w.sum() for w in weights)


def test_the_register_weights_are_added_in_branch_order():
    # runs of 12 weights whose sum, added left to right, differs from numpy's pairwise sum
    rng = np.random.default_rng(2)
    runs = [w for w in (rng.random(12) for _ in range(200)) if sum(w.tolist()) != w.sum()][:3]
    assert len(runs) == 3
    weights = [runs[0], runs[1], runs[0][:5], runs[2]]
    branches = [([(str(u),) for u in range(len(w))], w[:, None, None] * np.eye(1, dtype=complex)) for w in weights]
    branches.insert(1, ([], np.empty((0, 1, 1), dtype=complex)))
    table = smoothers._register_priors("gw-variant", 1, 1, branches)
    assert isinstance(table.errors[1], ZeroProbabilityRecord)
    for i, (labels, ops) in enumerate(branches):
        if i != 1:
            want = ops / sum(ops[:, 0, 0].real.tolist())
            assert table.prior(i).blocks.tobytes() == want.tobytes()
            # numpy sums fewer than 8 values left to right too
            assert (table.prior(i).blocks.tobytes() != (ops / ops[:, 0, 0].real.sum()).tobytes()) == (len(ops) == 12)


def test_one_block_check_serves_the_table_and_the_state():
    # rows that fail the filtered global state's check, as it stood, take its errors in the table and in the
    # one-row state; the other rows keep its blocks
    g = np.array([[0.25, 1e-6], [0.0, 0.25]])
    nan = np.array([[np.nan, 0.0], [0.0, 0.5]])
    good = [0.25 * np.eye(2), 0.25 * np.eye(2)]
    # nine blocks, their traces summed pairwise; off one, the total is in the message, and added left to
    # right it would differ in the last bit
    many = [np.eye(2) / 18] * 9
    rng = np.random.default_rng(0)
    traces = next(t for t in (rng.random(9) / 3 for _ in range(100)) if sum(t.tolist()) != t.sum())
    rows = [good, [good[0], g], [good[1], nan], [good[0], 0.6 * np.eye(2)], many, [t / 2 * np.eye(2) for t in traces]]
    labels = [tuple((str(u),) for u in range(len(r))) for r in rows]
    shapes = {1: (range(len(rows)), [len(r) for r in rows], np.concatenate(rows))}
    table = PriorTable.of("gw-variant", 2, [None] * len(rows), labels, shapes)
    for i, blocks in enumerate(rows):
        try:
            want, *_ = reference_state(blocks, 2, 1, labels[i])
        except InvalidMatrix as exc:
            assert (type(table.errors[i]), str(table.errors[i])) == (InvalidMatrix, str(exc))
            with pytest.raises(InvalidMatrix, match=f"^{re.escape(str(exc))}$"):
                FilteredGlobalState(blocks, 2, 1, labels[i], "gw-variant")
            continue
        assert table.errors[i] is None
        assert table.shapes[1][2][row(table, i)[0]].tobytes() == want.tobytes()
        assert FilteredGlobalState(blocks, 2, 1, labels[i], "gw-variant").blocks.tobytes() == want.tobytes()
    assert [e is None for e in table.errors] == [True, False, False, False, True, False]

