from pathlib import Path

import numpy as np
import pytest

from retrosmooth import sampling
from retrosmooth.errors import (
    EnumerationTooLarge,
    InvalidMatrix,
    StepTooCoarse,
    UnknownOutcome,
    ZeroProbabilityRecord,
)
from retrosmooth.linalg import WEIGHT_FLOOR, as_density, dag, hermitian_part, tensor
from retrosmooth.scenario import Scenario
from retrosmooth.smoothers import purified_initial
from retrosmooth.trajectory import (
    ConditionalOp,
    Instrument,
    JumpChannel,
    LindbladSpec,
    Merged,
    _conjugate,
    _merged_count,
    apply_conditional,
    discretize,
    enumerate_records,
    filter as filter_state,
    filter_records,
    retrofilter,
    retrofilter_records,
    sample_records,
    walk,
    walk_records,
)

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # lowering |1> -> |0>
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
G = np.diag([1.0, 0.0]).astype(complex)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
E = np.diag([0.0, 1.0]).astype(complex)


def projective_z():
    return Instrument({"0": ConditionalOp((G,)), "1": ConditionalOp((E,))})


def decay_spec(eta=1.0, kappa_dt=0.01, omega=0.0):
    h = 0.5 * omega * SX
    return LindbladSpec(h, (JumpChannel(SM, eta),), kappa_dt)


def reference_filter(instrument, rho0, record) -> tuple[np.ndarray, float]:
    """Per-step filtering: one :func:`apply_conditional` per outcome, normalized after every step."""
    rho, log_prob = as_density(rho0, "rho0"), 0.0
    for y in record:
        out, w = apply_conditional(instrument.op(y), rho)
        if w <= WEIGHT_FLOOR:
            raise ZeroProbabilityRecord(f"record impossible at outcome {y!r}")
        rho, log_prob = hermitian_part(out / w), log_prob + float(np.log(w))
    return rho, log_prob


def reference_retrofilter(instrument, record) -> np.ndarray:
    """Per-step retrofiltering: the identity through one adjoint map per outcome, last outcome first."""
    dim = instrument.dim
    effect = np.eye(dim, dtype=complex)
    for y in reversed(list(record)):
        op = instrument.op(y)
        effect = sum(dag(k) @ effect @ k for k in op.kraus)
        effect = hermitian_part(effect)
    return effect


def reference_walk(instrument, initial, label_sets, dim_extra=1):
    """Per-record walk: every branch of one record, one branch and one label at a time, zero branches dropped.

    Each Kraus operator is lifted by ``tensor(k, I)``, and a label's terms
    start from its first and add the rest in Kraus order.
    """
    eye = np.eye(dim_extra)
    branches = [((), np.asarray(initial, dtype=complex))]
    for labels in label_sets:
        grown = []
        for record, sigma in branches:
            for y in labels:
                first, *rest = (tensor(k, eye) for k in instrument.op(y).kraus)
                out = first @ sigma @ dag(first)
                for k in rest:
                    out = out + k @ sigma @ dag(k)
                if out.any():
                    grown.append((record + (y,), out))
        branches = grown
    ops = np.array([op for _, op in branches], dtype=complex).reshape(-1, *np.shape(initial))
    return [record for record, _ in branches], hermitian_part(ops)


class TestConditionalOp:
    def test_default_names_are_zero_padded_indices(self):
        assert ConditionalOp((G, E)).names == ("0", "1")
        assert ConditionalOp(tuple(0.25 * np.eye(2) for _ in range(12))).names[:3] == ("00", "01", "02")

    def test_names_must_be_distinct(self):
        with pytest.raises(InvalidMatrix, match="distinct"):
            ConditionalOp((G, E), ("a", "a"))

    def test_one_name_per_kraus_operator(self):
        with pytest.raises(InvalidMatrix, match="names for"):
            ConditionalOp((G, E), ("a",))

    def test_requires_kraus(self):
        with pytest.raises(InvalidMatrix):
            ConditionalOp(())

    def test_subnormalization_enforced(self):
        with pytest.raises(InvalidMatrix):
            ConditionalOp((np.eye(2) * 1.1,))


class TestInstruments:
    def test_completeness_enforced(self):
        with pytest.raises(InvalidMatrix):
            Instrument({"0": ConditionalOp((0.5 * G,)), "1": ConditionalOp((E,))})

    def test_check_bypass_records_defect(self):
        inst = Instrument({"0": ConditionalOp((0.999 * G,)), "1": ConditionalOp((E,))}, check=False)
        assert inst.completeness_defect() > 1e-3

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            projective_z().op("2")


class TestDiscretize:
    def test_trivial_system(self):
        joint = discretize(LindbladSpec(np.zeros((2, 2)), (), 0.1)).joint
        assert joint.outcome_labels == (("0", "0"),)
        np.testing.assert_allclose(joint.op(("0", "0")).kraus[0], np.eye(2), atol=1e-14)

    def test_full_efficiency_completeness(self):
        joint = discretize(decay_spec(eta=1.0)).joint
        assert joint.outcome_labels == (("0", "0"), ("1", "0"))
        total = sum(dag(k) @ k for op in joint.ops.values() for k in op.kraus)
        assert np.abs(total - np.eye(2)).max() <= 1e-12

    def test_half_efficiency_split(self):
        joint = discretize(decay_spec(eta=0.5)).joint
        assert set(joint.outcome_labels) == {("0", "0"), ("1", "0"), ("0", "1")}
        np.testing.assert_allclose(
            joint.op(("1", "0")).kraus[0], np.sqrt(0.5 * 0.01) * SM, atol=1e-14
        )
        np.testing.assert_allclose(
            joint.op(("0", "1")).kraus[0], np.sqrt(0.5 * 0.01) * SM, atol=1e-14
        )

    def test_marginal_independent_of_split(self):
        # summing the eta=0.5 joint over bob reproduces the direct eta=0.5 instrument maps
        marginal = discretize(decay_spec(eta=0.5, omega=1.0))
        joint = marginal.joint
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = sampling.random_density(2, rng)
            for y in marginal.outcome_labels:
                direct = sum(
                    apply_conditional(joint.op((a, u)), rho)[0]
                    for (a, u) in joint.outcome_labels
                    if a == y
                )
                got, _ = apply_conditional(marginal.op(y), rho)
                np.testing.assert_allclose(got, direct, atol=1e-12)

    @pytest.mark.parametrize(
        "etas, labels",
        [
            ((0.5, 0.3), (("0", "0"), ("0", "1"), ("0", "2"), ("1", "0"), ("2", "0"))),
            ((1.0, 0.0), (("0", "0"), ("0", "2"), ("1", "0"))),
        ],
    )
    def test_two_channel_joint_view_order(self, etas, labels):
        # no jump first, then the jump labels sorted: the order of the joint instrument
        # discretize used to build directly
        channels = (JumpChannel(SM, etas[0]), JumpChannel(SM.T.copy(), etas[1]))
        inst = discretize(LindbladSpec(0.5 * SX, channels, 0.01))
        assert inst.joint.outcome_labels == labels
        for (y, u), op in inst.joint.ops.items():
            k = inst.op(y).kraus[inst.op(y).names.index(u)]
            np.testing.assert_array_equal(op.kraus[0], k)

    def test_step_too_coarse(self):
        with pytest.raises(StepTooCoarse):
            discretize(decay_spec(eta=1.0, kappa_dt=1.5))


class TestApply:
    def test_identity(self):
        rho = np.eye(2) / 2
        out, w = apply_conditional(ConditionalOp((np.eye(2),)), rho)
        np.testing.assert_allclose(out, rho)
        assert abs(w - 1.0) < 1e-14

    def test_projector(self):
        out, w = apply_conditional(ConditionalOp((G,)), np.eye(2) / 2)
        np.testing.assert_allclose(out, G / 2)
        assert abs(w - 0.5) < 1e-14

    def test_no_jump_weight(self):
        joint = discretize(decay_spec(eta=1.0, kappa_dt=0.01)).joint
        _, w = apply_conditional(joint.op(("0", "0")), E)
        assert abs(w - 0.99) < 1e-3


class TestFilter:
    def test_empty_record(self):
        rho, lp = filter_state(projective_z(), np.eye(2) / 2, ())
        np.testing.assert_allclose(rho, np.eye(2) / 2)
        assert lp == 0.0

    def test_projective(self):
        rho, lp = filter_state(projective_z(), np.eye(2) / 2, ("0",))
        np.testing.assert_allclose(rho, G)
        assert abs(np.exp(lp) - 0.5) < 1e-12

    def test_matches_one_shot_composition(self):
        inst = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05))
        rho0 = np.eye(2) / 2
        record = ("0", "1", "0")
        rho, lp = filter_state(inst, rho0, record)
        sigma = rho0.astype(complex)
        for y in record:
            sigma, weight = apply_conditional(inst.op(y), sigma)
        np.testing.assert_allclose(rho, sigma / weight, atol=1e-12)
        assert abs(np.exp(lp) - weight) < 1e-12

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilityRecord):
            filter_state(projective_z(), G, ("1",))


class TestRetrofilter:
    def test_empty_future_identity(self):
        np.testing.assert_allclose(retrofilter(projective_z(), ()), np.eye(2))

    def test_projective_step(self):
        np.testing.assert_allclose(retrofilter(projective_z(), ("0",)), G)

    def test_consistency_with_enumeration(self):
        inst = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05))
        rho0 = np.diag([0.3, 0.7]).astype(complex)
        steps, t = 4, 2
        table = dict(enumerate_records(inst, rho0, steps))
        for record in table:
            if table[record] <= 1e-14:
                continue
            past, fut = record[:t], record[t:]
            rho_f, lp = filter_state(inst, rho0, past)
            effect = retrofilter(inst, fut)
            joint_prob = float((rho_f @ effect).trace().real) * np.exp(lp)
            assert abs(joint_prob - table[record]) <= 1e-9

    def test_effect_psd(self):
        inst = discretize(decay_spec(eta=0.5, omega=1.0))
        effect = retrofilter(inst, ("1", "0", "0"))
        assert np.linalg.eigvalsh(hermitian_part(effect))[0] >= -1e-12


class TestEnumerate:
    def test_zero_steps(self):
        assert enumerate_records(projective_z(), np.eye(2) / 2, 0) == [((), 1.0)]

    def test_projective_one_step(self):
        out = enumerate_records(projective_z(), np.eye(2) / 2, 1)
        assert out == [(("0",), 0.5), (("1",), 0.5)]

    def test_probabilities_sum_to_one(self):
        inst = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.02))
        probs = [p for _, p in enumerate_records(inst, np.eye(2) / 2, 4)]
        assert abs(sum(probs) - 1.0) <= 1e-9
        jprobs = [p for _, p in enumerate_records(inst.joint, np.eye(2) / 2, 4)]
        assert abs(sum(jprobs) - 1.0) <= 1e-9

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            enumerate_records(projective_z(), np.eye(2) / 2, 10, cap=100)

    def test_cap_is_checked_before_the_label_sets_are_built(self):
        # a list of 10**18 label sets would not fit in memory
        with pytest.raises(EnumerationTooLarge, match=r"2\*\*1000000000000000000 records exceed the cap of 100"):
            enumerate_records(projective_z(), np.eye(2) / 2, 10**18, cap=100)

    @staticmethod
    def recursive_records(instrument, rho0, steps):
        """Depth-first reference: every record, one conditional operation at a time."""
        out = []

        def descend(prefix, sigma, remaining):
            if remaining == 0:
                out.append((prefix, max(float(sigma.trace().real), 0.0)))
                return
            for y in instrument.outcome_labels:
                nxt, _ = apply_conditional(instrument.op(y), sigma)
                descend(prefix + (y,), nxt, remaining - 1)

        descend((), np.asarray(rho0, dtype=complex), steps)
        return out

    @pytest.mark.parametrize("which, has_zero", [("classical-3state", False), ("demo-joint", True)])
    def test_matches_recursive_reference(self, which, has_zero):
        if which == "demo-joint":
            inst = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05)).joint
            rho0, steps = np.eye(2) / 2, 5
        else:
            sc = Scenario.from_file(SCENARIOS / "classical-3state.json")
            inst, rho0, steps = sc.instrument, sc.rho0, sc.steps
        got = enumerate_records(inst, rho0, steps)
        ref = self.recursive_records(inst, rho0, steps)
        assert [r for r, _ in got] == [r for r, _ in ref]
        # bitwise equal probabilities, zero records included
        assert np.array([p for _, p in got]).tobytes() == np.array([p for _, p in ref]).tobytes()
        # two consecutive jumps under sigma-minus are exactly impossible
        assert any(p == 0.0 for _, p in got) == has_zero


class TestTriePasses:
    """The breadth-first passes over a table, and their one-record cases, give the bits of per-step references.

    :func:`reference_filter`, :func:`reference_retrofilter` and
    :func:`reference_walk` step one record at a time.  Bytes are compared,
    not values, so a ``-0.0`` where the reference has ``0.0`` fails.
    """

    @staticmethod
    def table(which):
        """An instrument, its initial state and 6-step records: sampled, impossible and repeated.

        ``random-qutrit`` has two Kraus operators per outcome and rounding in
        every product, so a change in the order of the arithmetic shows.
        """
        if which == "random-qutrit":
            inst = sampling.random_instrument(3, 2, 2, np.random.default_rng(1))
        else:
            inst = Scenario.from_file(SCENARIOS / f"{which}.json").instrument
        rho0 = np.diag(np.arange(1.0, inst.dim + 1) / sum(range(inst.dim + 1)))
        rng = np.random.default_rng(3)
        records = [tuple(r) for r in rng.choice(list(inst.outcome_labels), size=(40, 6)).tolist()]
        records += [r for r, p in enumerate_records(inst, rho0, 6) if p == 0.0][:5]
        return inst, rho0, records + records[:10]

    @pytest.mark.parametrize("which", ["driven-damped-qubit", "classical-3state", "random-qutrit"])
    def test_every_split_has_the_bits_of_the_per_record_passes(self, which):
        inst, rho0, records = self.table(which)
        outcomes = set()
        # split 0 has empty pasts and split 6 empty futures
        for t in range(7):
            pasts, futures = [r[:t] for r in records], [r[t:] for r in records]
            for past, got in zip(pasts, filter_records(inst, rho0, pasts)):
                try:
                    rho, log_prob = reference_filter(inst, rho0, past)
                except ZeroProbabilityRecord:
                    assert got is None, past
                    with pytest.raises(ZeroProbabilityRecord):
                        filter_state(inst, rho0, past)
                    outcomes.add("impossible")
                    continue
                for rho_got, log_prob_got in (got, filter_state(inst, rho0, past)):
                    assert rho_got.tobytes() == rho.tobytes(), past
                    assert np.float64(log_prob_got).tobytes() == np.float64(log_prob).tobytes(), past
                outcomes.add("possible")
            for future, got in zip(futures, retrofilter_records(inst, futures)):
                want = reference_retrofilter(inst, future).tobytes()
                assert got.tobytes() == want and retrofilter(inst, future).tobytes() == want, future
        assert outcomes == ({"possible", "impossible"} if which == "driven-damped-qubit" else {"possible"})

    @pytest.mark.parametrize("which", ["driven-damped-qubit", "classical-3state", "random-qutrit"])
    def test_walk_records_has_the_bits_of_the_per_record_walk(self, which):
        inst, rho0, records = self.table(which)
        initial, rank = purified_initial(rho0)
        options = {y: [(y, u) for u in sorted(inst.op(y).names)] for y in inst.outcome_labels}
        pasts = [r[:t] for r in records for t in range(7)]
        sets = [[options[y] for y in past] for past in pasts]
        counts = sorted({int(np.prod([len(s) for s in steps])) for steps in sets})
        cap = counts[len(counts) // 2]
        outcomes = set()
        for steps, got in zip(sets, walk_records(inst.joint, initial, sets, dim_extra=rank, cap=cap)):
            n_records = int(np.prod([len(s) for s in steps]))
            if n_records > cap:
                assert isinstance(got, EnumerationTooLarge) and str(got) == f"{n_records} records exceed the cap of {cap}"
                outcomes.add("capped")
                continue
            records_ref, ops_ref = reference_walk(inst.joint, initial, steps, rank)
            assert got[0] == records_ref and got[1].tobytes() == ops_ref.tobytes(), steps
            outcomes.add("dropped" if len(records_ref) < n_records else "walked")
        # no branch of the random instrument is exactly zero
        assert outcomes == {"capped", "walked"} | ({"dropped"} if which != "random-qutrit" else set())
        # one label per step walks the instrument itself: a record's one branch, dropped if it is impossible
        singles, possible = [[[y] for y in past] for past in pasts], set()
        for steps, got in zip(singles, walk_records(inst, initial, singles, dim_extra=rank, cap=cap)):
            records_ref, ops_ref = reference_walk(inst, initial, steps, rank)
            assert got[0] == records_ref and got[1].tobytes() == ops_ref.tobytes(), steps
            possible.add(bool(records_ref))
        assert possible == ({True, False} if which == "driven-damped-qubit" else {True})
        # the enumeration of every record is the one-record case
        labels = inst.outcome_labels
        assert walk(inst, rho0, [labels] * 4)[0] == reference_walk(inst, rho0, [labels] * 4)[0]
        assert walk(inst, rho0, [labels] * 4)[1].tobytes() == reference_walk(inst, rho0, [labels] * 4)[1].tobytes()

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            filter_records(projective_z(), np.eye(2) / 2, [("0",), ("0", "x")])
        with pytest.raises(UnknownOutcome):
            filter_state(projective_z(), np.eye(2) / 2, ("0", "x"))
        with pytest.raises(UnknownOutcome):
            retrofilter(projective_z(), ("x", "0"))
        # a label set that holds an unknown label, after a record with only known ones
        with pytest.raises(UnknownOutcome, match="'x'"):
            walk_records(projective_z(), np.eye(2) / 2, [[("0", "1")], [("0",), ("1", "x")]])


def reference_merged_walk(instrument, initial, label_sets, dim_extra=1):
    """:func:`reference_walk`, with each step's branches that took labels of one reset class summed.

    The sum starts from the first of them and adds the rest in branch order;
    it takes the place of the first, and its record restarts at the
    :class:`Merged` entry of the class's labels in the step.  A class with
    one branch is left as it is.
    """
    classes = dict(zip(instrument.outcome_labels, instrument.reset_classes.tolist()))
    eye = np.eye(dim_extra)
    branches = [((), np.asarray(initial, dtype=complex))]
    for labels in label_sets:
        groups = {}
        for record, sigma in branches:
            for y in labels:
                first, *rest = (tensor(k, eye) for k in instrument.op(y).kraus)
                out = first @ sigma @ dag(first)
                for k in rest:
                    out = out + k @ sigma @ dag(k)
                if out.any():
                    key = ("class", classes[y]) if classes[y] >= 0 else ("branch", len(groups))
                    groups.setdefault(key, []).append((record + (y,), out))
        branches = []
        for (what, c), members in groups.items():
            if len(members) == 1:
                branches.append(members[0])
                continue
            total = members[0][1]
            for _, out in members[1:]:
                total = total + out
            branches.append(((Merged(tuple(y for y in labels if classes[y] == c)),), total))
    ops = np.array([op for _, op in branches], dtype=complex).reshape(-1, *np.shape(initial))
    return [record for record, _ in branches], hermitian_part(ops)


class TestResetMerge:
    """Branches that end in one reset merge into one, and the merged walk keeps a cap of its own."""

    @staticmethod
    def rank_one(a, b):
        return np.outer(np.asarray(a, dtype=complex), np.conj(b))

    def test_reset_classes(self):
        chain = Scenario.from_file(SCENARIOS / "classical-2state.json").instrument
        # every transition resets, to |0> or to |1>
        assert chain.joint.reset_classes.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]
        assert chain.reset_classes.tolist() == [-1, -1]
        # the demo: no jump is not a reset; the detected and the undetected jump both reset to |0>
        demo = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05))
        assert demo.joint.outcome_labels == (("0", "0"), ("0", "1"), ("1", "0"))
        assert demo.joint.reset_classes.tolist() == [-1, 0, 0]
        assert demo.reset_classes.tolist() == [-1, 0]
        random = sampling.random_instrument(3, 2, 2, np.random.default_rng(1))
        assert random.joint.reset_classes.tolist() == [-1] * 4 and random.reset_classes.tolist() == [-1, -1]
        # one range up to phase is one class; two ranges within one label are no reset; a zero operator is none
        ops = {
            "a": ConditionalOp((self.rank_one([1, 0], [0.6, 0.8]),)),
            "b": ConditionalOp((self.rank_one([1j, 0], [0.8, -0.6]),)),
            "c": ConditionalOp((self.rank_one([0, 1], [1, 0]) * 0.5, self.rank_one([1, 1], [0, 1]) * 0.5)),
            "d": ConditionalOp((np.zeros((2, 2)),)),
        }
        assert Instrument(ops, check=False).reset_classes.tolist() == [0, 0, -1, -1]
        with pytest.raises(ValueError):
            demo.reset_classes[0] = 1

    def test_the_merged_count_is_the_product_without_a_reset_label(self):
        random = sampling.random_instrument(2, 2, 2, np.random.default_rng(4)).joint
        reset = dict(zip(random.outcome_labels, random.reset_classes.tolist()))
        for sets in ([], [random.outcome_labels[:3]], [random.outcome_labels[:2], random.outcome_labels] * 3):
            assert _merged_count(sets, reset) == int(np.prod([len(s) for s in sets]))
        demo = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05)).joint
        reset = dict(zip(demo.outcome_labels, demo.reset_classes.tolist()))
        no_jump, jump = [("0", "0"), ("0", "1")], [("1", "0")]
        # t + 1 after t no-jump steps, and 1 again after a detected jump
        assert [_merged_count([no_jump] * t, reset) for t in range(6)] == [1, 2, 3, 4, 5, 6]
        assert _merged_count([no_jump] * 4 + [jump], reset) == 1
        chain = Scenario.from_file(SCENARIOS / "classical-2state.json").instrument.joint
        reset = dict(zip(chain.outcome_labels, chain.reset_classes.tolist()))
        assert _merged_count([chain.outcome_labels[:4]] * 30, reset) == 2

    def test_the_cap_counts_merged_branches(self):
        demo = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05)).joint
        no_jump = [("0", "0"), ("0", "1")]
        rho0 = np.eye(2) / 2
        # 2**60 records, 61 merged branches
        merged = walk_records(demo, rho0, [[no_jump] * 60], cap=61, merge=True)[0]
        assert len(merged[0]) <= 61
        (capped,) = walk_records(demo, rho0, [[no_jump] * 60], cap=60, merge=True)
        assert isinstance(capped, EnumerationTooLarge) and str(capped) == "61 merged branches exceed the cap of 60"
        (unmerged,) = walk_records(demo, rho0, [[no_jump] * 60], cap=61)
        assert str(unmerged) == f"{2**60} records exceed the cap of 61"
        random = sampling.random_instrument(2, 2, 2, np.random.default_rng(4))
        sets = [random.joint.outcome_labels[:2]] * 7
        (capped,) = walk_records(random.joint, rho0, [sets], cap=100, merge=True)
        assert str(capped) == "128 records exceed the cap of 100"

    @pytest.mark.parametrize("which", ["driven-damped-qubit", "classical-3state", "demo-eta"])
    def test_merged_walk_has_the_bits_of_the_per_record_merge(self, which):
        if which == "demo-eta":
            inst = discretize(decay_spec(eta=0.5, omega=1.0, kappa_dt=0.05))
            rho0 = np.diag([0.3, 0.7])
            drawn = np.random.default_rng(5).choice(["0", "1"], size=(30, 7), p=[0.8, 0.2])
            records = [tuple(r) for r in drawn.tolist()]
        else:
            inst, rho0, records = TestTriePasses.table(which)
            records = records[:20] + records[-15:]  # sampled, impossible and repeated
        options = {y: [(y, u) for u in sorted(inst.op(y).names)] for y in inst.outcome_labels}
        pasts = [r[:t] for r in records for t in range(8)]
        outcomes = set()
        for initial, rank in (purified_initial(rho0), (rho0, 1)):
            sets = [[options[y] for y in past] for past in pasts]
            for steps, got in zip(sets, walk_records(inst.joint, initial, sets, dim_extra=rank, merge=True)):
                records_ref, ops_ref = reference_merged_walk(inst.joint, initial, steps, rank)
                assert got[0] == records_ref and got[1].tobytes() == ops_ref.tobytes(), steps
                if len(steps) <= 4:  # the unmerged walk of a 3-state chain grows 9-fold per step
                    plain = reference_walk(inst.joint, initial, steps, rank)[1]
                    outcomes.add("merged" if len(ops_ref) < len(plain) else "unmerged")
                    # the same state, up to rounding
                    assert np.abs(plain.sum(axis=0) - ops_ref.sum(axis=0)).max(initial=0.0) <= 1e-15
        assert outcomes == {"merged", "unmerged"}

    @pytest.mark.parametrize("which", ["random-qutrit", "driven-damped-qubit"])
    def test_a_walk_with_no_two_branches_of_one_class_in_a_row_keeps_every_bit(self, which):
        # the random instrument has no reset label (joint view); the demo walked one label per step has
        # one branch per row
        inst, rho0, records = TestTriePasses.table(which)
        if which == "random-qutrit":
            options = {y: [(y, u) for u in sorted(inst.op(y).names)] for y in inst.outcome_labels}
            walked, sets = inst.joint, [[options[y] for y in r] for r in records]
        else:
            walked, sets = inst, [[[y] for y in r] for r in records]
        initial, rank = purified_initial(rho0)
        merged = walk_records(walked, initial, sets, dim_extra=rank, merge=True)
        for got, want in zip(merged, walk_records(walked, initial, sets, dim_extra=rank), strict=True):
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def reference_conjugate(instrument, sigma, rows, labels, dim_extra=1, adjoint=False) -> np.ndarray:
    """Per-pair level step: ``k @ sigma[r] @ k†`` (``k† @ sigma[r] @ k`` for ``adjoint``), summed in Kraus order."""
    eye, names = np.eye(dim_extra), instrument.outcome_labels
    out = np.empty((len(rows), *sigma.shape[1:]), dtype=complex)
    for i, (r, y) in enumerate(zip(rows, labels)):
        lifted = [tensor(k, eye) for k in instrument.op(names[y]).kraus]
        first, *rest = [(dag(k), k) if adjoint else (k, dag(k)) for k in lifted]
        out[i] = first[0] @ sigma[r] @ first[1]
        for k, k_dag in rest:
            out[i] += k @ sigma[r] @ k_dag
    return out


class TestConjugate:
    """:func:`_conjugate`, the level step of every trie pass, has the bits of a per-pair loop."""

    @staticmethod
    def instrument(rng, dim, real):
        """1 to 3 outcomes of 1 to 4 random Kraus operators each, scaled to be subnormalized together."""
        counts = rng.integers(1, 5, size=rng.integers(1, 4))
        shape = (counts.sum(), dim, dim)
        kraus = rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape))
        kraus /= np.sqrt(1.01 * np.linalg.eigvalsh(sum(dag(k) @ k for k in kraus))[-1])
        ops = {str(y): ConditionalOp(tuple(kraus[e - c : e])) for y, (c, e) in enumerate(zip(counts, np.cumsum(counts)))}
        return Instrument(ops, check=False)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_bits_of_the_per_pair_step(self, real, adjoint):
        rng = np.random.default_rng(26 + 2 * real + adjoint)
        unpaired = set()
        for _ in range(40):
            dim, dim_extra = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            inst = self.instrument(rng, dim, real)
            n_labels, size = len(inst.outcome_labels), dim * dim_extra
            n_rows = int(rng.integers(1, 6))
            sigma = rng.normal(size=(n_rows, size, size)) + 1j * rng.normal(size=(n_rows, size, size))
            # repeated, unsorted rows; the last label has no pairs whenever there are two or more
            n_pairs = int(rng.integers(1, 12))
            rows = rng.integers(0, n_rows, size=n_pairs)
            labels = rng.integers(0, max(n_labels - 1, 1), size=n_pairs)
            stacks = inst.kraus_stack(dim_extra, adjoint=adjoint)
            got = _conjugate(stacks, sigma, rows, labels)
            want = reference_conjugate(inst, sigma, rows, labels, dim_extra, adjoint)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (dim, dim_extra, rows, labels)
            unpaired.add(n_labels > 1)
        assert unpaired == {True, False}

    def test_broadcast_sigma_and_empty_pairs(self):
        # the sampler's first step: one state broadcast over every trajectory, each paired with every label
        inst = self.instrument(np.random.default_rng(5), 3, real=False)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        sigma = np.broadcast_to(rho, (4, 3, 3))
        n_labels = len(inst.outcome_labels)
        rows, labels = np.repeat(np.arange(4), n_labels), np.tile(np.arange(n_labels), 4)
        got = _conjugate(inst.kraus_stack(), sigma, rows, labels)
        assert got.tobytes() == reference_conjugate(inst, sigma, rows, labels).tobytes()
        empty = np.array([], dtype=int)
        for adjoint in (False, True):
            assert _conjugate(inst.kraus_stack(adjoint=adjoint), sigma, empty, empty).shape == (0, 3, 3)

    def test_stacked_operators_built_once_and_read_only(self):
        inst = self.instrument(np.random.default_rng(7), 2, real=False)
        kraus = [k for op in inst.ops.values() for k in op.kraus]
        for dim_extra in (1, 2):
            lifted = [tensor(k, np.eye(dim_extra)) for k in kraus]
            for adjoint in (False, True):
                stacks = inst.kraus_stack(dim_extra, adjoint=adjoint)
                assert inst.kraus_stack(dim_extra, adjoint=adjoint) is stacks
                left, right = stacks
                want_left = [dag(k) if adjoint else k for k in lifted]
                assert left.shape == (len(kraus) * 2 * dim_extra, 2 * dim_extra)
                assert left.tobytes() == np.concatenate(want_left).tobytes()
                assert np.concatenate(right).tobytes() == np.stack([k if adjoint else dag(k) for k in lifted]).tobytes()
                for a in (left, *right):
                    with pytest.raises(ValueError):
                        a[0, 0] = 1.0
        assert inst.kraus_stack(1)[0] is not inst.kraus_stack(1, adjoint=True)[0]


def sequential_record(instrument, rho0, steps, gen):
    """Reference sampler: one ``Generator.choice`` per step on the normalized weights."""
    rho = np.asarray(rho0, dtype=complex)
    labels = instrument.outcome_labels
    record = []
    for _ in range(steps):
        outs, weights = zip(*(apply_conditional(instrument.op(y), rho) for y in labels))
        probs = np.clip(np.asarray(weights), 0.0, None)
        k = int(gen.choice(len(labels), p=probs / probs.sum()))
        rho = hermitian_part(outs[k] / weights[k])
        record.append(labels[k])
    return tuple(record)


class TestSample:
    def test_zero_steps(self):
        assert sample_records(projective_z(), np.eye(2) / 2, 0, 1, 5) == [()]
        assert sample_records(projective_z(), np.eye(2) / 2, 0, 3, 5) == [()] * 3

    def test_single_outcome(self):
        inst = Instrument({"0": ConditionalOp((np.eye(2),))})
        assert sample_records(inst, np.eye(2) / 2, 5, 1, 0) == [("0",) * 5]

    def test_seed_determinism(self):
        joint = discretize(decay_spec(eta=0.5, omega=1.0)).joint
        a = sample_records(joint, np.eye(2) / 2, 5, 1, 42)
        b = sample_records(joint, np.eye(2) / 2, 5, 1, 42)
        assert a == b

    @pytest.mark.parametrize("seed", [29, 11, 7])
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("system", ["demo-joint", "projective-z"])
    def test_lockstep_matches_sequential_loop(self, system, n, seed):
        if system == "demo-joint":
            sc = Scenario.from_file(SCENARIOS / "driven-damped-qubit.json")
            inst, rho0, steps = sc.instrument.joint, sc.rho0, 12
        else:
            inst, rho0, steps = projective_z(), np.diag([0.35, 0.65]).astype(complex), 4
        gen = np.random.default_rng(seed)
        expected = [sequential_record(inst, rho0, steps, gen) for _ in range(n)]
        after = gen.random()
        gen = np.random.default_rng(seed)
        assert sample_records(inst, rho0, steps, n, gen) == expected
        # the same uniforms were consumed, no more
        assert gen.random() == after

    def test_zero_weight_outcome_raises(self):
        # a subnormalized instrument whose only outcome has weight 1e-16
        inst = Instrument({"0": ConditionalOp((1e-8 * np.eye(2),))}, check=False)
        with pytest.raises(ZeroProbabilityRecord):
            sample_records(inst, np.eye(2) / 2, 3, 4, 0)

    def test_frequencies_match_enumeration(self):
        inst = projective_z()
        rho0 = np.diag([0.35, 0.65]).astype(complex)
        steps, n = 2, 100_000
        rng = np.random.default_rng(777)
        counts: dict[tuple, int] = {}
        for rec in sample_records(inst, rho0, steps, n, rng):
            counts[rec] = counts.get(rec, 0) + 1
        for rec, p in enumerate_records(inst, rho0, steps):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.get(rec, 0) / n - p) <= 3 * sigma + 1e-12
