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
from retrosmooth.linalg import WEIGHT_FLOOR, as_density, dag, hermitian_part
from retrosmooth.scenario import Scenario
from retrosmooth.smoothers import purified_initial
from retrosmooth.trajectory import (
    ConditionalOp,
    Instrument,
    JumpChannel,
    LindbladSpec,
    _conjugate,
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
    """Per-record walk: every branch of one record, one stacked conjugation per step, zero branches dropped."""
    records, sigma = [()], np.asarray(initial, dtype=complex)[None]
    for labels in map(tuple, label_sets):
        out = _conjugate(instrument.kraus_stack(labels, dim_extra), sigma).reshape(-1, *sigma.shape[1:])
        keep = out.any(axis=(1, 2))
        records = [r + (y,) for r in records for y in labels]
        records, sigma = [r for r, k in zip(records, keep) if k], out[keep]
    return records, hermitian_part(sigma)


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
        """An instrument, its initial state and 6-step records: sampled, impossible and repeated."""
        inst = Scenario.from_file(SCENARIOS / f"{which}.json").instrument
        rho0 = np.diag(np.arange(1.0, inst.dim + 1) / sum(range(inst.dim + 1)))
        rng = np.random.default_rng(3)
        records = [tuple(r) for r in rng.choice(list(inst.outcome_labels), size=(40, 6)).tolist()]
        records += [r for r, p in enumerate_records(inst, rho0, 6) if p == 0.0][:5]
        return inst, rho0, records + records[:10]

    @pytest.mark.parametrize("which", ["driven-damped-qubit", "classical-3state"])
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

    @pytest.mark.parametrize("which", ["driven-damped-qubit", "classical-3state"])
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
        assert outcomes == {"capped", "dropped", "walked"}
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
