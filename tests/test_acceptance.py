"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (collected into the terminal summary)
with the worst residual observed and the elapsed time, and asserts the
criterion's tolerance and runtime budget.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from retrosmooth import sampling, verify
from retrosmooth.classical import classical_smooth
from retrosmooth.entropy import (
    ExtensionScenario,
    lambda_apply,
    lambda_choi,
    lambda_map,
    no_universal_quantifier_demo,
    sandwich_bound,
    smoothed_outcome_states,
    support_basis,
    theorem1_check,
)
from retrosmooth.errors import ZeroProbabilityRecord
from retrosmooth.linalg import entropy_vn, trace_norm
from retrosmooth.retrodiction import ChannelRep, bob_posterior, generalized_smooth, petz_map
from retrosmooth.scenario import classical_demo_scenario, demo_scenario
from retrosmooth.smoothers import branch_mixture_smooth, build_custom, build_prior
from retrosmooth.trajectory import enumerate_records, filter as filter_state, retrofilter

ALL_KINDS = ("pf", "gw", "gw-variant", "pf-variant", "clhs")
SEED = 20240901


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


@pytest.fixture(scope="module")
def demo():
    """Demo scenario with its instruments, record tables and priors, shared."""
    sc = demo_scenario()
    rho0 = sc.rho0
    t = sc.smoothing_index
    table = defaultdict(list)
    for rec, p in enumerate_records(sc.instrument, rho0, sc.steps, sc.enumeration_cap):
        table[rec[:t]].append((rec[t:], p))
    priors = {}
    filtered = {}
    for past, futs in table.items():
        if sum(p for _, p in futs) <= 1e-12:
            continue
        filtered[past] = filter_state(sc.instrument, rho0, past)[0]
        for kind in ALL_KINDS:
            priors[(kind, past)] = build_prior(
                kind, rho0=rho0, alice_past=past, instrument=sc.instrument
            )
    return {
        "scenario": sc,
        "rho0": rho0,
        "t": t,
        "table": dict(table),
        "priors": priors,
        "filtered": filtered,
    }


def test_criterion_01_qubit_entropy_reversal(criterion_report):
    """Two extensions of the maximally mixed qubit: exact average entropies
    {(ext1, Z) = 0, (ext1, X) = ln 2, (ext2, Z) = ln 2, (ext2, X) = 0} and the
    strict ordering reversal between the Z and X measurements."""
    with Timer() as timer:
        demo = no_universal_quantifier_demo()
    line = (
        f"criterion 01 qubit-entropy-reversal: max|err|={demo.max_error:.3e} "
        f"reversal={demo.reversal_holds} ({timer.elapsed:.2f}s)"
    )
    ok = demo.max_error <= 1e-10 and demo.reversal_holds and timer.elapsed < 1.0
    criterion_report(("PASS  " if ok else "FAIL  ") + line)
    assert demo.max_error <= 1e-10
    assert demo.reversal_holds
    assert timer.elapsed < 1.0


def test_criterion_02_smoothed_states_physical(criterion_report):
    """200 seeded random (prior kind x scenario) smoothed states are PSD
    (eigenvalues >= -1e-9) and unit trace (within 1e-10)."""
    with Timer() as timer:
        worst_eig, worst_tr, n = 0.0, 0.0, 0
        for prior, effect in verify.iter_random_smoothing_cases(SEED, 200):
            try:
                rho_s = generalized_smooth(prior, effect)
            except ZeroProbabilityRecord:
                continue
            n += 1
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(rho_s)[0]))
            worst_tr = max(worst_tr, abs(float(rho_s.trace().real) - 1.0))
    ok = worst_eig <= 1e-9 and worst_tr <= 1e-10 and timer.elapsed < 30.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 02 smoothed-physicality: n={n} min-eig>=-{worst_eig:.3e} "
        f"|tr-1|<={worst_tr:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst_eig <= 1e-9
    assert worst_tr <= 1e-10
    assert timer.elapsed < 30.0


def test_criterion_03_future_averaging(criterion_report, demo):
    """For every prior kind and every past record of the demo scenario, the
    probability-weighted average of smoothed states over all enumerated
    future records equals the filtered state within 1e-8 (trace norm)."""
    sc, rho0 = demo["scenario"], demo["rho0"]
    with Timer() as timer:
        worst = 0.0
        for kind in ALL_KINDS:
            for past, futs in demo["table"].items():
                p_past = sum(p for _, p in futs)
                if p_past <= 1e-12:
                    continue
                prior = demo["priors"][(kind, past)]
                avg = np.zeros((sc.dim, sc.dim), dtype=complex)
                for fut, p in futs:
                    if p <= 1e-14:
                        continue
                    avg += (p / p_past) * generalized_smooth(
                        prior, retrofilter(sc.instrument, fut)
                    )
                worst = max(worst, trace_norm(avg - demo["filtered"][past]))
    ok = worst <= 1e-8 and timer.elapsed < 120.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 03 future-averaging: max trace-norm residual {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-8
    assert timer.elapsed < 120.0


def test_criterion_04_classical_limit(criterion_report):
    """Diagonal 2- and 3-state chains, all records of 5 steps, every split
    time: the smoothed state's diagonal matches the independent hidden-Markov
    forward-backward posterior within 1e-9.  The record-register prior is
    exercised on the 2-state chain only; its branch count grows as the number
    of transition edges to the power of the split time."""
    with Timer() as timer:
        worst = 0.0
        for n_states in (2, 3):
            sc = classical_demo_scenario(n_states, steps=5)
            rho0 = sc.rho0
            prior0 = np.diag(rho0).real
            kinds = ("pf", "gw-variant") if n_states == 2 else ("pf",)
            for rec, p in enumerate_records(sc.instrument, rho0, sc.steps, sc.enumeration_cap):
                if p <= 1e-12:
                    continue
                for t in range(sc.steps + 1):
                    ps = classical_smooth(sc.classical, prior0, rec[:t], rec[t:])
                    for kind in kinds:
                        prior = build_prior(
                            kind,
                            rho0=rho0,
                            alice_past=rec[:t],
                            instrument=sc.instrument,
                        )
                        rho_s = generalized_smooth(prior, retrofilter(sc.instrument, rec[t:]))
                        worst = max(worst, float(np.abs(np.diag(rho_s).real - ps).max()))
    ok = worst <= 1e-9 and timer.elapsed < 60.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 04 classical-limit: max |diag - forward-backward| {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-9
    assert timer.elapsed < 60.0


def test_criterion_05_trajectory_unification(criterion_report, demo):
    """Smoothing with the record-register purified prior equals the explicit
    mixture of true states over enumerated unobserved records, trace-norm gap
    <= 1e-8, across the half-efficiency demo scenario."""
    sc, rho0 = demo["scenario"], demo["rho0"]
    with Timer() as timer:
        worst = 0.0
        for past, futs in demo["table"].items():
            if sum(p for _, p in futs) <= 1e-12:
                continue
            prior = demo["priors"][("gw", past)]
            for fut, p in futs:
                if p <= 1e-12:
                    continue
                effect = retrofilter(sc.instrument, fut)
                got = generalized_smooth(prior, effect)
                ref = branch_mixture_smooth(sc.instrument, rho0, past, effect)
                worst = max(worst, trace_norm(got - ref))
    ok = worst <= 1e-8 and timer.elapsed < 120.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 05 trajectory-unification: max trace-norm gap {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-8
    assert timer.elapsed < 120.0


def test_criterion_06_entropy_extremal_bounds(criterion_report):
    """200 random extensions (d_Q in {2,3}, d_A in {2,3,4}) and random POVMs
    (2-4 effects): trivial-extension average <= extension average <= marginal
    entropy within 1e-9; equality at the trivial extension and at any
    purification within 1e-10."""
    rng = np.random.default_rng(SEED + 1)
    with Timer() as timer:
        worst_chain = 0.0
        for _ in range(200):
            d_q = int(rng.integers(2, 4))
            d_a = int(rng.integers(2, 5))
            gamma = sampling.random_density(d_q, rng)
            ext = build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a))
            povm = sampling.random_povm(d_q, int(rng.integers(2, 5)), rng)
            report = theorem1_check(gamma, ext, povm)
            worst_chain = max(worst_chain, -report.lower_margin, -report.upper_margin, 0.0)
        # equality cases
        worst_eq = 0.0
        for _ in range(10):
            d_q = int(rng.integers(2, 4))
            gamma = sampling.random_density(d_q, rng)
            povm = sampling.random_povm(d_q, 3, rng)
            trivial = theorem1_check(gamma, build_custom(gamma, (d_q, 1)), povm)
            worst_eq = max(worst_eq, abs(trivial.lower_margin))
            w, v = np.linalg.eigh(gamma)
            psi = sum(
                np.sqrt(max(w[k], 0.0)) * np.kron(v[:, k], np.eye(d_q)[:, k]) for k in range(d_q)
            )
            pure = theorem1_check(gamma, build_custom(np.outer(psi, psi.conj()), (d_q, d_q)), povm)
            worst_eq = max(worst_eq, abs(pure.upper_margin))
    ok = worst_chain <= 1e-9 and worst_eq <= 1e-10 and timer.elapsed < 60.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 06 entropy-extremal-bounds: chain violation {worst_chain:.3e} "
        f"equality gap {worst_eq:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst_chain <= 1e-9
    assert worst_eq <= 1e-10
    assert timer.elapsed < 60.0


def test_criterion_07_bridge_map(criterion_report):
    """On 50 random extension instances the bridge map is completely positive
    (Choi PSD within 1e-9), trace-preserving on the marginal's support within
    1e-9, and carries each trivially updated state onto the extension-updated
    one within 1e-9."""
    rng = np.random.default_rng(SEED + 2)
    with Timer() as timer:
        worst = 0.0
        for _ in range(50):
            d_q = int(rng.integers(2, 4))
            d_a = int(rng.integers(2, 4))
            gamma = sampling.random_density(d_q, rng)
            ext = build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a))
            choi = lambda_choi(ext, gamma)
            worst = max(worst, -float(np.linalg.eigvalsh(choi)[0]), 0.0)
            basis = support_basis(gamma)
            for k in range(basis.shape[1]):
                unit = np.outer(basis[:, k], basis[:, k].conj())
                worst = max(worst, abs(float(lambda_apply(ext, gamma, unit).trace().real) - 1.0))
            povm = sampling.random_povm(d_q, 3, rng)
            chan = lambda_map(ext, gamma)
            trivial = ExtensionScenario(gamma, build_custom(gamma, (d_q, 1)), tuple(povm))
            extended = ExtensionScenario(gamma, ext, tuple(povm))
            for base, target in zip(
                smoothed_outcome_states(trivial), smoothed_outcome_states(extended)
            ):
                if base is None or target is None:
                    continue
                worst = max(worst, trace_norm(chan.apply(base) - target))
    ok = worst <= 1e-9 and timer.elapsed < 30.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 07 bridge-map: worst CP/TP/intertwining residual {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-9
    assert timer.elapsed < 30.0


def test_criterion_08_record_register_posterior(criterion_report, demo):
    """The posterior over the unobserved record read off the smoothed global
    state matches exhaustive joint-record enumeration within 1e-9 on the demo
    scenario."""
    sc, rho0, t = demo["scenario"], demo["rho0"], demo["t"]
    with Timer() as timer:
        joint_table = enumerate_records(sc.instrument.joint, rho0, sc.steps, sc.enumeration_cap)
        worst = 0.0
        for past, futs in demo["table"].items():
            if sum(p for _, p in futs) <= 1e-12:
                continue
            prior = demo["priors"][("gw", past)]
            for fut, p in futs:
                if p <= 1e-9:
                    continue
                probs = bob_posterior(prior, retrofilter(sc.instrument, fut))
                num = defaultdict(float)
                den = 0.0
                for jrec, jp in joint_table:
                    if tuple(a for a, _ in jrec) != past + fut:
                        continue
                    den += jp
                    num[tuple(u for _, u in jrec)[:t]] += jp
                expected = np.array([num[lbl] / den for lbl in prior.block_labels])
                worst = max(worst, float(np.abs(probs - expected).max()))
    ok = worst <= 1e-9 and timer.elapsed < 60.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 08 record-register-posterior: max |err| {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-9
    assert timer.elapsed < 60.0


def test_criterion_09_entropy_sandwich(criterion_report, demo):
    """For every prior kind and every past record of the demo scenario the
    average smoothed entropy obeys S(rho_F) - H(futures) - 1e-9 <= avg <=
    S(rho_F) + 1e-9, and the purified-filtered-state prior saturates the
    upper bound to 1e-10."""
    sc = demo["scenario"]
    with Timer() as timer:
        worst = 0.0
        clhs_gap = 0.0
        for kind in ALL_KINDS:
            for past, futs in demo["table"].items():
                p_past = sum(p for _, p in futs)
                if p_past <= 1e-12:
                    continue
                prior = demo["priors"][(kind, past)]
                probs, entropies = [], []
                for fut, p in futs:
                    probs.append(p / p_past)
                    if p / p_past <= 1e-14:
                        entropies.append(0.0)
                        continue
                    entropies.append(
                        entropy_vn(generalized_smooth(prior, retrofilter(sc.instrument, fut)))
                    )
                s_bar = float(np.dot(probs, entropies))
                bound = sandwich_bound(demo["filtered"][past], probs, s_bar)
                worst = max(worst, bound.lower - s_bar, s_bar - bound.upper, 0.0)
                if kind == "clhs":
                    clhs_gap = max(clhs_gap, abs(s_bar - bound.upper))
    ok = worst <= 1e-9 and clhs_gap <= 1e-10 and timer.elapsed < 60.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 09 entropy-sandwich: violation {worst:.3e} "
        f"saturation gap {clhs_gap:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-9
    assert clhs_gap <= 1e-10
    assert timer.elapsed < 60.0


def test_criterion_10_recovery_fixed_point(criterion_report):
    """Recovering the propagated prior returns the prior: 100 random channel
    and prior pairs within 1e-9."""
    rng = np.random.default_rng(SEED + 3)
    with Timer() as timer:
        worst = 0.0
        for _ in range(100):
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            # a trace-preserving channel needs at least ceil(d_in / d_out) Kraus terms
            n_kraus = max(int(rng.integers(1, 4)), -(-d_in // d_out))
            channel = ChannelRep(tuple(sampling.random_kraus_channel(d_in, d_out, n_kraus, rng)))
            gamma = sampling.random_density(d_in, rng)
            sigma = channel.apply(gamma)
            sigma = (sigma + sigma.conj().T) / 2
            worst = max(worst, trace_norm(petz_map(channel, gamma, sigma) - gamma))
    ok = worst <= 1e-9 and timer.elapsed < 10.0
    criterion_report(
        ("PASS  " if ok else "FAIL  ")
        + f"criterion 10 recovery-fixed-point: max trace-norm {worst:.3e} ({timer.elapsed:.2f}s)"
    )
    assert worst <= 1e-9
    assert timer.elapsed < 10.0
