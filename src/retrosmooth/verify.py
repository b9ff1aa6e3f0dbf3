"""Built-in verification suite: smoothing desiderata and module invariants.

Each check runs on built-in scenarios or seeded random instances and reports
its worst residual next to the tolerance it was held to.  The CLI ``verify``
command prints one line per check and fails the process if any check fails.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import sampling, sweeps
from .entropy import (
    ExtensionScenario,
    lambda_apply,
    lambda_choi,
    lambda_map,
    no_universal_quantifier_demo,
    smoothed_outcome_states,
    support_basis,
)
from .errors import EnumerationTooLarge, ZeroProbabilityRecord
from .linalg import partial_trace, psd_sqrt, purify, trace_norm
from .retrodiction import bob_posterior, generalized_smooth
from .scenario import Scenario, classical_demo_scenario, demo_scenario
from .smoothers import branch_mixture_smooth, build_custom, build_prior
from .trajectory import Instrument, enumerate_records, retrofilter

PRIOR_CYCLE = ("pf", "gw", "gw-variant", "pf-variant", "clhs")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{status}  {self.name}  residual={self.residual:.3e}  tol={self.tolerance:.0e}{extra}"


def _setup(scenario: Scenario | None):
    """The scenario (demo by default) and its future table."""
    sc = scenario or demo_scenario()
    return sc, sweeps.future_table(sc)


def _prior_errors(errors: list[str]) -> str:
    return f"  prior errors={len(errors)} (first: {errors[0]})" if errors else ""


def _smoothed(sc, table, kinds, errors: list[str]):
    """The pass over a complete table, less impossible pasts; failed builds go to ``errors``."""
    for s in sweeps.smooth_table(sc, table, kinds):
        if s.error is None:
            yield s
        elif s.error != sweeps.ZERO_PAST:
            errors.append(f"{s.kind}@{sweeps.render(s.past)}: {s.error}")


def check_linalg(seed: int = 0) -> CheckResult:
    """Spectral-function invariants on seeded random matrices."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (2, 3, 4, 8):
        for _ in range(25):
            m = sampling.random_density(d, rng) * rng.uniform(0.2, 2.0)
            s = psd_sqrt(m)
            worst = max(worst, float(np.abs(s @ s - m).max()))
    for _ in range(20):
        rho = sampling.random_density(3, rng)
        psi = purify(rho)
        rank = psi.size // 3
        marg = partial_trace(np.outer(psi, psi.conj()), (3, rank), "Q")
        worst = max(worst, float(np.abs(marg - rho).max()))
    return CheckResult("linalg-invariants", worst <= 1e-9, worst, 1e-9)


def check_instrument(name: str, instrument: Instrument) -> CheckResult:
    """Completeness of one instrument, reported under the given scenario name."""
    defect = instrument.completeness_defect()
    return CheckResult(f"instrument-completeness[{name}]", defect <= 1e-9, defect, 1e-9)


def check_petz_fixed_point(seed: int = 1, n: int = 30) -> CheckResult:
    """Recovering the propagated prior must return the prior exactly."""
    from .retrodiction import ChannelRep, petz_map

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        channel = ChannelRep(tuple(sampling.random_kraus_channel(d_in, d_out, 3, rng)))
        gamma = sampling.random_density(d_in, rng)
        sigma = channel.apply(gamma)
        sigma = (sigma + sigma.conj().T) / 2
        worst = max(worst, trace_norm(petz_map(channel, gamma, sigma) - gamma))
    return CheckResult("petz-fixed-point", worst <= 1e-9, worst, 1e-9, f"n={n}")


def iter_random_smoothing_cases(seed: int, n: int):
    """Yield ``(prior, effect)`` pairs from seeded random scenarios, cycling priors."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < n:
        dim = int(rng.integers(2, 4))
        inst = sampling.random_instrument(dim, 2, 2, rng)
        rho0 = sampling.random_density(dim, rng)
        steps = int(rng.integers(1, 4))
        t = int(rng.integers(0, steps + 1))
        recs = [(r, p) for r, p in enumerate_records(inst, rho0, steps) if p > 1e-6]
        rec = recs[int(rng.integers(0, len(recs)))][0]
        past, fut = rec[:t], rec[t:]
        kind = PRIOR_CYCLE[produced % len(PRIOR_CYCLE)]
        try:
            prior = build_prior(kind, rho0=rho0, alice_past=past, instrument=inst)
            effect = retrofilter(inst, fut)
            yield prior, effect
        except ZeroProbabilityRecord:
            continue
        produced += 1


def check_smoothed_physicality(seed: int = 2, n: int = 60) -> CheckResult:
    """Smoothed states must be PSD and unit trace on random scenarios."""
    worst_eig, worst_tr = 0.0, 0.0
    for prior, effect in iter_random_smoothing_cases(seed, n):
        try:
            rho_s = generalized_smooth(prior, effect)
        except ZeroProbabilityRecord:
            continue
        worst_eig = max(worst_eig, max(0.0, -float(np.linalg.eigvalsh(rho_s)[0])))
        worst_tr = max(worst_tr, abs(float(rho_s.trace().real) - 1.0))
    passed = worst_eig <= 1e-9 and worst_tr <= 1e-10
    return CheckResult("smoothed-physicality", passed, max(worst_eig, worst_tr), 1e-9, f"n={n}")


def check_filter_averaging(scenario: Scenario | None = None) -> CheckResult:
    """Future-averaged smoothed states must reproduce the filtered state.

    A prior that cannot be built for a possible past fails the check.
    """
    sc, table = _setup(scenario)
    worst, errors = 0.0, []
    for s in _smoothed(sc, table, sc.prior_kinds, errors):
        worst = max(worst, s.residual())
    passed = worst <= 1e-8 and not errors
    detail = f"scenario={sc.name}{_prior_errors(errors)}"
    return CheckResult("filter-averaging", passed, worst, 1e-8, detail)


def check_classical_limit(steps: int = 4) -> CheckResult:
    """Quantum smoothing of a classical chain must match forward-backward exactly."""
    worst = 0.0
    for n_states in (2, 3):
        sc = classical_demo_scenario(n_states, steps=steps)
        deviation, _ = sweeps.classical_deviation(sc, ("pf", "gw-variant"))
        worst = max(worst, *deviation.values())
    return CheckResult("classical-limit", worst <= 1e-9, worst, 1e-9, f"steps={steps}")


def check_branch_mixture(scenario: Scenario | None = None) -> CheckResult:
    """Register-based smoothing must equal the explicit true-state mixture.

    A prior that cannot be built for a possible past fails the check.
    """
    sc, table = _setup(scenario)
    worst, errors = 0.0, []
    for s in _smoothed(sc, table, ("gw",), errors):
        live = np.array([p > sweeps.PROB_FLOOR for _, p in s.futures])
        if not s.possible[live].all():
            raise ZeroProbabilityRecord(f"a future of {sweeps.render(s.past)!r} has vanishing probability")
        for effect, got in zip(s.effects[live], s.states[live]):
            ref = branch_mixture_smooth(sc.instrument, sc.rho0, s.past, effect, cap=sc.enumeration_cap)
            worst = max(worst, trace_norm(got - ref))
    passed = worst <= 1e-8 and not errors
    return CheckResult("trajectory-mixture-equivalence", passed, worst, 1e-8, _prior_errors(errors).strip())


def check_bob_posterior(scenario: Scenario | None = None) -> CheckResult:
    """Record-register posterior must match exhaustive joint-record enumeration.

    A prior that cannot be built for a possible past, or a joint-record
    table beyond the enumeration cap, fails the check.
    """
    name = "record-register-posterior"
    sc, table = _setup(scenario)
    t = sc.smoothing_index
    try:
        joint_table = enumerate_records(sc.instrument.joint, sc.rho0, sc.steps, sc.enumeration_cap)
    except EnumerationTooLarge as exc:
        return CheckResult(name, False, 0.0, 1e-9, f"joint records: {exc}")
    # per alice record: its probability and the mass of each bob past
    den: dict[tuple, float] = defaultdict(float)
    num: dict[tuple, dict] = defaultdict(lambda: defaultdict(float))
    for jrec, jp in joint_table:
        alice = tuple(a for a, _ in jrec)
        den[alice] += jp
        num[alice][tuple(u for _, u in jrec)[:t]] += jp
    worst, errors = 0.0, []
    for s in _smoothed(sc, table, ("gw",), errors):
        for (fut, p), effect in zip(s.futures, s.effects):
            if p <= 1e-9:
                continue
            probs = bob_posterior(s.prior, effect)
            rec = s.past + fut
            expected = np.array([num[rec][lbl] / den[rec] for lbl in s.prior.block_labels])
            worst = max(worst, float(np.abs(probs - expected).max()))
    passed = worst <= 1e-9 and not errors
    return CheckResult(name, passed, worst, 1e-9, _prior_errors(errors).strip())


def check_entropy_sandwich(scenario: Scenario | None = None) -> CheckResult:
    """Average entropy must sit between S(rho_F) - H(futures) and S(rho_F).

    A prior that cannot be built for a possible past fails the check.
    """
    sc, table = _setup(scenario)
    worst = 0.0
    clhs_gap = 0.0
    errors = []
    for row in sweeps.entropy_rows(sc, table):
        if "avg_entropy" not in row:
            errors.append(f"{row['id']}@{row['record']}: {row['detail']}")
            continue
        worst = max(worst, max(-row["lower_margin"], -row["upper_margin"], 0.0))
        if row["id"] == "clhs":
            clhs_gap = max(clhs_gap, abs(row["upper_margin"]))
    passed = worst <= 1e-9 and clhs_gap <= 1e-10 and not errors
    detail = f"clhs-saturation={clhs_gap:.1e}{_prior_errors(errors)}"
    return CheckResult("entropy-sandwich", passed, max(worst, clhs_gap), 1e-9, detail)


def check_theorem1(seed: int = 3, n: int = 60) -> CheckResult:
    """Extremal-bound chain on random extensions with shared marginal."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        d_q, d_a = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        # the state and extension are drawn before the effect count; the row is both draws, in order
        head = rng.normal(size=sampling.triple_size(d_q, d_a, 0))
        n_eff = int(rng.integers(2, 5))
        tail = rng.normal(size=sampling.triple_size(d_q, d_a, n_eff) - len(head))
        draws.append(((d_q, d_a, n_eff), np.concatenate([head, tail])))
    worst = 0.0
    for report in sweeps.theorem1_sweep(draws):
        worst = max(worst, max(-report.lower_margin, -report.upper_margin, 0.0))
    return CheckResult("entropy-extremal-bounds", worst <= 1e-9, worst, 1e-9, f"n={n}")


def check_lambda(seed: int = 4, n: int = 15) -> CheckResult:
    """Bridge map: CP, TP on the support, and carries trivial updates to extended ones."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        d_q = int(rng.integers(2, 4))
        d_a = int(rng.integers(2, 4))
        gamma = sampling.random_density(d_q, rng)
        ext = build_custom(sampling.random_extension(gamma, d_a, rng), (d_q, d_a))
        choi = lambda_choi(ext, gamma)
        worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(choi)[0])))
        basis = support_basis(gamma)
        for k in range(basis.shape[1]):
            unit = np.outer(basis[:, k], basis[:, k].conj())
            worst = max(worst, abs(float(lambda_apply(ext, gamma, unit).trace().real) - 1.0))
        povm = sampling.random_povm(d_q, 3, rng)
        chan = lambda_map(ext, gamma)
        trivial = ExtensionScenario(gamma, build_custom(gamma, (d_q, 1)), tuple(povm))
        extended = ExtensionScenario(gamma, ext, tuple(povm))
        for base, target in zip(smoothed_outcome_states(trivial), smoothed_outcome_states(extended)):
            if base is None or target is None:
                continue
            worst = max(worst, trace_norm(chan.apply(base) - target))
    return CheckResult("bridge-map-cp-tp", worst <= 1e-9, worst, 1e-9, f"n={n}")


def check_purification_invariance(scenario: Scenario | None = None, seed: int = 5) -> CheckResult:
    """Smoothed states must not depend on the choice of purifying ancilla."""
    from .smoothers import extend_ancilla

    sc = scenario or demo_scenario()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for past, fut in ((("0", "1"), ("0", "0")), (("0", "0"), ("0", "1"))):
        effect = retrofilter(sc.instrument, fut)
        for kind in ("gw", "pf-variant"):
            prior = build_prior(kind, rho0=sc.rho0, alice_past=past, instrument=sc.instrument)
            base = generalized_smooth(prior, effect)
            iso = sampling.random_isometry(prior.dim_a1, prior.dim_a1 + 2, rng)
            moved = generalized_smooth(extend_ancilla(prior, iso), effect)
            worst = max(worst, trace_norm(moved - base))
    return CheckResult("purification-invariance", worst <= 1e-9, worst, 1e-9)


def check_qubit_reversal() -> CheckResult:
    """The four qubit average entropies and their strict ordering reversal."""
    demo = no_universal_quantifier_demo()
    passed = demo.max_error <= 1e-10 and demo.reversal_holds
    return CheckResult("qubit-ordering-reversal", passed, demo.max_error, 1e-10)


def run_all(seed: int = 2024) -> list[CheckResult]:
    sc = demo_scenario()
    results = [
        check_linalg(seed),
        check_instrument(sc.name, sc.instrument),
        check_instrument("classical-2state", classical_demo_scenario(2).instrument),
        check_petz_fixed_point(seed + 1),
        check_smoothed_physicality(seed + 2),
        check_filter_averaging(sc),
        check_classical_limit(steps=3),
        check_branch_mixture(sc),
        check_bob_posterior(sc),
        check_entropy_sandwich(sc),
        check_purification_invariance(sc, seed + 5),
        check_theorem1(seed + 3),
        check_lambda(seed + 4),
        check_qubit_reversal(),
    ]
    return results
