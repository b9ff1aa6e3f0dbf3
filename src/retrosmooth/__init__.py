"""Filtering, retrofiltering and retrodictive smoothing of monitored quantum systems.

The package computes three conditional estimates of a discretely monitored
open system: the filtered state (past record only), the retrofiltered effect
(future record only), and smoothed states combining both through extended
Petz recovery.  The choice of extended prior, the filtered global state,
selects the smoothing flavor; see :mod:`retrosmooth.smoothers`.
"""

from . import classical, entropy, linalg, retrodiction, sampling, smoothers, trajectory
from .classical import (
    ClassicalModel,
    classical_filter,
    classical_retrofilter,
    classical_smooth,
    classical_smooth_all,
    sample_classical_trajectories,
)
from .entropy import (
    ExtensionScenario,
    avg_entropy,
    lambda_apply,
    lambda_choi,
    lambda_map,
    no_universal_quantifier_demo,
    sandwich_bound,
    smoothed_outcome_states,
    theorem1_check,
)
from .errors import (
    EnumerationTooLarge,
    EvidenceOutsideSupport,
    InvalidDistribution,
    InvalidExtension,
    InvalidFactorization,
    InvalidMatrix,
    InvalidPOVM,
    MissingClassicalRegister,
    NotClassicalLimit,
    NotPSD,
    RetrosmoothError,
    ScenarioError,
    StepTooCoarse,
    UnknownOutcome,
    ZeroProbabilityRecord,
)
from .retrodiction import (
    ChannelRep,
    FilteredGlobalState,
    bob_posterior,
    counterfactual_prob,
    extended_petz,
    generalized_smooth,
    petz_map,
    smoothed_global,
)
from .scenario import Scenario, classical_demo_scenario, demo_scenario
from .smoothers import (
    TrueStateBranch,
    build_clhs,
    build_custom,
    build_pf,
    build_prior,
    enumerate_bob_branches,
)
from .trajectory import (
    ConditionalOp,
    Instrument,
    JumpChannel,
    LindbladSpec,
    apply_conditional,
    discretize,
    enumerate_records,
    filter,
    retrofilter,
    sample_records,
)

__version__ = "0.1.0"
