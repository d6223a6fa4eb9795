"""Online allocation of reusable resources.

A laboratory for the finite-horizon rental problem: customers arrive
i.i.d., actions trigger stochastic rewards and stochastic consumption of
capacitated resources, and consumed units return after random durations.
The package provides the hard-capacity simulator, steady-state and
time-expanded planning LPs (with column generation for assortment-sized
action spaces), a shrunken-rate static policy, a multi-stage adaptive
policy built on multiplicative penalty weights, multinomial-logit demand
machinery, and an experiment harness with a CLI front end.
"""

from .model import (
    AlgoConfig,
    AssortmentActions,
    BadEpsilon,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    OutcomeModel,
    ResourceSpec,
    SurvivalCurve,
    duration_tail_cutoff,
    scale_parameter,
    stage_schedule,
    subsample_distribution,
    validate_instance,
    zero_outcomes,
)
from .lp import (
    DegenerateStage,
    IterationLimit,
    LinearProgram,
    LpSolution,
    NumericalBreakdown,
    StageEstimate,
    SteadyStateSolution,
    TooLarge,
    build_steady_state_lp,
    build_time_expanded_lp,
    dump_lp,
    plan_rates,
    solve_lp,
    solve_stage_lambda,
    solve_steady_state,
    solve_steady_state_colgen,
    solve_time_expanded,
)
from .mnl import (
    MnlModel,
    MnlOutcomes,
    best_assortment,
    build_mnl_instance,
    make_assortment_pricing,
)
from .sim import (
    CapacityViolation,
    Episode,
    EpisodeTrace,
    HorizonExceeded,
    StepOutcome,
    Streams,
    episode_streams,
    run_episode,
)
from .policy import (
    AdaptivePolicy,
    AlwaysNullPolicy,
    HybridPolicy,
    PenaltyWeights,
    StageRecord,
    StageTailRejector,
    StaticPolicy,
    UniformRandomPolicy,
    estimate_margin,
    init_penalty_weights,
    reward_margin,
    select_action,
    update_penalty_weights,
)
from .serialize import (
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    trace_to_jsonl,
)
from .harness import (
    Benchmarks,
    GeneratorSpec,
    SummaryRow,
    generate_instance,
    make_policy,
    run_experiment,
    run_trend,
    solve_benchmarks,
    trend_report,
    write_csv,
)

__version__ = "0.1.0"
