"""Average-reward finite-MDP learning: two-timescale critic-actor and
actor-critic with linear critics, exact oracles, and assumption validators."""

from .envs import (
    GarnetSpec,
    GridworldSpec,
    build_garnet,
    build_gridworld,
    four_state_easy,
    frozen_lake_4x4,
    load_mdp,
    save_mdp,
    tabular_policy,
)
from .errors import AvgrlError
from .features import AssumptionReport, FeatureMap, check_assumption2, make_features, matrix_A
from .learner import (
    RunConfig,
    Snapshot,
    StepSchedule,
    algo_schedule,
    run,
    run_batch,
    validate_schedule,
)
from .mdp import (
    FiniteMdp,
    PolicyChain,
    SoftmaxLinearPolicy,
    advantage_table,
    average_reward,
    differential_value,
    grad_stationary,
    induced_chain,
    policy_gradient,
    q_value,
    stationary_distribution,
)
from .oracles import (
    MixingProfile,
    actor_bias,
    actor_field_M,
    brute_force_optimum,
    critic_fixed_point,
    estimate_mixing,
    expected_critic_drift,
    lp_optimum,
    projected_bellman_residual,
)

__version__ = "0.1.0"
