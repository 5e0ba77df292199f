"""Sequential Monte-Carlo planning for tabular reinforcement learning.

Particle-filter planning with trust-region tilted proposals, terminal
state revival, per-atom ancestor backups, and search-based value
targets, trained in an outer expectation-maximization loop and verified
against exact enumeration oracles.
"""

from .backups import (
    accumulate_ancestor_q,
    group_ancestors,
    message_passing_policy,
    mix_value_target,
)
from .errors import (
    BudgetError,
    ConfigError,
    ContractError,
    DegenerateWeightsError,
    NumericalError,
    SupportError,
)
from .harness import ExperimentConfig, bootstrap_ci, run
from .mdp import (
    TabularMdp,
    Trajectory,
    builtin_mdp,
    enumerate_trajectories,
    make_absorbing_zero,
    make_chain,
    make_gridworld,
    make_two_arm,
    mdp_from_dict,
    step,
)
from .oracle import (
    SoftSolution,
    elbo_and_gap,
    exact_posterior_trajectories,
    optimal_policy,
    policy_value,
    posterior_policy_stages,
    root_action_marginal,
    soft_value_iteration,
)
from .planner import (
    ParticleSet,
    PlanTables,
    PlannerConfig,
    PlannerOutput,
    advance,
    dirac_policy,
    init_particles,
    multinomial_resample,
    plan_tables,
    run_planner,
    weight_update,
)
from .training import (
    LossConfig,
    Model,
    ReplayBuffer,
    Segment,
    TrainConfig,
    collect_segment,
    grad,
    loss,
    outer_targets,
    sgd_step,
    train,
)
from .trust_region import (
    TrustRegionSolution,
    adaptive_epsilon,
    greedy_row,
    solve_trust_region,
    trust_region_rows,
)

__version__ = "0.1.0"
