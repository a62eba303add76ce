"""Bandit-based seed scheduling for coverage-guided campaigns.

The package treats each coverage feature as a bandit arm with a
Beta-Bernoulli posterior, corrects scores for feature rareness, and
schedules the corpus input that is cheapest for the chosen feature.
Simulation environments, baselines, metrics, and an experiment runner
round out the library.
"""

from .bandit import (
    PosteriorState,
    Variant,
    compute_pbar,
    expected_phi,
    init_posterior,
    select_action,
    update_posterior,
)
from .coverage import (
    FavoredTable,
    GlobalCoverage,
    InputRecord,
    absorb,
    classify_interesting,
    selectable_features,
    update_favored,
)
from .errors import ConfigError, DimensionMismatch, EmptyCorpusError, SnapshotError
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    TrialSummary,
    load_config,
    parse_config,
    resume_experiment,
    run_experiment,
)
from .metrics import (
    OverheadSummary,
    auc,
    bootstrap_ci,
    consistency,
    coverage_timeline,
    mann_whitney_u,
    overhead_summary,
)
from .rng import SeededRng
from .schedulers import (
    SCHEDULER_NAMES,
    RoundRobinScheduler,
    Scheduler,
    TScheduler,
    UniformScheduler,
    make_scheduler,
)
from .simulator import (
    BernoulliArmsEnv,
    BernoulliTrialRunner,
    CfgTarget,
    Edge,
    FuzzCampaignRunner,
    TrialLog,
    load_target,
    replay_branch_demo,
    run_bandit_trial,
    run_fuzz_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bandit
    "PosteriorState",
    "Variant",
    "compute_pbar",
    "expected_phi",
    "init_posterior",
    "select_action",
    "update_posterior",
    # coverage
    "FavoredTable",
    "GlobalCoverage",
    "InputRecord",
    "absorb",
    "classify_interesting",
    "selectable_features",
    "update_favored",
    # errors
    "ConfigError",
    "DimensionMismatch",
    "EmptyCorpusError",
    "SnapshotError",
    # experiment
    "ExperimentConfig",
    "ExperimentResult",
    "TrialSummary",
    "load_config",
    "parse_config",
    "resume_experiment",
    "run_experiment",
    # metrics
    "OverheadSummary",
    "auc",
    "bootstrap_ci",
    "consistency",
    "coverage_timeline",
    "mann_whitney_u",
    "overhead_summary",
    # rng
    "SeededRng",
    # schedulers
    "SCHEDULER_NAMES",
    "RoundRobinScheduler",
    "Scheduler",
    "TScheduler",
    "UniformScheduler",
    "make_scheduler",
    # simulator
    "BernoulliArmsEnv",
    "BernoulliTrialRunner",
    "CfgTarget",
    "Edge",
    "FuzzCampaignRunner",
    "TrialLog",
    "load_target",
    "replay_branch_demo",
    "run_bandit_trial",
    "run_fuzz_campaign",
]
