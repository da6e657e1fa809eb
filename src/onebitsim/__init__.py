"""One-bit distributed learning simulator.

Sensor networks that answer queries with at most one bit (optionally with
the right to abstain), the fusion rules that combine those answers, exact
centralized oracles to validate them against, and a Monte Carlo harness
that measures how the network risk approaches the optimal risk as the
network grows.
"""

__version__ = "0.1.0"

from .harness import (
    ExperimentConfig,
    ImpossibilityReport,
    RiskReport,
    RiskSample,
    evaluate_conditional_risk,
    impossibility_demo,
    run_sweep,
    train_network,
)
from .oracle import (
    VoteDistribution,
    exact_conditional_error_at_x,
    exact_vote_distribution,
    naive_kernel_classify,
)
from .predict import PredictionBatch, predict_batch
from .protocols import (
    PROTOCOLS,
    NetworkState,
    Response,
    Schedule,
    ScheduleVerdict,
    ScheduleViolationWarning,
    SensorState,
    schedule_eval,
    validate_schedule,
)
from .scenarios import (
    SCENARIO_IDS,
    Example,
    Scenario,
    make_scenario,
)
from .seeding import CoinSource, derive_seed, derived_rng
