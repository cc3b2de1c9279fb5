"""warlab: a simulation and verification lab for war-style card games.

Three engines share one deck/state vocabulary and one seeded-stream
randomness contract:

- :mod:`warlab.pwar` - random-draw war with pluggable winning rules,
- :mod:`warlab.fwar` - top-card war with Bradley-Terry outcomes and
  strength-martingale tracking,
- :mod:`warlab.classic` - classic war with war rounds or coin-flip ties.

:mod:`warlab.exact` solves small instances exactly (absorbing-chain linear
systems, one-step uniformity preservation, martingale drifts, the counting
identity) and :mod:`warlab.stats` runs seeded parallel Monte Carlo with
summary statistics and chi-square fairness tests. The ``warlab`` command
line exposes simulate / exact / verify / reproduce.

numpy and scipy are imported inside the functions that use them, so
``import warlab`` and the Monte Carlo path load neither.
"""

__version__ = "0.1.0"

from .core import (
    DRAW,
    TRUNCATED,
    WINNER_A,
    WINNER_B,
    Card,
    Deck,
    GameState,
    RNG_ALGORITHM,
    RngStream,
    StrengthFunction,
    TrialRecord,
    WinningRule,
    build_deck,
    deal_uniform,
    validate_state,
)
from .rules import (
    RuleReport,
    rule_bradley_terry,
    rule_by_name,
    rule_coin,
    rule_greater,
    rule_greater_tiecoin,
    rule_max_holder,
    rule_powered,
    strength_builtin,
    strength_from_spec,
    validate_rule,
)
from .pwar import PwarConfig, pwar_run, pwar_step
from .fwar import (
    FwarConfig,
    FwarTrace,
    deal_iid,
    deal_strongest,
    fwar_run,
    fwar_step,
    shifted_iid_moments,
    strongest_deal_win_prob,
)
from .classic import (
    ClassicConfig,
    TiePolicy,
    aces_win_table,
    classic_run,
    classic_step,
    deal_top_rank_conditioned,
)
from .stats import (
    HistogramData,
    SampleStats,
    fairness_test,
    histogram,
    run_trials,
    summarize,
    summarize_records,
    win_frequency,
)
from . import exact
from .exact import (
    AbsorptionError,
    SolveResult,
    StateSpace,
    absorption_solve,
    average_uniform_hands,
    counting_identity,
    enumerate_fwar,
    enumerate_pwar,
    srw_oracle,
    strongest_deal_exact_win_prob,
    verify_martingales,
    verify_uniform_preservation,
)

__all__ = sorted(name for name in dir() if not name.startswith("_"))
