"""Deterministic territory-game simulator with tabular learners.

Public surface: the base game (`game`), the sovereign vote variant
(`sovereign`), learning agents (`agents`), the experiment harness
(`experiment`), matrix-game analysis (`matrix`), and the CLI (`cli`).
"""

from .game import (
    Action,
    GameState,
    IllegalActionError,
    RewardConfig,
    count_states,
    encode_state,
    initial_state,
    legal_actions,
    move_dest,
    reward,
    transition,
)
from .sovereign import (
    sovereign_legal_actions,
    sovereign_transition,
    sovereign_reward,
    vote_count,
)
from .agents import (
    AgentKind,
    Hyperparams,
    QTable,
    dump_qtable,
    epsilon_at,
    ola_broadcast,
    ola_state,
    q_update,
    select_action,
)
from .experiment import (
    MetricsBin,
    RunConfig,
    Variant,
    run_game,
    run_trials,
)
from .matrix import (
    AnalysisConfig,
    DilemmaClass,
    PayoffMatrix,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentKind",
    "AnalysisConfig",
    "DilemmaClass",
    "GameState",
    "Hyperparams",
    "IllegalActionError",
    "MetricsBin",
    "PayoffMatrix",
    "QTable",
    "RewardConfig",
    "RunConfig",
    "Variant",
    "count_states",
    "dump_qtable",
    "encode_state",
    "epsilon_at",
    "sovereign_legal_actions",
    "sovereign_transition",
    "initial_state",
    "legal_actions",
    "move_dest",
    "ola_broadcast",
    "ola_state",
    "q_update",
    "reward",
    "run_game",
    "run_trials",
    "select_action",
    "sovereign_reward",
    "transition",
    "vote_count",
]
