"""Exact solver for one-clock priced timed games.

Values are piecewise-affine functions of the clock with exact rational
breakpoints.  Simple games (all guards [0, 1], no resets) get optimal
strategies for both players; guarded reset-acyclic games are solved per
clock region through the pipeline in :mod:`ptgsolve.regions`.  Both
return one :class:`Solution`.
"""

from .exactmath import (
    INF,
    NEG_INF,
    Affine,
    CostFunction,
    concat,
    evaluate,
    format_value,
    parse_value,
)
from .model import (
    FINAL,
    MAX,
    MIN,
    Config,
    Game,
    GameSyntaxError,
    Guard,
    InternalError,
    Location,
    Region,
    Transition,
    ValidationError,
    check_sptg,
    make_game,
    parse_game,
    regions_of,
    serialize_game,
)
from .urgent import (
    InstantEvaluator,
    compile_game,
    iteration_bound,
)
from .solver import (
    BudgetExceeded,
    NonSPTG,
    Solution,
    solve,
)
from .strategy import (
    FPStrategy,
    Move,
    Play,
    SwitchingStrategy,
    play_out,
)
from .regions import (
    ResetCycle,
    build_region_game,
    check_reset_acyclic,
    solve_reset_acyclic,
)

__all__ = [
    "INF",
    "NEG_INF",
    "Affine",
    "CostFunction",
    "concat",
    "evaluate",
    "format_value",
    "parse_value",
    "FINAL",
    "MAX",
    "MIN",
    "Config",
    "Game",
    "GameSyntaxError",
    "Guard",
    "InternalError",
    "Location",
    "Region",
    "Transition",
    "ValidationError",
    "check_sptg",
    "make_game",
    "parse_game",
    "regions_of",
    "serialize_game",
    "InstantEvaluator",
    "compile_game",
    "iteration_bound",
    "BudgetExceeded",
    "NonSPTG",
    "Solution",
    "solve",
    "FPStrategy",
    "Move",
    "Play",
    "SwitchingStrategy",
    "play_out",
    "ResetCycle",
    "build_region_game",
    "check_reset_acyclic",
    "solve_reset_acyclic",
]
