"""Sovereign variant: the vote move, defer mechanics, and vote rewards.

The move counter gains an extra value m = p, on which all players cast a
ballot simultaneously. A strict majority of DEFER ballots installs the
sovereign for one cycle: everyone is forced to defer (stay put and farm)
for the next p turns and everyone collects the vote bonus. A failed vote
fines the players who were duped into deferring. Ordinary turns offer
DEFER only inside a forced cycle. The phase between votes is `forced`,
the count of forced-defer turns left (0: open).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .game import (
    Action,
    GameState,
    IllegalActionError,
    RewardConfig,
    apply_move,
    legal_actions,
)


def is_vote_move(state: GameState) -> bool:
    return state.move == state.players


def vote_count(ballots: Sequence[Action]) -> int:
    return list(ballots).count(Action.DEFER)


def vote_succeeds(ballots: Sequence[Action], players: int) -> bool:
    """Strict majority: more than half of all seats must defer."""
    return vote_count(ballots) * 2 > players


def _check_forced(state: GameState, forced: int) -> None:
    if not 0 <= forced <= state.players:
        raise ValueError(f"forced must be in 0..{state.players}, got {forced}")


def sovereign_legal_actions(
    state: GameState, player: int, forced: int
) -> list[Action]:
    """Legal set in the sovereign variant.

    At the vote move the ballot is the base set plus DEFER (a forced
    cycle has always expired by then). On ordinary moves a forced cycle
    allows only DEFER and an open phase the base set.
    """
    _check_forced(state, forced)
    if is_vote_move(state):
        return legal_actions(state, player) + [Action.DEFER]
    if forced:
        return [Action.DEFER]
    return legal_actions(state, player)


def sovereign_transition(
    state: GameState,
    action_or_ballots: Action | Sequence[Action],
    forced: int,
) -> tuple[GameState, int]:
    """Piecewise transition: ballots at the vote move, one action otherwise.

    The forced count becomes p after a passed vote, 0 after a failed one,
    and one less (at least 0) after an ordinary move. A vote leaves the
    board and invaded flags untouched, sets the sovereign flag to +1/-1,
    and resets the move to player 0. The flag only carries the outcome
    to the payout step; consume_flag zeroes it once the rewards have
    been disbursed. DEFER on an ordinary move is played as a STAY: the
    mover keeps its cell and farms.
    """
    _check_forced(state, forced)
    p = state.players
    if is_vote_move(state):
        if isinstance(action_or_ballots, Action):
            raise IllegalActionError("vote move requires a full ballot")
        ballots = list(action_or_ballots)
        if len(ballots) != p:
            raise IllegalActionError(
                f"ballot must have {p} entries, got {len(ballots)}"
            )
        if vote_succeeds(ballots, p):
            return replace(state, flag=1, move=0), p
        return replace(state, flag=-1, move=0), 0

    if not isinstance(action_or_ballots, Action):
        raise IllegalActionError("ordinary move takes a single action")
    action = action_or_ballots
    if action not in sovereign_legal_actions(state, state.move, forced):
        raise IllegalActionError(
            f"{action.name} is not legal for player {state.move}"
        )

    board, invaded = apply_move(
        state, Action.STAY if action == Action.DEFER else action
    )
    next_state = replace(
        state, board=board, invaded=invaded, move=(state.move + 1) % (p + 1)
    )
    return next_state, max(forced - 1, 0)


def consume_flag(state: GameState) -> GameState:
    """Zero the sovereign flag once the vote payouts have been made."""
    return replace(state, flag=0) if state.flag else state


def sovereign_reward(state: GameState, action: Action, cfg: RewardConfig) -> int:
    """Per-player vote payout, read off the freshly set sovereign flag.

    Success pays the bonus to everyone, defer ballot or not; failure
    fines only the defer voters. Paid once, at the vote move itself.
    """
    if state.flag == 1:
        return cfg.vote_bonus
    if state.flag == -1 and action == Action.DEFER:
        return cfg.vote_penalty
    return 0
