"""Vote mechanics: counting, phase legality, piecewise transition, payouts."""

from dataclasses import replace

import pytest

from civgame.game import (
    Action,
    IllegalActionError,
    RewardConfig,
    initial_state,
    legal_actions,
    reward,
)
from civgame.sovereign import (
    sovereign_legal_actions,
    sovereign_transition,
    is_vote_move,
    sovereign_reward,
    vote_count,
)

CFG = RewardConfig()
D, U = Action.DEFER, Action.UP


def at_vote(size=4, players=4):
    return replace(initial_state(size, players), move=players)


def test_vote_count():
    assert vote_count([D, D, U, D]) == 3
    assert vote_count([U, Action.DOWN, Action.LEFT, Action.RIGHT]) == 0
    assert vote_count([D, D]) == 2


def test_legal_actions_forced_phase():
    s = initial_state(4, 4)
    assert sovereign_legal_actions(s, 0, 3) == [D]


def test_legal_actions_vote_move_adds_defer():
    s = at_vote()
    for player in range(4):
        acts = sovereign_legal_actions(s, player, 0)
        assert acts == legal_actions(s, player) + [D]


def test_legal_actions_open_ordinary_is_base():
    s = initial_state(4, 4)
    base = legal_actions(s, 0)
    assert base == [Action.DOWN, Action.RIGHT]
    assert sovereign_legal_actions(s, 0, 0) == base


def test_vote_success_sets_flag_and_forces_defer():
    s = at_vote()
    s2, phase = sovereign_transition(s, [D, D, D, U], 0)
    assert s2.flag == 1
    assert s2.move == 0
    assert phase == 4
    assert s2.board == s.board and s2.invaded == s.invaded


def test_vote_failure_suppresses_defer():
    s = at_vote()
    s2, phase = sovereign_transition(s, [D, D, U, U], 0)
    assert s2.flag == -1
    assert s2.move == 0
    assert phase == 0


def test_vote_requires_full_ballot():
    s = at_vote()
    with pytest.raises(IllegalActionError):
        sovereign_transition(s, U, 0)
    with pytest.raises(IllegalActionError):
        sovereign_transition(s, [D, D], 0)


def test_forced_defer_turn_farms_and_stays():
    s = initial_state(4, 4)
    s = replace(s, invaded=(True, False, False, False))
    phase = 4
    assert reward(s, D, CFG) == 0  # farming only: no territory yet, no penalty
    s2, phase2 = sovereign_transition(s, D, phase)
    assert s2.board == s.board
    assert s2.invaded == (False, False, False, False)  # own flag still clears
    assert s2.move == 1
    assert phase2 == 3


def test_forced_phase_expires_into_open_at_vote():
    s = initial_state(2, 2)
    phase = 2
    s, phase = sovereign_transition(s, D, phase)
    assert phase == 1
    s, phase = sovereign_transition(s, D, phase)
    assert phase == 0
    assert is_vote_move(s)


def test_suppression_expires_at_next_vote():
    s = initial_state(2, 2)
    phase = 0
    with pytest.raises(IllegalActionError):
        sovereign_transition(s, D, phase)  # defer absent outside forced phase
    for _ in range(2):
        s, phase = sovereign_transition(s, legal_actions(s, s.move)[0], phase)
    assert is_vote_move(s)
    assert phase == 0


def test_move_counter_cycle_with_vote():
    """The move counter cycles through the vote move; at every step the
    forced count stays in 0..p, is 0 at each vote, and ordinary turns
    offer DEFER exactly while it is positive."""
    for players in (2, 3, 4):
        for ballot in (D, U):
            s = initial_state(4, players)
            phase = 0
            seen = []
            for _ in range(3 * (players + 1)):
                seen.append(s.move)
                assert 0 <= phase <= players
                if is_vote_move(s):
                    assert phase == 0
                    s, phase = sovereign_transition(s, [ballot] * players, phase)
                    continue
                legal = sovereign_legal_actions(s, s.move, phase)
                assert (D in legal) == (phase > 0)
                s, phase = sovereign_transition(s, legal[0], phase)
            assert seen == list(range(players + 1)) * 3


def test_sovereign_reward_payouts():
    s = at_vote()
    success = replace(s, flag=1)
    failure = replace(s, flag=-1)
    assert sovereign_reward(success, U, CFG) == 15  # bonus even without defer
    assert sovereign_reward(success, D, CFG) == 15
    assert sovereign_reward(failure, D, CFG) == -10
    assert sovereign_reward(failure, U, CFG) == 0
    assert sovereign_reward(replace(s, flag=0), D, CFG) == 0


def test_phase_constructors_validate():
    s = initial_state(4, 4)
    for forced in (-1, 5):
        with pytest.raises(ValueError):
            sovereign_legal_actions(s, 0, forced)
        with pytest.raises(ValueError):
            sovereign_transition(s, Action.DOWN, forced)
