"""Base game: placement, legality, transition, reward, counting, encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civgame.game import (
    Action,
    GameState,
    IllegalActionError,
    RewardConfig,
    UNOWNED,
    count_states,
    encode_state,
    initial_state,
    legal_actions,
    legal_tables,
    move_dest,
    neighbours,
    occupied_cell,
    reward,
    territory_cell,
    transition,
)
from conftest import enumerate_reachable


def put(state: GameState, cell: int, code: int) -> GameState:
    board = bytearray(state.board)
    board[cell] = code
    return GameState(
        board=bytes(board),
        invaded=state.invaded,
        move=state.move,
        flag=state.flag,
        size=state.size,
        players=state.players,
    )


def with_fields(state: GameState, **kw) -> GameState:
    from dataclasses import replace

    return replace(state, **kw)


# --- initial placement -----------------------------------------------------


def test_initial_corners_four_players():
    s = initial_state(4, 4)
    assert s.position(0) == 0
    assert s.position(1) == 3
    assert s.position(2) == 12
    assert s.position(3) == 15


def test_initial_corners_two_players_diagonal():
    s = initial_state(3, 2)
    assert s.position(0) == 0
    assert s.position(1) == 8


def test_initial_corners_three_players_small_board():
    s = initial_state(2, 3)
    assert (s.position(0), s.position(1), s.position(2)) == (0, 1, 2)


def test_initial_state_fields():
    s = initial_state(3, 2)
    assert s.invaded == (False, False)
    assert s.move == 0 and s.flag == 0
    assert all(c == UNOWNED for i, c in enumerate(s.board) if i not in (0, 8))


@pytest.mark.parametrize("size,players", [(1, 2), (3, 0), (3, 5)])
def test_initial_state_rejects_bad_config(size, players):
    with pytest.raises(ValueError):
        initial_state(size, players)


# --- movement arithmetic ---------------------------------------------------


@pytest.mark.parametrize(
    "loc,action,size,expected",
    [
        (5, Action.UP, 4, 1),
        (5, Action.LEFT, 4, 4),
        (5, Action.STAY, 4, 5),
        (5, Action.DOWN, 4, 9),
        (5, Action.RIGHT, 4, 6),
    ],
)
def test_move_dest(loc, action, size, expected):
    assert move_dest(loc, action, size) == expected


@pytest.mark.parametrize(
    "loc,action,size",
    [
        (5, Action.DEFER, 4),
        (3, Action.RIGHT, 4),  # index 4 is the next row's first cell
        (0, Action.UP, 4),  # index -4 would read from the board's end
    ],
    ids=["defer", "row_wrap", "off_top"],
)
def test_move_dest_rejects_non_moves(loc, action, size):
    with pytest.raises(ValueError):
        move_dest(loc, action, size)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(2, 8))
def test_neighbours_match_row_column_geometry(size):
    """Every cell's table entry is the row/column steps that stay on the
    board, in canonical order. Written with divmod rather than index
    arithmetic, so it checks the geometry that run_game and the GameState
    rules share."""
    steps = [
        (Action.UP, -1, 0),
        (Action.DOWN, 1, 0),
        (Action.LEFT, 0, -1),
        (Action.RIGHT, 0, 1),
    ]
    table = neighbours(size)
    assert len(table) == size * size
    for loc, dests in enumerate(table):
        row, col = divmod(loc, size)
        expected = [
            (a, (row + dr) * size + col + dc)
            for a, dr, dc in steps
            if 0 <= row + dr < size and 0 <= col + dc < size
        ]
        assert list(dests.items()) == expected


# --- legality ----------------------------------------------------------------


def test_corner_player_has_down_right():
    s = initial_state(4, 4)
    assert legal_actions(s, 0) == [Action.DOWN, Action.RIGHT]


def test_boxed_in_player_can_only_stay():
    s = initial_state(2, 3)  # P0@0, P1@1, P2@2: both P0 moves blocked
    assert legal_actions(s, 0) == [Action.STAY]


def test_no_row_wrap_for_left():
    s = initial_state(4, 2)
    # move P0 from 0 to 4 (column 0, row 1); index 4-1=3 is on the board
    # but on the previous row, so LEFT must be absent
    s = transition(s, Action.DOWN)
    assert s.position(0) == 4
    acts = legal_actions(s, 0)
    assert Action.LEFT not in acts
    assert Action.UP in acts and Action.DOWN in acts and Action.RIGHT in acts


def test_no_row_wrap_for_right():
    s = initial_state(4, 2)  # P1 at 15; move it up to 11 (column 3)
    s = with_fields(s, move=1)
    s = transition(s, Action.UP)
    assert s.position(1) == 11
    assert Action.RIGHT not in legal_actions(s, 1)


def test_stay_is_fallback_only():
    s = initial_state(4, 4)
    for player in range(4):
        assert Action.STAY not in legal_actions(s, player)


@pytest.mark.parametrize("size", range(2, 7))
def test_legal_tables_state_the_legality_rule(size):
    """For every cell and every subset of its occupied neighbours, the
    table's tuple is legal_actions on a state with those cells occupied.
    Every cell that is not a neighbour is occupied too, so a mask that reads
    beyond the neighbours finds no entry. Such a state seats more than
    four players, so the other cells hold the codes of seats 1 to 3 in
    turn: legal_actions reads only whether a neighbour is occupied."""
    nbr_shift, nbr_mask, legal_at = legal_tables(size)
    for cell, dests in enumerate(neighbours(size)):
        cells = list(dests.values())
        assert len(legal_at[cell]) == 2 ** len(cells)
        for subset in range(2 ** len(cells)):
            occupied = [
                d for d in range(size * size)
                if d != cell and (d not in cells or subset >> cells.index(d) & 1)
            ]
            occ = sum(1 << d for d in [cell, *occupied])
            mask = occ >> nbr_shift[cell] & nbr_mask[cell]
            board = bytearray(size * size)
            board[cell] = occupied_cell(0)
            for j, d in enumerate(occupied):
                board[d] = occupied_cell(1 + j % 3)
            state = GameState(bytes(board), (False,) * 4, 0, 0, size, 4)
            legal = legal_at[cell][mask]
            assert type(legal) is tuple
            assert list(legal) == legal_actions(state, 0)


# --- transition --------------------------------------------------------------


def test_first_move_paints_vacated_cell():
    s = initial_state(3, 2)
    s2 = transition(s, Action.RIGHT)
    assert s2.position(0) == 1
    assert s2.board[0] == territory_cell(0)
    assert s2.move == 1
    assert s2.invaded == (False, False)


def test_invasion_sets_victim_flag_and_transfers_cell():
    # P1 adjacent (right of) P0's territory, then steps onto it
    s = initial_state(4, 2)
    s = put(s, 5, territory_cell(0))
    s = put(put(s, 15, UNOWNED), 6, occupied_cell(1))
    s = with_fields(s, move=1)
    s2 = transition(s, Action.LEFT)
    assert s2.invaded == (True, False)
    assert s2.board[5] == occupied_cell(1)
    assert s2.board[6] == territory_cell(1)  # vacated cell painted
    # ownership transfers once the invader leaves
    s3 = transition(with_fields(s2, move=1), Action.LEFT)
    assert s3.board[5] == territory_cell(1)


def test_stay_clears_own_flag_and_leaves_board():
    s = initial_state(2, 3)
    s = with_fields(s, invaded=(True, False, False))
    s2 = transition(s, Action.STAY)
    assert s2.board == s.board
    assert s2.invaded == (False, False, False)
    assert s2.move == 1


def test_transition_rejects_illegal_action():
    s = initial_state(3, 2)
    with pytest.raises(IllegalActionError):
        transition(s, Action.UP)
    with pytest.raises(IllegalActionError):
        transition(s, Action.DEFER)


def test_move_counter_cycles():
    s = initial_state(2, 3)
    moves = []
    for _ in range(6):
        moves.append(s.move)
        s = transition(s, legal_actions(s, s.move)[0])
    assert moves == [0, 1, 2, 0, 1, 2]


# --- reward ------------------------------------------------------------------


CFG = RewardConfig()


def test_reward_farming_only():
    s = initial_state(4, 2)
    for cell in (1, 4, 5):
        s = put(s, cell, territory_cell(0))
    assert reward(s, Action.DOWN, CFG) == 3


def test_reward_invasion_bonus():
    s = initial_state(4, 2)
    for cell in (1, 2, 4, 5, 6, 8, 9):
        s = put(s, cell, territory_cell(0))
    s = put(s, 7, territory_cell(1))
    s = put(put(s, 0, territory_cell(0)), 3, occupied_cell(0))
    assert s.board.count(territory_cell(0)) == 8
    assert reward(s, Action.DOWN, CFG) == 8 + 10  # lands on P1's territory


def test_reward_invaded_penalty():
    s = initial_state(4, 2)
    for cell in (1, 4, 5):
        s = put(s, cell, territory_cell(0))
    s = with_fields(s, invaded=(True, False))
    assert reward(s, Action.DOWN, CFG) == 3 - 25


def test_reward_occupied_cell_does_not_count_as_territory():
    s = initial_state(4, 2)
    assert reward(s, Action.DOWN, CFG) == 0


def test_reward_config_validation_and_fear_condition():
    with pytest.raises(ValueError):
        RewardConfig(invasion_bonus=10, invasion_penalty=5)
    assert RewardConfig().fear_condition_holds()
    with pytest.warns(UserWarning, match="fear incentive") as record:
        cfg = RewardConfig(invasion_bonus=30, invasion_penalty=-25)
    assert not cfg.fear_condition_holds()
    # the warning names the line that built the config
    assert record[0].filename == __file__


# --- state counting ----------------------------------------------------------


def test_count_states_large_board_no_overflow():
    assert count_states(2, 1) == 16
    assert count_states(8, 4) > 0  # exact integer arithmetic, never overflows


# --- encoding ----------------------------------------------------------------


def test_encode_injective_on_field_changes():
    s = initial_state(3, 2)
    variants = [
        s,
        with_fields(s, move=1),
        with_fields(s, invaded=(True, False)),
        with_fields(s, invaded=(False, True)),
        with_fields(s, flag=1),
        with_fields(s, flag=-1),
        put(s, 4, territory_cell(0)),
        put(s, 4, territory_cell(1)),
    ]
    keys = {encode_state(v) for v in variants}
    assert len(keys) == len(variants)


def test_encode_stable_across_processes():
    import subprocess
    import sys

    code = (
        "from civgame.game import initial_state, encode_state;"
        "print(encode_state(initial_state(3, 2)).hex())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == encode_state(initial_state(3, 2)).hex()


# --- reachable-set enumeration ------------------------------------------------


def test_reachable_states_satisfy_structural_invariants():
    for s in enumerate_reachable(2, 2):
        for i in range(2):
            assert s.board.count(occupied_cell(i)) == 1
        assert 0 <= s.move < 2
        # previous mover's flag is always clear
        assert not s.invaded[(s.move - 1) % 2]
        assert len(encode_state(s)) == 2 + 4 + 2 + 2


# --- property tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 4),
    players=st.integers(1, 4),
    walk=st.lists(st.integers(0, 3), min_size=1, max_size=60),
)
def test_random_walks_preserve_invariants(size, players, walk):
    s = initial_state(size, players)
    owned_before = sum(1 for c in s.board if c != UNOWNED)
    for pick in walk:
        legal = legal_actions(s, s.move)
        mover = s.move
        s2 = transition(s, legal[pick % len(legal)])
        # determinism: same inputs give field-wise identical outputs
        assert transition(s, legal[pick % len(legal)]) == s2
        s = s2
        assert not s.invaded[mover]
        owned = sum(1 for c in s.board if c != UNOWNED)
        assert owned >= owned_before
        assert owned <= size * size
        owned_before = owned
        for i in range(players):
            assert s.board.count(occupied_cell(i)) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4))
def test_encode_roundtrip_distinctness(size, players):
    s = initial_state(size, players)
    t = transition(s, legal_actions(s, s.move)[0])
    assert encode_state(s) != encode_state(t)
    assert encode_state(s) == encode_state(initial_state(size, players))
