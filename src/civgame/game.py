"""Base Civilization Game: board state, legality, transition, and reward.

The game is a turn-based gridworld. Each player occupies one cell and
paints the cell it leaves with its own territory marker. Moving onto
another player's territory is an invasion: the invader takes the cell
and the victim's invaded flag is raised until the victim's next turn,
when the invasion penalty is collected. Farming (just moving around on
or near your own land) pays one point per owned cell on your turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterator


class IllegalActionError(ValueError):
    """An action was applied in a state where it is not legal."""


class Action(IntEnum):
    """Canonical action order; DEFER exists only in the sovereign variant."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4
    DEFER = 5


# Board cell codes, one byte per cell.
UNOWNED = 0
_TERR_BASE = 1  # territory of player i -> 1 + i
_OCC_BASE = 5  # player i standing on a cell -> 5 + i
MAX_PLAYERS = 4
MAX_BOARD_SIZE = 255  # the state key stores the board size in one byte


def territory_cell(player: int) -> int:
    return _TERR_BASE + player


def occupied_cell(player: int) -> int:
    return _OCC_BASE + player


def is_territory(cell: int) -> bool:
    return _TERR_BASE <= cell < _TERR_BASE + MAX_PLAYERS


def is_occupied(cell: int) -> bool:
    return cell >= _OCC_BASE


def cell_owner(cell: int) -> int:
    """Owner of a territory or occupied cell (undefined for UNOWNED)."""
    return cell - _OCC_BASE if cell >= _OCC_BASE else cell - _TERR_BASE


@dataclass(frozen=True, slots=True)
class GameState:
    """Full Markov state: board, invaded flags, move counter, sovereign flag.

    board is one byte per cell, row-major. flag is 0 in the base game and
    transiently +1/-1 inside a sovereign vote step.
    """

    board: bytes
    invaded: tuple[bool, ...]
    move: int
    flag: int
    size: int
    players: int

    def position(self, player: int) -> int:
        return self.board.index(_OCC_BASE + player)


@dataclass(frozen=True)
class RewardConfig:
    """Point values for invasions and (sovereign variant) vote outcomes."""

    invasion_bonus: int = 10
    invasion_penalty: int = -25
    vote_bonus: int = 15
    vote_penalty: int = -10

    def __post_init__(self) -> None:
        if not (self.invasion_penalty < 0 <= self.invasion_bonus):
            raise ValueError(
                "invasion_penalty must be negative and invasion_bonus non-negative"
            )
        if not self.fear_condition_holds():
            # reward sweeps vary this deliberately, so warn instead of reject
            warnings.warn(
                "invasion bonus is not outweighed by the invasion penalty; "
                "the fear incentive is absent",
                # past __post_init__ and the generated __init__ to the caller
                stacklevel=3,
            )

    def fear_condition_holds(self) -> bool:
        """True when being invaded hurts more than invading pays."""
        return abs(self.invasion_penalty) > self.invasion_bonus


def corner_cells(size: int, players: int) -> tuple[int, ...]:
    """Start corners in seat order: TL, TR, BL, BR; diagonal for 2 players."""
    b = size
    if players == 2:
        return (0, b * b - 1)
    return (0, b - 1, b * (b - 1), b * b - 1)[:players]


def initial_state(size: int, players: int) -> GameState:
    if size < 2:
        raise ValueError(f"board size must be >= 2, got {size}")
    if size > MAX_BOARD_SIZE:
        raise ValueError(
            f"board size must be <= {MAX_BOARD_SIZE}, since the state key "
            f"stores it in one byte; got {size}"
        )
    if not 1 <= players <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {players}")
    board = bytearray(size * size)
    for i, cell in enumerate(corner_cells(size, players)):
        board[cell] = _OCC_BASE + i
    return GameState(
        board=bytes(board),
        invaded=(False,) * players,
        move=0,
        flag=0,
        size=size,
        players=players,
    )


def _moves(loc: int, size: int) -> Iterator[tuple[Action, int]]:
    """Each on-board movement from cell `loc` and its destination, as
    (action, dest) in the canonical UP, DOWN, LEFT, RIGHT order. Left and
    right stop at the row edges even where the index arithmetic stays in
    range (no row wrap)."""
    col = loc % size
    if loc >= size:
        yield Action.UP, loc - size
    if loc < size * (size - 1):
        yield Action.DOWN, loc + size
    if col != 0:
        yield Action.LEFT, loc - 1
    if col != size - 1:
        yield Action.RIGHT, loc + 1


def move_dest(location: int, action: Action, size: int) -> int:
    """Destination cell of a movement action; STAY keeps the cell.

    Raises ValueError for DEFER and for a move off the board.
    """
    dests = {Action.STAY: location, **dict(_moves(location, size))}
    if action not in dests:
        raise ValueError(f"{action.name} is no board move from cell {location}")
    return dests[action]


def legal_actions(state: GameState, player: int) -> list[Action]:
    """On-board movement actions that avoid other players.

    STAY is a fallback only: legal exactly when nothing else is.
    """
    board = state.board
    acts = [
        a for a, dest in _moves(state.position(player), state.size)
        if not is_occupied(board[dest])
    ]
    return acts or [Action.STAY]


def apply_move(state: GameState, action: Action) -> tuple[bytes, tuple[bool, ...]]:
    """Board mechanics shared by both variants, for the mover state.move.

    Returns (new board, new invaded flags). Applies: relocate the mover,
    raise the victim's flag on invasion, paint the vacated cell (unless
    STAY), and clear the mover's own flag.
    """
    mover = state.move
    board = bytearray(state.board)
    invaded = list(state.invaded)
    if action != Action.STAY:
        loc = state.position(mover)
        dest = move_dest(loc, action, state.size)
        if is_invasion(state, action):
            invaded[cell_owner(board[dest])] = True
        board[dest] = _OCC_BASE + mover
        board[loc] = _TERR_BASE + mover
    invaded[mover] = False
    return bytes(board), tuple(invaded)


def transition(state: GameState, action: Action) -> GameState:
    """Deterministic base-game transition for the mover state.move."""
    if action not in legal_actions(state, state.move):
        raise IllegalActionError(
            f"{action.name} is not legal for player {state.move}"
        )
    board, invaded = apply_move(state, action)
    move = (state.move + 1) % state.players
    return replace(state, board=board, invaded=invaded, move=move)


def is_invasion(state: GameState, action: Action) -> bool:
    """Whether the mover's action lands on another player's territory."""
    if action in (Action.STAY, Action.DEFER):
        return False
    mover = state.move
    cell = state.board[move_dest(state.position(mover), action, state.size)]
    return is_territory(cell) and cell_owner(cell) != mover


def reward(
    state: GameState, action: Action, cfg: RewardConfig, player: int | None = None
) -> int:
    """Mover's reward for taking `action` from the pre-transition state.

    Farming pays one point per Territory cell (the occupied cell itself
    does not count), invading pays the bonus, and a raised invaded flag
    costs the penalty. A DEFER (sovereign forced turn) farms only.
    Asking about a non-mover always yields 0.
    """
    mover = state.move
    if player is not None and player != mover:
        return 0
    terr = state.board.count(_TERR_BASE + mover)
    if action == Action.DEFER:
        return terr
    r = terr
    if is_invasion(state, action):
        r += cfg.invasion_bonus
    if state.invaded[mover]:
        r += cfg.invasion_penalty
    return r


def count_states(size: int, players: int) -> int:
    """Closed-form state count b²!/(b²-p)! · bp(b-1) · 2p · p.

    Exact integer arithmetic; this is the nominal size of the base
    3-component state space, not the reachable-set size.
    """
    b, p = size, players
    if p > b * b:
        raise ValueError("more players than cells")
    placements = math.factorial(b * b) // math.factorial(b * b - p)
    return placements * (b * p * (b - 1)) * (2 * p) * p


# Byte offset of the first board cell in an encode_state key.
BOARD_OFFSET = 2


def key_offsets(size: int, players: int) -> tuple[int, int, int]:
    """Offsets of the first invaded byte, the move byte and the flag byte
    in an encode_state key."""
    invaded = BOARD_OFFSET + size * size
    return invaded, invaded + players, invaded + players + 1


def neighbours(size: int) -> tuple[dict[Action, int], ...]:
    """Per cell, each on-board movement mapped to its destination cell,
    in the order of _moves."""
    return tuple(dict(_moves(loc, size)) for loc in range(size * size))


def encode_state(state: GameState) -> bytes:
    """Canonical injective byte encoding, stable across runs and platforms.

    For n = size * size cells and p players the key is n + p + 4 bytes:

    - byte 0: size; byte 1: p;
    - bytes BOARD_OFFSET (2) to 2 + n - 1: the board cell codes, row-major;
    - bytes 2 + n to 2 + n + p - 1: the invaded flags (0 or 1) in seat order;
    - byte 2 + n + p: the move; byte 2 + n + p + 1: flag + 1.

    key_offsets gives the last three offsets. run_game steps this layout
    in place, and ola_broadcast builds its swapped keys from it at the
    seats' cells that run_game hands it.
    """
    return (
        bytes((state.size, state.players))
        + state.board
        + bytes(map(int, state.invaded))
        + bytes((state.move, state.flag + 1))
    )
