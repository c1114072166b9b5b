"""Tabular Q-learning, the random baseline, and update broadcasting.

Each learner keeps its own Q-table keyed by encoded states; a row exists
only once a learning write has put a value in it. A learner with
broadcasting enabled shares the scalar increment of every update it
makes; the other players blend that increment into their own tables at
the position-swapped "in their shoes" state, so a lesson learned by one
player is felt by all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Iterable, Sequence

from .game import BOARD_OFFSET, Action, GameState, key_offsets, occupied_cell

# Not called here since select_action takes only keys; perfbench's tracer
# looks the name up in this module as a layer site (perfbench/sites.py).
from .game import encode_state  # noqa: F401

NUM_ACTIONS = len(Action)


@dataclass(frozen=True)
class Hyperparams:
    """Learning rate, discount, and the exploration schedule
    eps0 * eps_decay**t (see epsilon_at); each lies in [0, 1]."""

    alpha: float = 0.5
    gamma: float = 0.99
    eps0: float = 0.9
    eps_decay: float = 0.9999

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "eps0", "eps_decay"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


class AgentKind(Enum):
    QLEARNER = "qlearner"
    HQLEARNER = "hqlearner"
    RANDOM = "random"


def epsilon_at(t: int, hp: Hyperparams) -> float:
    """Annealed exploration probability eps0 * decay^t, no floor."""
    return hp.eps0 * hp.eps_decay**t


class QTable:
    """Map from encoded state to one value per action.

    A row exists once `blend` writes it; every read of a key without a
    row sees all zeros and leaves the table as it is.
    Unreinforced entries are therefore exact ties, and the uniform
    tie-breaking in select_action keeps unlearned choices stochastic.
    """

    def __init__(self) -> None:
        self.rows: dict[bytes, list[float]] = {}
        self.writes = 0

    def blend(self, key: bytes, action: Action, delta: float, alpha: float) -> None:
        """Core table write: Q <- (1 - alpha) * Q + delta."""
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0.0] * NUM_ACTIONS
        row[action] = (1.0 - alpha) * row[action] + delta
        self.writes += 1

    def __len__(self) -> int:
        return len(self.rows)


def select_action(
    q: QTable,
    key: bytes,
    legal: Sequence[Action],
    eps: float,
    rng: random.Random,
) -> Action:
    """Epsilon-greedy over the legal set, uniform tie-breaking on exploit.

    `key` is an encode_state key. Only reads the table: a key without a
    row reads as all zeros, so every legal action ties. Each call draws
    rng.random() once, then one index to explore or to break a tie among
    two or more actions. The index is drawn inline by the rejection loop
    of CPython's rng.randrange(n), so it equals randrange(n) and uses the
    same draws; tests/test_agents.py::test_select_action_matches_randrange
    pins this.
    """
    if not legal:
        raise ValueError("legal action set is empty")
    if rng.random() < eps:
        choices = legal
    else:
        row = q.rows.get(key)
        if row is None:
            choices = legal
        else:
            values = [row[a] for a in legal]
            best = max(values)
            choices = [a for a, v in zip(legal, values) if v == best]
        if len(choices) == 1:
            return choices[0]
    n = len(choices)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return choices[r]


def q_update(
    q: QTable,
    s_key: bytes,
    action: Action,
    r: float,
    s_next_key: bytes,
    legal_next: Sequence[Action],
    hp: Hyperparams,
) -> float:
    """Bellman update Q <- (1-a)Q + a(r + g max Q(s',.)); returns the increment.

    The max ranges over `legal_next`; a next key without a row reads as 0.
    """
    row = q.rows.get(s_next_key)
    best = 0.0 if row is None else max([row[a] for a in legal_next])
    alpha = hp.alpha
    delta = alpha * (r + hp.gamma * best)
    q.blend(s_key, action, delta, alpha)
    return delta


def ola_state(state: GameState, observer: int, mover: int) -> GameState:
    """Alternate-reality state putting `observer` in the mover's shoes.

    Board positions and invaded flags of the two players are swapped and
    the move is set to the observer; territory and everything else stay.
    """
    if observer == mover:
        raise ValueError("observer and mover must differ")
    board = bytearray(state.board)
    li = state.position(observer)
    lm = state.position(mover)
    board[li], board[lm] = occupied_cell(mover), occupied_cell(observer)
    invaded = list(state.invaded)
    invaded[observer], invaded[mover] = invaded[mover], invaded[observer]
    return replace(state, board=bytes(board), invaded=tuple(invaded), move=observer)


def ola_broadcast(
    tables: Sequence[QTable | None],
    key: bytes,
    cells: Sequence[int],
    action: Action,
    delta: float,
    mover: int,
    hp: Hyperparams,
) -> None:
    """Blend the mover's update increment into every other player's table.

    `key` is the encode_state key of the pre-move state, with `mover` to
    move, and `cells[j]` is seat j's board cell in that key (the board
    index of its occupied-cell byte). The cells are trusted, not looked
    up, so they must be the pre-move ones. Each observer's write lands at
    the key of ola_state(state, observer, mover), built on the bytes: the
    two players' position bytes and invaded bytes are swapped and the
    move byte names the observer. The mover's delta is blended verbatim
    (not recomputed). Entries of `tables` that are None (broadcasting
    disabled for that seat) are skipped.
    """
    invaded_at, move_at, _ = key_offsets(key[0], key[1])
    alpha = hp.alpha
    mover_at = BOARD_OFFSET + cells[mover]
    mover_flag_at = invaded_at + mover
    mover_cell = key[mover_at]
    mover_flag = key[mover_flag_at]
    swapped = bytearray(key)
    for i, table in enumerate(tables):
        if i == mover or table is None:
            continue
        at = BOARD_OFFSET + cells[i]
        flag_at = invaded_at + i
        cell, flag = key[at], key[flag_at]
        swapped[at] = mover_cell
        swapped[mover_at] = cell
        swapped[flag_at] = mover_flag
        swapped[mover_flag_at] = flag
        swapped[move_at] = i
        table.blend(bytes(swapped), action, delta, alpha)
        # back to the pre-move key for the next observer; the move byte
        # is set anew each time
        swapped[at] = cell
        swapped[mover_at] = mover_cell
        swapped[flag_at] = flag
        swapped[mover_flag_at] = mover_flag


def dump_qtable(q: QTable) -> str:
    """Serialize as `state-key-hex<TAB>action<TAB>value` lines, sorted."""
    lines = []
    for key, row in q.rows.items():
        hexkey = key.hex()
        for a in Action:
            lines.append(f"{hexkey}\t{a.name.lower()}\t{row[a]:.17g}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def load_qtable(lines: Iterable[str] | IO[str]) -> QTable:
    """Parse dump_qtable output."""
    by_name = {a.name.lower(): a for a in Action}
    q = QTable()
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        hexkey, name, value = line.split("\t")
        key = bytes.fromhex(hexkey)
        row = q.rows.setdefault(key, [0.0] * NUM_ACTIONS)
        row[by_name[name]] = float(value)
    return q
