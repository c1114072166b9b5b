"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8 and 9 run the full published experiment scale (250k-step
training, 100k-step matchups) and dominate the suite's runtime.
"""

import csv
import random
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from civgame.agents import (
    AgentKind,
    Hyperparams,
    QTable,
    ola_state,
    q_update,
)
from civgame.charts import render_csv
from civgame.cli import main
from civgame.experiment import (
    RunConfig,
    Variant,
    run_game,
    run_trials,
    trial_seed,
)
from civgame.game import (
    Action,
    RewardConfig,
    cell_owner,
    count_states,
    encode_state,
    initial_state,
    is_territory,
    legal_actions,
    move_dest,
    reward,
    territory_cell,
    transition,
)
from civgame.matrix import DilemmaClass, PayoffMatrix
from civgame.sovereign import sovereign_transition
from conftest import (
    LoggingQTable,
    enumerate_reachable,
    naive_reachable,
    to_naive,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_criterion_1_state_count_exactness():
    with criterion(1, "state-count exactness"):
        t0 = time.perf_counter()
        a = count_states(3, 2)
        b = count_states(4, 4)
        elapsed = time.perf_counter() - t0
        assert a == 6_912
        assert b == 67_092_480
        assert elapsed < 1e-3


def test_criterion_2_enumeration_closure_and_cross_check():
    with criterion(2, "enumeration oracle: closure + independent cross-check"):
        t0 = time.perf_counter()
        states = enumerate_reachable(3, 2)
        keys = {encode_state(s) for s in states}
        assert len(keys) == len(states)  # encoding is injective on the set
        # closed under every legal transition
        for s in states:
            for a in legal_actions(s, s.move):
                assert transition(s, a) in states
        # independent reimplementation agrees state-for-state
        assert {to_naive(s) for s in states} == naive_reachable(3, 2)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_enumeration_count_matches_formula():
    """Deliberately red: the closed-form count undercounts the game.

    The reachable 3x3/2-player set (41,502 states, verified by two
    independent implementations and closed under transition) cannot equal
    the formula's 6,912: territory ownership patterns alone exceed that.
    The assert is kept as stated in the acceptance criteria.
    """
    with criterion(2, "enumeration count == closed-form count"):
        assert len(enumerate_reachable(3, 2)) == count_states(3, 2)


def test_criterion_3_reward_oracle_equivalence():
    with criterion(3, "reward oracle equivalence on full enumeration"):
        cfg = RewardConfig()

        def naive_reward(s, a):
            # independent recomputation straight from the definitions
            mover = s.move
            terr = sum(1 for c in s.board if c == territory_cell(mover))
            if a == Action.DEFER:
                return terr
            invade = 0
            if a != Action.STAY:
                dest = move_dest(s.position(mover), a, s.size)
                c = s.board[dest]
                if is_territory(c) and cell_owner(c) != mover:
                    invade = 1
            invaded = 1 if s.invaded[mover] else 0
            return (
                terr
                + cfg.invasion_bonus * invade
                + cfg.invasion_penalty * invaded
            )

        mismatches = 0
        for s in enumerate_reachable(3, 2):
            for a in legal_actions(s, s.move):
                if reward(s, a, cfg) != naive_reward(s, a):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_4_bellman_identity():
    with criterion(4, "Bellman identity on 10,000 random tuples"):
        rng = random.Random(2024)
        q = QTable()
        for _ in range(10_000):
            key, nxt = rng.randbytes(8), rng.randbytes(8)
            a = Action(rng.randrange(6))
            old = rng.uniform(-100, 100)
            q.rows.setdefault(key, [0.0] * 6)[a] = old
            legal = [Action(j) for j in range(1 + rng.randrange(6))]
            vals = {}
            for b in legal:
                vals[b] = rng.uniform(-100, 100)
                q.rows.setdefault(nxt, [0.0] * 6)[b] = vals[b]
            r = rng.uniform(-40, 40)
            hp = Hyperparams(alpha=rng.random(), gamma=rng.random())
            q_update(q, key, a, r, nxt, legal, hp)
            want = (1 - hp.alpha) * old + hp.alpha * (r + hp.gamma * max(vals.values()))
            assert abs(q.rows[key][a] - want) < 1e-12


def test_criterion_5_ola_write_pattern():
    with criterion(5, "OLA write pattern: 4 writes per turn, swap keys, exact delta"):
        hp = Hyperparams()
        steps = 1_000
        cfg = RunConfig(
            size=4,
            total_steps=steps,
            bin_size=steps,
            trials=1,
            agent_kinds=(AgentKind.HQLEARNER,) * 4,
            seed=77,
            variant=Variant.BASE,  # every turn is an ordinary OLA turn
        )
        tables = [LoggingQTable() for _ in range(4)]
        run_game(cfg, 77, tables=tables)

        # every turn lands exactly one write in every table: its own update
        # for the mover, one broadcast blend for each of the 3 observers
        assert all(len(t.write_log) == steps for t in tables)
        assert sum(t.writes for t in tables) == 4 * steps

        # each step's mover is the state's, its action the mover's own
        # write; transition rejects an action that is not legal
        state = initial_state(4, 4)
        for k in range(steps):
            mover = state.move
            m_key, m_action, m_old, m_new, m_delta = tables[mover].write_log[k]
            assert m_key == encode_state(state)
            assert m_new == (1 - hp.alpha) * m_old + m_delta
            for i in range(4):
                if i == mover:
                    continue
                o_key, o_action, o_old, o_new, o_delta = tables[i].write_log[k]
                assert o_key == encode_state(ola_state(state, i, mover))
                assert o_action == m_action
                assert o_delta == m_delta  # the mover's increment, verbatim
                assert o_new == (1 - hp.alpha) * o_old + m_delta
            state = transition(state, m_action)


def test_criterion_6_vote_semantics_exhaustive():
    with criterion(6, "strict-majority vote semantics for p in {2,3,4}"):
        from itertools import product

        for players in (2, 3, 4):
            board = 4 if players < 4 else 4
            base = initial_state(board, players)
            vote_state = base.__class__(
                board=base.board,
                invaded=base.invaded,
                move=players,
                flag=0,
                size=base.size,
                players=players,
            )
            for ballots in product([Action.DEFER, Action.UP], repeat=players):
                count = sum(b is Action.DEFER for b in ballots)
                after, phase = sovereign_transition(vote_state, list(ballots), 0)
                succeeded = after.flag == 1
                assert succeeded == (count > players / 2)
                if players == 4:
                    assert succeeded == (count >= 3)
                if players == 2:
                    assert succeeded == (count == 2)


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "byte-identical CSVs for equal seeds, different otherwise"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "total_steps=2000\nbin=500\ntrials=2\nseed=3\n", encoding="utf-8"
        )
        outs = [tmp_path / n for n in ("r1", "r2", "r3")]
        assert main(["simulate", "--config", str(cfg), "--out", str(outs[0])]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(outs[1])]) == 0
        assert main(
            ["simulate", "--config", str(cfg), "--out", str(outs[2]), "--seed", "4"]
        ) == 0
        for name in ("learning_curve.csv", "actions.csv"):
            a = (outs[0] / name).read_bytes()
            assert a == (outs[1] / name).read_bytes()
            assert a != (outs[2] / name).read_bytes()
        # downstream SVG rendering stays deterministic too
        assert render_csv(str(outs[0] / "learning_curve.csv")) == render_csv(
            str(outs[1] / "learning_curve.csv")
        )


def standard_config(kind: AgentKind) -> RunConfig:
    return RunConfig(
        size=4,
        total_steps=250_000,
        bin_size=2_500,
        trials=3,
        agent_kinds=(kind,) * 4,
        rewards=RewardConfig(
            invasion_bonus=10, invasion_penalty=-25,
            vote_bonus=15, vote_penalty=-10,
        ),
        hp=Hyperparams(alpha=0.5, gamma=0.99, eps0=0.9, eps_decay=0.9999),
        seed=1,
        variant=Variant.SOVEREIGN,
        workers=2,
    )


def final_tenth(values_per_trial):
    """Pool the final 10% of bins across trials."""
    pooled = []
    for series in values_per_trial:
        cut = len(series) - len(series) // 10
        pooled.extend(series[cut:])
    return pooled


@pytest.mark.slow
def test_criterion_8_learning_reproduction():
    with criterion(8, "learning curves: random < 0, HQL > QL, invasions, defers"):
        t0 = time.perf_counter()
        summaries = {
            kind: run_trials(standard_config(kind))
            for kind in (AgentKind.RANDOM, AgentKind.QLEARNER, AgentKind.HQLEARNER)
        }
        elapsed = time.perf_counter() - t0

        # (a) random baseline: per-bin median CS average negative in >=90% of bins
        random_medians = [
            statistics.median(b.cs_avg for b in per_bin)
            for per_bin in zip(*summaries[AgentKind.RANDOM])
        ]
        negative = sum(1 for m in random_medians if m < 0)
        assert negative >= 0.9 * len(random_medians)

        # (b) HQL final-10% median CS average positive and above QL's
        hql_cs = statistics.median(
            final_tenth([[b.cs_avg for b in s] for s in summaries[AgentKind.HQLEARNER]])
        )
        ql_cs = statistics.median(
            final_tenth([[b.cs_avg for b in s] for s in summaries[AgentKind.QLEARNER]])
        )
        assert hql_cs > 0
        assert hql_cs > ql_cs

        # (c) HQL invasions per bin collapse
        hql_inv = statistics.median(
            final_tenth([[b.invasions for b in s] for s in summaries[AgentKind.HQLEARNER]])
        )
        assert hql_inv <= 2

        # (d) HQL successful defers >= 80% of vote opportunities
        opportunities = 2_500 // 5
        hql_sd = statistics.median(
            final_tenth(
                [[b.successful_defers for b in s] for s in summaries[AgentKind.HQLEARNER]]
            )
        )
        assert hql_sd >= 0.8 * opportunities

        assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_9_matrix_analysis_reproduction(tmp_path):
    """Partially red by design: two clauses fail.

    The first assert to fail is fear > 0 in >= 80% of trials: at seed 1
    it holds in 11 of 15. P and S are both about 1.0 point/step, so
    |fear| stays below 0.08 and its sign is within sampling noise.

    The |greed| <= 0.1 band fails as well, and cannot coexist with the
    clauses that hold (Stag Hunt fraction, |fear| <= 0.1, reference
    matrices): a genuinely cooperative policy farms ~3.5 points/step while
    any defecting-classified policy extracts only ~1.0 against it, so
    greed = T - R is structurally about -2.5. Tightening play until the
    band holds (all four payoffs equal up to noise) was measured to drop
    the Stag Hunt fraction to ~0.13. The asserts are kept exactly as
    specified.
    """
    # every other key at its default; results do not depend on workers
    config = tmp_path / "analyze.cfg"
    config.write_text("workers=2\n", encoding="utf-8")
    with criterion(9, "matrix game: fear-dominant, mostly Stag Hunt, small incentives"):
        assert main([
            "analyze", "--config", str(config), "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        with open(tmp_path / "matrix.csv", newline="", encoding="utf-8") as f:
            *trial_rows, aggregate = csv.DictReader(f)
        result = SimpleNamespace(
            per_trial=[
                SimpleNamespace(fear=float(row["fear"]), greed=float(row["greed"]))
                for row in trial_rows
            ],
            # the aggregate row carries the Stag Hunt fraction in its last column
            stag_hunt_fraction=float(aggregate["classification"]),
        )
        trials = result.per_trial
        assert len(trials) == 15

        fear_positive = sum(1 for m in trials if m.fear > 0)
        assert fear_positive >= 0.8 * len(trials)
        assert 0.4 <= result.stag_hunt_fraction <= 0.9
        for m in trials:
            assert abs(m.fear) <= 0.1
            assert abs(m.greed) <= 0.1

        # the two hand-specified reference matrices classify exactly
        sh = PayoffMatrix(R=4, P=1, S=0, T=3)
        pd_ = PayoffMatrix(R=3, P=1, S=0, T=4)
        assert sh.classification is DilemmaClass.STAG_HUNT
        assert pd_.classification is DilemmaClass.PRISONERS_DILEMMA


def test_criterion_10_metric_conservation():
    with criterion(10, "sum of bin scores equals total environment payout"):
        for variant in (Variant.BASE, Variant.SOVEREIGN):
            for kinds in (
                (AgentKind.HQLEARNER,) * 4,
                (AgentKind.QLEARNER, AgentKind.RANDOM, AgentKind.HQLEARNER,
                 AgentKind.QLEARNER),
            ):
                cfg = RunConfig(
                    size=4, total_steps=20_000, bin_size=2_000,
                    trials=1, agent_kinds=kinds, seed=5, variant=variant,
                )
                res = run_game(cfg, trial_seed(cfg.seed, 0))
                total = sum(res.rewards_per_player)
                assert isinstance(total, int)
                assert sum(b.cs_sum for b in res.bins) == total
