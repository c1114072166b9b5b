"""The names the tracer wraps, and the layers they are counted under."""

# Sites the tracer wraps (the name a caller looks up) -> the layer that
# does the work, named after the module that defines the function. The
# names are fixed here rather than read off the functions, so a metric
# keeps its name if a later change moves the code.
CLI_SITES = {
    "civgame.cli.load_config": "config.load_config",
    "civgame.cli.run_trials": "experiment.run_trials",
    "civgame.cli.train_policy": "matrix.train_policy",
    "civgame.cli.run_payoff_trials": "matrix.run_payoff_trials",
}
LAYER_SITES = {
    **CLI_SITES,
    "civgame.cli.write_learning_curve": "experiment.write_learning_curve",
    "civgame.cli.write_actions": "experiment.write_actions",
    "civgame.cli.write_matrix_csv": "matrix.write_matrix_csv",
    "civgame.cli.render_csv": "charts.render_csv",
    "civgame.experiment.run_game": "experiment.run_game",
    "civgame.experiment.legal_actions": "game.legal_actions",
    "civgame.experiment.transition": "game.transition",
    "civgame.experiment.reward": "game.reward",
    "civgame.experiment.is_invasion": "game.is_invasion",
    "civgame.experiment.encode_state": "game.encode_state",
    "civgame.experiment.sovereign_transition": "sovereign.sovereign_transition",
    "civgame.experiment.sovereign_legal_actions": "sovereign.sovereign_legal_actions",
    "civgame.experiment.sovereign_reward": "sovereign.sovereign_reward",
    "civgame.experiment.consume_flag": "sovereign.consume_flag",
    "civgame.experiment.select_action": "agents.select_action",
    "civgame.experiment.q_update": "agents.q_update",
    "civgame.experiment.ola_broadcast": "agents.ola_broadcast",
    "civgame.agents.ola_state": "agents.ola_state",
    "civgame.agents.encode_state": "game.encode_state",
    "civgame.sovereign.legal_actions": "game.legal_actions",
    "civgame.matrix.run_game": "experiment.run_game",
    "civgame.matrix.play_matchup": "matrix.play_matchup",
    "civgame.matrix.train_policy": "matrix.train_policy",
}
# select_action's second argument is the state key.
KEY_SITES = {"civgame.experiment.select_action": 1}
# run_game builds each learner's Q-table through this name.
TABLE_SITES = ("civgame.experiment.QTable",)
# Parentless calls whose time is the work phase that steps_per_s divides by.
WORK_LAYERS = ("experiment.run_trials", "matrix.train_policy",
               "matrix.run_payoff_trials")
# The frozen matchups of analyze run below this layer.
MATCHUPS = "matrix.run_payoff_trials"
