"""JSON game-definition loading."""

import json

import numpy as np
import pytest

import stackmfg as s
from stackmfg.gamefile import load_game_dict, load_game_file

TINY_CONFIG = {
    "name": "tiny-demo",
    "follower_states": ["lo", "hi"],
    "leader_states": ["L"],
    "follower_actions": ["stay", "move"],
    "leader_actions": ["cheap", "dear"],
    "discount": 0.9,
    "horizon": 2,
    "initial_leader_belief": [1.0],
    "initial_mean_field": [0.5, 0.5],
    # deterministic: stay keeps the type, move flips it
    "follower_kernel": [[[[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                         [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]]],
    "leader_kernel": [[[1], [1]]],
    # affine-in-z entries on the move action; coupling kept weak so every
    # lattice point has a pure stage fixed point
    "follower_reward": [[[[0.3, {"const": 0.0, "z": [0.0, 0.05]}],
                          [0.3, {"const": -0.05, "z": [0.0, 0.05]}]],
                         [[{"const": 0.0, "z": [0.05, 0.0]}, 0.2],
                          [0.0, 0.15]]]],
    "leader_reward": [[{"const": 0.1, "z": [0.0, 0.2]},
                       {"const": 0.05, "z": [0.0, 0.3]}]],
    "initial_points": [{"pi": [1.0], "z": [0.5, 0.5]}],
}


def test_explicit_tables_load_and_validate():
    spec = load_game_dict(TINY_CONFIG)
    assert spec.follower_states == ("lo", "hi")
    assert spec.horizon == 2
    assert s.validate(spec, grid_resolution=4, n_random=10).ok


def test_affine_entries_evaluate():
    spec = load_game_dict(TINY_CONFIG)
    z = np.array([0.25, 0.75])
    # follower_reward[L][lo][cheap][move] = 0.05*z[1]
    assert spec.follower_reward(z)[0, 0, 0, 1] == pytest.approx(0.05 * 0.75)
    # leader_reward[L][cheap] = 0.1 + 0.2*z[1]
    gf = np.zeros((2, 2))
    assert spec.leader_reward(z, gf)[0, 0] == pytest.approx(0.1 + 0.2 * 0.75)


def test_welfare_flag_adds_population_term():
    cfg = dict(TINY_CONFIG)
    cfg["leader_reward_includes_welfare"] = True
    spec = load_game_dict(cfg)
    z = np.array([0.5, 0.5])
    gf = np.array([[1.0, 0.0], [0.0, 1.0]])
    base = load_game_dict(TINY_CONFIG).leader_reward(z, gf)[0, 1]
    welfare = sum(z[xf] * gf[xf, af] * spec.follower_reward(z)[0, xf, 1, af]
                  for xf in range(2) for af in range(2))
    assert spec.leader_reward(z, gf)[0, 1] == pytest.approx(base + welfare)


def test_builtin_config_form():
    spec = load_game_dict({"builtin": "tech", "params": {"p1": 0.1, "p2": 0.2}})
    assert spec.name == "tech"
    assert spec.metadata["params"]["p1"] == 0.1


def test_file_roundtrip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    spec = load_game_file(path)
    assert spec.name == "tiny-demo"
    assert s.spec_hash(spec) == s.spec_hash(load_game_dict(TINY_CONFIG))


def test_infinite_horizon_keyword():
    cfg = dict(TINY_CONFIG)
    cfg["horizon"] = "infinite"
    assert load_game_dict(cfg).horizon is None


def test_shape_errors_are_loud():
    cfg = dict(TINY_CONFIG)
    cfg["leader_kernel"] = [[[1]]]       # missing an action row
    with pytest.raises(ValueError):
        load_game_dict(cfg)
    cfg = dict(TINY_CONFIG)
    cfg["follower_reward"] = "nope"
    with pytest.raises(ValueError):
        load_game_dict(cfg)


def test_oracle_runs_on_config_game():
    spec = load_game_dict(TINY_CONFIG)
    game = s.TinyGame(spec)
    results = s.enumerate_smfe(game)
    assert results, "tiny demo game should have at least one equilibrium"


def test_shipped_sample_game_is_valid():
    from pathlib import Path
    sample = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"
    spec = load_game_file(sample)
    assert s.validate(spec, grid_resolution=4, n_random=10).ok
    assert s.TinyGame(spec)


@pytest.mark.parametrize("cfg, field", [
    ({"builtin": "tech", "params": {"bogus": 1}}, "bogus"),
    ({"builtin": "tech", "params": {"price_points": "abc"}}, "price_points"),
    ({"builtin": "tech", "params": {"price_points": 2.5}}, "price_points"),
    ({"builtin": "tech", "params": {"price_points": None}}, "price_points"),
    ({"builtin": "tech", "params": {"horizon": 2.5}}, "horizon"),
    ({"builtin": "tech", "params": {"price_grid": ["a"]}}, "price_grid"),
    ({"builtin": "infection", "params": {"k": "abc"}}, "k"),
    ({"builtin": "infection", "params": {"k": True}}, "k"),
    ({"builtin": "infection", "params": [1]}, "params"),
    (dict(TINY_CONFIG, follower_states=5), "follower_states"),
    (dict(TINY_CONFIG, horizon=2.5), "horizon"),
    (dict(TINY_CONFIG, horizon="2"), "horizon"),
    ([TINY_CONFIG], "object"),
])
def test_malformed_fields_raise_value_error_naming_them(cfg, field):
    """A field of the wrong type or an unknown parameter is a ValueError that
    names it, not a TypeError from deep inside the game builder, and a
    non-integral horizon is not truncated."""
    with pytest.raises(ValueError, match=field):
        load_game_dict(cfg)


def test_well_typed_overrides_still_load():
    spec = load_game_dict({"builtin": "tech", "params": {
        "price_points": 3.0, "horizon": None, "c_max": 1, "price_grid": [0, 0.5]}})
    assert spec.leader_actions == ("0", "0.5")
    assert spec.horizon is None
    assert load_game_dict(dict(TINY_CONFIG, horizon=3.0)).horizon == 3
