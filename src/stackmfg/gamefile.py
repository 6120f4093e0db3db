"""Game definitions from JSON config files.

Two forms are accepted: a named built-in with parameter overrides, or an
explicit game with dense kernel/reward tables whose entries may be affine in
the mean field.  An affine entry is ``{"const": c, "z": [w_0, ...]}``
meaning ``c + w @ z``; a bare number is a constant entry.

Table index orders (outer to inner):
  follower_kernel [x_l][x_f][a_l][a_f] -> row over next follower states
  leader_kernel   [x_l][a_l]           -> row over next leader states
  follower_reward [x_l][x_f][a_l][a_f] -> entry
  leader_reward   [x_l][a_l]           -> entry

Setting ``"leader_reward_includes_welfare": true`` adds the population
average of the follower reward under the follower prescription.
"""

from __future__ import annotations

import functools
import json
import typing
from pathlib import Path

import numpy as np

from .game import GameSpec
from .games import BUILTIN_GAMES


def _affine(entry, n_z, name, idx):
    if _is_number(entry):
        return float(entry), np.zeros(n_z)
    if isinstance(entry, dict):
        const, coef = entry.get("const", 0.0), entry.get("z", [0.0] * n_z)
        if not _is_number(const):
            raise ValueError(f"{name}{list(idx)}: affine entry const must be a number, "
                             f"got {const!r}")
        if not (isinstance(coef, list) and len(coef) == n_z and all(map(_is_number, coef))):
            raise ValueError(f"{name}{list(idx)}: affine entry z-coefficients must be "
                             f"{n_z} numbers, got {coef!r}")
        return float(const), np.asarray(coef, dtype=np.float64)
    raise ValueError(f"{name}{list(idx)}: table entry must be a number or an affine dict, "
                     f"got {entry!r}")


def _affine_table(nested, shape, n_z, name):
    const = np.zeros(shape)
    coef = np.zeros(shape + (n_z,))

    def fill(node, idx):
        if len(idx) == len(shape):
            c, w = _affine(node, n_z, name, idx)
            const[idx] = c
            coef[idx] = w
            return
        if not isinstance(node, list) or len(node) != shape[len(idx)]:
            raise ValueError(
                f"{name}: expected list of length {shape[len(idx)]} at depth {len(idx)}")
        for i, sub in enumerate(node):
            fill(sub, idx + (i,))

    fill(nested, ())
    return const, coef


def _affine_at(const, coef, Z, rows=False):
    """``const + coef @ z`` at every mean field ``z`` of ``Z`` (..., n_z), for
    entries that are numbers or, with ``rows``, kernel rows (coefficient
    matrices (n_row, n_z)).  ``np.matmul`` over the stacked entries makes the
    BLAS call of the per-entry ``coef[idx] @ z`` (a dot product, or a
    matrix-vector product), so each value keeps the bits of that expression."""
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    mat = coef if rows else coef[..., None, :]
    col = Z.reshape(Z.shape[:-1] + (1,) * (mat.ndim - 2) + (Z.shape[-1], 1))
    prod = np.matmul(mat, col)[..., 0]
    return const + (prod if rows else prod[..., 0])


def _as_labels(raw, name):
    if not (isinstance(raw, list) and raw):
        raise ValueError(f"{name} must be a nonempty list, got {raw!r}")
    return tuple(str(v) for v in raw)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value, name) -> int:
    if not (_is_number(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, name) -> np.ndarray:
    if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return np.asarray(value, dtype=np.float64)


_KIND_NAMES = {int: "an integer", float: "a number", tuple: "a list of numbers",
               type(None): "null"}


@functools.cache
def _param_kinds(params_cls) -> dict:
    """The types each parameter of a built-in game may take, by name."""
    return {key: typing.get_args(hint) or (hint,)
            for key, hint in typing.get_type_hints(params_cls).items()}


def _builtin_params(params_cls, params) -> dict:
    """Overrides of a built-in game's parameters, checked against their types."""
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    out = {}
    for key, value in params.items():
        kinds = _param_kinds(params_cls).get(key)
        if kinds is None:
            raise ValueError(f"unknown parameter {key!r}; "
                             f"expected one of {list(_param_kinds(params_cls))}")
        if int in kinds and value is not None:
            value = _integer(value, f"parameter {key!r}")
        elif not (value is None and type(None) in kinds
                  or float in kinds and _is_number(value)
                  or tuple in kinds and isinstance(value, list) and all(map(_is_number, value))):
            raise ValueError(f"parameter {key!r} must be "
                             f"{' or '.join(_KIND_NAMES[k] for k in kinds)}, got {value!r}")
        out[key] = value
    return out


_REQUIRED_FIELDS = ("follower_states", "leader_states", "follower_actions", "leader_actions",
                   "follower_kernel", "leader_kernel", "follower_reward", "leader_reward",
                   "discount", "initial_leader_belief", "initial_mean_field")


def load_game_dict(cfg: dict) -> GameSpec:
    """Build a GameSpec from a parsed config dictionary."""
    if not isinstance(cfg, dict):
        raise ValueError(f"a game definition must be an object, got {cfg!r}")
    if "builtin" in cfg:
        name = cfg["builtin"]
        if not isinstance(name, str) or name not in BUILTIN_GAMES:
            raise ValueError(f"unknown builtin game {name!r}; "
                             f"available: {sorted(BUILTIN_GAMES)}")
        params_cls, builder = BUILTIN_GAMES[name]
        spec = builder(params_cls(**_builtin_params(params_cls, cfg.get("params", {}))))
        spec.metadata["config"] = cfg
        return spec

    missing = [key for key in _REQUIRED_FIELDS if key not in cfg]
    if missing:
        raise ValueError(f"game definition lacks required field(s): {', '.join(missing)}")
    follower_states = _as_labels(cfg["follower_states"], "follower_states")
    leader_states = _as_labels(cfg["leader_states"], "leader_states")
    follower_actions = _as_labels(cfg["follower_actions"], "follower_actions")
    leader_actions = _as_labels(cfg["leader_actions"], "leader_actions")
    n_f, n_l = len(follower_states), len(leader_states)
    n_af, n_al = len(follower_actions), len(leader_actions)

    fk_c, fk_w = _affine_table(cfg["follower_kernel"],
                               (n_l, n_f, n_al, n_af, n_f), n_f, "follower_kernel")
    lk_c, lk_w = _affine_table(cfg["leader_kernel"],
                               (n_l, n_al, n_l), n_f, "leader_kernel")
    fr_c, fr_w = _affine_table(cfg["follower_reward"],
                               (n_l, n_f, n_al, n_af), n_f, "follower_reward")
    lr_c, lr_w = _affine_table(cfg["leader_reward"],
                               (n_l, n_al), n_f, "leader_reward")
    welfare = cfg.get("leader_reward_includes_welfare", False)
    if not isinstance(welfare, bool):
        raise ValueError(f"leader_reward_includes_welfare must be true or false, got {welfare!r}")
    if not _is_number(cfg["discount"]):
        raise ValueError(f"discount must be a number, got {cfg['discount']!r}")

    def leader_reward(Z, Gf):
        Z, Gf = np.asarray(Z, dtype=np.float64), np.asarray(Gf, dtype=np.float64)
        total = _affine_at(lr_c, lr_w, Z)
        if welfare:
            rf = _affine_at(fr_c, fr_w, Z)
            for xf in range(n_f):
                for af in range(n_af):
                    total = total + ((Z[..., xf] * Gf[..., xf, af])[..., None, None]
                                     * rf[..., :, xf, :, af])
        batch = np.broadcast_shapes(Z.shape[:-1], Gf.shape[:-2])
        return np.broadcast_to(total, batch + total.shape[-2:]).copy()

    horizon = cfg.get("horizon")
    horizon = None if horizon in ("infinite", None) else _integer(horizon, "horizon")

    return GameSpec(
        follower_states=follower_states,
        leader_states=leader_states,
        follower_actions=follower_actions,
        leader_actions=leader_actions,
        leader_kernel=lambda Z: _affine_at(lk_c, lk_w, Z, rows=True),
        follower_kernel=lambda Z: _affine_at(fk_c, fk_w, Z, rows=True),
        follower_reward=lambda Z: _affine_at(fr_c, fr_w, Z),
        leader_reward=leader_reward,
        discount=float(cfg["discount"]),
        horizon=horizon,
        initial_leader_belief=_numbers(cfg["initial_leader_belief"], "initial_leader_belief"),
        initial_mean_field=_numbers(cfg["initial_mean_field"], "initial_mean_field"),
        name=str(cfg.get("name", "config-game")),
        metadata={"config": cfg},
    )


def load_game_file(path) -> GameSpec:
    """Load a game definition from a JSON file."""
    cfg = json.loads(Path(path).read_text())
    return load_game_dict(cfg)
