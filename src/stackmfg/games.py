"""Built-in example games.

Two stationary discounted games with binary follower types and a leader who
has no private state but a discretized continuous control:

* an infection-spread game where the leader posts a repair price and wants
  welfare plus the net price margin, and
* a technology-adoption game where the leader prices one of two competing
  products under sticky user preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .game import GameSpec


def _constant(table: np.ndarray, Z) -> np.ndarray:
    """``table`` at every mean field of ``Z`` (..., n_f)."""
    return np.broadcast_to(table, np.shape(Z)[:-1] + table.shape).copy()


def _priced_game(prices, share: float, **fields) -> GameSpec:
    """A game with binary follower types whose leader has a single private
    state and posts a price from ``prices``; ``share`` is the initial
    fraction of follower type 1."""
    n_al = len(prices)
    return GameSpec(leader_states=("L",), leader_actions=tuple(f"{v:g}" for v in prices),
                    leader_kernel=lambda Z: np.ones(np.shape(Z)[:-1] + (1, n_al, 1)),
                    initial_leader_belief=np.array([1.0]),
                    initial_mean_field=np.array([1.0 - share, share]), **fields)


def _uniform_grid(high: float, n: int):
    if n < 1 or high < 0:
        raise ValueError("grid needs n >= 1 points on a nonnegative range")
    if n == 1:
        return (0.0,)
    return tuple(np.linspace(0.0, high, n))


@dataclass
class InfectionParams:
    """Parameters of the infection game.

    ``k`` is the per-stage cost of being infected, ``q`` scales the infection
    probability with the infected fraction, ``lam`` is the baseline repair
    cost, and ``c`` (defaulting to ``lam``) offsets the leader's price margin
    term.  The leader's repair price lives on ``subsidy_grid`` inside
    [0, c_max].
    """

    k: float = 0.2
    q: float = 0.9
    lam: float = 0.2
    delta: float = 0.9
    c: Optional[float] = None
    c_max: float = 1.0
    subsidy_points: int = 21
    subsidy_grid: Optional[tuple] = None
    horizon: Optional[int] = None
    initial_infected: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if self.k < 0 or self.lam < 0:
            raise ValueError("k and lam must be nonnegative")
        if self.c is None:
            self.c = self.lam
        if self.subsidy_grid is None:
            self.subsidy_grid = _uniform_grid(self.c_max, self.subsidy_points)
        self.subsidy_grid = tuple(float(v) for v in self.subsidy_grid)
        if not self.subsidy_grid:
            raise ValueError("subsidy grid must be nonempty")
        if min(self.subsidy_grid) < 0 or max(self.subsidy_grid) > self.c_max:
            raise ValueError("subsidy grid must lie inside [0, c_max]")
        if not 0.0 <= self.initial_infected <= 1.0:
            raise ValueError("initial infected fraction must lie in [0, 1]")


def build_infection_game(params: InfectionParams = None) -> GameSpec:
    """Infection game: states (healthy, infected), actions (wait, repair).

    Doing nothing keeps an infected node infected and infects a healthy one
    with probability q * z(infected); repairing returns the node to healthy
    surely but costs the posted price.  The leader reward is population
    welfare under the follower prescription plus (price - c).
    """
    p = params or InfectionParams()
    prices = np.array(p.subsidy_grid)
    k, q, c = p.k, p.q, p.c
    n_al = len(prices)
    # R^f(x^f, a^l, a^f) = -k x^f - price(a^l) a^f, whatever the mean field
    cost = -k * np.arange(2.0)[:, None, None] - prices[:, None] * np.arange(2.0)

    def follower_kernel(Z):
        Z = np.asarray(Z, dtype=np.float64)
        w = (q * Z[..., 1])[..., None, None]
        out = np.zeros(Z.shape[:-1] + (1, 2, n_al, 2, 2))
        out[..., 1, 0] = 1.0                  # repairing lands healthy
        out[..., 1, :, 0, 1] = 1.0            # an infected node that waits stays infected
        out[..., 0, :, 0, 0] = 1.0 - w        # a healthy one is infected w.p. q z(infected)
        out[..., 0, :, 0, 1] = w
        return out

    def follower_reward(Z):
        return _constant(cost[None], Z)

    def leader_reward(Z, Gf):
        Z, Gf = np.asarray(Z, dtype=np.float64), np.asarray(Gf, dtype=np.float64)
        welfare = 0.0
        for xf in range(2):
            for af in range(2):
                welfare = welfare + (Z[..., xf] * Gf[..., xf, af])[..., None] * cost[xf, :, af]
        return (welfare + (prices - c))[..., None, :]

    return _priced_game(
        prices, p.initial_infected, follower_states=("healthy", "infected"),
        follower_actions=("wait", "repair"), follower_kernel=follower_kernel,
        follower_reward=follower_reward, leader_reward=leader_reward,
        discount=p.delta, horizon=p.horizon, name="infection",
        metadata={"params": {"k": k, "q": q, "lam": p.lam, "c": c,
                             "delta": p.delta, "subsidy_grid": list(prices)}})


@dataclass
class TechAdoptionParams:
    """Parameters of the technology-adoption game.

    Preferences flip with probability ``p1`` when a user buys the product
    matching her preference and ``p2`` otherwise, with p1 < p2 < 1/2
    (stickiness).  ``c_minus1`` is the fixed competitor price; the leader's
    own price lives on ``price_grid``.
    """

    p1: float = 0.2
    p2: float = 0.4
    c_minus1: float = -1.0
    delta: float = 0.9
    c_max: float = 1.0
    price_points: int = 21
    price_grid: Optional[tuple] = None
    horizon: Optional[int] = None
    initial_adopters: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p1 < self.p2 < 0.5:
            raise ValueError(f"need 0 <= p1 < p2 < 0.5, got p1={self.p1}, p2={self.p2}")
        if self.price_grid is None:
            self.price_grid = _uniform_grid(self.c_max, self.price_points)
        self.price_grid = tuple(float(v) for v in self.price_grid)
        if not self.price_grid:
            raise ValueError("price grid must be nonempty")
        if not 0.0 <= self.initial_adopters <= 1.0:
            raise ValueError("initial adopter fraction must lie in [0, 1]")


def build_tech_adoption_game(params: TechAdoptionParams = None) -> GameSpec:
    """Adoption game: preference states (-1, 1), product choices (-1, 1).

    A user gets x*a for matching her preference, a network term
    (2 z(1) - 1)*a, and pays the chosen product's price.  The leader earns
    her price times the fraction buying product 1.  States and actions are
    ordered (-1, 1), so index 1 means preference/product 1.
    """
    p = params or TechAdoptionParams()
    prices = np.array(p.price_grid)
    vals = np.array([-1.0, 1.0])
    # Q^f(x^f, a^f, x'): the preference flips w.p. p1 after buying the
    # matching product and w.p. p2 otherwise
    flip = np.where(np.eye(2, dtype=bool), p.p1, p.p2)[..., None]
    kernel = np.where(np.eye(2, dtype=bool)[:, None], 1.0 - flip, flip)
    kernel = np.repeat(kernel[None, :, None], len(prices), axis=2)
    match = vals[:, None] * vals                                    # x * a
    cost = np.where(np.arange(2) == 1, prices[:, None], p.c_minus1)  # (a_l, a_f)

    def follower_kernel(Z):
        return _constant(kernel, Z)

    def follower_reward(Z):
        Z = np.asarray(Z, dtype=np.float64)
        network = (2.0 * Z[..., 1] - 1.0)[..., None, None, None] * vals
        return (match[:, None, :] + network - cost)[..., None, :, :, :]

    def leader_reward(Z, Gf):
        Z, Gf = np.asarray(Z, dtype=np.float64), np.asarray(Gf, dtype=np.float64)
        buying = Z[..., 1] * Gf[..., 1, 1] + Z[..., 0] * Gf[..., 0, 1]
        return (prices * buying[..., None])[..., None, :]

    return _priced_game(
        prices, p.initial_adopters, follower_states=("-1", "1"),
        follower_actions=("-1", "1"), follower_kernel=follower_kernel,
        follower_reward=follower_reward, leader_reward=leader_reward,
        discount=p.delta, horizon=p.horizon, name="tech",
        metadata={"params": {"p1": p.p1, "p2": p.p2, "c_minus1": p.c_minus1,
                             "delta": p.delta, "price_grid": list(prices)}})


BUILTIN_GAMES = {
    "infection": (InfectionParams, build_infection_game),
    "tech": (TechAdoptionParams, build_tech_adoption_game),
}


def build_game(name: str, overrides: Optional[dict] = None) -> GameSpec:
    """Build a named game with keyword parameter overrides, checked as the
    game file ``{"builtin": name, "params": overrides}`` is."""
    from .gamefile import load_game_dict    # gamefile imports BUILTIN_GAMES
    return load_game_dict({"builtin": name, "params": overrides or {}})
