"""Built-in example game construction."""

import numpy as np
import pytest

import stackmfg as s


def test_infection_kernel_frozen_probabilities(infection_spec):
    # all infected, do nothing, healthy node: infection probability q = 0.9
    row = infection_spec.follower_kernel([0.0, 1.0])[0, 0, 0, 0]
    assert row == pytest.approx([0.1, 0.9])
    # no infected: healthy is absorbing under do-nothing
    row = infection_spec.follower_kernel([1.0, 0.0])[0, 0, 0, 0]
    assert row == pytest.approx([1.0, 0.0])
    # repair always lands healthy
    row = infection_spec.follower_kernel([0.3, 0.7])[0, 1, 3, 1]
    assert row == pytest.approx([1.0, 0.0])
    # infected stays infected when waiting
    row = infection_spec.follower_kernel([0.3, 0.7])[0, 1, 3, 0]
    assert row == pytest.approx([0.0, 1.0])


def test_infection_rewards(infection_spec):
    prices = infection_spec.metadata["params"]["subsidy_grid"]
    assert prices[0] == 0.0 and prices[-1] == 1.0 and len(prices) == 21
    # infected + repair pays k plus the posted price
    r = infection_spec.follower_reward([0.5, 0.5])[0, 1, 20, 1]
    assert r == pytest.approx(-0.2 - 1.0)
    # leader: welfare + margin; everyone waits, price index 10 (=0.5)
    gf = np.array([[1.0, 0.0], [1.0, 0.0]])
    rl = infection_spec.leader_reward([0.5, 0.5], gf)[0, 10]
    assert rl == pytest.approx(-0.2 * 0.5 + (0.5 - 0.2))


def test_infection_param_invariants():
    with pytest.raises(ValueError):
        s.InfectionParams(q=1.5)
    with pytest.raises(ValueError):
        s.InfectionParams(k=-0.1)
    with pytest.raises(ValueError):
        s.InfectionParams(subsidy_grid=(0.0, 2.0))
    with pytest.raises(ValueError):
        s.InfectionParams(subsidy_grid=())


def test_tech_kernel_stickiness(tech_spec):
    p1 = tech_spec.metadata["params"]["p1"]
    p2 = tech_spec.metadata["params"]["p2"]
    # state 1 buying 1 flips with p1; buying -1 flips with p2
    assert tech_spec.follower_kernel([0.5, 0.5])[0, 1, 0, 1] == pytest.approx(
        [p1, 1 - p1])
    assert tech_spec.follower_kernel([0.5, 0.5])[0, 1, 0, 0] == pytest.approx(
        [p2, 1 - p2])


def test_tech_equal_flip_probabilities_lose_action_dependence():
    # Params require p1 < p2 strictly, so equality is rejected; the limit
    # property (action-independent preference evolution) is checked instead.
    with pytest.raises(ValueError):
        s.TechAdoptionParams(p1=0.3, p2=0.3)
    eps = 1e-9
    spec = s.build_tech_adoption_game(s.TechAdoptionParams(p1=0.3, p2=0.3 + eps))
    for xf in (0, 1):
        match = spec.follower_kernel([0.5, 0.5])[0, xf, 0, xf]
        differ = spec.follower_kernel([0.5, 0.5])[0, xf, 0, 1 - xf]
        assert np.max(np.abs(match - differ)) == pytest.approx(eps, rel=1e-6)


def test_tech_param_invariants():
    with pytest.raises(ValueError):
        s.TechAdoptionParams(p1=-0.1, p2=0.2)
    with pytest.raises(ValueError):
        s.TechAdoptionParams(p1=0.2, p2=0.6)


def test_tech_balanced_population_kills_externality(tech_spec):
    # At z=(0.5,0.5) the network term vanishes for both actions.
    for af in (0, 1):
        r_with = tech_spec.follower_reward([0.5, 0.5])[0, 1, 0, af]
        base = (1.0 if af == 1 else -1.0) * 1.0
        cost = (tech_spec.metadata["params"]["price_grid"][0] if af == 1
                else tech_spec.metadata["params"]["c_minus1"])
        assert r_with == pytest.approx(base - cost)


def test_tech_leader_revenue(tech_spec):
    prices = tech_spec.metadata["params"]["price_grid"]
    gf = np.array([[0.0, 1.0], [0.0, 1.0]])       # everyone buys product 1
    assert tech_spec.leader_reward([0.4, 0.6], gf)[0, 20] == pytest.approx(prices[20])
    gf = np.array([[1.0, 0.0], [0.0, 1.0]])       # only the preference-1 half buys
    assert tech_spec.leader_reward([0.4, 0.6], gf)[0, 20] == pytest.approx(
        prices[20] * 0.6)


@pytest.mark.parametrize("params", [
    s.InfectionParams(),
    s.InfectionParams(k=0.5, q=0.3, lam=0.1, delta=0.95),
    s.InfectionParams(subsidy_points=5, c_max=0.5),
])
def test_infection_validates(params):
    assert s.validate(s.build_infection_game(params),
                      grid_resolution=8, n_random=15).ok


@pytest.mark.parametrize("params", [
    s.TechAdoptionParams(),
    s.TechAdoptionParams(p1=0.05, p2=0.45, c_minus1=0.3),
    s.TechAdoptionParams(price_points=7),
])
def test_tech_validates(params):
    assert s.validate(s.build_tech_adoption_game(params),
                      grid_resolution=8, n_random=15).ok


def test_build_game_by_name():
    spec = s.build_game("infection", {"k": 0.3})
    assert spec.metadata["params"]["k"] == 0.3
    with pytest.raises(ValueError, match="nope"):
        s.build_game("nope")
    with pytest.raises(ValueError, match="bogus"):
        s.build_game("tech", {"bogus": 1})
